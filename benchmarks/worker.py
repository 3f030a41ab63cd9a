"""Run one workload in this interpreter and print its result as JSON.

    PYTHONPATH=src python3 benchmarks/worker.py --workload NAME --seed N \
        --seconds S --trace 0|1

``run.py`` starts this in a fresh child interpreter for each run.  It
analyses one untimed warm-up batch, then runs the workload closed loop, one
program at a time, until the analyzer has been busy for ``--seconds`` and at
least ``MIN_VERDICTS`` verdicts are in.  With ``--trace 0`` it also analyses
the workload's oversize instance under a short budget, ``PROBES`` times
spread over the run, and reports the median overrun.  With ``--trace 1``
it analyses each instance twice, untraced and then with spans installed,
checks that the two results are byte-identical, and reports the
per-module metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from leakcheck import ir, leakage, repair
from leakcheck.events import AnalysisTimeout

import spans
import speed
from workloads import WORKLOADS, Instance, Probe

TIMEOUT_S = 60.0  # the CLI's default --timeout
MIN_VERDICTS = 100  # for a 90th percentile with ten samples beyond it
MAX_SECONDS_FACTOR = 3  # give up on MIN_VERDICTS after this many --seconds
PROBES = 24
TRACE_DIR = Path(".bench_out")


def verdict(inst: Instance, tracer: spans.Tracer | None = None,
            budget: float = TIMEOUT_S):
    """Parse one program and bring it to a verdict: a Report or RepairPlan.

    The deadline is set after parsing, as the CLI sets it.
    """
    if tracer is None:
        prog = ir.parse(inst.text)
        config = inst.engine_config(budget)
        if inst.mode == "repair":
            return repair.repair(prog, inst.engine, config)
        return leakage.analyze(prog, inst.engine, config)
    with tracer.span("verdict"):
        prog = tracer.call("ir.parse", ir.parse, (inst.text,),
                           count=spans.count_program)
        config = inst.engine_config(budget)
        if inst.mode == "repair":
            return tracer.call("repair.repair", repair.repair,
                               (prog, inst.engine, config),
                               count=spans.count_plan)
        return leakage.analyze(prog, inst.engine, config)


def render(result) -> str:
    """Everything a verdict reports, as text, for byte-for-byte comparison."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    if isinstance(result, repair.RepairPlan):
        lines = [f"FENCE {fp}" for fp in result.fences]
        lines += [f"RESIDUAL {r.line()}" for r in result.residual]
        lines += [f"UNREPAIRABLE {r.line()}" for r in result.unrepairable]
        lines.append(f"{result.success} {result.iterations} {result.minimal}")
        lines.append(ir.pretty(result.program))
        return "\n".join(lines)
    lines = result.lines()
    lines += [f"ELEMENT {sorted(e.points)} {e.record.line()}"
              for e in result.elements]
    lines += [f"UNREPAIRABLE {r.line()}" for r in result.unrepairable]
    lines.append(f"{result.structures} {result.candidates}")
    return "\n".join(lines)


class Loop:
    """Closed-loop runs of a workload's instances with their checks.

    With a tracer, every step analyses the instance untraced and then
    traced, so both passes see the same machine conditions, and checks that
    the two results are byte-identical.  ``busy`` is the wall seconds of
    both passes, which decides when a run ends; ``cpu`` and ``cpu_traced``
    are the raw CPU seconds of the untraced and traced passes.
    """

    def __init__(self, tracer: spans.Tracer | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer
        self.busy = 0.0
        self.cpu = 0.0
        self.cpu_traced = 0.0
        self.references: list[float] = []

    def run(self, inst: Instance, tracer: spans.Tracer | None = None):
        """(result or exception, wall seconds, CPU seconds); checks the
        result untimed."""
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = verdict(inst, tracer)
        except Exception as exc:  # a failed verdict; keep measuring
            result = exc
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        problem = (f"raised {render(result)}" if isinstance(result, Exception)
                   else inst.check(result))
        if problem:
            self.failed += 1
            print(f"FAIL {inst.name}: {problem}", file=sys.stderr)
        return result, wall, cpu

    def step(self, inst: Instance) -> float:
        """The untraced CPU seconds of one instance."""
        result, wall, cpu = self.run(inst)
        self.busy += wall
        self.cpu += cpu
        if self.tracer is not None:
            with self.tracer.installed():
                traced, wall, traced_cpu = self.run(inst, self.tracer)
            self.busy += wall
            self.cpu_traced += traced_cpu
            if render(traced) != render(result):
                self.failed += 1
                print(f"FAIL {inst.name}: traced records differ",
                      file=sys.stderr)
        return cpu

    def timed(self, batches, seconds: float, min_verdicts: int,
              times: list[float]) -> None:
        """Run whole batches until busy for ``seconds`` with ``times``
        holding ``min_verdicts`` (or the analyzer is far too slow for that).
        Host speed is sampled between batches, and ``times`` gets each
        batch's untraced CPU seconds scaled by the mean of the samples on
        either side of it (see speed.py).  Nothing else is retained, so peak
        memory does not grow with the number of verdicts.
        """
        before = speed.sample()
        for batch in batches:
            raw = [self.step(inst) for inst in batch]
            after = speed.sample()
            reference = (before + after) / 2
            self.references.append(reference)
            times.extend(speed.scale(t, reference) for t in raw)
            before = after
            if self.busy >= seconds and len(times) >= min_verdicts:
                return
            if self.busy >= seconds * MAX_SECONDS_FACTOR:
                return


def overrun(probe: Probe) -> float:
    """CPU seconds the analyzer spends past its deadline before it hands
    control back, scaled by the mean of host speed samples taken just
    before and after.

    A timer thread reads the process's CPU clock when the deadline passes;
    the analyzer's thread holds the GIL meanwhile, so the reading can come
    up to one switch interval (5 ms) late.
    """
    before = speed.sample()
    inst = probe.instance
    prog = ir.parse(inst.text)
    config = inst.engine_config(probe.budget)
    at_deadline: list[float] = []
    timer = threading.Timer(config.deadline - time.monotonic(),
                            lambda: at_deadline.append(time.process_time()))
    timer.start()
    try:
        if inst.mode == "repair":
            repair.repair(prog, inst.engine, config)
        else:
            leakage.analyze(prog, inst.engine, config)
    except AnalysisTimeout:
        pass
    end = time.process_time()
    if time.monotonic() < config.deadline:
        timer.cancel()
    timer.join()
    late = max(0.0, end - at_deadline[0]) if at_deadline else 0.0
    return speed.scale(late, (before + speed.sample()) / 2)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _warmed_up(name: str, seed: int, tracer: spans.Tracer | None = None):
    """The workload's batches and a Loop that has run the first batch."""
    batches = WORKLOADS[name].batches(seed)
    loop = Loop(tracer)
    speed.sample()
    for inst in next(batches):
        loop.run(inst)
    return batches, loop


def measure(name: str, seed: int, seconds: float) -> dict:
    batches, loop = _warmed_up(name, seed)
    # The probes are spread over the run, so that they sample the same
    # machine conditions as the verdicts; peak RSS is read before the first
    # one, so it is the workload's own.
    probe = WORKLOADS[name].probe(seed)
    times: list[float] = []
    overruns = []
    for k in range(1, PROBES + 1):
        loop.timed(batches, seconds * k / PROBES, MIN_VERDICTS * k // PROBES,
                   times)
        if k == 1:
            rusage = resource.getrusage(resource.RUSAGE_SELF)
            peak_rss_mb = rusage.ru_maxrss / 1024
        overruns.append(overrun(probe))
    ms = [t * 1000 for t in times]
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "verdicts_per_s": len(times) / sum(times),
            "verdict_ms_p50": statistics.median(ms),
            "verdict_ms_p90": percentile(ms, 90),
            "peak_rss_mb": peak_rss_mb,
            "timeout_overrun_s": statistics.median(overruns),
        },
        "notes": {"verdicts": len(times), "overruns_s": overruns,
                  "raw_cpu_s": loop.cpu,
                  "reference_ms": statistics.median(loop.references) * 1000},
    }


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    tracer = spans.Tracer()
    batches, loop = _warmed_up(name, seed, tracer)
    times: list[float] = []
    loop.timed(batches, seconds, MIN_VERDICTS, times)
    tracer.write(TRACE_DIR / f"trace-{name}.json")
    metrics = spans.module_metrics(tracer, len(times))
    metrics["trace.overhead"] = loop.cpu_traced / loop.cpu
    metrics["trace.verdicts"] = len(times)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics, "notes": {"verdicts": len(times)}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run = measure_traced if args.trace else measure
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
