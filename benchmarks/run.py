"""leakcheck benchmark: time to verdict, memory and deadline overrun.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Workloads: corpus, psf_bypass,
branch_diamonds, repair_windows (see workloads.py).  With ``--trace 0`` the
run measures the end-to-end metrics: set-up time over several fresh
interpreters, then the workload in one more fresh interpreter (worker.py).
With ``--trace 1`` it reports the per-module metrics from a traced run.
It prints each metric with its unit, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  It exits
non-zero, printing no result, when the analyzer's sources are missing or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "psf_bypass", "branch_diamonds", "repair_windows")
SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "timeout_overrun_s": "s",
}


class BenchError(Exception):
    pass


def _env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def setup_seconds(seed: int) -> float:
    """Median CPU seconds a fresh interpreter spends until leakcheck.cli is
    imported and ready, each spawn scaled by a host speed sample taken just
    before it (see speed.py)."""
    code = "import time, leakcheck.cli; print(time.process_time())"
    samples = []
    speed.sample()
    for _ in range(SETUP_SPAWNS):
        reference = speed.sample()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(seed),
            capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise BenchError(f"importing leakcheck.cli failed:\n{out.stderr}")
        samples.append(speed.scale(float(out.stdout.strip()), reference))
    return statistics.median(samples)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=_env(seed), capture_output=True,
                             text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker ran past {exc.timeout} s")
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", "self_s")):
        return "s"
    return "ratio" if name.endswith(("ratio", "overhead")) else "count"


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setup = None if trace else setup_seconds(seed)
    result = run_worker(workload, seed, seconds, trace)
    metrics = dict(result["metrics"])
    if setup is not None:
        metrics = {"setup_s": setup, **metrics}
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {workload} seed={seed} trace={trace} "
          f"{json.dumps(result['notes'])}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit_of(name)}")
    if not trace:
        print(f"{'failed_share':<44} {failed / attempted:>14.6g} ratio"
              f"  ({failed} of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "leakcheck" / "__init__.py").is_file() or not (
        ROOT / "corpus"
    ).is_dir():
        print(f"error: no leakcheck sources (src/leakcheck, corpus) under "
              f"{ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: measure(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
