"""Per-module time breakdown of one program, e.g. the psf stress profile:

    python3 benchmarks/breakdown.py corpus/stress/deep_pipeline.lcm --engine psf

Without ``--engine`` the program's ``.expect.json`` sidecar supplies the
engine and its flags (CLI defaults when there is none).  ``--repair`` runs
``repair`` instead of ``check``.  The program is analysed once, with the
same spans as the benchmark's traced run, and the table lists each span's
calls, total and self seconds, then the counts.  This is a tool, not a
workload: it has no seed and no bounds.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from leakcheck.events import AnalysisTimeout  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import sidecar_instance  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", type=Path)
    ap.add_argument("--engine", choices=("v1", "v4", "psf", "all"))
    ap.add_argument("--spec-depth", type=int, default=250, metavar="N")
    ap.add_argument("--w-size", type=int, default=None, metavar="N")
    ap.add_argument("--repair", action="store_true")
    ap.add_argument("--timeout", type=float, default=worker.TIMEOUT_S,
                    metavar="SECONDS")
    args = ap.parse_args(argv)
    inst = sidecar_instance(args.file)
    if args.engine:
        inst.engine = args.engine
        inst.config = dict(d_spec=args.spec_depth, w_size=args.w_size)
    inst.mode = "repair" if args.repair else "check"

    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        try:
            result = worker.verdict(inst, tracer, budget=args.timeout)
        except AnalysisTimeout:
            result = None
    wall = time.perf_counter() - start

    config = ", ".join(f"{k}={v}" for k, v in inst.config.items()
                       if k in ("d_spec", "w_size"))
    print(f"{args.file}: {inst.mode} --engine {inst.engine} ({config}), "
          f"{wall:.3f} s" + (" -- TIMED OUT" if result is None else ""))
    print(f"{'span':<36} {'calls':>8} {'total s':>10} {'self s':>10}")
    for name, row in sorted(tracer.summary().items(),
                            key=lambda kv: -kv[1]["s"]):
        print(f"{name:<36} {row['calls']:>8} {row['s']:>10.4f} "
              f"{row['self_s']:>10.4f}")
    for name, value in sorted(tracer.counts.items()):
        print(f"{name:<36} {value:>8}")
    return 0 if result is not None else 2


if __name__ == "__main__":
    sys.exit(main())
