"""The corpus output snapshot: stdout hash and exit code of each CLI run.

Every shipped corpus program is run through ``check`` (each engine, with
and without ``--silent-stores``; ``--engine all --dot``, whose graph files
are hashed too), ``repair`` (each engine) and ``enumerate`` (three
primitive sets), in process.  A run's stdout names the program by its path
relative to the repository root, so runs are made from there.

``python tests/corpus_snapshot.py`` rewrites ``tests/data/corpus_outputs.json``
from the code as it stands; ``tests/test_corpus_snapshot.py`` compares
against it, and so does ``python tests/corpus_snapshot.py --check``, which
leaves the file as it is, names each run that differs and exits 1 if any
does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "data" / "corpus_outputs.json"
ALL_CLASSES = "address,data,control,universal_data,universal_control"


def programs() -> list[str]:
    """Each corpus program's path relative to the repository root."""
    return sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus").rglob("*.lcm"))


def runs(program: str) -> list[list[str]]:
    """The argument lists snapshotted for ``program``; ``DOT`` stands for a
    fresh graph directory."""
    wide = ["--scope", "any", "--classes", ALL_CLASSES]
    out = []
    for engine in ("v1", "v4", "psf", "all"):
        check = ["check", program, "--engine", engine, *wide, "--no-timing"]
        out += [check, check + ["--silent-stores"]]
    out.append(["check", program, "--engine", "all", *wide, "--no-timing", "--dot", "DOT"])
    out += [["repair", program, "--engine", engine, *wide] for engine in ("v1", "v4", "psf", "all")]
    out += [["enumerate", program], ["enumerate", program, "--primitives", "branch"],
            ["enumerate", program, "--primitives", "stl,psf", "--silent-stores"]]
    return out


def run(argv: list[str]) -> dict:
    """One run's exit code and the sha256 of its stdout (then of its graph
    files, in name order, for a ``--dot`` run)."""
    from leakcheck.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        argv = [tmp if arg == "DOT" else arg for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().encode("utf-8"))
        for graph in sorted(Path(tmp).iterdir()):
            digest.update(graph.name.encode("utf-8") + b"\0" + graph.read_bytes())
    return {"code": code, "stdout": digest.hexdigest()}


def key(argv: list[str]) -> str:
    return " ".join(argv)


def snapshot() -> dict[str, dict[str, dict]]:
    """Per program, each run's result keyed by its arguments."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {p: {key(argv): run(argv) for argv in runs(p)} for p in programs()}
    finally:
        os.chdir(cwd)


def differing(expected: dict, got: dict) -> list[str]:
    """The program and arguments of each run whose result differs, or that
    only one of the two snapshots has."""
    return [f"{p} :: {k}" for p in sorted(set(expected) | set(got))
            for k in sorted(set(expected.get(p, {})) | set(got.get(p, {})))
            if expected.get(p, {}).get(k) != got.get(p, {}).get(k)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the snapshot instead of rewriting it")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    got = snapshot()
    if args.check:
        differ = differing(json.loads(SNAPSHOT.read_text(encoding="utf-8")), got)
        print("\n".join(differ) if differ else f"{SNAPSHOT.relative_to(ROOT)}: no run differs")
        return 1 if differ else 0
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
