"""The corpus output snapshot: stdout hash and exit code of each CLI run.

Every shipped corpus program is run through ``check`` (each engine, with
and without ``--silent-stores``; ``--engine all --dot``, whose graph files
are hashed too), ``repair`` (each engine) and ``enumerate`` (three
primitive sets), in process.  A run's stdout names the program by its path
relative to the repository root, so runs are made from there.

``python tests/corpus_snapshot.py`` rewrites ``tests/data/corpus_outputs.json``
from the code as it stands; ``tests/test_corpus_snapshot.py`` compares
against it.
"""

from __future__ import annotations

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


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOT.relative_to(ROOT)}")
