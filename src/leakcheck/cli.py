"""Command-line front end: parse / enumerate / check / repair / corpus.

Exit codes: 0 = clean (or all corpus rows matched), 1 = leaks found (or
corpus mismatch), 2 = usage, parse, or analysis error.

Reports are deterministic: records are sorted and carry no timestamps;
the one timing footer is suppressed with ``--no-timing``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import cfg as cfg_mod
from . import events as ev_mod
from . import executions as ex_mod
from . import ir
from .events import AnalysisTimeout
from .leakage import CLASSES, EngineConfig, Record, analyze
from .repair import repair

_ENGINES = ("v1", "v4", "psf", "all")
_SCOPES = ("transient", "any")
_PRIM_NAMES = ("branch", "stl", "psf")


def _at_least_zero(kind):
    """An argument type: the value as ``kind`` (int or float), at least 0."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= 0:  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
        return value

    return convert


def _names(known: tuple[str, ...], what: str):
    """An argument type: a comma-separated subset of ``known``."""

    def convert(text: str) -> frozenset[str]:
        names = frozenset(n.strip() for n in text.split(",") if n.strip())
        bad = names - set(known)
        if bad:
            raise argparse.ArgumentTypeError(f"unknown {what} {sorted(bad)[0]!r}")
        return names

    return convert


def _primitives(text: str) -> frozenset[str]:
    names = _names(_PRIM_NAMES, "primitive")(text)
    if "branch" in names and names & {"stl", "psf"}:
        raise argparse.ArgumentTypeError("branch does not combine with stl or psf")
    return names


def _add_walk_flags(p: argparse.ArgumentParser) -> None:
    """The options of every subcommand that enumerates candidates."""
    p.add_argument("--spec-depth", type=_at_least_zero(int), default=250,
                   metavar="N", help="speculation window depth bound (default 250)")
    p.add_argument("--silent-stores", action="store_true",
                   help="model the silent-store optimization")
    _add_timeout(p)


def _add_timeout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=_at_least_zero(float), default=60.0,
                   metavar="SECONDS",
                   help="per-file analysis budget (default 60, 0 for none)")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=_ENGINES, default="all")
    _add_walk_flags(p)
    p.add_argument("--w-size", type=_at_least_zero(int), default=None, metavar="N",
                   help="sliding-window bound on chain member distance")
    p.add_argument("--classes", type=_names(CLASSES, "class"),
                   default="universal_data", metavar="LIST",
                   help="comma-separated transmitter classes to report "
                        f"(default universal_data; all = {','.join(CLASSES)})")
    p.add_argument("--scope", choices=_SCOPES, default="transient",
                   help="report only transient transmitters (default) or all")
    p.add_argument("--require-gep", action="store_true",
                   help="only chains whose final addr hop is a computed "
                        "element access (benign-pointer filter)")
    p.add_argument("--no-probe", action="store_true",
                   help="disable the final cache-probe observer rule")


def _deadline(args: argparse.Namespace) -> float | None:
    return time.monotonic() + args.timeout if args.timeout else None


def _config(args: argparse.Namespace, collect_graphs: bool = False) -> EngineConfig:
    return EngineConfig(
        d_spec=args.spec_depth,
        w_size=args.w_size,
        classes=args.classes,
        scope=args.scope,
        require_gep=args.require_gep,
        silent_stores=args.silent_stores,
        probe=not args.no_probe,
        deadline=_deadline(args),
        collect_graphs=collect_graphs,
    )


def _load(path: str | Path) -> ir.Program:
    return ir.parse(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# subcommands


def cmd_parse(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    if args.dump_acfg:
        tick = EngineConfig(deadline=_deadline(args)).tick
        print(cfg_mod.to_dot(cfg_mod.build_acfg(prog, tick)), end="")
    else:
        print(ir.pretty(prog), end="")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    config = EngineConfig(d_spec=args.spec_depth, silent_stores=args.silent_stores,
                          deadline=_deadline(args))
    graph = cfg_mod.build_acfg(prog, config.tick)
    structures = ev_mod.enumerate_event_structures(
        graph, args.primitives, config.d_spec, tick=config.tick
    )
    cands = ex_mod.enumerate_candidates(
        structures, silent_stores=config.silent_stores,
        d_spec=config.d_spec, tick=config.tick,
    )
    print(f"{len(structures)} event structures, "
          f"{len(cands)} consistent candidate executions")
    if args.show:
        for i, cand in enumerate(cands, start=1):
            print(f"--- candidate {i}")
            print(cand.describe())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    config = _config(args, collect_graphs=bool(args.dot))
    if args.dot:  # before the analysis, so a path that is no directory fails first
        outdir = Path(args.dot)
        outdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    report = analyze(prog, args.engine, config)
    for line in report.lines():
        print(line)
    if args.dot:
        for i, (_, text) in enumerate(report.graphs, start=1):
            (outdir / f"witness_{i:03d}.dot").write_text(text, encoding="utf-8")
    n = len(report.records)
    print(f"{args.file}: {n} leak record(s)" if n else f"{args.file}: no leaks")
    if not args.no_timing:
        print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return 1 if report.records else 0


def cmd_repair(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    config = _config(args)
    plan = repair(prog, args.engine, config)
    for fp in plan.fences:
        print(f"FENCE lfence before {fp}")
    for rec in plan.unrepairable:
        print(f"UNREPAIRABLE {rec.line()}")
    for rec in plan.residual:
        print(f"RESIDUAL {rec.line()}")
    status = "repaired" if plan.success else "incomplete"
    minimal = {True: "minimal", False: "NOT minimal", None: "unchecked"}[plan.minimal]
    print(f"{args.file}: {status}, {len(plan.fences)} fence(s), "
          f"{plan.iterations} iteration(s), {minimal}")
    if args.output:
        Path(args.output).write_text(ir.pretty(plan.program), encoding="utf-8")
    elif plan.fences:
        print(ir.pretty(plan.program), end="")
    return 0 if plan.success else 1


# --------------------------------------------------------------------------
# corpus runner


@dataclass
class CorpusRow:
    name: str
    expected: str
    detected: str
    ok: bool
    note: str = ""


def _one_of(known: tuple, what: str):
    """A sidecar value check: one of ``known`` (of its type: 1 is no flag)."""

    def convert(value):
        if value not in known or type(value) is not type(known[0]):
            raise ValueError(f"invalid {what} {value!r}")
        return value

    return convert


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _classes(value) -> frozenset[str]:
    if not _is_names(value):
        raise ValueError(f"classes {value!r} is not a list of names")
    return _names(CLASSES, "class")(",".join(value))


def _count(value) -> int:
    """A sidecar count: a JSON integer (no bool, string or float), at least 0."""
    if type(value) is not int:
        raise ValueError(f"invalid int value: {str(value)!r}")
    return _at_least_zero(int)(str(value))


# The sidecar config keys (EngineConfig fields), each checked as its flag is.
_SIDECAR_KEYS = {
    "d_spec": _count,
    "w_size": lambda v: None if v is None else _count(v),  # null: EngineConfig's own
    "classes": _classes,
    "scope": _one_of(_SCOPES, "scope"),
    **{key: _one_of((False, True), key)
       for key in ("require_gep", "silent_stores", "probe")},
}


def _sidecar_config(data: dict, args: argparse.Namespace) -> tuple[str, EngineConfig]:
    """The engine and config a sidecar names; unset keys keep the defaults."""
    if not isinstance(data, dict):
        raise ValueError("the sidecar is not a JSON object")
    conf = data.get("config", {})
    if not isinstance(conf, dict):
        raise ValueError("'config' is not an object")
    conf = dict(conf)
    engine = _one_of(_ENGINES, "engine")(conf.pop("engine", "all"))
    unknown = sorted(set(conf) - set(_SIDECAR_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    return engine, EngineConfig(
        **{key: _SIDECAR_KEYS[key](value) for key, value in conf.items()},
        deadline=_deadline(args),
    )


def _sidecar_expect(data: dict) -> list[dict]:
    """A sidecar's expected records: objects with a string ``label`` and
    ``class``, and ``footnotes``, if given, a list of names."""
    expected = data.get("expect", [])
    if not isinstance(expected, list):
        raise ValueError("'expect' is not a list")
    for n, exp in enumerate(expected, start=1):
        if not isinstance(exp, dict):
            raise ValueError(f"expect entry {n} is not an object")
        if not all(isinstance(exp.get(key), str) for key in ("label", "class")):
            raise ValueError(f"expect entry {n} needs a string 'label' and 'class'")
        if not _is_names(exp.get("footnotes", [])):
            raise ValueError(f"expect entry {n}: 'footnotes' is not a list of names")
    return expected


_FOOTNOTE_MARKS = {"semantic": "¹", "loop": "²"}
_CLASS_ABBREV = {
    "address": "A", "data": "D", "control": "C",
    "universal_data": "U_D", "universal_control": "U_C",
}


def _record_key(rec: Record) -> tuple:
    return (rec.label, rec.transient, rec.klass)


def _expected_key(exp: dict) -> tuple:
    return (exp["label"], bool(exp.get("transient", False)), exp["class"])


def _format_classes(entries: list[tuple[str, list[str]]]) -> str:
    parts = []
    for klass, footnotes in entries:
        text = _CLASS_ABBREV.get(klass, klass)
        marks = "".join(_FOOTNOTE_MARKS.get(f, "?") for f in footnotes)
        parts.append(f"({text}){marks}" if marks else text)
    seen: list[str] = []
    for p in parts:
        if p not in seen:
            seen.append(p)
    return ", ".join(seen) if seen else "(none)"


def _run_one(path: Path, args: argparse.Namespace) -> CorpusRow:
    sidecar = path.with_suffix(".expect.json")
    try:
        data = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else {}
        engine, config = _sidecar_config(data, args)
        expected = _sidecar_expect(data)
        prog = _load(path)
        report = analyze(prog, engine, config)
    except AnalysisTimeout:
        return CorpusRow(path.stem, "?", "TIMEOUT", False, "timeout")
    except Exception as exc:  # parse errors, engine rejections
        return CorpusRow(path.stem, "?", "ERROR", False, str(exc))
    exp_keys = {_expected_key(e) for e in expected}
    got_keys = {_record_key(r) for r in report.records}
    ok = exp_keys == got_keys
    # Detail checks: expected access labels / culprit kinds must match.
    for e in expected:
        if "access" in e and ok:
            ok = any(
                _record_key(r) == _expected_key(e)
                and r.access_label == e["access"]
                and (e.get("access_transient") is None
                     or r.access_transient == e["access_transient"])
                for r in report.records
            )
        if "culprit" in e and ok:
            ok = any(
                _record_key(r) == _expected_key(e)
                and r.culprit_kind == e["culprit"]
                for r in report.records
            )
    footnotes = {
        _expected_key(e): e.get("footnotes", []) for e in expected
    }
    exp_fmt = _format_classes(
        [(e["class"], e.get("footnotes", [])) for e in expected]
    )
    got_fmt = _format_classes(
        [(r.klass, footnotes.get(_record_key(r), [])) for r in report.records]
    )
    return CorpusRow(path.stem, exp_fmt, got_fmt, ok)


def cmd_corpus(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    files = sorted(root.rglob("*.lcm"))
    if not files:
        print(f"{args.dir}: no litmus files found", file=sys.stderr)
        return 2
    started = time.monotonic()
    rows = sorted((_run_one(p, args) for p in files), key=lambda r: r.name)
    width = max(len(r.name) for r in rows)
    ew = max(len("expected"), max(len(r.expected) for r in rows))
    print(f"{'program':<{width}}  {'expected':<{ew}}  detected")
    mismatches = 0
    for r in rows:
        mark = "ok" if r.ok else "MISMATCH"
        note = f"  ({r.note})" if r.note else ""
        print(f"{r.name:<{width}}  {r.expected:<{ew}}  {r.detected}"
              f"  [{mark}]{note}")
        mismatches += 0 if r.ok else 1
    print(f"{len(rows)} programs, {mismatches} mismatch(es)")
    if not args.no_timing:
        print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return 1 if mismatches else 0


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="leakcheck",
        description="Microarchitectural leakage analysis for litmus programs.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", help="validate and pretty-print a program")
    p.add_argument("file")
    p.add_argument("--dump-acfg", action="store_true",
                   help="print the abstract CFG as graphviz dot")
    _add_timeout(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("enumerate",
                       help="count event structures and consistent candidates")
    p.add_argument("file")
    p.add_argument("--primitives", type=_primitives,
                   default="", metavar="LIST",
                   help="speculation primitives: branch,stl,psf (default none)")
    p.add_argument("--show", action="store_true",
                   help="print each candidate's relations")
    _add_walk_flags(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check", help="run detection engines on one program")
    p.add_argument("file")
    p.add_argument("--dot", metavar="DIR",
                   help="write one witness graph per reported leak")
    p.add_argument("--no-timing", action="store_true")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("repair", help="insert a minimal set of lfences")
    p.add_argument("file")
    p.add_argument("--output", metavar="FILE",
                   help="write the fenced program here instead of stdout")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("corpus",
                       help="run a directory of litmus files against "
                            "expected-outcome sidecars")
    p.add_argument("dir")
    p.add_argument("--no-timing", action="store_true")
    _add_timeout(p)
    p.set_defaults(fn=cmd_corpus)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except ir.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AnalysisTimeout:
        print("error: analysis timed out", file=sys.stderr)
        return 2
    except (cfg_mod.CfgError, ex_mod.ExecutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeError) as exc:  # unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 would read as "leaks found"
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
