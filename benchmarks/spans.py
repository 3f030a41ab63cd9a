"""Spans around the analyzer's public functions, installed at run time.

``Tracer.installed()`` replaces each function in ``WRAPPED`` with a wrapper
that records a span (name, start, end, parent) and counts taken from the
call's arguments and result, then puts the originals back.  Callers reach
these functions through module attributes (``leakage`` calls
``ev_mod.enumerate_event_structures``, ``repair`` calls its imported
``analyze``), so the spans nest along the real call path.  Spans are kept
in memory and are recorded only inside a root span the benchmark opens
around one verdict.

A span's self time is its duration minus the durations of its children;
the analyzer is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from leakcheck import cfg, events, executions, leakage, repair

def _count_nodes(c: Counter, args, result) -> None:
    c["cfg.nodes"] += len(result.nodes)


def _count_structures(c: Counter, args, result) -> None:
    c["events.structures"] += len(result)


def _count_candidates(c: Counter, args, result) -> None:
    c["executions.candidates"] += len(result)
    c["executions.candidates.bypass"] += sum(x.site is not None for x in result)
    c["executions.candidates.silent"] += sum(bool(x.silent) for x in result)


def _count_confidential(c: Counter, args, result) -> None:
    c["executions.confidential.accepted"] += bool(result)


def _count_report(c: Counter, args, result) -> None:
    if args[1] == "all":  # the merge; its sub-engine calls are counted
        return
    c["leakage.records"] += len(result.records)
    c["leakage.elements"] += len(result.elements)
    c["leakage.elements.distinct"] += len({e.points for e in result.elements})


def _count_witnesses(c: Counter, args, result) -> None:
    c["leakage.witnesses"] += len(result)


def _count_goals(c: Counter, args, result) -> None:
    goals = args[0]
    c["repair.goals"] += len(goals)
    c["repair.points"] += len({p for g in goals for p in g})


def count_program(c: Counter, args, result) -> None:
    c["ir.instrs"] += sum(len(f.body) for f in result.functions)


def count_plan(c: Counter, args, result) -> None:
    c["repair.fences"] += len(result.fences)
    c["repair.iterations"] += result.iterations


# (module, attribute, span name, count hook)
WRAPPED = [
    (cfg, "build_acfg", "cfg.build_acfg", _count_nodes),
    (events, "enumerate_event_structures", "events.enumerate_event_structures",
     _count_structures),
    (events, "derive_bypass", "events.derive_bypass", None),
    (executions, "enumerate_candidates", "executions.enumerate_candidates",
     _count_candidates),
    (executions, "arch_witnesses", "executions.arch_witnesses", None),
    (executions, "confidential", "executions.confidential", _count_confidential),
    (leakage, "analyze", "leakage.analyze", _count_report),
    (leakage, "detect_leaks", "leakage.detect_leaks", _count_witnesses),
    (leakage, "classify_transmitters", "leakage.classify_transmitters", None),
    (repair, "hitting_set", "repair.hitting_set", _count_goals),
    # repair imported leakage.analyze by name; wrap it after leakage's own
    # wrapper is in place so re-analyses nest their leakage spans under it.
    (repair, "analyze", "repair.analyze", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a verdict, parse, repair)."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = [start, end]

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        if not self._stack:
            return fn(*args, **(kwargs or {}))
        with self.span(name):
            result = fn(*args, **(kwargs or {}))
        if count is not None:
            count(self.counts, args, result)
        return result

    def _wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, count in WRAPPED:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if module is repair and attr == "analyze":
                    original = leakage.analyze  # the wrapped one
                setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def module_metrics(tracer: Tracer, verdicts: int) -> dict[str, float]:
    """The per-module metrics, as means per verdict (ratios excepted)."""
    s = tracer.summary()
    c = tracer.counts

    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per = {
        "ir.parse.s": get("ir.parse", "s"),
        "ir.instrs": c["ir.instrs"],
        "cfg.build_acfg.s": get("cfg.build_acfg", "s"),
        "cfg.nodes": c["cfg.nodes"],
        "events.enumerate_event_structures.s":
            get("events.enumerate_event_structures", "s"),
        "events.structures": c["events.structures"],
        "events.derive_bypass.calls": get("events.derive_bypass", "calls"),
        "events.derive_bypass.s": get("events.derive_bypass", "s"),
        "executions.enumerate_candidates.self_s":
            get("executions.enumerate_candidates", "self_s"),
        "executions.candidates": c["executions.candidates"],
        "executions.candidates.bypass": c["executions.candidates.bypass"],
        "executions.candidates.silent": c["executions.candidates.silent"],
        "executions.arch_witnesses.s": get("executions.arch_witnesses", "s"),
        "executions.confidential.calls": get("executions.confidential", "calls"),
        "executions.confidential.s": get("executions.confidential", "s"),
        "leakage.analyze.calls": get("leakage.analyze", "calls"),
        "leakage.analyze.self_s": get("leakage.analyze", "self_s"),
        "leakage.detect_leaks.s": get("leakage.detect_leaks", "s"),
        "leakage.witnesses": c["leakage.witnesses"],
        "leakage.classify_transmitters.s":
            get("leakage.classify_transmitters", "s"),
        "leakage.records": c["leakage.records"],
        "leakage.elements": c["leakage.elements"],
        "repair.repair.self_s": get("repair.repair", "self_s"),
        "repair.hitting_set.calls": get("repair.hitting_set", "calls"),
        "repair.hitting_set.s": get("repair.hitting_set", "s"),
        "repair.goals": c["repair.goals"],
        "repair.points": c["repair.points"],
        "repair.analyze.calls": get("repair.analyze", "calls"),
        "repair.fences": c["repair.fences"],
        "repair.iterations": c["repair.iterations"],
    }
    out = {k: v / verdicts for k, v in per.items()}
    out["executions.confidential.accept_ratio"] = ratio(
        c["executions.confidential.accepted"],
        get("executions.confidential", "calls"))
    out["leakage.elements.distinct_ratio"] = ratio(
        c["leakage.elements.distinct"], c["leakage.elements"])
    return out
