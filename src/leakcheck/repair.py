"""Minimal fence insertion.

Each leak finding has a set of program points where an ``lfence`` would
cut the transient window between its speculation primitive and its
earliest transient transmitter, built when repair first reads the report's
elements (``leakage.Report.elements``).  Repair computes a minimum-cardinality
hitting set over those point sets, inserts the fences, re-runs the engine,
and iterates until the report is empty or the iteration cap is hit.

The hitting set is exact.  Goals that strictly contain another goal are
dropped, the rest are split into components that share no point (one per
group of overlapping windows, so independent gadgets are solved
separately), and each component is solved by a branch-and-bound with a
disjoint-packing lower bound.  The result is the same set the plain
search over all goals returns, ties broken toward earlier points.

Findings without any candidate point (no transient window to cut -- e.g.
silent-store leakage, or a window whose only transient transmitter is the
primitive's own instance) are not fence-repairable and are surfaced as
such rather than silently dropped.

Fence points are (function, instruction index) pairs in the coordinates
of the *original* program; iterated rounds map points found in fenced
programs back through the accumulated insertions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from . import ir
from .events import _make_union_find, _uf_find, no_deadline
from .leakage import EngineConfig, Record, analyze, record_sort_key

Point = tuple[str, int]

_MAX_ITERATIONS = 10
_JUMPS = (ir.BranchEqZero, ir.Jump)


@dataclass(frozen=True)
class FencePoint:
    func: str
    index: int

    def __str__(self):
        return f"{self.func}:{self.index}"


@dataclass
class RepairPlan:
    fences: list[FencePoint]
    residual: list[Record]
    unrepairable: list[Record]
    iterations: int
    program: ir.Program  # the fenced program
    minimal: bool | None = None  # no fence can be dropped; None = not checked

    @property
    def success(self) -> bool:
        return not self.residual and not self.unrepairable


def _point_order(prog: ir.Program):
    """The sort key of ``prog``'s points: the entry function first, then
    the others in program order, each by index."""
    order = {f.name: i for i, f in enumerate(prog.functions)}
    entry = order.get(prog.entry, 0)

    def key(p: Point) -> tuple[int, int]:
        fi = order.get(p[0], len(order))
        return (0 if fi == entry else 1 + fi, p[1])

    return key


def hitting_set(
    sets: list[frozenset[Point]], order_key, tick=no_deadline
) -> set[Point]:
    """Exact minimum hitting set, ties broken toward earlier points.

    The result is the first optimal leaf of a plain branch-and-bound that
    branches on the points of the smallest missed set (the first of them
    in input order), earliest point first.  Three exact steps make the
    search cheaper and return that same set:

    1. a goal that strictly contains another goal is dropped: the smaller
       one is missed whenever it is, so it is never the set branched on;
    2. the goals are split into components that share no point, and each
       component is searched on its own: branching in one never changes
       another's missed sets, so the first optimal leaf of the whole search
       is the union of each component's first optimal leaf;
    3. inside a component, a subtree is cut when the points chosen so far
       plus a greedy packing of pairwise-disjoint missed goals (each needs
       a point of its own) cannot beat the best set found, or before the
       first leaf, a greedy hitting set, which no optimal leaf exceeds.

    ``tick`` is a callable invoked once per branch; it may raise
    :class:`~leakcheck.events.AnalysisTimeout` to abandon the search.
    """
    # Sorted by size (stable, so input order breaks ties): the subsets of a
    # goal come before it, and each component's first missed goal is its
    # pivot.
    goals: list[frozenset[Point]] = []
    for s in sorted((s for s in sets if s), key=len):
        if not any(t < s for t in goals):
            goals.append(s)
    universe = sorted({p for s in goals for p in s}, key=order_key)
    rank = {p: i for i, p in enumerate(universe)}
    uf = _make_union_find(goals)
    components: dict[Point, list[frozenset[Point]]] = {}
    for s in goals:
        components.setdefault(_uf_find(uf, next(iter(s))), []).append(s)
    chosen: set[Point] = set()
    for component in components.values():
        chosen |= _branch_and_bound(component, rank, tick)
    return chosen


def _branch_and_bound(
    goals: list[frozenset[Point]], rank: dict[Point, int], tick
) -> set[Point]:
    """First optimal leaf of the pivot search over goals sorted by size,
    depth first on an explicit stack: a component's minimum set may have
    more points than the interpreter's recursion limit."""
    # Cut at the best leaf's size; before any leaf, one past a greedy hitting set's.
    best, bound, missed = set(), 1, goals
    while missed:
        counts = Counter(p for s in missed for p in s)
        top = max(counts, key=counts.__getitem__)
        missed = [s for s in missed if top not in s]
        bound += 1
    # (chosen points, the goals its parent missed)
    stack: list[tuple[set[Point], list[frozenset[Point]]]] = [(set(), goals)]
    while stack:
        tick()
        chosen, remaining = stack.pop()
        if len(chosen) >= bound:
            continue
        missed = [s for s in remaining if chosen.isdisjoint(s)]
        if not missed:
            best, bound = chosen, len(chosen)
            continue
        packed: set[Point] = set()
        packing = 0
        for s in missed:
            if packed.isdisjoint(s):
                packed |= s
                packing += 1
        if len(chosen) + packing >= bound:
            continue
        # Branch on the points of the hardest-to-hit set, earliest first:
        # pushed latest first, so the earliest pops first.
        for p in sorted(missed[0], key=rank.__getitem__, reverse=True):
            stack.append((chosen | {p}, missed))
    return best


def _by_function(points: set[Point]) -> dict[str, list[int]]:
    """Each function's indices among ``points``, ascending."""
    by_func: dict[str, list[int]] = {}
    for f, i in sorted(points):
        by_func.setdefault(f, []).append(i)
    return by_func


def insert_fences(prog: ir.Program, points: set[Point]) -> ir.Program:
    """A copy of ``prog`` with an lfence before each (function, index).  A
    fence before a jump target takes a label no instruction has, and the
    jumps go to it, so every path to the target runs through its fence."""
    by_func = _by_function(points)
    taken = {ins.label for fn in prog.functions for ins in fn.body if ins.label}
    functions = []
    for fn in prog.functions:
        targets = {ins.op.target for ins in fn.body if isinstance(ins.op, _JUMPS)}
        body = list(fn.body)
        moved: dict[str, str] = {}
        for i in reversed(by_func.get(fn.name, ())):
            label = fn.body[i].label
            if label in targets:
                fresh = f"{label}_fence"
                while fresh in taken:
                    fresh += "_"
                taken.add(fresh)
                moved[label] = fresh
            body.insert(i, ir.Instr(ir.Fence("lfence"), moved.get(label)))
        body = [ir.Instr(replace(ins.op, target=moved[ins.op.target]), ins.label, ins.line)
                if isinstance(ins.op, _JUMPS) and ins.op.target in moved else ins for ins in body]
        functions.append(ir.Function(fn.name, fn.params, body))
    return ir.Program(
        functions, prog.entry, prog.aliases, dict(prog.externs), prog.multithread
    )


def _origin_maps(prog: ir.Program, inserted: set[Point]) -> dict[str, list[int]]:
    """For each function of the fenced program: fenced index -> original."""
    by_func = _by_function(inserted)
    maps: dict[str, list[int]] = {}
    for fn in prog.functions:
        fenced_to_orig: list[int] = []
        ins_at = by_func.get(fn.name, [])
        for orig in range(len(fn.body) + 1):
            # fences inserted before `orig` come first, mapping to `orig`
            fenced_to_orig.extend([orig] * ins_at.count(orig))
            if orig < len(fn.body):
                fenced_to_orig.append(orig)
        maps[fn.name] = fenced_to_orig
    return maps


def repair(prog: ir.Program, engine: str, config: EngineConfig) -> RepairPlan:
    """Insert a minimum set of lfences until the engine reports nothing."""
    key = _point_order(prog)
    inserted: set[Point] = set()
    report = analyze(prog, engine, config)
    iterations = 0
    all_points: set[Point] = set()
    fenced = None
    while report.records and iterations < _MAX_ITERATIONS:
        iterations += 1
        origin = _origin_maps(prog, inserted)
        # Many witnesses share a point set; the first occurrence keeps its
        # place, so the search branches exactly as it would on every copy.
        goals = list(dict.fromkeys(
            frozenset((f, origin[f][i]) for f, i in points)
            for points in dict.fromkeys(el.points for el in report.elements)
        ))
        if not goals:
            break
        all_points.update(p for s in goals for p in s)
        chosen = hitting_set(goals, key, config.tick)
        inserted |= chosen
        fenced = insert_fences(prog, inserted)
        report = analyze(fenced, engine, config)
    if fenced is None:  # no iteration fenced anything
        fenced = insert_fences(prog, inserted)
    plan = RepairPlan(
        fences=sorted((FencePoint(f, i) for f, i in inserted),
                      key=lambda fp: key((fp.func, fp.index))),
        residual=list(report.records),
        # Every unrepairable record is a record, so a report without
        # records has none.
        unrepairable=sorted(set(report.unrepairable), key=record_sort_key),
        iterations=max(iterations, 1),
        program=fenced,
    )
    if plan.success and len(all_points) <= 20:
        plan.minimal = _verify_minimal(prog, engine, config, inserted)
    return plan


def _verify_minimal(
    prog: ir.Program, engine: str, config: EngineConfig, fences: set[Point]
) -> bool:
    """No chosen fence can be dropped without a record coming back: one
    re-analysis per fence, stopping at the first that can go.

    This is the subset search (``oracles.verify_minimal_reference``) only
    where adding a fence never adds a record, which is tested, not proved:
    a fence that stops a later transient store can expose a transient
    access the store hid from the observer (README, Repair).
    """
    return all(analyze(insert_fences(prog, fences - {p}), engine, config).records
               for p in sorted(fences))
