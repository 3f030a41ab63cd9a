"""Leak detection, transmitter classification, and the detection engines.

A leak is an architecturally-implied microarchitectural relation missing
from a consistent candidate: per candidate we check

* (a) ``co(w0,w1)`` implies ``cox(w0,w1)`` and ``frx(w0,w1)``;
* (b) co-immediate ``(w0,w1)`` implies the fill edge ``rfx(w0,w1)``;
* (c) ``rf(w,r)`` implies ``rfx(w,r)`` (initial-state rf is not enforced
  for program reads -- a cold miss is not a leak);
* (d) ``fr(r,w)`` implies ``frx(r,w)``;

plus the observer rule: the final observer architecturally reads only the
initial state, so any program event sourcing one of its line fills is a
deviation (gated by ``probe`` -- it is the generic cache probe).  A bypass
view passes the four checks by construction and runs the observer rule only.

Every program event that fill-sources the receiver is an *address*
transmitter (its line choice leaks its address).  It is promoted to *data*
(resp. *control*) when an extended address (resp. control) chain from some
read -- the access instruction -- targets it: the chain is one addr/ctrl
hop, optionally preceded by stored-then-forwarded value hops (data followed
by rf, or by a same-location fill edge from a store).  It is promoted to
*universal* when the access instruction is itself addr-chain-targeted by an
upstream read and the access's own fill was not alias-mispredicted.

A witness becomes records along one path, :func:`findings`: the source
events the scope keeps are classified among the admitted classes (walking
only the chains those need), the ``require_gep`` filter applied, and each
kept event yields one record -- its most severe class -- with the span where
a fence would kill it.  The span's fence points are built only when
:attr:`Report.elements` is read.

Engines differ only in the speculation primitive they enumerate: ``v1``
(branch windows), ``v4`` (store-to-load bypass), ``psf`` (alias-predicted
store forwarding); ``all`` merges the three reports.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from . import cfg as cfg_mod
from . import events as ev_mod
from . import executions as ex_mod
from . import ir
from .events import AnalysisTimeout, EventStructure
from .executions import Candidate

CLASSES = ("address", "data", "control", "universal_data", "universal_control")
_SEVERITY = {
    "address": 1,
    "control": 2,
    "data": 3,
    "universal_control": 4,
    "universal_data": 5,
}


@dataclass(unsafe_hash=True, slots=True)
class Culprit:
    kind: str  # rf_without_rfx | co_without_cox_frx | co_imm_without_rfx | fr_without_frx
    edge: tuple[int, int]


@dataclass(unsafe_hash=True, slots=True)
class Transmitter:
    event: int
    klass: str
    transient: bool
    access: int | None = None
    access_transient: bool | None = None
    upstream: int | None = None
    gep: bool = False  # the chain's final addr hop is a computed element access


@dataclass(slots=True)
class LeakWitness:
    culprit: Culprit
    receiver: int
    sources: tuple[int, ...]  # events whose micro-sourcing realizes the deviation


def record_sort_key(rec: "Record") -> tuple:
    return (
        rec.label,
        rec.transient,
        _SEVERITY.get(rec.klass, 0),
        rec.access_label or "",
        rec.access_transient or False,
        rec.culprit_kind,
        rec.engine,
        rec.silent or "",
    )


@dataclass(unsafe_hash=True, slots=True)
class Record:
    """One reported finding: dedupable, serializable; sort via record_sort_key."""

    label: str
    transient: bool
    klass: str
    access_label: str | None
    access_transient: bool | None
    culprit_kind: str
    engine: str
    silent: str | None = None  # "definite" | "possible" for silent-store findings

    def line(self) -> str:
        name = f"{self.label}_S" if self.transient else self.label
        bits = [f"transmitter={name}", f"class={self.klass}"]
        if self.access_label is not None:
            acc = f"{self.access_label}_S" if self.access_transient else self.access_label
            bits.append(f"access={acc}")
        bits.append(f"culprit={self.culprit_kind}")
        if self.silent:
            bits.append(f"silent={self.silent}")
        bits.append(f"engine={self.engine}")
        return "LEAK " + " ".join(bits)


@dataclass(unsafe_hash=True, slots=True)
class RepairElement:
    """One witness occurrence with the fence slots that would kill it."""

    points: frozenset[tuple[str, int]]
    record: Record


@dataclass
class Report:
    engine: str
    records: list[Record]
    unrepairable: list[Record]
    structures: int = 0
    distinct: int = 0  # structures analysed by their own pass, not a graft's replay
    candidates: int = 0
    graphs: list[tuple[str, str]] = field(default_factory=list)
    # What :attr:`elements` is built from, in analysis order: each record
    # occurrence whose span has a slot, with that span and the fetched nodes
    # of its structure; the graph's fence slots per node; the deadline.
    occurrences: list[tuple[Record, tuple[int, int], list]] = field(
        default_factory=list, repr=False, compare=False)
    slots: list[tuple[str, int]] = field(default_factory=list, repr=False, compare=False)
    tick: Callable[[], None] = field(default=cfg_mod.no_deadline, repr=False, compare=False)

    @cached_property
    def elements(self) -> list[RepairElement]:
        """Each occurrence with its fence points, the first of equal ones
        kept.  Built on first read, which ``repair`` makes and ``check`` does
        not, ticking once per occurrence."""
        elements = []
        for rec, span, fetched in self.occurrences:
            self.tick()  # a long span's fence points take a while
            elements.append(RepairElement(_fence_points(fetched, span, self.slots), rec))
        # Many witnesses repeat one finding: keep each first occurrence.
        return list(dict.fromkeys(elements))

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]


@dataclass
class EngineConfig:
    d_spec: int = 250
    w_size: int | None = None
    classes: frozenset[str] = frozenset({"universal_data"})
    scope: str = "transient"  # "transient" | "any"
    require_gep: bool = False
    silent_stores: bool = False
    probe: bool = True
    deadline: float | None = None
    collect_graphs: bool = False

    def tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise AnalysisTimeout("analysis deadline exceeded")


# --------------------------------------------------------------------------
# detection


def detect_leaks(cand: Candidate, probe: bool = True) -> list[LeakWitness]:
    """The witnesses of ``cand``: the observer rule's, then the edge checks',
    which a bypass view passes: its ``rf``/``co``/``fr`` pairs precede its site
    read, where it is its base's canonical candidate (``ex_mod.View``)."""
    st = cand.st
    out: list[LeakWitness] = []

    def witness(kind: str, edge, receiver, deviators: list[int]) -> None:
        out.append(LeakWitness(Culprit(kind, tuple(edge)), receiver, tuple(deviators)))

    # Observer rule: the final observer reads every line from its last
    # writer, architecturally only from the initial state.
    if probe:
        sources = cand.observed()
        if sources:
            witness("rf_without_rfx", (0, st.bottom), st.bottom, sources)
    if cand.site is not None:
        return out

    # (a) and (d) ask whether given pairs are in frx, each answered from one
    # line (Candidate.in_frx).  (a)'s cox pair follows from its frx pair: a
    # store claims its line right after its fill source (ex_mod._simulate).
    for loc, order in cand.co.items():
        stores = [w for w in order if w != 0]
        for i, w0 in enumerate(stores):
            for j in range(i + 1, len(stores)):
                w1 = stores[j]
                if j == i + 1:
                    if cand.rfx_in.get(w1) == w0:
                        continue
                    if w1 in cand.silent:
                        witness("co_imm_without_rfx", (w0, w1), st.bottom, [w1])
                    elif w0 in cand.silent:
                        witness("co_imm_without_rfx", (w0, w1), st.bottom, [w0])
                    else:
                        actual = cand.rfx_in.get(w1, 0)
                        dev = actual if actual != 0 else w1
                        witness("co_imm_without_rfx", (w0, w1), w1, [dev])
                else:
                    if cand.in_frx(w0, w1):
                        continue
                    if w1 in cand.silent or w0 in cand.silent:
                        dev = w1 if w1 in cand.silent else w0
                        witness("co_without_cox_frx", (w0, w1), st.bottom, [dev])
                    else:
                        witness("co_without_cox_frx", (w0, w1), w1, [w1])

    for r, w in sorted(cand.rf.items()):
        if w == 0:
            continue  # cold misses are architecturally silent
        if cand.rfx_in.get(r) == w:
            continue
        if w in cand.silent:
            witness("rf_without_rfx", (w, r), st.bottom, [w])
        else:
            actual = cand.rfx_in.get(r, 0)
            witness("rf_without_rfx", (w, r), r, [actual if actual != 0 else w])

    for r, w in sorted(cand.fr()):
        if cand.in_frx(r, w):
            continue
        if w in cand.silent:
            witness("fr_without_frx", (r, w), st.bottom, [w])
        else:
            actual = cand.rfx_in.get(r, 0)
            witness("fr_without_frx", (r, w), r, [actual if actual != 0 else w])

    return out


# --------------------------------------------------------------------------
# classification


class _Shared:
    """What the candidates of one event structure, ``current``, share: the
    classification memoised per forwarding relation (:class:`_Chains`), and
    the witnesses its sharers read (at a psf site, those with findings).
    ``_first_pass`` keeps one per structure.
    """

    def __init__(self, current: EventStructure) -> None:
        self.current = current
        self.chains: dict[tuple, _Chains] = {}
        # id of a bypass candidate that ran its own simulation -> its witnesses
        self.witnesses: dict[int, list[LeakWitness]] = {}


def _forwarding(cand: Candidate) -> frozenset[tuple[int, int]]:
    """Value forwarding into the events ``cand`` simulated itself (a view's
    window): architectural rf plus microarchitectural same-location fills
    whose source is a program store.  A view has no rf there."""
    view = cand.sweep is not None
    fwd = set() if view else {(w, r) for r, w in cand.rf.items() if w != 0}
    access = cand.access
    for e, src in (cand.fills if view else cand.rfx_in).items():
        if src != 0 and access[src] == ("W", access[e][1]):
            fwd.add((src, e))
    return frozenset(fwd)


class _Chains:
    """Backward extended-dependency reachability and the classification
    it yields, for the candidates of one structure that share a forwarding
    relation.

    ``ext(a, m)`` holds when a read ``a``'s returned value reaches ``m``'s
    address (resp. branch condition feeding ``m``) through alternating
    store/forward hops: the final hop into ``m`` is an addr (resp. ctrl)
    edge, every earlier hop is data followed by rf or by a same-location
    store-to-load fill edge.

    The edges are the dependencies on the structure's events; its event
    ids are its fetch order (one thread).  A view's ``prefix`` is its site read
    and its canonical candidate, whose value hops its earlier reads take.  The
    chains also read the psf site read (its own address is mispredicted, so it
    is no universal access), ``w_size`` and the admitted classes, each fixed
    for one structure in one ``analyze`` call, so candidates with equal
    forwarding get the same transmitters.
    """

    def __init__(
        self,
        st: EventStructure,
        fwd: frozenset[tuple[int, int]],
        psf_read: int | None,
        w_size: int | None,
        classes: frozenset[str],
        prefix: tuple[int, Candidate] | None = None,
    ) -> None:
        self.st = st
        self.psf_read = psf_read
        self.w_size = w_size
        # The chain kinds with an admitted class, each with its two classes
        # (None where not admitted): a kind with neither is not walked.
        self.halves = [(final, *(k if k in classes else None for k in pair))
                       for final, pair in (("addr", ("data", "universal_data")),
                                           ("ctrl", ("control", "universal_control")))
                       if classes.intersection(pair)]
        self.address = "address" in classes
        # data;forward composition: read a -> read r via a store.
        self.value_hop: dict[int, set[int]] = {}
        for w, r in fwd:
            for a in self.st.events[w].value_reads:
                self.value_hop.setdefault(r, set()).add(a)
        self.cut, self.canon = prefix or (0, None)
        self.classified: dict[int, list[Transmitter]] = {}  # event -> classes

    def _within(self, member: int, anchor: int) -> bool:
        return self.w_size is None or abs(member - anchor) <= self.w_size

    def sources(self, target: int, final: str, anchor: int) -> set[int]:
        """Reads whose value reaches ``target``; final hop addr or ctrl."""
        found: set[int] = set()
        ev = self.st.events[target]
        frontier = list(ev.ctrl_reads if final == "ctrl" else ev.addr_reads)
        while frontier:
            a = frontier.pop()
            if a in found or not self._within(a, anchor):
                continue
            found.add(a)
            # a's value came via a store
            frontier.extend(self.value_hop.get(a, ()) if a >= self.cut else self._prefix_hop(a))
        return found

    def _prefix_hop(self, a: int) -> frozenset[int]:
        """The value hops into ``a``, a read before the view's site read."""
        canon, events = self.canon, self.st.events
        w, src = canon.rf.get(a, 0), canon.rfx_in.get(a, 0)
        hop = events[w].value_reads if w else frozenset()
        if src != 0 and canon.access[src] == ("W", canon.access[a][1]):
            hop = hop | events[src].value_reads
        return hop

    def classify(self, t: int) -> list[Transmitter]:
        """Every satisfied class of event ``t`` among the admitted ones.  A
        chain's final addr hop is a computed element access (``gep``) when
        its target's address is register-indexed."""
        st = self.st
        ev = st.events[t]
        out = [Transmitter(t, "address", ev.transient)] if self.address else []
        for final, base_klass, universal_klass in self.halves:
            accesses = self.sources(t, final, t)
            if not accesses:
                continue
            if base_klass:
                rep = _pick(st, accesses)
                out.append(Transmitter(t, base_klass, ev.transient, access=rep,
                                       access_transient=st.events[rep].transient,
                                       gep=final == "addr" and ev.gep))
            if not universal_klass:
                continue
            uni: list[tuple[int, int, bool]] = []
            for a in accesses:
                if a == self.psf_read:
                    continue
                upstream = self.sources(a, "addr", t)
                upstream.discard(a)
                if upstream:
                    uni.append((a, _pick(st, upstream), st.events[a].gep))
            if uni:
                a, r, _ = min(uni, key=lambda x: (st.events[x[0]].transient, x[0]))
                out.append(
                    Transmitter(
                        t,
                        universal_klass,
                        ev.transient,
                        access=a,
                        access_transient=st.events[a].transient,
                        upstream=r,
                        gep=any(x[2] for x in uni),
                    )
                )
        return out


def classify_transmitters(
    cand: Candidate, events: list[int], w_size: int | None, shared: _Shared,
    classes: frozenset[str] = frozenset(CLASSES),
) -> dict[int, list[Transmitter]]:
    """Every satisfied class of each event among ``classes``, events in
    ascending order.

    ``shared`` holds what earlier candidates of ``cand.st`` computed, for
    the same ``w_size`` and ``classes``; a fresh one reuses nothing.  With
    no events, nothing is memoised.
    """
    if not events:
        return {}
    sweep, fwd = cand.sweep, _forwarding(cand)
    chains = shared.chains.get((sweep, fwd))
    if chains is None:
        site = cand.site
        psf_read = site.read if site is not None and site.kind == "psf" else None
        chains = shared.chains[sweep, fwd] = _Chains(
            shared.current, fwd, psf_read, w_size, classes, sweep and (site.read, sweep.canon))
    out: dict[int, list[Transmitter]] = {}
    for t in sorted(events):
        if t not in chains.classified:
            chains.classified[t] = chains.classify(t)
        out[t] = chains.classified[t]
    return out


def _pick(st: EventStructure, eids: set[int]) -> int:
    return min(eids, key=lambda e: (st.events[e].transient, e))


# --------------------------------------------------------------------------
# fence-point computation (consumed by repair)


def _span(cand: Candidate, sources: list[int], t: Transmitter) -> tuple[int, int] | None:
    """The finding's primitive and its earliest transient chain event but the
    primitive's own instance, as event ids; None when no slot lies between.
    ``sources`` are the witness's sources the scope keeps."""
    st = cand.st
    members = [m for m in (t.event, t.access, t.upstream) if m is not None]
    transient = [m for m in members if st.events[m].transient]
    windows = [st.events[m].window for m in transient if st.events[m].window is not None]
    if cand.site is None and not windows:
        return None
    prim = cand.site.read if cand.site is not None else min(windows)  # a site or a branch
    chain = [m for m in transient if m != prim and (m in sources or m == t.event)]
    # A single thread fetches in event id order: the earliest has the least id.
    if not chain or min(chain) <= prim:
        return None
    return prim, min(chain)


def _run(fetched: list[tuple[int | None, ...]], span: tuple[int, int]) -> Iterator[int | None]:
    """The nodes a structure whose per-event fetched nodes are ``fetched``
    fetched after ``span``'s primitive, up to its end's own node (a squash
    has none: None)."""
    prim, end = span
    return chain(fetched[prim][1:], *fetched[prim + 1 : end], fetched[end][:1])


def _fence_points(fetched: list[tuple[int | None, ...]], span: tuple[int, int],
                  slots: list[tuple[str, int]]) -> frozenset[tuple[str, int]]:
    """The fence slots of :func:`_run`'s nodes; ``slots`` are the graph's,
    per node (``events._WalkMaps.slots``)."""
    return frozenset(slots[n] for n in _run(fetched, span) if n is not None)


# --------------------------------------------------------------------------
# engines


_PRIMITIVES = {"v1": "branch", "v4": "stl", "psf": "psf"}


def analyze(prog: ir.Program, engine: str, config: EngineConfig,
            graph: cfg_mod.ACfg | None = None) -> Report:
    """Run one engine (or the merge of all three) over a program, on its
    ACfg ``graph`` if given: ``all`` builds it once for the three.  A graft
    (a merged path's structure) replays its leaf's pass where it can."""
    if prog.multithread:
        raise ex_mod.ExecutionError(
            f"engine {engine} analyzes single-thread programs only"
        )
    graph = graph or cfg_mod.build_acfg(prog, config.tick)
    if engine == "all":
        merged = Report(engine="all", records=[], unrepairable=[],
                        slots=ev_mod._walk_maps(graph).slots, tick=config.tick)
        for sub in ("v1", "v4", "psf"):
            rep = analyze(prog, sub, config, graph)
            merged.records.extend(rep.records)
            # No two engines' elements are equal: their records name them.
            merged.occurrences.extend(rep.occurrences)
            merged.unrepairable.extend(rep.unrepairable)
            merged.graphs.extend(rep.graphs)
            merged.structures += rep.structures
            merged.distinct += rep.distinct
            merged.candidates += rep.candidates
        merged.records = sorted(set(merged.records), key=record_sort_key)
        return merged
    maps = ev_mod._walk_maps(graph)
    report = Report(engine=engine, records=[], unrepairable=[], slots=maps.slots,
                    tick=config.tick)
    seen, seen_bypass = set(), set()  # records, bypass keys
    for resolution in ev_mod.alias_subsets(graph.program.aliases):  # one list at a time
        structures = ev_mod.enumerate_event_structures(
            graph, frozenset({_PRIMITIVES[engine]}), config.d_spec, config.tick, resolution)
        report.structures += len(structures)
        # id of a structure -> its pass, kept where the walk can merge paths
        # (at joins) for the structure's grafts, all of this resolution
        passes: dict[int, tuple] = {}
        for st in structures:
            # A graft replays its leaf's pass unless that pass derived a view at
            # a site before the join, which no window crosses: the graft has
            # it too, now seen.  Past the join, a view names the graft's own
            # fetched nodes, so the graft sees it as its leaf did.
            done = passes[id(st.leaf)] if isinstance(st, ev_mod.Graft) else None
            replay = done is not None and done[3] >= st.cut
            if not replay:
                done = _first_pass(st, engine, config, seen_bypass)
                report.distinct += 1
            config.tick()
            count, found, drawn, _ = done
            report.candidates += count
            for rec, span in found:
                if replay and (span is None or span[0] >= st.cut):
                    # A graft replaying its leaf's pass: a span past the join has
                    # the leaf's fence points, and the leaf kept the record.
                    continue
                seen.add(rec)
                config.tick()
                # Its points wait for :attr:`Report.elements`; the first slot decides.
                if span is not None and any(n is not None for n in _run(st.fetched, span)):
                    report.occurrences.append((rec, span, st.fetched))
                else:
                    report.unrepairable.append(rec)
            if maps.joins:
                passes[id(st)] = done
            for cand, w in drawn:
                title = f"{engine} witness {len(report.graphs) + 1}"
                report.graphs.append((title, witness_dot(cand, w, title)))
    report.records = sorted(seen, key=record_sort_key)
    report.unrepairable = list(dict.fromkeys(report.unrepairable))
    return report


def _first_pass(st: EventStructure, engine: str, config: EngineConfig, seen: set) -> tuple:
    """The candidate count, records with spans, drawn (candidate, witness)
    pairs and first bypass view's site read (``st.bottom``: none) of ``st``.

    Each candidate is analysed as it is built.  Only a bypass candidate's
    witnesses are kept, for the later stale sources that share its
    simulation, so a candidate is dropped once analysed (unless its graph
    is drawn): many silent-store subsets cost time, not memory.
    """
    count, found, drawn, shared, view_at = 0, [], [], _Shared(st), st.bottom
    for cand in ex_mod.iter_candidates(
            [st], config.silent_stores, config.d_spec, config.tick, seen):
        count += 1
        config.tick()
        if shared.current is not cand.st:
            shared = _Shared(cand.st)
            view_at = min(view_at, cand.site.read)
        psf = cand.site is not None and cand.site.kind == "psf"
        if cand.base is None:
            witnesses = detect_leaks(cand, probe=config.probe)
            if cand.site is not None:
                shared.witnesses[id(cand)] = [] if psf else witnesses
        elif psf:
            # Its base added its records (ex_mod._refill); draw its graphs.
            if config.collect_graphs:
                drawn += [(cand, w) for w in shared.witnesses[id(cand.base)]]
            continue
        else:
            # An stl sharer has its base's witnesses (ex_mod._refill argues why).
            witnesses = shared.witnesses[id(cand.base)]
        for w in witnesses:
            records = findings(cand, w, engine, config, shared)
            found += records
            if records and psf:  # the witnesses its sharers draw
                shared.witnesses[id(cand)].append(w)
            if records and config.collect_graphs:
                drawn.append((cand, w))
    return count, found, drawn, view_at


def findings(
    cand: Candidate,
    w: LeakWitness,
    engine: str,
    config: EngineConfig,
    shared: _Shared,
) -> list[tuple[Record, tuple[int, int] | None]]:
    """The records of one witness, each with its span (:func:`_span`).

    Only the source events the scope keeps are classified.  Each keeps its
    most severe class among those ``config`` admits.
    """
    st, sources = cand.st, w.sources
    if config.scope != "any" and cand.site is not None:
        # A view's sources ascend; those before its site read are committed.
        sources = sources[bisect_left(sources, cand.site.read):]
    kept = [e for e in sources if config.scope == "any" or st.events[e].transient]
    out = []
    for eid, entries in classify_transmitters(
        cand, kept, config.w_size, shared, config.classes
    ).items():
        if config.require_gep:
            # An address record has no chain, a control chain no addr hop.
            entries = [t for t in entries if t.klass in ("address", "control") or t.gep]
        if not entries:
            continue
        best = max(entries, key=lambda t: _SEVERITY[t.klass])
        ev = st.events[eid]
        silent = None
        if eid in cand.silent:
            silent = "definite" if ev.silent_definite else "possible"
        rec = Record(
            label=ev.label,
            transient=ev.transient,
            klass=best.klass,
            access_label=st.events[best.access].label if best.access is not None else None,
            access_transient=best.access_transient,
            culprit_kind=w.culprit.kind,
            engine=engine,
            silent=silent,
        )
        out.append((rec, _span(cand, kept, best)))
    return out


# --------------------------------------------------------------------------
# witness graph output


# Every other relation is drawn solid.
_EDGE_STYLES = {"tfo": "dotted", "addr": "dashed", "data": "dashed", "ctrl": "dashed"}


def witness_dot(cand: Candidate, w: LeakWitness, title: str) -> str:
    """A graph of one witness's candidate, its culprit edge dashed and bold."""
    st = cand.st
    lines = [f'digraph "{title}" {{', "  rankdir=TB;", '  node [shape=box];']

    for ev in st.events:  # ⊤, the fetched events and ⊥
        extra = " style=dashed" if ev.transient else ""
        lines.append(f'  e{ev.eid} [label="{ev.display()}"{extra}];')
    culprit = w.culprit.edge
    drawn: set[tuple[int, int]] = set()

    def emit(rel: str, pairs) -> None:
        for a, b in sorted(pairs):
            style = _EDGE_STYLES.get(rel, "solid")
            attrs = [f'label="{rel}"', f"style={style}"]
            if (a, b) == culprit:
                attrs = [f'label="{rel}"', "style=dashed", "penwidth=2", 'color=red']
                drawn.add(culprit)
            lines.append(f"  e{a} -> e{b} [{', '.join(attrs)}];")

    for order in st.po:
        emit("po", zip(order, order[1:]))
    for order in st.tfo:
        emit("tfo", zip(order, order[1:]))
    emit("rf", cand.rf_pairs())
    emit("co", {pair for order in cand.co.values() for pair in zip(order, order[1:])})
    emit("fr", cand.fr())
    emit("rfx", cand.rfx_pairs())
    emit("cox", {pair for order in cand.cox.values() for pair in zip(order, order[1:])})
    emit("frx", cand.frx())
    emit("addr", [(a, ev.eid) for ev in st.events for a in ev.addr_reads])
    emit("data", [(a, ev.eid) for ev in st.events for a in ev.value_reads])
    emit("ctrl", [(a, ev.eid) for ev in st.events for a in ev.ctrl_reads])
    # An observer-rule culprit is an implied architectural edge with no
    # relation of its own; draw it anyway so the finding is visible.
    if culprit not in drawn:
        a, b = culprit
        rel = w.culprit.kind.split("_", 1)[0]
        lines.append(f'  e{a} -> e{b} [label="{rel}", style=dashed, penwidth=2, color=red];')
    lines.append("}")
    return "\n".join(lines)
