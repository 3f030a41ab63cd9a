"""Candidate executions: architectural and microarchitectural witnesses.

A candidate pins down, for one event structure, who reads from whom.  The
architectural witness is the usual ``(rf, co)`` pair over committed events
(with ``fr = rf^-1 ; co`` derived); the microarchitectural witness adds, per
extra-architectural state (one cache line per resolved location), the fill
edges ``rfx`` and the line-writer order ``cox``.  A candidate stores only
these four, and the kind and location of each access (AMO choices applied)
in one table per structure and AMO choice (:func:`access_table`).
``frx = rfx^-1 ; cox`` (a pair at a time: :meth:`Candidate.in_frx`), the
line each fill is on (:meth:`Candidate.xstate`) and whether an access
claims its line (it is in that line's ``cox``) are derived.

Single-thread programs have exactly one TSO witness (each load reads the
last committed same-location store, coherence follows program order), so we
construct it directly.  Multi-thread litmus programs are small; their
witnesses are brute-forced and filtered through the TSO predicates
(per-location SC and causality with the store-to-load relaxation).

The microarchitectural witness is built by one pass over fetch order
simulating an ideal write-allocate cache: every access fills its line from
the previous line writer (the initial state ``TOP`` when untouched), writes
and misses become the new line writer, hits read it.  Three deviations are
modeled on top: a *bypass* candidate forwards a site load from a chosen
stale writer (store-to-load) or from a different location's store (alias
prediction); a *silent* store neither fills nor claims its line.  The final
observer ``BOT`` reads every touched line from its last writer.

A bypass candidate (:class:`View`) simulates only its window.  Before its
site read it is its base structure's canonical candidate, whose cache state
one sweep per structure advances from one site read to the next, in eid
order, so a view's own work covers its window, not its prefix.

Candidates of one bypass site differ only in the site read's fill edge.
When that fill claims no line (every psf source, and every stl source but
the untouched line), the stale sources of one site and AMO choice share one
simulation: the first runs it, each later one copies the fill edges and
sets the site read's entry (:func:`_refill`), and ``analyze`` detects their
leaks once.  psf sources share the first one's records too.  An stl site's
untouched-line source claims the line, so it runs its own.

Every candidate is confidential (the microarchitectural analog of
consistency) by construction, as :func:`_simulate` argues, so none is
checked while candidates are built.  :func:`confidential` is the checkable
definition; the test suite applies it to every candidate it enumerates.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from . import events as ev_mod
from .cfg import find_cycle
from .events import AnalysisTimeout, EventStructure, Site, no_deadline


class ExecutionError(Exception):
    pass


# Per event id: its access kind (R, W or None) and location.
Accesses = list[tuple[str | None, str | None]]


def access_table(st: EventStructure, amo: dict[int, tuple[str, str]]) -> Accesses:
    """Each event's access kind and location, with AMO choices applied."""
    return [amo.get(e.eid, (None, None)) if e.kind == "AMO" else
            (e.kind if e.kind in ("R", "W") else None, e.location) for e in st.events]


def _ordered_pairs(orders) -> frozenset[tuple[int, int]]:
    """Every (earlier, later) pair of each order."""
    return frozenset(
        (w1, w2)
        for order in orders
        for i, w1 in enumerate(order)
        for w2 in order[i + 1 :]
    )


@dataclass
class Candidate:
    st: EventStructure
    rf: dict[int, int]  # committed read -> writer (0 = initial state)
    co: dict[str, list[int]]  # location -> [0, committed writers...]
    rfx_in: dict[int, int]  # event -> line fill source (silent stores absent)
    cox: dict[str, list[int]]  # xstate -> [0, line writers in fetch order...]
    access: Accesses = field(repr=False, compare=False)  # per structure and AMO choice
    silent: frozenset[int] = frozenset()
    site: Site | None = None  # bypass candidates: site in this structure's ids
    stale_src: int | None = None
    amo: dict[int, tuple[str, str]] = field(default_factory=dict)  # eid -> (kind, loc)
    # The candidate whose cache simulation this one shares (an earlier
    # line-neutral stale source, see :func:`_refill`); None when it ran its own.
    base: Candidate | None = field(default=None, repr=False, compare=False)
    sweep = None  # not a field: a bypass candidate's prefix state (:class:`View`)

    # -- resolved views ----------------------------------------------------

    def xstate(self, eid: int) -> str | None:
        """The line ``eid``'s fill edge is on: its own location, except at
        a psf site read, which fills from its stale source's line."""
        site = self.site
        if site is not None and eid == site.read and site.kind == "psf":
            eid = self.stale_src
        return self.access[eid][1]

    def bottom_sources(self) -> dict[str, int]:
        """The last writer of each line that has one, as ``BOT`` reads it."""
        return {x: order[-1] for x, order in self.cox.items() if len(order) > 1}

    def observed(self) -> tuple[int, ...]:
        """The program events ``BOT`` reads a line from, ascending."""
        return tuple(sorted(set(self.bottom_sources().values())))

    def fr(self) -> frozenset[tuple[int, int]]:
        pairs = set()
        for r, w in self.rf.items():
            order = self.co.get(self.access[r][1], [0])
            start = order.index(w) + 1
            for w2 in order[start:]:
                if w2 != r:
                    pairs.add((r, w2))
        return frozenset(pairs)

    def rf_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((w, r) for r, w in self.rf.items())

    def rfx_pairs(self) -> frozenset[tuple[int, int]]:
        pairs = {(src, e) for e, src in self.rfx_in.items()}
        bottom = self.st.bottom
        pairs |= {(w, bottom) for w in self.bottom_sources().values()}
        return frozenset(pairs)

    def in_frx(self, e: int, w: int) -> bool:
        """Whether ``(e, w)`` is in ``frx = rfx^-1 ; cox``: ``w`` is not ``e``
        and comes after ``e``'s fill source in the order of ``e``'s line."""
        src = self.rfx_in.get(e)
        order = self.cox.get(self.xstate(e), ())
        return w != e and src in order and w in order and order.index(w) > order.index(src)

    def frx(self) -> frozenset[tuple[int, int]]:
        """``frx`` in full (``confidential`` and graphs read it)."""
        return frozenset((e, w) for e in self.rfx_in for w in self.cox.get(self.xstate(e), ())
                         if self.in_frx(e, w))

    def describe(self) -> str:
        bits = [self.st.describe()]
        if self.site is not None:
            src = "⊤" if self.stale_src == 0 else self.st.events[self.stale_src].display()
            bits.append(f"[{self.site.kind} {self.st.events[self.site.read].display()} <~ {src}]")
        if self.silent:
            names = ",".join(self.st.events[e].display() for e in sorted(self.silent))
            bits.append(f"[silent {names}]")
        return " ".join(bits)


# --------------------------------------------------------------------------
# architectural witnesses


def _amo_choices(st: EventStructure) -> list[dict[int, tuple[str, str]]]:
    per_event = [[(e.eid, (kind, loc)) for _, loc in e.amo_pointers for kind in ("R", "W")]
                 for e in st.events if e.kind == "AMO" and e.amo_pointers]
    return [dict(combo) for combo in itertools.product(*per_event)] if per_event else [{}]


def canonical_arch(
    cand_st: EventStructure, access: Accesses
) -> tuple[dict[int, int], dict[str, list[int]]]:
    """The unique single-thread TSO witness: last-writer rf, po-ordered co."""
    rf: dict[int, int] = {}
    co: dict[str, list[int]] = {}
    last: dict[str, int] = {}
    events = cand_st.events
    for eid, (kind, loc) in enumerate(access):  # po is the committed events in id order
        if kind is None or events[eid].transient:
            continue
        if kind == "R":
            rf[eid] = last.get(loc, 0)
        elif kind == "W":
            co.setdefault(loc, [0]).append(eid)
            last[loc] = eid
    return rf, co


def _tso_consistent(cand: Candidate, fence_pairs: frozenset[tuple[int, int]]) -> bool:
    st, access = cand.st, cand.access
    rf = cand.rf_pairs()
    co = _ordered_pairs(cand.co.values())
    fr = cand.fr()

    # Same-location po (per-location SC) and po minus store-to-load (ppo).
    po_loc, ppo = set(), set()
    for order in st.po:
        m = [e for e in order if access[e][0] is not None]
        for i, e1 in enumerate(m):
            for e2 in m[i + 1 :]:
                if access[e1][1] == access[e2][1]:
                    po_loc.add((e1, e2))
                if (access[e1][0], access[e2][0]) != ("W", "R"):
                    ppo.add((e1, e2))
    if find_cycle(rf | co | fr | po_loc):
        return False

    # Causality with the store-to-load relaxation.
    rfe = {
        (w, r)
        for (w, r) in rf
        if w == 0 or st.events[w].thread != st.events[r].thread
    }
    return not find_cycle(rfe | co | fr | ppo | fence_pairs)


def arch_witnesses(
    st: EventStructure, access: Accesses, tick=no_deadline
) -> list[tuple[dict[int, int], dict[str, list[int]]]]:
    """All TSO-consistent (rf, co) pairs; brute force for multi-thread."""
    if len(st.acfg.roots) == 1:
        return [canonical_arch(st, access)]

    reads: list[int] = []
    writes: dict[str, list[int]] = {}
    for order in st.po:
        for eid in order:
            kind, loc = access[eid]
            if kind == "R":
                reads.append(eid)
            elif kind == "W":
                writes.setdefault(loc, []).append(eid)
    if len(reads) + sum(len(ws) for ws in writes.values()) > 10:
        raise ExecutionError(
            "multi-thread witness enumeration is limited to 10 memory events"
        )
    rf_opts = []
    for r in reads:
        rf_opts.append([(r, w) for w in [0] + writes.get(access[r][1], [])])
    co_opts = [
        [(loc, [0] + list(p)) for p in itertools.permutations(ws)]
        for loc, ws in writes.items()
    ]
    fence_pairs, out = st.fence_pairs, []
    for rf_combo in itertools.product(*rf_opts) if rf_opts else [()]:
        for co_combo in itertools.product(*co_opts) if co_opts else [()]:
            tick()
            rf = dict(rf_combo)
            co = dict(co_combo)
            probe = Candidate(st=st, rf=rf, co=co, rfx_in={}, cox={}, access=access)
            if _tso_consistent(probe, fence_pairs):
                out.append((rf, co))
    return out


# --------------------------------------------------------------------------
# microarchitectural witness (canonical cache simulation)


def _simulate(
    rfx_in: dict[int, int], cox: dict[str, list[int]], access: Accesses, eids: Iterable[int],
    silent: frozenset[int] = frozenset(), site: Site | None = None, stale_src: int | None = None,
) -> tuple[dict[int, int], dict[str, list[int]]]:
    """The cache simulation over ``eids`` in fetch order, from the state
    ``rfx_in``, ``cox`` (extended in place): each access's fill source and
    each line's writers in fetch order (a write, a miss and an stl site read
    of the untouched line claim the line).  A canonical candidate runs it
    from an empty state; a bypass view over its window, from the state of
    the window's lines at its site read.

    Its result is confidential (:func:`confidential`) by construction:

    * events are visited in fetch order, and each fill edge comes from the
      line's writer so far (``0`` when untouched) while each line writer is
      appended to its order, so every ``rfx_in`` and ``cox`` edge points
      forward in fetch order (``0`` first, ``BOT`` last), and so do the
      same-line fetch-order edges; edges that all point forward close no
      cycle;
    * a bypass site's stale source precedes the site in fetch order, so its
      fill edge points forward too;
    * every writer after an event's fill source in that line's order was
      appended after the event was visited, so an ``frx`` pair points
      backward only at the site read, which the check exempts.
    """
    for eid in eids:
        kind, x = access[eid]
        if kind is None or eid in silent:
            continue  # no access, or a silent store: no fill, no claim
        if site is not None and eid == site.read:
            # The misforwarded load: an stl site forwards from a stale
            # same-line writer (or runs against the untouched line), a
            # psf site fills from an aliased store's line.
            assert stale_src is not None
            rfx_in[eid] = stale_src
            if not _line_neutral(site, stale_src):
                cox.setdefault(x, [0]).append(eid)
            continue
        hist = cox.setdefault(x, [0])
        rfx_in[eid] = hist[-1]
        if kind == "W" or len(hist) == 1:
            hist.append(eid)
    return rfx_in, cox


def _line_neutral(site: Site, stale_src: int) -> bool:
    """Whether the site read's fill from ``stale_src`` claims no line: every
    psf source, and every stl source but the untouched line ``0``."""
    return site.kind == "psf" or stale_src != 0


def _refill(base: View, stale_src: int) -> View:
    """The candidate of line-neutral stale source ``stale_src``, sharing the
    simulation of ``base``: the candidate of an earlier line-neutral source
    of the same site and AMO choice.

    For two line-neutral sources, :func:`_simulate` differs only in the
    site read's ``rfx_in`` entry.  The read claims no line either way, so
    no later access fills from it and ``cox`` is the same.  Only the
    window's fills are copied, with the read's entry set anew; every other
    part is the same object.  The read's fill line
    (:meth:`Candidate.xstate`) follows from the new ``stale_src``.

    The leak witnesses are the same too, up to the candidate they name, so
    ``analyze`` runs ``detect_leaks`` once per simulation (``base``): a
    view's witness is the observer rule's alone, and the final observer's
    lines are shared.

    At a psf site ``analyze`` takes the records of ``base`` too: a fill
    across lines forwards nothing, so classification and fence slots read
    the same relations.  An stl fill forwards its stale store.
    """
    assert base.base is None
    fills = dict(base.fills)
    fills[base.site.read] = stale_src
    return View(base.st, base.access, base.site, stale_src, base.amo, base.sweep, base.tops,
                fills, base.lines, base)


def confidential(cand: Candidate) -> bool:
    """The microarchitectural analog of consistency.

    The fill/writer orders must compose acyclically with same-line fetch
    order, and any fill edge pointing *against* fetch order (reading a line
    version that a fetch-earlier event should already have replaced) is
    only justified at a bypass site.  Fetch order is event-id order.
    """
    edges = {(src, e) for e, src in cand.rfx_in.items()}
    for order in cand.cox.values():
        edges.update(zip(order, order[1:]))
    by_x: dict[str, list[int]] = {}
    for e, src in cand.rfx_in.items():
        by_x.setdefault(cand.xstate(e), []).append(e)
    for x, order in cand.cox.items():
        members = sorted(set(order[1:]) | set(by_x.get(x, [])))
        edges.update(zip(members, members[1:]))
    if find_cycle(edges):
        return False
    site_read = cand.site.read if cand.site is not None else None
    for e, w2 in cand.frx():
        if w2 == 0 or e == cand.st.bottom:
            continue
        if w2 < e and e != site_read:
            return False
    return True


# --------------------------------------------------------------------------
# candidate enumeration


def _nonempty_subsets(items: list[int]) -> Iterator[frozenset[int]]:
    """Every non-empty subset of ``items``, smallest first, one at a time."""
    return map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(items, n) for n in range(1, len(items) + 1)))


def _make_candidates(
    st: EventStructure, amo: dict[int, tuple[str, str]], access: Accesses,
    arch: list[tuple[dict[int, int], dict[str, list[int]]]], eids: Iterable[int],
    silent: frozenset[int] = frozenset(),
) -> list[Candidate]:
    """The candidates over the architectural witnesses ``arch``, sharing
    one cache simulation over ``eids`` (:func:`_simulate`): it does not
    depend on the witness, and nothing mutates a candidate."""
    rfx_in, cox = _simulate({}, {}, access, eids, silent)
    return [Candidate(st, rf, co, rfx_in, cox, access, silent, amo=amo) for rf, co in arch]


class _Sweep:
    """The cache state of a structure's canonical candidate ``canon``,
    advanced in eid order from one site read to the next (sites ascend):
    each line's writer so far, and those writers, ascending."""

    def __init__(self, canon: Candidate) -> None:
        self.canon, self.at = canon, 1
        self.last: dict[str, int] = {}
        self.tops: dict[int, None] = {}

    def advance(self, read: int) -> tuple[int, ...]:
        """Advance to ``read``; the writers the final observer would read."""
        access, last, tops = self.canon.access, self.last, self.tops
        for e in range(self.at, read):
            kind, x = access[e]
            if kind == "W" or kind == "R" and x not in last:  # as :func:`_simulate` claims
                tops.pop(last.get(x), None)
                last[x] = e
                tops[e] = None
        self.at = read
        return tuple(tops)


class View(Candidate):
    """A bypass candidate: its sweep at the site read, then its window's own
    simulation, ``fills`` and ``lines`` (a line the prefix wrote starts as
    ``[0, its writer]``).  The full ``rf``, ``co``, ``rfx_in`` and ``cox``,
    which only graphs and tests read, are built on first read afresh."""

    def __init__(self, st: EventStructure, access: Accesses, site: Site, stale_src: int,
                 amo: dict, sweep: _Sweep, tops: tuple[int, ...], fills: dict[int, int],
                 lines: dict[str, list[int]], base: View | None = None) -> None:
        self.st, self.access, self.silent, self.site = st, access, frozenset(), site
        self.stale_src, self.amo, self.base = stale_src, amo, base
        self.sweep, self.tops, self.fills, self.lines = sweep, tops, fills, lines

    def __getattr__(self, name: str):
        if name not in ("rf", "co", "rfx_in", "cox"):
            raise AttributeError(name)
        self.rf, self.co = canonical_arch(self.st, self.access)
        self.rfx_in, self.cox = _simulate({}, {}, self.access, range(1, self.st.bottom),
                                          frozenset(), self.site, self.stale_src)
        return getattr(self, name)

    def observed(self) -> tuple[int, ...]:
        """The sweep's writers but those of the lines the window took over,
        then the window's own."""
        read, kept, own = self.site.read, list(self.tops), []
        for hist in self.lines.values():
            if hist[-1] >= read:
                own.append(hist[-1])
                if hist[1] < read:
                    del kept[bisect_left(kept, hist[1])]
        own.sort()
        return (*kept, *own)


def _view_candidates(
    view: EventStructure, site: Site, stop: int, sweeps: list[_Sweep], tick
) -> Iterator[Candidate]:
    """The candidates of ``view``, the view of ``site`` whose window ends
    before eid ``stop``: each AMO choice of its base's ``sweeps``, restricted
    to its events (first kept), gives its access table and window's lines."""
    read = site.read
    choices: dict[tuple, _Sweep] = {}
    for sweep in sweeps:
        choices.setdefault(tuple((e, c) for e, c in sweep.canon.amo.items() if e < stop), sweep)
    tail = [(None, None)] * (len(view.events) - stop)  # a squash, the final observer
    cuts = [(dict(amo), sweep.canon.access[:stop] + tail, sweep, sweep.advance(read))
            for amo, sweep in choices.items()]
    window = range(read, view.bottom)
    # choice -> the candidate of the site's first line-neutral source; the
    # later ones share its simulation.
    bases: dict[int, View] = {}
    for src in site.sources:
        neutral = _line_neutral(site, src)
        for k, (amo, access, sweep, tops) in enumerate(cuts):
            tick()
            if neutral and k in bases:
                yield _refill(bases[k], src)
                continue
            lines = {x: [0, sweep.last[x]] for e in window if (x := access[e][1]) in sweep.last}
            fills, lines = _simulate({}, lines, access, window, frozenset(), site, src)
            cand = View(view, access, site, src, amo, sweep, tops, fills, lines)
            if neutral:
                bases[k] = cand
            yield cand


def iter_candidates(
    structures: Iterable[EventStructure],
    silent_stores: bool = False,
    d_spec: int = 250,
    tick=no_deadline,
    seen: set | None = None,
) -> Iterator[Candidate]:
    """All consistent candidates: canonical, silent-store, and bypass ones,
    one at a time, so a caller that drops each may hold none.

    The candidates of one structure are contiguous: its canonical and
    silent-store ones, then those of each bypass view in site order.  The
    access table (:func:`access_table`) and the architectural witnesses are
    computed once per (structure, AMO choice) and shared by its silent-store
    candidates; a view slices its table from them (:func:`_view_candidates`).
    The cache simulation is run once per (view, AMO choice) for all the
    line-neutral stale sources of its site (:func:`_refill`).

    ``tick`` is a callable invoked once per structure, bypass
    site, multi-thread witness combination and batch of candidates built;
    it may raise :class:`AnalysisTimeout` to abandon the enumeration.
    ``seen`` holds the bypass keys of earlier calls' structures.
    """
    seen_bypass = set() if seen is None else seen
    for st in structures:
        tick()
        # One per new bypass (:func:`events.derive_bypass`); a derived
        # structure keeps its base's event ids, so the site is the same.
        derived = ev_mod.derive_bypass(st, d_spec, tick, seen_bypass) if st.sites else []
        amos = _amo_choices(st)
        tables = [access_table(st, amo) for amo in amos]
        archs = [arch_witnesses(st, access, tick) for access in tables]
        silent = [e.eid for e in st.events if e.silent_eligible] if silent_stores else []
        fetched = range(1, st.bottom)
        canonical = []
        for amo, access, arch in zip(amos, tables, archs):
            tick()
            made = _make_candidates(st, amo, access, arch, fetched)
            canonical += made[:1]
            yield from made
            for subset in _nonempty_subsets(silent) if silent else ():
                tick()
                yield from _make_candidates(st, amo, access, arch, fetched, subset)
        sweeps: list[_Sweep] = []  # built at the first view
        for site, view, (stop, *_) in zip(
                st.sites, derived, ev_mod._windows(st, d_spec) if derived else ()):
            if view is not None:
                sweeps = sweeps or [_Sweep(cand) for cand in canonical]
                yield from _view_candidates(view, site, stop, sweeps, tick)


def enumerate_candidates(
    structures: Iterable[EventStructure],
    silent_stores: bool = False,
    d_spec: int = 250,
    tick=no_deadline,
    seen: set | None = None,
) -> list[Candidate]:
    """:func:`iter_candidates`, as a list."""
    return list(iter_candidates(structures, silent_stores, d_spec, tick, seen))
