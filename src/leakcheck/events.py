"""Event structures: control-flow paths decorated with speculative fetches.

An event structure fixes one committed path through the abstract CFG (one
outcome per branch), an optional set of transient events fetched beyond it,
and the static relations between events.  It stores only the events: each
thread fetches in id order, one thread after another, so the orders and the
fence pairs are read off them:

* ``po``  -- committed program order, per thread;
* ``tfo`` -- total fetch order, per thread (``po`` plus transient events);
* ``addr``/``data``/``ctrl`` -- syntactic dependencies from a register-taint
  walk, held by the event each ends at: the earlier loads its address, its
  stored value or its enclosing branch conditions were computed from;
* fence-induced ordering pairs between committed memory events.

Three speculation primitives can extend a structure:

* ``branch``  -- at every committed two-way branch, the untaken arm is
  fetched transiently up to the speculation depth (stopping before any
  further branch or fence);
* ``stl``     -- a committed load with a po-earlier fence-free store to the
  same location is marked as a *site*: a derived structure re-runs the load
  transiently against a stale forwarding source;
* ``psf``     -- as ``stl`` but the qualifying store may target any
  location (the load's address is mispredicted to alias it).

Structures are built along the tree of committed paths: one depth-first
walk fetches each branch prefix once and forks at every branch, so the
structures of paths with a common prefix share that prefix's events.  The
dependencies, the sites and the silent-store marks are derived as each
event is emitted, from state carried along the walk; no pass runs over a
finished structure.

Each node's record (:class:`_Op`) is made once per graph, on its first walk,
from what its instruction's parse decoded (``ir.Decoded``); every fetch reads
it, and its location is resolved under an alias choice once per walk.

Each event keeps the nodes fetched for it (its own, then the event-less ones
after it), from which fence slots and bypass windows are read; no event and
no walking state holds a fetch position: a window step names its branch by
event id, and a register definition is named by its node and the window that
fetched it.  Where both arms of a branch run through event-less steps to
one join node, the two forks are merged at the join when what the walk below
it reads and the arms can change is equal: events, open branches, taint, and
the definitions of the registers that a node reachable from the join reads
through an indirect address, a stored value or an AMO pointer.  Only one
fork walks on.  Each structure of its subtree becomes a :class:`Graft` for
the other fork: a view of that structure whose fetched nodes are the other
fork's up to the join, built only when read.  So ``b`` such diamonds take a
walk linear in ``b`` and ``2^b`` views, not ``2^b`` walks or copies.

Sites are recorded on the path structure, which then has no branch windows
(``branch`` does not combine with ``stl`` or ``psf``).  :func:`derive_bypass`
makes the derived structure of each site a view over its base, with no
second walk: the base's own prefix events and transient twins of its events
from the site to the window's end, each with its dependencies; its dedupe
key names the nodes fetched before the site by an interned id.  Events ``0``
and ``len(events)-1`` are the initial-state writer and the final observer; a
transient squash pseudo-event marks speculative fetch running off the end of
the program.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, TypeVar

from .cfg import ACfg, ANode, EXIT, no_deadline


class AnalysisTimeout(Exception):
    """Raised when a cooperative deadline expires mid-enumeration."""


@dataclass(unsafe_hash=True, slots=True)
class Site:
    """A committed load that a bypass primitive may misforward.

    ``sources`` are the stale forwarding choices: event ids of writers that
    precede the load's canonical source in the canonical cache order (the
    initial-state writer ``0`` included) for ``stl``, or fence-free
    different-location stores for ``psf``.
    """

    read: int
    kind: str  # "stl" | "psf"
    sources: tuple[int, ...]


class Step(NamedTuple):
    """One fetch of a walk: an ACfg node, or a squash marker.  The walk passes
    a committed fetch as the plain tuple ``(node, True, None)``."""

    node: int | None  # None = transient squash (ran off the program's end)
    committed: bool
    window: int | None = None  # eid of the branch whose window this fetch is in


# One empty set for every event, register and structure with nothing in it.
# Sets are shared, never copied, as no set changes once made: a union with
# one non-empty part is that part.
_EMPTY: frozenset = frozenset()


@dataclass(slots=True)
class Event:
    eid: int
    kind: str  # "R" | "W" | "BR" | "F" | "AMO" | "TOP" | "BOT" | "SBOT"
    thread: int = 0
    transient: bool = False
    node_id: int | None = None
    location: str | None = None
    gep: bool = False  # address is register-indexed (a computed element access)
    fence: str | None = None  # "full" | "lfence" for F events
    window: int | None = None  # eid of the branch this transient fetch belongs to
    cond_reads: frozenset[int] = _EMPTY  # BR: loads tainting the condition
    addr_reads: frozenset[int] = _EMPTY  # R/W/AMO: loads tainting the address
    value_reads: frozenset[int] = _EMPTY  # W: loads tainting the stored value
    ctrl_reads: frozenset[int] = _EMPTY  # loads tainting an open branch's condition
    amo_pointers: tuple[tuple[str, str], ...] = ()  # AMO: (register, location) choices
    silent_eligible: bool = False
    silent_definite: bool = False
    label: str = ""

    def is_memory(self) -> bool:
        return self.kind in ("R", "W", "AMO")

    def display(self) -> str:
        return f"{self.label}_S" if self.transient else self.label


@dataclass
class EventStructure:
    """Its events in id order, the one record of order: ⊤, each thread's in
    fetch order, then ⊥.  ``po``, ``tfo`` and ``fence_pairs`` are read off
    them anew on each read."""

    events: list[Event]
    sites: tuple[Site, ...]
    merged_aliases: frozenset[frozenset[str]]
    # Per event: the nodes fetched for it, its own first (None for a
    # squash), then the event-less ones (ALU, skip, jump) fetched after it up
    # to its thread's next event; () for the initial writer and the final
    # observer.  A thread's event-less nodes before its first event are not
    # kept: no fence slot span starts there.
    fetched: list[tuple[int | None, ...]] = field(repr=False)
    acfg: ACfg = field(repr=False)
    # :func:`_windows` for one ``d_spec``, shared by the bypass derivation
    # and its views' candidates (``executions.iter_candidates``): (d_spec, windows).
    window_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def bottom(self) -> int:
        """The final observer's event id."""
        return len(self.events) - 1

    @property
    def tfo(self) -> list[list[int]]:
        """Fetched program events per thread (squashes included)."""
        events = self.events[1:-1]
        return [[e.eid for e in events if e.thread == t] for t in range(len(self.acfg.roots))]

    @property
    def po(self) -> list[list[int]]:
        """Committed program events per thread."""
        return [[e for e in order if not self.events[e].transient] for order in self.tfo]

    @property
    def fence_pairs(self) -> frozenset[tuple[int, int]]:
        """Memory-event pairs a fence orders, read by the multi-thread TSO
        check only: empty for single-thread structures, whose one witness is
        canonical."""
        if len(self.acfg.roots) < 2:
            return _EMPTY
        pairs: set[tuple[int, int]] = set()
        for order in self.po:
            for i, fid in enumerate(order):
                fev = self.events[fid]
                if fev.kind != "F":
                    continue
                before = [e for e in order[:i] if self.events[e].is_memory()]
                after = [e for e in order[i + 1 :] if self.events[e].is_memory()]
                for e1 in before:
                    if fev.fence == "lfence" and self.events[e1].kind != "R":
                        continue
                    for e2 in after:
                        pairs.add((e1, e2))
        return frozenset(pairs)

    def describe(self) -> str:
        parts, orders = [], self.tfo
        for tid, order in enumerate(orders):
            names = " ".join(self.events[e].display() for e in order)
            parts.append(names if len(orders) == 1 else f"t{tid}: {names}")
        return " | ".join(parts)


class Graft(EventStructure):
    """A structure of a merged fork's walk (:func:`_walk_paths`), as a view of
    ``leaf``, the structure the other fork's walk gave in its place.

    It shares the leaf's events and sites.  ``cut`` is
    the id of the event the join emits: the fork's own ``fetched`` has that
    many entries, and from there on the leaf's are the graft's, so the graft's
    ``fetched`` is the two joined, built on first read.
    """

    def __init__(self, leaf: EventStructure, head: list[tuple[int | None, ...]]) -> None:
        self.events, self.sites = leaf.events, leaf.sites
        self.merged_aliases, self.acfg = leaf.merged_aliases, leaf.acfg
        self.leaf, self.cut, self._head = leaf, len(head), head

    @cached_property
    def fetched(self) -> list[tuple[int | None, ...]]:  # type: ignore[override]
        return self._head + self.leaf.fetched[self.cut:]


_K = TypeVar("_K")


def _uf_find(uf: dict[_K, _K], name: _K) -> _K:
    root = name
    while uf.get(root, root) != root:
        root = uf[root]
    while uf.get(name, name) != name:
        uf[name], name = root, uf[name]
    return root


def _make_union_find(groups: Iterable[Iterable[_K]]) -> dict[_K, _K]:
    uf: dict[_K, _K] = {}
    for group in groups:
        roots = sorted(_uf_find(uf, n) for n in group)
        for other in roots[1:]:
            uf[other] = roots[0]
    return uf


def alias_subsets(aliases: list[tuple[str, str]]) -> Iterator[frozenset[frozenset[str]]]:
    """Every subset of the alias pairs, one at a time: subset ``i`` holds pair
    ``j`` when bit ``j`` of ``i`` is set."""
    pairs = [frozenset(pair) for pair in aliases]
    for i in range(1 << len(pairs)):
        yield frozenset(pair for j, pair in enumerate(pairs) if i >> j & 1)


def _window_steps(
    graph: ACfg, branch: int | None, start: int, d_spec: int
) -> list[Step]:
    """Transiently fetch the untaken arm from ``start`` of the branch with
    event id ``branch``.  Stops before a branch or fence, at the depth
    budget, or with a squash marker at the program's end."""
    ops = _walk_maps(graph).ops
    steps: list[Step] = []
    cur = start
    while cur != EXIT and len(steps) < d_spec:
        if ops[cur].closes:
            return steps
        steps.append(Step(cur, False, branch))
        cur = graph.succ[cur][0]
    if cur == EXIT:
        steps.append(Step(None, False, branch))
    return steps


def _node_label(node: ANode) -> str:
    # Labels already carry the inline-instance suffix from splicing;
    # anonymous nodes need it added to stay unique across instances.
    base = node.instr.label or f"{node.func}@{node.index}{node.site}"
    if node.copy and any(c != 1 for c in node.copy):
        base += "~" + ".".join(str(c) for c in node.copy)
    return base


class _Op(NamedTuple):
    """One ACfg node's instruction as each fetch of it reads it (:func:`_decode`)."""

    kind: str | None  # its events' kind, "ALU", or None: no event and no definition
    label: str  # its events' label ("" for a node with none)
    closes: bool  # a branch or fence: a transient window stops before it
    loc: str | None = None  # R/W: a direct or indexed location, before alias resolution
    gep: bool = False  # R/W: the address is register-indexed
    ptr: str | None = None  # R/W: the pointer register of an indirect address
    addr_regs: tuple[str, ...] = ()  # R/W: the address's registers; AMO: its pointers
    dest: str | None = None  # R, ALU: the register defined
    regs: tuple[str, ...] = ()  # W: the value's registers; ALU: the expression's; BR: the condition
    text: str = ""  # W: the stored value's text
    fence: str | None = None  # F: "full" | "lfence"


def _decode(node: ANode) -> _Op:
    """``node``'s instruction from its parse's record (``ir.Decoded``), once per
    graph (:func:`_walk_maps`); made as a plain tuple, every field given."""
    op, kind = node.instr.op, node.instr.op.tag
    if kind == "ALU":
        fields = (kind, "", False, None, False, None, (), op.dest, op.reads, "", None)
    elif kind == "R" or kind == "W":
        loc, regs = op.addr.cell, op.addr.regs
        # A register of an address with a cell indexes it; of one without, it is the pointer.
        gep, ptr = (bool(regs), None) if loc is not None else (False, regs[0])
        fields = (kind, _node_label(node), False, loc, gep, ptr, regs) + (
            (op.dest, (), "", None) if kind == "R" else (None, op.value.regs, op.value.text, None))
    elif kind == "BR":
        fields = (kind, _node_label(node), True, None, False, None, (), None, op.reads, "", None)
    elif kind == "F":
        fields = (kind, _node_label(node), True, None, False, None, (), None, (), "", op.kind)
    elif kind == "AMO":
        fields = (kind, _node_label(node), False, None, False, None, op.reads, None, (), "", None)
    else:  # skip, jump
        fields = (None, "", False, None, False, None, (), None, (), "", None)
    return tuple.__new__(_Op, fields)


class _ThreadState:
    """Register taint and reaching definitions while walking one thread's
    fetches.  A definition is named by its node and its step's window (None
    when committed): a node is fetched at most once on a committed path and
    at most once in each window, and each window has its own branch, so
    within a thread the name is unique, and no two threads share a node."""

    def __init__(self) -> None:
        self.taint: dict[str, frozenset[int]] = {}
        self.defs: dict[str, tuple[int, int | None]] = {}

    def copy(self) -> _ThreadState:
        new = _ThreadState()
        new.taint, new.defs = dict(self.taint), dict(self.defs)
        return new

    def reads_of(self, regs) -> frozenset[int]:
        out = _EMPTY
        for reg in regs:
            got = self.taint.get(reg)
            if got:
                out = out | got if out else got
        return out


def _topological(graph: ACfg) -> list[int]:
    """The nodes of the acyclic ``graph`` in a topological order (Kahn)."""
    indeg = [0] * len(graph.succ)
    for nxt in (nxt for succs in graph.succ for nxt in succs if nxt != EXIT):
        indeg[nxt] += 1
    order = [node for node, d in enumerate(indeg) if not d]
    for node in order:  # the order grows as nodes become ready
        for nxt in graph.succ[node]:
            if nxt != EXIT:
                indeg[nxt] -= 1
                if not indeg[nxt]:
                    order.append(nxt)
    return order


def _branch_regions(graph: ACfg, order: list[int], branches: list[int]) -> dict[int, frozenset]:
    """Nodes control-dependent on each of the ``branches`` (postdominator-bounded),
    from ``order``, a topological order of ``graph``: a node's immediate
    postdominator is the meet of its successors', all found in one pass in
    reverse ``order``, and a branch's region lies between the two in it."""
    if not branches:
        return {}
    succ = graph.succ
    rank = [0] * (len(succ) + 1)  # EXIT (-1) is the last entry, past every node
    for i, node in enumerate(order):
        rank[node] = i
    rank[EXIT] = len(order)
    ipdom = [EXIT] * len(succ)
    for node in reversed(order):
        first = succ[node][0]
        if len(succ[node]) == 2:  # walk up to the meet
            other = succ[node][1]
            while first != other:
                while rank[first] < rank[other]:
                    first = ipdom[first]
                while rank[other] < rank[first]:
                    other = ipdom[other]
        ipdom[node] = first
    regions: dict[int, frozenset[int]] = {}
    for node in branches:
        if len(succ[node]) != 2:
            regions[node] = _EMPTY
            continue
        stop = ipdom[node]
        reached = set(succ[node])
        for cur in order[rank[node] + 1 : rank[stop]]:
            if cur in reached:
                reached.update(succ[cur])
        reached.discard(stop)
        reached.discard(EXIT)
        regions[node] = frozenset(reached)
    return regions


class _Builder:
    """One structure under construction, fed one fetch (:class:`Step`) at a
    time, thread after thread.

    Every edge, site and mark of the structure is derived as its event is
    emitted, from state carried along the walk, so :meth:`finish` only adds
    the final observer:

    * an event's ``addr_reads`` and ``value_reads`` from the register taint;
    * its ``ctrl_reads`` from the open committed branches, those with a
      condition whose region the committed path has not left;
    * silent marks from the value identities of the committed stores so far;
    * sites (single-thread structures, under ``stl``/``psf``) from the line
      writers so far and the committed stores since the last committed fence.

    :meth:`fork` copies the containers but not the events in them: structures
    whose committed paths share a prefix share that prefix's :class:`Event`
    objects, so an event never changes once emitted.
    """

    def __init__(
        self,
        graph: ACfg,
        merged: frozenset[frozenset[str]],
        primitives: frozenset[str],
    ) -> None:
        self.graph = graph
        self.merged = merged
        self.primitives = primitives
        self.maps = _walk_maps(graph)
        # Per node: its direct or indexed location under ``merged``, or None.
        uf = _make_union_find(merged)
        self.locs = [op.loc and _uf_find(uf, op.loc) for op in self.maps.ops]
        self.single = len(graph.roots) == 1
        self.events: list[Event] = [Event(0, "TOP", label="⊤")]
        self.fetched: list[tuple[int | None, ...]] = [()]
        # The current thread (-1: none yet) and the id of its first event.
        self.thread, self._first = -1, 1
        self.sites: tuple[Site, ...] = ()
        # Value identities of the committed stores so far, per location:
        # silent marks are read from them when the next store is emitted.
        self._stores: dict[str, tuple[tuple, ...]] = {}
        # The canonical cache's writers of each line so far, in fetch order
        # (a read miss fills its line and counts as a writer), the last
        # committed fence (0: none), and under psf the committed stores since
        # it: sites are read from them when a committed load is emitted.
        self._want_sites = self.single and bool(primitives & {"stl", "psf"})
        self._lines: dict[str, tuple[int, ...]] = {}
        self._fence = 0
        self._unfenced: tuple[int, ...] = ()
        # The current thread's walking state: register taint and
        # definitions, and the open committed branches.
        self.state = _ThreadState()
        self._open: tuple[Event, ...] = ()

    def fork(self) -> _Builder:
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.events = list(self.events)
        new.fetched = list(self.fetched)
        new._stores = dict(self._stores)
        new._lines = dict(self._lines)
        new.state = self.state.copy()
        return new

    def mergeable(self, other: _Builder, reads: frozenset[str]) -> bool:
        """Whether the walk from here gives the structures that ``other``'s
        walk from the same join node gives, up to the nodes fetched before
        that node (:meth:`graft`): ``reads`` are the registers whose
        definition a node reachable from the join reads.

        Only what the two arms can set apart is compared.  The arms emit no
        event and a window's events are transient, so ``po`` and the store
        history are equal at every join; sites, the line histories, the last
        fence and the unfenced stores are too, as a walk with sites has no
        windows.  The tests assert all of these."""
        mine, theirs = self.state, other.state
        return (
            mine.taint == theirs.taint
            and all(mine.defs.get(reg) == theirs.defs.get(reg) for reg in reads)
            and self._open == other._open
            and self.events == other.events
        )

    def graft(self, leaf: EventStructure) -> Graft:
        """``leaf``, a structure of the walk from a fork :meth:`mergeable`
        with this builder, as the walk from this builder would give it: a
        view with this builder's ``fetched`` so far, then ``leaf``'s from the
        event the join emits on.  The builder walks no further, so the view
        holds its ``fetched`` as it is."""
        return Graft(leaf, self.fetched)

    def start_thread(self) -> None:
        self.thread += 1
        self._first = len(self.events)
        self.state = _ThreadState()
        self._open = ()

    def window(self, steps: list[Step]) -> None:
        """Fetch a branch window's ``steps`` on a copy of the committed
        register state, which the next step starts from again."""
        committed, self.state = self.state, self.state.copy()
        for step in steps:
            self.step(step)
        self.state = committed

    def step(self, step: Step) -> None:
        """Fetch ``step`` as the current thread's next step."""
        node, committed, window = step
        ctrl_reads = self._control(step) if self._open else _EMPTY
        eid = len(self.events)
        if node is None:
            self.events.append(Event(eid, "SBOT", self.thread, True, window=window,
                                     ctrl_reads=ctrl_reads, label="⊥"))
            self.fetched.append((None,))
            return
        op, state = self.maps.ops[node], self.state
        kind = op.kind
        if kind is None or kind == "ALU":
            if kind:
                state.taint[op.dest] = state.reads_of(op.regs)
                state.defs[op.dest] = node, window
            # No event: the node joins the fetched nodes of the thread's
            # last event, if it has one.
            if eid > self._first:
                self.fetched[-1] += (node,)
            return
        loc, cond, addr, value, pointers, eligible, definite = (
            None, _EMPTY, _EMPTY, _EMPTY, (), False, False)
        if kind == "R" or kind == "W":
            # An indirect location is keyed by the pointer's reaching definition.
            loc = self.locs[node] or f"*{op.ptr}@{state.defs.get(op.ptr)}"
            addr = state.reads_of(op.addr_regs)
            if kind == "R":
                state.taint[op.dest] = frozenset((eid,))
                state.defs[op.dest] = node, window
            else:
                value = state.reads_of(op.regs)
                # A committed store after a committed same-location store
                # may be silent (single-thread programs only); definitely so
                # when an earlier one stores the same value identity: the
                # expression text and the reaching definition of every
                # register in it.
                if committed and self.single:
                    value_id = (op.text, tuple(sorted((r, state.defs.get(r)) for r in op.regs)))
                    prior = self._stores.get(loc, ())
                    eligible, definite = bool(prior), value_id in prior
                    self._stores[loc] = prior + (value_id,)
        elif kind == "BR":
            cond = state.reads_of(op.regs)
        elif kind == "AMO":
            addr = state.reads_of(op.addr_regs)
            pointers = tuple((reg, f"*{reg}@{state.defs.get(reg)}") for reg in op.addr_regs)
        ev = Event(eid, kind, self.thread, not committed, node, loc, op.gep, op.fence, window,
                   cond, addr, value, ctrl_reads, pointers, eligible, definite, op.label)
        self.events.append(ev)
        self.fetched.append((node,))
        if kind == "BR" and committed and cond:
            self._open += (ev,)
        if self._want_sites and kind in ("R", "W", "F"):
            self._sites_at(ev)

    def _control(self, step: Step) -> frozenset[int]:
        """The condition reads of the open branches whose region holds
        ``step``'s node or whose window fetched it."""
        node, committed, window = step
        if committed:
            # The ACfg is acyclic, so a committed path that has left a
            # branch's region never re-enters it.
            self._open = tuple(
                br for br in self._open if node in self.maps.regions[br.node_id]
            )
        out = _EMPTY
        for br in self._open:  # each with condition reads
            if window == br.eid or node in self.maps.regions[br.node_id]:
                out = out | br.cond_reads if out else br.cond_reads
        return out

    def _sites_at(self, ev: Event) -> None:
        """The sites of load ``ev``, and its (or store or fence ``ev``'s) mark
        on the line writers, the last fence and the unfenced stores.  Every
        event is committed: a structure with sites has no branch windows."""
        if ev.kind == "F":
            self._fence, self._unfenced = ev.eid, ()
            return
        loc = ev.location or ""
        hist = self._lines.get(loc, (0,))
        if ev.kind == "W":
            self._lines[loc] = hist + (ev.eid,)
            if "psf" in self.primitives:
                self._unfenced += (ev.eid,)
            return
        # stl: the line's writer is a store with no fence since; the earlier
        # writers are the stale sources.
        writer = hist[-1]
        if "stl" in self.primitives and writer > self._fence and self.events[writer].kind == "W":
            self.sites += (Site(ev.eid, "stl", hist[:-1]),)
        if "psf" in self.primitives:
            others = tuple(
                s for s in self._unfenced if self.events[s].location != loc
            )
            if others:
                self.sites += (Site(ev.eid, "psf", others),)
        if len(hist) == 1:
            # First touch: the miss fills the line and becomes its writer.
            self._lines[loc] = (0, ev.eid)

    def finish(self) -> EventStructure:
        """The structure of the steps so far; the builder is spent."""
        self.events.append(Event(len(self.events), "BOT", label="⊥"))
        self.fetched.append(())
        return EventStructure(self.events, self.sites, self.merged, self.fetched, self.graph)


def _walk_paths(
    graph: ACfg,
    merged: frozenset[frozenset[str]],
    primitives: frozenset[str],
    d_spec: int,
    tick,
) -> list[EventStructure]:
    """The structures of one alias resolution, depth first along the tree of
    committed paths (thread after thread).

    Each branch prefix is fetched once, not once per path through it: at a
    branch the builder forks once per successor, and each fork fetches the
    untaken arm's window (``branch`` primitive) before it continues.  Forks
    are visited in reversed successor order, which is the structure order of
    listing every path up front.  Only the forks pending on the current path
    are held at a time; ``tick`` runs once per node walked.

    Where both arms of a branch run through event-less steps to one join node
    (:attr:`_WalkMaps.joins`), each fork also steps its arm up to the join,
    and the two are merged when the subtree below the join cannot tell them
    apart (:meth:`_Builder.mergeable`).  Only the fork visited first is
    walked on; each structure its subtree gives is then grafted onto the
    other fork (:meth:`_Builder.graft`), in order, with one ``tick`` per
    graft.

    The arms may fetch different event-less nodes, which join the fetched
    nodes of the last event before the join.  The join is the first node of
    the arms that is not event-less, so it emits the next event, or ends the
    thread, whose next thread keeps no nodes before its first event.  So no
    event's fetched nodes span the join: a graft's are the other fork's
    before it and its leaf's from it on.  Nothing the subtree emits depends
    on the arms, as a window step names its branch by event id, the same in
    both forks past the join, and a definition is named by its node and
    window.
    """
    want_windows = "branch" in primitives
    out: list[EventStructure] = []
    first = _Builder(graph, merged, primitives)
    joins = first.maps.joins
    # (builder, node to walk from, None), or (builder, None, the index in out
    # of the first structure to graft onto builder).  The walk starts at EXIT
    # with no thread open, so an entry with no node gives one structure with
    # no events.
    stack: list[tuple[_Builder, int | None, int | None]] = [(first, EXIT, None)]
    while stack:
        builder, node, graft_from = stack.pop()
        if graft_from is not None:
            for leaf in out[graft_from:]:
                tick()
                out.append(builder.graft(leaf))
            continue
        while True:
            tick()
            if node == EXIT:
                if builder.thread + 1 == len(graph.roots):
                    out.append(builder.finish())
                    break
                builder.start_thread()
                node = graph.roots[builder.thread]
                continue
            builder.step((node, True, None))
            succs = graph.succ[node]
            if len(succs) == 1:
                node = succs[0]
                continue
            window = want_windows and len(succs) == 2  # only a branch has two
            branch = len(builder.events) - 1
            forks = [builder] + [builder.fork() for _ in succs[1:]]
            for fork, nxt in zip(forks, succs):
                if window:
                    untaken = succs[0] if nxt == succs[1] else succs[1]
                    fork.window(_window_steps(graph, branch, untaken, d_spec))
            if node not in joins:
                stack += [(fork, nxt, None) for fork, nxt in zip(forks, succs)]
                break
            join, reads = joins[node]
            for fork, nxt in zip(forks, succs):
                while nxt != join:
                    tick()
                    fork.step((nxt, True, None))
                    nxt = graph.succ[nxt][0]
            other, walked = forks
            if other.mergeable(walked, reads):
                stack.append((other, None, len(out)))
            else:
                stack.append((other, join, None))
            stack.append((walked, join, None))
            break
    return out


def enumerate_event_structures(
    graph: ACfg,
    primitives: frozenset[str] = frozenset(),
    d_spec: int = 250,
    tick=no_deadline,
    merged: frozenset[frozenset[str]] | None = None,
) -> list[EventStructure]:
    """All event structures of the program, alias resolutions x path choices,
    or those of the one resolution ``merged`` (an :func:`alias_subsets` item).

    ``tick`` is a callable invoked once per node walked; it may
    raise :class:`AnalysisTimeout` to abandon a long-running enumeration.
    """
    if "branch" in primitives and primitives & {"stl", "psf"}:
        raise ValueError("branch windows do not combine with stl or psf")
    resolutions = alias_subsets(graph.program.aliases) if merged is None else (merged,)
    return [st for one in resolutions for st in _walk_paths(graph, one, primitives, d_spec, tick)]


class _WalkMaps(NamedTuple):
    """What every walk of one graph reads, whatever its alias resolution or
    primitives."""

    regions: dict[int, frozenset[int]]  # per branch (:func:`_branch_regions`)
    joins: dict[int, tuple[int, frozenset[str]]]  # per branch (:func:`_joins`)
    ops: list[_Op]  # per node: its decoded instruction
    prefixes: dict[tuple[int, tuple], int]  # ids of fetched prefixes (:func:`_windows`)
    slots: list[tuple[str, int]]  # per node: its fence slot, (function, index)


def _walk_maps(graph: ACfg) -> _WalkMaps:
    """``graph``'s walk maps, derived on its first walk from each node's
    record (:func:`_decode`).  Only branches need a topological order."""
    if graph.walk_maps is None:
        ops = [_decode(node) for node in graph.nodes]
        branches = [node for node, op in enumerate(ops) if op.kind == "BR"]
        order = _topological(graph) if branches else []
        graph.walk_maps = _WalkMaps(
            _branch_regions(graph, order, branches), _joins(graph, order, ops), ops, {},
            [(node.func, node.index) for node in graph.nodes])
    return graph.walk_maps


def _windows(st: EventStructure, d_spec: int) -> list[tuple[int, bool, tuple, tuple]]:
    """Per site: the first eid past its window (the site's read: no room), if
    the window ends the program, the fetched nodes of its last event that it
    holds, and its dedupe key.  A window walks the fetched nodes from the
    site's read: it stops before a branch or fence, whose node is its event's
    first, or after ``d_spec`` nodes.  Computed once per ``d_spec``:
    :func:`derive_bypass` and its views' candidates read them.  A key holds
    the window's nodes after an id of those before: equal ids, equal nodes."""
    if st.window_memo is not None and st.window_memo[0] == d_spec:
        return st.window_memo[1]
    fetched, bottom, maps = st.fetched, st.bottom, _walk_maps(st.acfg)
    ops, ids, windows, prefix, at = maps.ops, maps.prefixes, [], 0, 1
    for site in st.sites:
        for e in range(at, site.read):  # ``prefix`` becomes the id of fetched[1 : site.read]
            prefix = ids.setdefault((prefix, fetched[e]), len(ids) + 1)
        at = site.read
        stop, room = site.read, d_spec
        while stop < bottom and room > 0 and not ops[fetched[stop][0]].closes:
            room -= len(fetched[stop])
            stop += 1
        # Below zero, ``room`` counts the last event's nodes past the window.
        last = fetched[stop - 1][:room] if room < 0 else fetched[stop - 1]
        exits = stop == bottom and room >= 0
        own = (*fetched[site.read : stop - 1], last) if stop > site.read else ()
        key = (prefix, own, exits, site.kind, st.events[site.read].node_id, st.merged_aliases)
        windows.append((stop, exits, last, key))
    st.window_memo = d_spec, windows
    return windows


def _joins(graph: ACfg, order: list[int], ops: list[_Op]) -> dict[int, tuple[int, frozenset[str]]]:
    """Per two-way branch whose arms both run through event-less steps (ALU,
    skip, jump) to one node: that join node, and the registers whose reaching
    definition a node reachable from it reads, through an indirect address, a
    stored value or an AMO pointer.  ``order`` is a topological order of
    ``graph``, and ``ops`` are its nodes' records."""
    def run(node: int) -> int:
        while node != EXIT and ops[node].kind in (None, "ALU"):
            node = graph.succ[node][0]
        return node
    joins = {node: join for node, succs in enumerate(graph.succ)
             if len(succs) == 2 and (join := run(succs[0])) == run(succs[1])}
    if not joins:
        return {}
    reads: dict[int, frozenset[str]] = {EXIT: _EMPTY}
    for node in reversed(order):  # each node once all it reaches has its reads
        first, *rest = graph.succ[node]
        got = reads[first].union(*(reads[nxt] for nxt in rest)) if rest else reads[first]
        op = ops[node]
        own = op.regs if op.kind == "W" else op.addr_regs if op.kind == "AMO" else ()
        if op.ptr:
            own = (op.ptr, *own)
        reads[node] = got.union(own) if not got.issuperset(own) else got
    return {node: (join, reads[join]) for node, join in joins.items()}


def derive_bypass(
    st: EventStructure, d_spec: int = 250, tick=no_deadline, seen: set | None = None
) -> list[EventStructure | None]:
    """The derived structure of each of ``st``'s sites, in ``st.sites`` order.

    In a derived structure the site's load re-runs transiently: the
    committed prefix before the load is kept; the load and the committed
    continuation after it become a transient suffix, truncated at the first
    fence or branch or at the speculation depth (with a squash marker if the
    program's end is reached first).  None when the depth budget leaves no
    room for the re-run, or when ``seen`` already holds the bypass's key:
    the nodes fetched up to the window's end, the site's kind and node, the
    alias resolution.

    A structure with sites fetched committed steps only, so each derived
    structure is a view over ``st`` and no builder runs.  It shares ``st``'s
    own prefix events and keeps every event id (the site's and its stale
    sources' included); its suffix events are transient twins of ``st``'s,
    made once and shared by overlapping windows, each with its original's
    dependencies; its fetched nodes are ``st``'s, cut at the window's end.
    ``tick`` runs once per site.
    """
    if not st.sites:
        return []
    seen = set() if seen is None else seen
    twins: list[Event | None] = [None] * st.bottom
    squash = Event(st.bottom, "SBOT", transient=True, label="⊥")
    out: list[EventStructure | None] = []
    for site, (stop, exits, last, key) in zip(st.sites, _windows(st, d_spec)):
        tick()
        if stop == site.read or key in seen:
            out.append(None)
            continue
        seen.add(key)
        for e in range(site.read, stop):
            if twins[e] is None:  # every field in order, transient and never silent
                ev = st.events[e]
                twins[e] = Event(ev.eid, ev.kind, ev.thread, True, ev.node_id, ev.location, ev.gep,
                                 ev.fence, ev.window, ev.cond_reads, ev.addr_reads, ev.value_reads,
                                 ev.ctrl_reads, ev.amo_pointers, False, False, ev.label)
        events = st.events[: site.read] + twins[site.read : stop]
        events += [squash] * exits + [Event(len(events) + exits, "BOT", label="⊥")]
        fetched = st.fetched[: stop - 1] + [last] + [(None,)] * exits + [()]
        out.append(EventStructure(events, (), st.merged_aliases, fetched, st.acfg))
    return out
