"""Brute-force oracles and random program generation for the test suite.

Everything here is written from first principles on purpose: the graph
walks use plain dicts (no networkx), the consistency predicates are
restated literally, and the leak rules are re-evaluated edge by edge.
Agreement with the library is then meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import attrgetter

from leakcheck import cfg, events, ir
from leakcheck import executions as ex
from leakcheck import leakage as lk
from leakcheck import repair as rp
from leakcheck.cfg import EXIT, ACfg
from leakcheck.events import EventStructure, Graft, _walk_maps, _windows


def acyclic(nodes, edges) -> bool:
    """Kahn's algorithm on an explicit edge set."""
    nodes = set(nodes)
    succs: dict[int, set[int]] = {n: set() for n in nodes}
    indeg: dict[int, int] = {n: 0 for n in nodes}
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
        succs.setdefault(a, set())
        succs.setdefault(b, set())
        indeg.setdefault(a, 0)
        indeg.setdefault(b, 0)
        if b not in succs[a]:
            succs[a].add(b)
            indeg[b] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return seen == len(nodes)


def derive_fr(rf: dict[int, int], co: dict[str, list[int]],
              loc_of: dict[int, str]) -> set[tuple[int, int]]:
    out = set()
    for r, w in rf.items():
        order = co.get(loc_of[r], [0])
        if w not in order:
            continue
        for w2 in order[order.index(w) + 1:]:
            if w2 != r:
                out.add((r, w2))
    return out


def tso_witnesses(threads, fence_pairs):
    """All TSO-consistent (rf, co) pairs, enumerated exhaustively.

    ``threads``: list of per-thread event lists ``(eid, kind, loc)`` with
    kind "R" or "W"; ``fence_pairs``: ordered event pairs separated by a
    full fence.  Returns a set of canonical forms.
    """
    loc_of: dict[int, str] = {}
    reads: list[int] = []
    writes: dict[str, list[int]] = {}
    for th in threads:
        for eid, kind, loc in th:
            loc_of[eid] = loc
            if kind == "R":
                reads.append(eid)
            else:
                writes.setdefault(loc, []).append(eid)
    thread_of = {eid: t for t, th in enumerate(threads) for eid, _, _ in th}
    kind_of = {eid: kind for th in threads for eid, kind, _ in th}

    po_loc, ppo = set(), set()
    for th in threads:
        for i, (e1, k1, l1) in enumerate(th):
            for e2, k2, l2 in th[i + 1:]:
                if l1 == l2:
                    po_loc.add((e1, e2))
                if not (k1 == "W" and k2 == "R"):
                    ppo.add((e1, e2))

    nodes = list(loc_of) + [0]
    found = set()
    rf_opts = [[(r, w) for w in [0] + writes.get(loc_of[r], [])] for r in reads]
    co_opts = [[(loc, (0,) + p) for p in itertools.permutations(ws)]
               for loc, ws in writes.items()]
    for rf_c in itertools.product(*rf_opts) if rf_opts else [()]:
        rf = dict(rf_c)
        rf_edges = {(w, r) for r, w in rf.items()}
        for co_c in itertools.product(*co_opts) if co_opts else [()]:
            co = {loc: list(order) for loc, order in co_c}
            co_edges = set()
            for order in co.values():
                for i, w1 in enumerate(order):
                    for w2 in order[i + 1:]:
                        co_edges.add((w1, w2))
            fr = derive_fr(rf, co, loc_of)
            if not acyclic(nodes, rf_edges | co_edges | fr | po_loc):
                continue
            rfe = {(w, r) for w, r in rf_edges
                   if w == 0 or thread_of[w] != thread_of[r]}
            if not acyclic(nodes, rfe | co_edges | fr | ppo | set(fence_pairs)):
                continue
            found.add((
                frozenset(rf.items()),
                frozenset((loc, tuple(order)) for loc, order in co.items()),
            ))
    return found


def kind_loc(st, amo, eid):
    """Access kind (R, W or None) and location of event ``eid``, with the AMO
    choices ``amo`` applied: the per-event lookup that
    ``executions.access_table`` replaced."""
    e = st.events[eid]
    if e.kind == "AMO":
        return amo.get(eid, (None, None))
    return (e.kind if e.kind in ("R", "W") else None), e.location


def frx_reference(cand) -> frozenset[tuple[int, int]]:
    """``rfx^-1 ; cox`` as the full set that ``detect_leaks`` once tested
    membership in, each line found through :func:`kind_loc`."""
    site, pairs = cand.site, set()
    for e, src in cand.rfx_in.items():
        owner = cand.stale_src if site and e == site.read and site.kind == "psf" else e
        order = cand.cox.get(kind_loc(cand.st, cand.amo, owner)[1])
        if order is None or src not in order:
            continue
        for w2 in order[order.index(src) + 1:]:
            if w2 != e:
                pairs.add((e, w2))
    return frozenset(pairs)


def structure_threads(cand):
    """Adapter: a candidate's committed memory events in oracle form."""
    threads = []
    for order in cand.st.po:
        th = []
        for eid in order:
            kind, loc = cand.access[eid]
            if kind is not None:
                th.append((eid, kind, loc))
        threads.append(th)
    return threads


def arch_projection(cand):
    return (
        frozenset(cand.rf.items()),
        frozenset((loc, tuple(order)) for loc, order in cand.co.items()),
    )


def leak_findings(cand, probe: bool = True):
    """Literal re-evaluation of the leakage implications.

    Returns a sorted list of (culprit kind, culprit edge) entries, one per
    architectural relation whose microarchitectural image is missing.
    """
    finds = []
    bottom = cand.st.bottom
    if probe and any(w != 0 for w in cand.bottom_sources().values()):
        finds.append(("rf_without_rfx", (0, bottom)))

    rfx = {(src, e) for e, src in cand.rfx_in.items()}
    frx = set(cand.frx())
    cox_pairs = {(w0, w1) for order in cand.cox.values()
                 for i, w0 in enumerate(order) for w1 in order[i + 1:]}

    for loc, order in cand.co.items():
        ws = [w for w in order if w != 0]
        for i, w0 in enumerate(ws):
            for j in range(i + 1, len(ws)):
                w1 = ws[j]
                if j == i + 1:
                    if (w0, w1) not in rfx:
                        finds.append(("co_imm_without_rfx", (w0, w1)))
                elif not ((w0, w1) in cox_pairs and (w0, w1) in frx):
                    finds.append(("co_without_cox_frx", (w0, w1)))

    for r, w in cand.rf.items():
        if w != 0 and (w, r) not in rfx:
            finds.append(("rf_without_rfx", (w, r)))

    for r, w in cand.fr():
        if (r, w) not in frx:
            finds.append(("fr_without_frx", (r, w)))

    return sorted(finds)


def hitting_set_reference(sets, order_key, tick=None):
    """The plain branch-and-bound that ``repair.hitting_set`` replaced.

    Kept verbatim: one search over all goals, no lower bound.  Its result,
    the first optimal leaf in its DFS order, is what the decomposed search
    must return set for set.
    """
    sets = [s for s in sets if s]
    if not sets:
        return set()
    universe = sorted({p for s in sets for p in s}, key=order_key)
    rank = {p: i for i, p in enumerate(universe)}
    best = [set(universe)]

    def bound(chosen, remaining):
        if tick is not None:
            tick()
        if len(chosen) >= len(best[0]):
            return
        missed = [s for s in remaining if not (s & chosen)]
        if not missed:
            best[0] = set(chosen)
            return
        # Branch on the points of the hardest-to-hit set, earliest first.
        pivot = min(missed, key=len)
        for p in sorted(pivot, key=rank.__getitem__):
            bound(chosen | {p}, missed)

    bound(set(), sets)
    return best[0]


def verify_minimal_reference(prog, engine, config, fences) -> bool:
    """The subset search that ``repair._verify_minimal`` replaced.

    Its loop is kept as it was: no strict subset of the chosen fences also
    silences the engine, 2^n - 1 re-analyses for n fences.
    """
    for k in range(len(fences)):
        for subset in itertools.combinations(sorted(fences), k):
            candidate = rp.insert_fences(prog, set(subset))
            if not lk.analyze(candidate, engine, config).records:
                return False
    return True


# --------------------------------------------------------------------------
# event structures


def committed_paths(graph, root: int) -> list[list[int]]:
    """All committed paths from ``root`` to the exit (one per branch outcome)."""
    paths: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(root, [])]
    while stack:
        node, prefix = stack.pop()
        if node == EXIT:
            paths.append(prefix)
            continue
        succs = graph.succ[node]
        for nxt in reversed(succs):
            stack.append((nxt, prefix + [node]))
    paths.reverse()
    return paths


def _plan_for_path(graph, path: list[int], primitives, d_spec: int):
    plan = []
    for pos, node in enumerate(path):
        idx = len(plan)
        plan.append(events.Step(node, True))
        op = graph.nodes[node].instr.op
        succs = graph.succ[node]
        if (
            "branch" in primitives
            and isinstance(op, ir.BranchEqZero)
            and len(succs) == 2
        ):
            taken = path[pos + 1] if pos + 1 < len(path) else EXIT
            others = [s for s in succs if s != taken]
            if others:
                plan.extend(events._window_steps(graph, idx, others[0], d_spec))
    return plan


def alias_subsets_reference(aliases):
    """The alias resolutions as the list ``events.alias_subsets`` built before
    it yielded them one at a time, kept verbatim."""
    subsets = [frozenset()]
    for pair in aliases:
        merged = frozenset(pair)
        subsets = subsets + [chosen | {merged} for chosen in subsets]
    return subsets


def nonempty_subsets_reference(items):
    """The silent-store subsets as the list ``executions._nonempty_subsets``
    built before it yielded them one at a time, kept verbatim."""
    out = []
    for n in range(1, len(items) + 1):
        for combo in itertools.combinations(items, n):
            out.append(frozenset(combo))
    return out


# The instructions a transient window stops before.
_CLOSERS = (ir.BranchEqZero, ir.Fence, ir.Protect)


class ReferenceBuilder(events._Builder):
    """``events._Builder`` with the per-fetch emitter that decoding each node
    once per graph (``events._decode``) replaced, kept verbatim but for the
    label, read by ``events._node_label``: each fetch dispatches on the
    node's instruction type, resolves its location through the alias
    union-find, and passes the event's fields as keywords.  The references
    below build with it, so each event the walk emits is compared, field by
    field, with this emission.  Its sites are those of the emitter that
    scanned the unfenced stores for a load's line writer (:meth:`_sites_at`).

    It keeps each thread's ``po`` and ``tfo`` as the builder stored them
    before structures read them off their events: appended as each event is
    emitted.  :meth:`finish` leaves them, and the fence pairs the builder
    read off them (:meth:`_fence_order`), on the structure as
    ``emitted_po``, ``emitted_tfo`` and ``emitted_fence_pairs``."""

    def __init__(self, graph, merged, primitives) -> None:
        super().__init__(graph, merged, primitives)
        self.uf = events._make_union_find(merged)
        self.po: list[list[int]] = []
        self.tfo: list[list[int]] = []

    def fork(self):
        new = super().fork()
        new.po = [list(order) for order in self.po]
        new.tfo = [list(order) for order in self.tfo]
        return new

    def start_thread(self) -> None:
        super().start_thread()
        self.po.append([])
        self.tfo.append([])

    def finish(self):
        st = super().finish()
        st.emitted_po, st.emitted_tfo = self.po, self.tfo
        st.emitted_fence_pairs = self._fence_order() if len(self.po) > 1 else frozenset()
        return st

    def _fence_order(self) -> frozenset[tuple[int, int]]:
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

    def location(self, addr, state) -> tuple[str, bool]:
        if isinstance(addr, ir.Direct):
            return events._uf_find(self.uf, addr.loc), False
        if isinstance(addr, ir.Indexed):
            if isinstance(addr.index, int):
                return events._uf_find(self.uf, f"{addr.base}.{addr.index}"), False
            return events._uf_find(self.uf, addr.base), True
        # Indirect: identity keyed by the reaching definition of the pointer.
        return f"*{addr.reg}@{state.defs.get(addr.reg)}", False

    def _fresh(self, fetched, **kw):
        ev = events.Event(eid=len(self.events), **kw)
        self.events.append(ev)
        self.fetched.append(fetched)
        return ev

    def step(self, step) -> None:
        """Fetch ``step`` as the current thread's next step."""
        state, window, thread = self.state, step.window, len(self.po) - 1
        ctrl_reads = self._control(step) if self._open else events._EMPTY
        if step.node is None:
            ev = self._fresh(
                (None,), kind="SBOT", thread=thread, transient=True, window=window,
                label="⊥", ctrl_reads=ctrl_reads,
            )
            self.tfo[-1].append(ev.eid)
            return
        node = self.graph.nodes[step.node]
        op = node.instr.op
        kind: str | None = None
        fields: dict = {}
        if isinstance(op, (ir.Load, ir.Store)):
            loc, gep = self.location(op.addr, state)
            addr_reads = state.reads_of(address_regs_reference(op.addr))
            fields = {"location": loc, "gep": gep, "addr_reads": addr_reads}
            if isinstance(op, ir.Load):
                kind = "R"
                state.taint[op.dest] = frozenset({len(self.events)})
                state.defs[op.dest] = step.node, window
            else:
                kind = "W"
                fields["value_reads"] = state.reads_of(op.value.regs)
                # A committed store after a committed same-location store
                # may be silent (single-thread programs only); definitely so
                # when an earlier one stores the same value identity: the
                # expression text and the reaching definition of every
                # register in it.
                if step.committed and self.single:
                    value_id = (op.value.text, tuple(sorted(
                        (r, state.defs.get(r)) for r in op.value.regs)))
                    prior = self._stores.get(loc, ())
                    fields["silent_eligible"] = bool(prior)
                    fields["silent_definite"] = value_id in prior
                    self._stores[loc] = prior + (value_id,)
        elif isinstance(op, ir.Alu):
            state.taint[op.dest] = state.reads_of(op.expr.regs)
            state.defs[op.dest] = step.node, window
        elif isinstance(op, ir.BranchEqZero):
            kind = "BR"
            fields = {"cond_reads": state.reads_of([op.cond])}
        elif isinstance(op, (ir.Fence, ir.Protect)):
            kind = "F"
            fields = {"fence": op.kind if isinstance(op, ir.Fence) else "lfence"}
        elif isinstance(op, cfg.AbstractMemOp):
            kind = "AMO"
            pointers = tuple((reg, f"*{reg}@{state.defs.get(reg)}") for reg in op.pointer_args)
            fields = {"addr_reads": state.reads_of(op.pointer_args), "amo_pointers": pointers}
        if kind is None:
            # Alu, Skip and Jump fetch but produce no event: their node joins
            # the fetched nodes of the thread's last event, if it has one.
            if self.tfo[-1]:
                self.fetched[-1] += (step.node,)
            return
        ev = self._fresh(
            (step.node,),
            kind=kind,
            thread=thread,
            transient=not step.committed,
            node_id=step.node,
            window=window,
            label=events._node_label(node),
            ctrl_reads=ctrl_reads,
            **fields,
        )
        if kind == "BR" and step.committed and ev.cond_reads:
            self._open += (ev,)
        if self._want_sites and kind in ("R", "W", "F"):
            self._sites_at(ev)
        self.tfo[-1].append(ev.eid)
        if step.committed:
            self.po[-1].append(ev.eid)

    def _sites_at(self, ev) -> None:
        """The sites of load ``ev``, and its (or store or fence ``ev``'s)
        mark on the line writers and the unfenced stores.  Every event is
        committed: a structure with sites has no branch windows."""
        if ev.kind == "F":
            self._unfenced = ()
            return
        loc = ev.location or ""
        hist = self._lines.get(loc, (0,))
        if ev.kind == "W":
            self._lines[loc] = hist + (ev.eid,)
            self._unfenced += (ev.eid,)
            return
        # stl: the line's writer is a store with no fence since; the earlier
        # writers are the stale sources.
        if "stl" in self.primitives and hist[-1] in self._unfenced:
            self.sites += (events.Site(ev.eid, "stl", hist[:-1]),)
        if "psf" in self.primitives:
            others = tuple(
                s for s in self._unfenced if self.events[s].location != loc
            )
            if others:
                self.sites += (events.Site(ev.eid, "psf", others),)
        if len(hist) == 1:
            # First touch: the miss fills the line and becomes its writer.
            self._lines[loc] = (0, ev.eid)


def enumerate_event_structures_reference(graph, primitives=frozenset(), d_spec=250):
    """The enumerator that the path-tree walk replaced.

    Kept verbatim: every committed path of every thread is listed up front,
    planned on its own, and each combination of plans (one per thread) is
    built from the root by a fresh builder, so no two structures share an
    event.  Silent marks, ctrl edges and sites are set after the build, as
    the replaced code did (:func:`silent_marks_reference`,
    :func:`control_deps_reference`, :func:`sites_reference`).  The plans name
    each window's branch by plan index, the builder by event id: each window
    is mapped as it is fed, as one block.

    Each structure keeps the sites :meth:`ReferenceBuilder._sites_at` made
    as ``emitted_sites``, its plans (one per thread) as ``plans``, and each
    event's step in its thread's plan, read as it is fed, as ``step_of``:
    the plan-based references (:func:`fence_points_reference`,
    :func:`windows_reference`, :func:`fetched_reference`) read them.
    """
    regions = branch_regions_reference(graph)
    subsets = alias_subsets_reference(graph.program.aliases)
    per_root = []
    for root in graph.roots:
        plans = [
            _plan_for_path(graph, path, primitives, d_spec)
            for path in committed_paths(graph, root)
        ]
        per_root.append(plans)
    combos = [[]]
    for plans in per_root:
        combos = [chosen + [plan] for chosen in combos for plan in plans]
    structures = []
    for merged in subsets:
        for plan_combo in combos:
            builder = ReferenceBuilder(graph, merged, primitives)
            step_of = {}
            for plan in plan_combo:
                builder.start_thread()
                eid_at = {}
                for idx, group in itertools.groupby(enumerate(plan), lambda s: s[1].window):
                    if idx is None:
                        for i, step in group:
                            fed = len(builder.events)
                            builder.step(step)
                            eid_at[i] = len(builder.events) - 1
                            if len(builder.events) > fed:
                                step_of[fed] = i
                    else:
                        fed, group = len(builder.events), list(group)
                        builder.window([step._replace(window=eid_at[idx]) for _, step in group])
                        # A window fetches each node (and the squash) once.
                        at = {step.node: i for i, step in group}
                        for ev in builder.events[fed:]:
                            step_of[ev.eid] = at[ev.node_id]
            st = builder.finish()
            st.plans, st.step_of = plan_combo, step_of
            silent_marks_reference(st)
            set_ctrl_reads(st, control_deps_reference(st, regions))
            # The sites as the builder's replaced emitter made them, then by
            # the post-pass.
            st.emitted_sites = st.sites
            st.sites = sites_reference(st, primitives)
            structures.append(st)
    return structures


def silent_marks_reference(st) -> None:
    """Set the silent marks of ``st``'s events from its finished plan.

    A committed store of a single-thread structure is silent-eligible when a
    po-earlier committed store has its location, and definitely silent when
    one of those stores has its value identity: the expression text and the
    plan step that last defined each register in it (-1 for none).  Only
    committed steps define registers here, because the walk undoes a
    window's definitions before the next committed step.
    """
    for e in st.events:
        e.silent_eligible = e.silent_definite = False
    if len(st.po) != 1:
        return
    eid_at = {idx: eid for eid, idx in st.step_of.items()}
    defslot: dict[str, int] = {}
    value_id = {}
    for idx, step in enumerate(st.plans[0]):
        if not step.committed:
            continue
        op = st.acfg.nodes[step.node].instr.op
        if isinstance(op, ir.Store):
            value_id[eid_at[idx]] = (op.value.text, tuple(sorted(
                (r, defslot.get(r, -1)) for r in op.value.regs)))
        elif isinstance(op, (ir.Load, ir.Alu)):
            defslot[op.dest] = idx
    seen: dict[str, list[int]] = {}
    for eid in st.po[0]:
        e = st.events[eid]
        if e.kind != "W":
            continue
        prior = seen.setdefault(e.location or "", [])
        if prior:
            e.silent_eligible = True
            e.silent_definite = any(value_id[p] == value_id[eid] for p in prior)
        prior.append(eid)


def control_deps_reference(st, regions) -> frozenset[tuple[int, int]]:
    """The ctrl edges of ``st``, by the post-pass that ``events._Builder``
    replaced with edges derived as each event is emitted, kept verbatim.
    ``regions`` are the branch regions of ``st.acfg``
    (``events._branch_regions``).

    A committed branch with a condition reaches every later event of its
    thread whose node lies in the branch's region, and every transient
    event its window fetched.
    """
    ctrl: set[tuple[int, int]] = set()
    branches = [e for e in st.events if e.kind == "BR" and not e.transient]
    for br in branches:
        if not br.cond_reads:
            continue
        assert br.node_id is not None
        region = regions.get(br.node_id, frozenset())
        for order in st.tfo:
            if br.eid not in order:
                continue
            pos = order.index(br.eid)
            for eid in order[pos + 1 :]:
                ev = st.events[eid]
                if ev.node_id is not None and ev.node_id in region:
                    for src in br.cond_reads:
                        ctrl.add((src, eid))
        for ev in st.events:
            if ev.transient and ev.window == br.eid:
                for src in br.cond_reads:
                    ctrl.add((src, ev.eid))
    return frozenset(ctrl)


def set_ctrl_reads(st, ctrl) -> None:
    """Set the ``ctrl_reads`` of each event of ``st`` from the ctrl edges ``ctrl``."""
    for e in st.events:
        e.ctrl_reads = frozenset(src for src, eid in ctrl if eid == e.eid)


def sites_reference(st, primitives) -> tuple:
    """The sites of ``st``, by the post-pass that ``events._Builder``
    replaced with sites derived as each load is emitted, kept verbatim: a
    canonical cache simulation over fetch order, with a po-index lookup per
    qualifying store.
    """
    want_stl = "stl" in primitives
    want_psf = "psf" in primitives
    if len(st.po) != 1 or not (want_stl or want_psf):
        return ()
    order = st.tfo[0]
    committed = st.po[0]
    sites = []
    # Canonical cache simulation over fetch order: per-location writer
    # history (read misses fill and count as writers).
    history: dict[str, list[int]] = {}
    committed_stores: list[int] = []
    for eid in order:
        ev = st.events[eid]
        if ev.kind == "AMO" or not ev.is_memory():
            continue
        loc = ev.location or ""
        hist = history.setdefault(loc, [0])
        if ev.kind == "R" and not ev.transient:
            if want_stl and len(hist) > 1:
                canonical = hist[-1]
                if _qualifies(st, canonical, eid, committed, require_store=True):
                    sites.append(events.Site(eid, "stl", tuple(hist[:-1])))
            if want_psf:
                others = [
                    s
                    for s in committed_stores
                    if st.events[s].location != loc
                    and _qualifies(st, s, eid, committed)
                ]
                if others:
                    sites.append(events.Site(eid, "psf", tuple(others)))
        if ev.kind == "W":
            hist.append(eid)
            if not ev.transient:
                committed_stores.append(eid)
        elif ev.kind == "R" and len(hist) == 1 and hist[0] == 0:
            # First touch: the miss fills the line and becomes its writer.
            hist.append(eid)
    return tuple(sites)


def _qualifies(st, store, read, committed, require_store=False) -> bool:
    if store == 0 or st.events[store].transient:
        return False
    if require_store and st.events[store].kind != "W":
        return False
    if store not in committed or read not in committed:
        return False
    lo, hi = committed.index(store), committed.index(read)
    if lo >= hi:
        return False
    return not any(
        st.events[e].kind == "F" for e in committed[lo + 1 : hi]
    )


def derive_bypass_reference(st, site, regions, d_spec: int = 250):
    """The per-site derivation that the one-walk ``events.derive_bypass``
    replaced, kept verbatim: a fresh builder fetches the committed prefix
    from the root for every site, and ctrl edges and sites are set after
    the build.

    The derived structure where ``site``'s load re-runs transiently.  The
    committed prefix before the load is kept; the load and the committed
    continuation after it become a transient suffix, truncated at the first
    fence or branch or at the speculation depth (with a squash marker if the
    program's end is reached first).  None when the depth budget leaves no
    room for the re-run at all.  ``regions`` are the branch regions of
    ``st.acfg``.  ``st`` is a structure of
    :func:`enumerate_event_structures_reference`, and the derived structure
    keeps its plan and ``step_of`` as those do.
    """
    assert len(st.plans) == 1
    plan = st.plans[0]
    site_step = st.step_of[site.read]
    prefix = [s for s in plan[:site_step] if s.committed]
    suffix = []
    depth = 0
    exited = True
    for step in plan[site_step:]:
        if not step.committed:
            continue
        assert step.node is not None
        op = st.acfg.nodes[step.node].instr.op
        if isinstance(op, (ir.BranchEqZero, ir.Fence, ir.Protect)):
            exited = False
            break
        if depth >= d_spec:
            exited = False
            break
        suffix.append(events.Step(step.node, False))
        depth += 1
    if exited:
        suffix.append(events.Step(None, False))
    if not any(step.node is not None for step in suffix):
        return None
    builder = ReferenceBuilder(st.acfg, st.merged_aliases, frozenset())
    builder.start_thread()
    step_of = {}
    for i, step in enumerate(prefix + suffix):
        fed = len(builder.events)
        builder.step(step)
        if len(builder.events) > fed:
            step_of[fed] = i
    derived = builder.finish()
    set_ctrl_reads(derived, control_deps_reference(derived, regions))
    derived.sites = sites_reference(derived, frozenset())
    derived.plans, derived.step_of = [prefix + suffix], step_of
    return derived


def derive_bypass_builder(st, d_spec: int = 250, tick=events.no_deadline):
    """The one-walk builder derivation that ``events.derive_bypass`` replaced
    with views over ``st``, kept verbatim.

    The derived structure of each of ``st``'s sites, in ``st.sites`` order.

    In a derived structure the site's load re-runs transiently: the
    committed prefix before the load is kept; the load and the committed
    continuation after it become a transient suffix, truncated at the first
    fence or branch or at the speculation depth (with a squash marker if the
    program's end is reached first).  None when the depth budget leaves no
    room for the re-run at all.

    One builder fetches the committed steps of the plan once, up to the
    last site (sites are in fetch order).  At each site it forks, and the
    fork fetches that site's suffix, so no prefix is fetched twice.  The
    committed continuation is straight-line up to its first branch, so the
    suffix is the window the site's node would open.  When
    ``st`` fetched committed steps only, every derived structure keeps its
    prefix's event ids, stale sources included.  ``tick`` runs once per
    site.  ``st`` is a structure of :func:`enumerate_event_structures_reference`.
    """
    if not st.sites:
        return []
    plan = st.plans[0]
    builder = ReferenceBuilder(st.acfg, st.merged_aliases, frozenset())
    builder.start_thread()
    walked = 0
    out = []
    for site in st.sites:
        tick()
        site_step = st.step_of[site.read]
        for step in plan[walked:site_step]:
            if step.committed:
                builder.step(step)
        walked = site_step
        suffix = events._window_steps(st.acfg, None, plan[site_step].node, d_spec)
        if not suffix:
            out.append(None)
            continue
        fork = builder.fork()
        for step in suffix:
            fork.step(step)
        out.append(fork.finish())
    return out


def fetched_reference(st) -> list[tuple]:
    """Each event's fetched nodes, read off the plans and ``step_of`` of
    ``st``, a structure of :func:`enumerate_event_structures_reference`: an
    event's step starts its entry, and each later step of its thread with
    no event joins it.  Steps of a thread before its first event join none.
    """
    out: list[tuple] = [()] * len(st.events)
    eid_at = {(st.events[eid].thread, idx): eid for eid, idx in st.step_of.items()}
    for thread, plan in enumerate(st.plans):
        current = None
        for idx, step in enumerate(plan):
            eid = eid_at.get((thread, idx))
            if eid is not None:
                current, out[eid] = eid, (step.node,)
            elif current is not None:
                out[current] += (step.node,)
    return out


def slots_reference(st) -> list:
    """``EventStructure.slots``, which the per-event fetched nodes replaced,
    kept verbatim: the fence slot of each step of ``st``'s plan (False: a
    squash).  ``st`` is as for :func:`fetched_reference`."""
    nodes = st.acfg.nodes
    return [step.node is not None and (nodes[step.node].func, nodes[step.node].index)
            for step in st.plans[0]]


def fence_points_reference(st, span, slots):
    """The plan slice that ``leakage._fence_points`` replaced with a walk of
    each event's fetched nodes, kept verbatim: the ``slots``
    (:func:`slots_reference`) of ``st``'s plan past ``span``'s primitive, up
    to its end."""
    if span is None:
        return None
    return frozenset(slots[st.step_of[span[0]] + 1 : st.step_of[span[1]] + 1]) - {False}


def windows_reference(st, d_spec: int) -> list[tuple]:
    """The plan-based ``events._windows`` that a walk of each event's fetched
    nodes replaced, kept verbatim but for its memo.  ``st`` is as for
    :func:`fetched_reference`.

    Per site: its window's end step, if that ends the program, the first
    eid past it (the site's read: no room) and its dedupe key.
    """
    plan, order = st.plans[0], st.tfo[0]
    nodes = tuple(step.node for step in plan)
    stops = [i for i, node in enumerate(nodes)
             if isinstance(st.acfg.nodes[node].instr.op, _CLOSERS)] + [len(plan)]
    step_at = [st.step_of[e] for e in order]  # ascending, as eids are
    windows = []
    for site in st.sites:
        start = st.step_of[site.read]
        end = min(stops[bisect_left(stops, start)], start + d_spec)
        exits = end == len(plan)
        key = (nodes[:end] + (None,) * exits, site.kind, nodes[start], st.merged_aliases)
        windows.append((end, exits, bisect_left(step_at, end) + 1, key))
    return windows


def prefix_windows_reference(st, d_spec: int) -> list[tuple]:
    """``events._windows`` as it was before the nodes fetched before a
    site's read were interned, kept verbatim but for its memo: each key
    copies every fetched node from eid 1 to the window's end."""
    fetched, ops, bottom = st.fetched, events._walk_maps(st.acfg).ops, st.bottom
    windows = []
    for site in st.sites:
        stop, room = site.read, d_spec
        while stop < bottom and room > 0 and not ops[fetched[stop][0]].closes:
            room -= len(fetched[stop])
            stop += 1
        # Below zero, ``room`` counts the last event's nodes past the window.
        last = fetched[stop - 1][:room] if room < 0 else fetched[stop - 1]
        exits = stop == bottom and room >= 0
        key = (tuple(fetched[1 : stop - 1]) + (last,), exits, site.kind,
               st.events[site.read].node_id, st.merged_aliases)
        windows.append((stop, exits, last, key))
    return windows


def bypass_dedupe_reference(st, d_spec: int, seen: set) -> list[bool]:
    """Per site of ``st``: whether ``events.derive_bypass`` gives no view,
    under the full-prefix keys of :func:`prefix_windows_reference`, with
    ``seen`` holding those of earlier structures."""
    out = []
    for site, (stop, _, _, key) in zip(st.sites, prefix_windows_reference(st, d_spec)):
        out.append(stop == site.read or key in seen)
        if not out[-1]:
            seen.add(key)
    return out


# --------------------------------------------------------------------------
# analysis


def analyze_reference(prog, engine, config, graph=None):
    """The ``leakage.analyze`` loop that analysing each distinct structure
    once replaced: one pass over every candidate of every structure.

    Kept as it was but for ``findings``, which now gives each record's span
    rather than its fence slots, and for the structures, which come from
    :func:`enumerate_event_structures_reference` with their plans: the slots
    are cut here from the plan of the structure each candidate came from
    (:func:`fence_points_reference`), which a bypass view's equals up to its
    window's end.
    """
    graph = graph or cfg.build_acfg(prog)
    if engine == "all":
        merged = lk.Report(engine="all", records=[], unrepairable=[])
        for sub in ("v1", "v4", "psf"):
            rep = analyze_reference(prog, sub, config, graph)
            merged.records.extend(rep.records)
            merged.elements.extend(rep.elements)
            merged.unrepairable.extend(rep.unrepairable)
            merged.graphs.extend(rep.graphs)
            merged.structures += rep.structures
            merged.candidates += rep.candidates
        merged.records = sorted(set(merged.records), key=lk.record_sort_key)
        return merged
    structures = enumerate_event_structures_reference(
        graph, frozenset({lk._PRIMITIVES[engine]}), config.d_spec
    )
    seen_bypass: set = set()
    cands = [
        (st, cand)
        for st in structures
        for cand in ex.iter_candidates(
            [st],
            silent_stores=config.silent_stores,
            d_spec=config.d_spec,
            tick=config.tick,
            seen=seen_bypass,
        )
    ]
    report = lk.Report(engine=engine, records=[], unrepairable=[],
                       structures=len(structures), candidates=len(cands))
    seen = set()
    shared = None
    for st, cand in cands:
        config.tick()
        if shared is None or shared.current is not cand.st:
            shared = lk._Shared(cand.st)  # the last structure's memos go
        psf = cand.site is not None and cand.site.kind == "psf"
        if cand.base is None:
            witnesses = lk.detect_leaks(cand, probe=config.probe)
            shared.witnesses[id(cand)] = [] if psf else witnesses
        elif psf:
            # Its base added its records (ex._refill); draw its graphs.
            if config.collect_graphs:
                for w in shared.witnesses[id(cand.base)]:
                    title = f"{engine} witness {len(report.graphs) + 1}"
                    report.graphs.append((title, lk.witness_dot(cand, w, title)))
            continue
        else:
            witnesses = shared.witnesses[id(cand.base)]
        slots = slots_reference(st)
        for w in witnesses:
            found = lk.findings(cand, w, engine, config, shared)
            for rec, span in found:
                seen.add(rec)
                points = fence_points_reference(st, span, slots)
                if points:
                    report.elements.append(lk.RepairElement(points, rec))
                else:
                    report.unrepairable.append(rec)
            if found and psf:
                shared.witnesses[id(cand)].append(w)
            if found and config.collect_graphs:
                title = f"{engine} witness {len(report.graphs) + 1}"
                report.graphs.append((title, lk.witness_dot(cand, w, title)))
    report.records = sorted(seen, key=lk.record_sort_key)
    report.elements = list(dict.fromkeys(report.elements))
    report.unrepairable = list(dict.fromkeys(report.unrepairable))
    return report


def fence_points_eager(st, span):
    """``leakage._fence_points`` as it was when ``analyze`` built every kept
    record's fence points, kept verbatim: a fresh slot per node and record."""
    if span is None:
        return None
    prim, end = span
    fetched, nodes = st.fetched, st.acfg.nodes
    run = itertools.chain(fetched[prim][1:], *fetched[prim + 1 : end], fetched[end][:1])
    return frozenset((nodes[n].func, nodes[n].index) for n in run if n is not None)


# ``events.shares_content``, ``content_key`` and ``graft_key`` as they were
# when ``analyze`` keyed structures by content, moved verbatim for
# :func:`elements_reference`.


def shares_content(graph: ACfg) -> bool:
    """Whether two paths can give structures of equal content: only if, where
    they part, both arms run through event-less steps to one node."""
    return bool(_walk_maps(graph).joins)


class _ByValue(tuple):
    """The events of a structure, which imply its orders: compared by value,
    hashed by their nodes (a list is unhashable)."""

    def __hash__(self) -> int:
        return hash(tuple(map(_node_id, self[0])))


_node_id = attrgetter("node_id")


def content_key(st: EventStructure, d_spec: int, seen: set) -> tuple[tuple, list]:
    """What ``st``'s records are computed from, but its fetched nodes (which
    place fence slots), with each site's view cut and if ``seen`` holds it;
    its views' keys."""
    windows = _windows(st, d_spec) if st.sites else []
    key = (_ByValue((st.events,)), st.sites, st.merged_aliases,
           tuple((stop, exits, view in seen) for stop, exits, _, view in windows))
    return key, [view for site, (stop, *_, view) in zip(st.sites, windows) if stop != site.read]


def graft_key(st: Graft, leaf_key: tuple) -> tuple:
    """``st``'s :func:`content_key`, from ``leaf_key``, its leaf's: that very
    key, with no rehash, when the two are equal.

    They can differ only in which views are marked seen.  A site before the
    join has the same window in ``st`` as in its leaf, as no window crosses
    the branch, and the leaf saw it first: in ``st`` each such view with room
    is seen.  A view past the join names ``st``'s own fetched nodes, which only
    the grafts of its batch share, as their leaves share theirs, so ``st`` sees
    it as its leaf did.  So grafts need not add their views' keys to the
    seen set: the keys differ only for the first graft of a batch, whose
    leaf is the first structure past the join and has seen none of its
    views there.
    """
    sites = st.sites
    if not sites or sites[0].read >= st.cut:
        return leaf_key
    *content, marks = leaf_key
    before = bisect_left([site.read for site in sites], st.cut)
    own = tuple((stop, exits, seen or stop != site.read)
                for (stop, exits, seen), site in zip(marks[:before], sites)) + marks[before:]
    return leaf_key if own == marks else (*content, own)


def elements_reference(prog, engine, config, graph=None):
    """The repair elements and unrepairable records of ``leakage.analyze``
    as it was when it built each kept record's fence points as it met the
    record (:func:`fence_points_eager`), kept verbatim but for the records,
    counts, graphs and ticks it also made."""
    graph = graph or cfg.build_acfg(prog)
    if engine == "all":
        elements, unrepairable = [], []
        for sub in ("v1", "v4", "psf"):
            sub_elements, sub_unrepairable = elements_reference(prog, sub, config, graph)
            elements.extend(sub_elements)
            unrepairable.extend(sub_unrepairable)
        return elements, unrepairable
    elements, unrepairable = [], []
    seen_bypass, passes = set(), {}
    keyed = shares_content(graph)
    for resolution in events.alias_subsets(graph.program.aliases):
        structures = events.enumerate_event_structures(
            graph, frozenset({lk._PRIMITIVES[engine]}), config.d_spec, config.tick, resolution)
        replays: dict[int, tuple] = {}
        for st in structures:
            leaf_done, leaf_points, views, done = None, None, (), []
            if isinstance(st, events.Graft):
                leaf_key, leaf_done, leaf_points = replays[id(st.leaf)]
                key, views = graft_key(st, leaf_key), ()
                done = leaf_done if key is leaf_key else passes.setdefault(key, [])
            elif keyed:
                key, views = content_key(st, config.d_spec, seen_bypass)
                done = passes.setdefault(key, [])
            if not done:
                done += lk._first_pass(st, engine, config, seen_bypass)
            else:
                seen_bypass.update(views)
            _, found, _, _ = done
            reuse = leaf_points if done is leaf_done else None
            points = []
            for i, (rec, span) in enumerate(found):
                if reuse is not None and (span is None or span[0] >= st.cut):
                    points.append(reuse[i])
                    continue
                pts = fence_points_eager(st, span)
                points.append(pts)
                if pts:
                    elements.append(lk.RepairElement(pts, rec))
                else:
                    unrepairable.append(rec)
            if keyed:
                replays[id(st)] = key, done, points
    return list(dict.fromkeys(elements)), list(dict.fromkeys(unrepairable))


class _ChainsReference:
    """``leakage._Chains`` as it was before the gep flag was read off the
    transmitter's and each access's own event: four walks per class, one
    for the chain, one more for its register-indexed (gep) addr hops, and
    the two again for each access's upstream."""

    def __init__(self, st, fwd, psf_read, w_size) -> None:
        self.st = st
        self.psf_read = psf_read
        self.w_size = w_size
        self.value_hop: dict[int, set[int]] = {}
        for w, r in fwd:
            for a in self.st.events[w].value_reads:
                self.value_hop.setdefault(r, set()).add(a)

    def _within(self, member: int, anchor: int) -> bool:
        return self.w_size is None or abs(member - anchor) <= self.w_size

    def sources(self, target: int, final: str, gep_only: bool, anchor: int) -> set[int]:
        found: set[int] = set()
        ev = self.st.events[target]
        if final == "ctrl":
            frontier = list(ev.ctrl_reads)
        else:
            frontier = list(ev.addr_reads) if ev.gep or not gep_only else []
        while frontier:
            a = frontier.pop()
            if a in found or not self._within(a, anchor):
                continue
            found.add(a)
            frontier.extend(self.value_hop.get(a, ()))
        return found

    def classify(self, t: int) -> list:
        st = self.st
        ev = st.events[t]
        out = [lk.Transmitter(t, "address", ev.transient)]
        for final, base_klass, universal_klass in (
            ("addr", "data", "universal_data"),
            ("ctrl", "control", "universal_control"),
        ):
            accesses = self.sources(t, final, False, t)
            if not accesses:
                continue
            gep_accesses = (
                self.sources(t, final, True, t) if final == "addr" else set()
            )
            rep = _pick_reference(st, accesses)
            out.append(
                lk.Transmitter(
                    t,
                    base_klass,
                    ev.transient,
                    access=rep,
                    access_transient=st.events[rep].transient,
                    gep=bool(gep_accesses),
                )
            )
            uni: list[tuple[int, int, bool]] = []
            for a in sorted(accesses):
                if a == self.psf_read:
                    continue
                upstream = self.sources(a, "addr", False, t)
                upstream.discard(a)
                if not upstream:
                    continue
                upstream_gep = self.sources(a, "addr", True, t)
                upstream_gep.discard(a)
                r = _pick_reference(st, upstream)
                uni.append((a, r, bool(upstream_gep)))
            if uni:
                ordered = sorted(
                    uni, key=lambda x: (st.events[x[0]].transient, x[0])
                )
                a, r, _ = ordered[0]
                out.append(
                    lk.Transmitter(
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


def _pick_reference(st, eids: set[int]) -> int:
    return min(eids, key=lambda e: (st.events[e].transient, e))


def classify_reference(cand, events_: list[int], w_size) -> dict[int, list]:
    """Every satisfied class of each of ``events_`` in ``cand``, ascending,
    with nothing memoised (:class:`_ChainsReference`)."""
    site = cand.site
    psf_read = site.read if site is not None and site.kind == "psf" else None
    chains = _ChainsReference(cand.st, forwarding_reference(cand), psf_read, w_size)
    return {t: chains.classify(t) for t in sorted(events_)}


def forwarding_reference(cand) -> frozenset[tuple[int, int]]:
    """``leakage._forwarding`` as it was before a view forwarded as its
    canonical base before its site read, kept verbatim: architectural rf
    plus microarchitectural same-location fills whose source is a program
    store, over the whole candidate."""
    fwd = {(w, r) for r, w in cand.rf.items() if w != 0}
    access = cand.access
    for e, src in cand.rfx_in.items():
        if src != 0 and access[src] == ("W", access[e][1]):
            fwd.add((src, e))
    return frozenset(fwd)


def chains_reference(cand, w_size, classes=frozenset(lk.CLASSES)):
    """The ``leakage._Chains`` of ``cand`` built from its whole forwarding
    relation (:func:`forwarding_reference`), every value hop its own."""
    site = cand.site
    psf_read = site.read if site is not None and site.kind == "psf" else None
    return lk._Chains(cand.st, forwarding_reference(cand), psf_read, w_size, classes)


def before_reference(orders: dict[str, list[int]], eid: int) -> dict[str, list[int]]:
    """``executions._before``, which the sweep replaced, kept verbatim: each
    order (``0``, then ascending eids) cut before ``eid``; the orders left
    with no eid are dropped."""
    return {k: order[:n] for k, order in orders.items() if (n := bisect_left(order, eid)) > 1}


def view_tables_reference(cand):
    """A bypass view's ``(rf, co, rfx_in, cox)`` as ``executions`` built them
    before the sweep: its base's canonical candidate (``cand.sweep.canon``)
    cut before the site read by the per-view dictcomps and
    :func:`before_reference`, then the window simulated from that state."""
    base, read = cand.sweep.canon, cand.site.read
    rf = {r: w for r, w in base.rf.items() if r < read}
    state = {e: w for e, w in base.rfx_in.items() if e < read}, before_reference(base.cox, read)
    rfx_in, cox = ex._simulate(*state, cand.access, cand.st.tfo[0][read - 1:], frozenset(),
                               cand.site, cand.stale_src)
    return rf, before_reference(base.co, read), rfx_in, cox


# --------------------------------------------------------------------------
# random programs


LOCS = ("x", "y", "z")


def random_single(rng: random.Random) -> str:
    """A random straight-line-plus-branches program, at most 8 memory ops."""
    lines = []
    defined: list[str] = []
    n_mem = rng.randint(1, 8)
    budget_branches = rng.randint(0, 2)
    nreg = itertools.count(1)
    for _ in range(n_mem):
        if budget_branches and defined and rng.random() < 0.25:
            lines.append(f"BEQZ {rng.choice(defined)}, end")
            budget_branches -= 1
        roll = rng.random()
        loc = rng.choice(LOCS)
        if roll < 0.45:
            reg = f"r{next(nreg)}"
            lines.append(f"R {loc} ->{reg}")
            defined.append(reg)
        elif roll < 0.9 or not defined:
            val = rng.choice(defined) if defined and rng.random() < 0.6 else str(rng.randint(0, 3))
            lines.append(f"W {loc} <-{val}")
        else:
            src = rng.choice(defined)
            reg = f"r{next(nreg)}"
            lines.append(f"{reg} <-{src}&{rng.randint(1, 7)}")
            defined.append(reg)
        if rng.random() < 0.12:
            lines.append(rng.choice(("fence", "lfence")))
    lines.append("end: skip")
    return "\n".join(lines) + "\n"


def random_diamonds(rng: random.Random) -> str:
    """Straight-line code and if-then diamonds over three reused registers.

    Unlike :func:`random_single`, code follows each join, and the arms
    redefine registers, store and load, so what one arm leaves behind
    (taint, definitions, same-location stores) shows in the code after it.
    """
    regs = ("r1", "r2", "r3")
    lines = [f"{r} <-{i}" for i, r in enumerate(regs)]

    def instr() -> str:
        reg, loc = rng.choice(regs), rng.choice(LOCS)
        return rng.choice((
            f"R {loc} ->{reg}",
            f"R A+{rng.choice(regs)} ->{reg}",
            f"W {loc} <-{rng.choice(regs)}",
            f"W {loc} <-{rng.randint(0, 1)}",
            f"{reg} <-{rng.choice(regs)}&3",
            rng.choice(("fence", "lfence")),
        ))

    for k in range(rng.randint(1, 4)):
        lines += [instr() for _ in range(rng.randint(0, 2))]
        lines.append(f"BEQZ {rng.choice(regs)}, j{k}")
        lines += [instr() for _ in range(rng.randint(1, 3))]
        lines.append(f"j{k}: skip")
    lines += [instr() for _ in range(rng.randint(1, 3))]
    return "\n".join(lines) + "\n"


def random_nested(rng: random.Random) -> str:
    """If/else blocks nested at most two deep, an early exit and a loop,
    over three reused registers.

    The else arms are reached by a ``JMP`` over them, the early
    ``BEQZ ..., end`` leaves every enclosing region at once, and the loop
    is unrolled, so committed paths leave branch regions in the ways that
    sequential diamonds (:func:`random_diamonds`) never do.
    """
    regs = ("r1", "r2", "r3")
    labels = itertools.count()

    def instr() -> str:
        reg, loc = rng.choice(regs), rng.choice(LOCS)
        return rng.choice((
            f"R {loc} ->{reg}",
            f"R A+{rng.choice(regs)} ->{reg}",
            f"W {loc} <-{rng.choice(regs)}",
            f"W {loc} <-{rng.randint(0, 1)}",
            f"{reg} <-{rng.choice(regs)}&3",
            rng.choice(("fence", "lfence")),
        ))

    def block(depth: int) -> list[str]:
        out = [instr() for _ in range(rng.randint(0, 2))]
        if depth < 2 and rng.random() < 0.6:
            k = next(labels)
            out.append(f"BEQZ {rng.choice(regs)}, else{k}")
            out += block(depth + 1)
            out.append(f"JMP join{k}")
            out.append(f"else{k}: skip")
            out += block(depth + 1)
            out.append(f"join{k}: skip")
        return out

    loop = [
        "loop: skip",
        *(instr() for _ in range(rng.randint(1, 2))),
        f"BEQZ {rng.choice(regs)}, done",
        instr(),
        "JMP loop",
        "done: skip",
    ]
    parts = [block(0), [f"BEQZ {rng.choice(regs)}, end"], loop, block(0)]
    rng.shuffle(parts)
    lines = [f"R {loc} ->{reg}" for loc, reg in zip(LOCS, regs)]
    for part in parts:
        lines += part
    lines.append("end: skip")
    return "\n".join(lines) + "\n"


def sequential_diamonds(n: int) -> str:
    """``n`` if-then diamonds in a row: 2^n committed paths."""
    lines = ["r2 <-0"]
    for k in range(n):
        lines += [f"R c{k} ->r1", f"BEQZ r1, j{k}", "r2 <-r2+1", f"j{k}: skip"]
    return "\n".join(lines) + "\n"


def bypass_blocks(n: int) -> str:
    """``n`` store-bypass blocks behind one guard, the shape of
    ``corpus/stress/deep_pipeline.lcm``: one structure with sites whose
    committed prefix grows with every block, one stl site per block, and
    psf sites whose stale sources are the earlier blocks' stores."""
    lines = ["h1: R flag ->r9", "BEQZ r9, end", "r5 <-0", "r6 <-1"]
    for k in range(n):
        lines += [f"sa{k}: R i{k} ->r1", "r2 <-r1&4095", f"sw{k}: W t{k}+r2 <-r1",
                  f"sr{k}: R t{k}+r2 ->r3", f"sp{k}: R p{k}+r3 ->r4"] + ["r6 <-r6+r5"] * 4
    lines.append("end: skip")
    return "\n".join(lines) + "\n"


def random_joins(rng: random.Random, threads: int = 0, sites: float = 0.5) -> str:
    """Diamonds whose arms run through event-free steps (ALU, skip, jump) to
    their join, with code after each join that either reads the arms'
    definitions or makes bypass sites only.  The reads are r1 in a stored
    value (silent marks read its definition), r2 through an indirect address
    ``[r2]`` and, single-threaded, r3 as the pointer of an extern call (an
    AMO); r4 is read only as an index, so only its taint counts.  The sites
    come from a store of a constant and a load of a fixed location, which
    read no definition.

    The two forks at such a branch may be merged only when nothing after the
    join tells them apart, so arms with and without tainted or read
    definitions meet every refusal, and arms of equal and unequal length
    merge under every primitive set.  Each thread ends with reads of one of
    the two sorts, sites with probability ``sites``.  ``threads`` greater
    than zero gives that many thread blocks, of at most two diamonds each
    and no calls.
    """
    regs = ("r1", "r2", "r3", "r4")
    labels = itertools.count()

    def define() -> str:
        # ``r <-r+1`` keeps r's taint: only its definition tells the forks apart.
        reg = rng.choice(regs)
        return rng.choice((f"{reg} <-{rng.randint(0, 1)}", f"{reg} <-{rng.choice(regs)}&1",
                           f"{reg} <-{reg}+1", "skip"))

    def reads(calls: bool) -> list[str]:
        if rng.random() < sites:
            return [f"W {rng.choice(LOCS)} <-{rng.randint(0, 1)}",
                    f"R {rng.choice(LOCS)} ->{rng.choice(regs)}"]
        return ["W x <-r1", f"R [r2] ->{rng.choice(regs)}"] + ["call f(r3)"] * calls

    def body(calls: bool) -> list[str]:
        lines = [f"R {loc} ->{reg}" for loc, reg in zip(LOCS + ("w",), regs)] + ["W x <-r1"]
        for _ in range(rng.randint(1, 2 if threads else 4)):
            lines += rng.sample(reads(calls) + [f"R A+r4 ->{rng.choice(regs)}"],
                                rng.randint(0, 2))
            k, cond = next(labels), rng.choice(regs)
            taken = [define() for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.4:
                lines += [f"BEQZ {cond}, j{k}", *taken, f"j{k}: skip"]
            else:
                untaken = [define() for _ in range(rng.randint(0, 2))]
                lines += [f"BEQZ {cond}, e{k}", *taken, f"JMP j{k}",
                          f"e{k}: skip", *untaken, f"j{k}: skip"]
        return lines + reads(calls)

    if not threads:
        return "\n".join(["extern f/1", *body(True)]) + "\n"
    lines = []
    for t in range(threads):
        lines += [f"thread t{t}:", *body(False)]
    return "\n".join(lines) + "\n"


def random_multithread(rng: random.Random, lfence: float = 0.0) -> str:
    """A two-thread litmus shape, at most 3 memory ops per thread.  A fence
    between two of them is an ``lfence`` with probability ``lfence``; at 0
    no draw is made for it, so a seed gives the program it always gave."""
    lines = []
    for t in range(2):
        lines.append(f"thread t{t}:")
        k = rng.randint(1, 3)
        for i in range(k):
            loc = rng.choice(LOCS[:2])
            if rng.random() < 0.5:
                lines.append(f"R {loc} ->r{t * 4 + i + 1}")
            else:
                lines.append(f"W {loc} <-{rng.randint(1, 3)}")
            if i + 1 < k and rng.random() < 0.3:
                lines.append("lfence" if lfence and rng.random() < lfence else "fence")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# replaced set-up and simulation routines, kept verbatim as references


# ``ir.parse`` before it dispatched each line on its leading word: every
# pattern tried in turn, and a label matched apart from the leading word.
_LABEL = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(.*)$")



def _parse_instr_reference(text: str, line: int) -> ir.Op:
    m = ir._LOAD.match(text)
    if m:
        return ir.Load(ir._parse_addr(m.group(1), line), m.group(2))
    m = ir._STORE.match(text)
    if m:
        return ir.Store(ir._parse_addr(m.group(1), line), ir.make_expr(m.group(2).strip()))
    m = ir._BEQZ.match(text)
    if m:
        return ir.BranchEqZero(m.group(1), m.group(2))
    m = ir._JMP.match(text)
    if m:
        return ir.Jump(m.group(1))
    m = ir._ALU.match(text)
    if m:
        return ir.Alu(m.group(1), ir.make_expr(m.group(2).strip()))
    if text == "fence":
        return ir.Fence("full")
    if text == "lfence":
        return ir.Fence("lfence")
    if text == "skip":
        return ir.Skip()
    if text == "protect" or text.startswith("protect "):
        rest = text[len("protect"):].strip()
        if rest and not ir.REG_RE.fullmatch(rest):
            raise ir.ParseError(f"protect takes a register operand, got {rest!r}", line)
        return ir.Protect(rest or None)
    m = ir._CALL.match(text)
    if m:
        args = tuple(a.strip() for a in (m.group(2) or "").split(",") if a.strip())
        for a in args:
            if not ir.REG_RE.fullmatch(a):
                raise ir.ParseError(f"call argument {a!r} is not a register", line)
        return ir.Call(m.group(1), args)
    opcode = text.split()[0] if text.split() else text
    raise ir.ParseError(f"unknown opcode or malformed instruction: {opcode!r}", line)


def parse_reference(text: str) -> ir.Program:
    """Parse litmus source into a :class:`ir.Program` and validate it.

    Raises :class:`ir.ParseError` for syntax errors, undefined labels,
    duplicate labels, and registers read before any assignment on some
    control-flow path.
    """
    aliases: list[tuple[str, str]] = []
    externs: dict[str, int] = {}
    functions: list[ir.Function] = []
    multithread = False
    cur: ir.Function | None = None
    pending_label: str | None = None
    pending_line = 0
    saw_header = False

    def open_block(fn: ir.Function):
        nonlocal cur, pending_label
        if pending_label is not None:
            raise ir.ParseError(f"dangling label {pending_label!r} before block header",
                                pending_line)
        cur = fn
        functions.append(fn)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(";", 1)[0].strip()
        if not stripped:
            continue

        m = ir._DECL_ALIAS.match(stripped)
        if m:
            aliases.append((m.group(1), m.group(2)))
            continue
        m = ir._DECL_EXTERN.match(stripped)
        if m:
            externs[m.group(1)] = int(m.group(2))
            continue
        m = ir._HDR_THREAD.match(stripped)
        if m:
            if functions and not multithread:
                raise ir.ParseError("cannot mix thread blocks with other code", lineno)
            multithread = True
            saw_header = True
            open_block(ir.Function(m.group(1), (), []))
            continue
        m = ir._HDR_FUNC.match(stripped)
        if m:
            if multithread:
                raise ir.ParseError("cannot mix func blocks with thread blocks", lineno)
            saw_header = True
            params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
            for p in params:
                if not ir.REG_RE.fullmatch(p):
                    raise ir.ParseError(f"parameter {p!r} is not a register", lineno)
            open_block(ir.Function(m.group(1), params, []))
            continue

        label = None
        body = stripped
        m = _LABEL.match(stripped)
        if m and m.group(1) not in ir._KEYWORDS:
            label, body = m.group(1), m.group(2).strip()
        if label and not body:
            if pending_label is not None:
                raise ir.ParseError(f"two labels ({pending_label!r}, {label!r}) "
                                    "for one instruction", lineno)
            pending_label, pending_line = label, lineno
            continue

        if cur is None:
            if saw_header:
                raise ir.ParseError("instruction outside any block", lineno)
            cur = ir.Function("main", (), [])
            functions.append(cur)

        op = _parse_instr_reference(body, lineno)
        if multithread and isinstance(op, ir.Call):
            raise ir.ParseError("call is not allowed inside thread blocks", lineno)
        if pending_label is not None:
            if label is not None:
                raise ir.ParseError(f"two labels ({pending_label!r}, {label!r}) "
                                    "for one instruction", lineno)
            label, pending_label = pending_label, None
        cur.body.append(ir.Instr(op, label, lineno))

    if pending_label is not None:
        raise ir.ParseError(f"dangling label {pending_label!r} at end of input",
                            pending_line)
    if not functions:
        raise ir.ParseError("empty program", 1)

    names = [f.name for f in functions]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ir.ParseError(f"duplicate function or thread name {dup!r}")
    entry = ""
    if not multithread:
        entry = "main" if "main" in names else names[0]

    prog = ir.Program(functions, entry, tuple(aliases), externs, multithread)
    ir._resolve_labels(prog)
    for f in prog.functions:
        _check_defined_before_use_reference(f)
    return prog


def _check_defined_before_use_reference(fn: ir.Function):
    """Definite-assignment: every register read must be written on all paths."""
    n = len(fn.body)
    if n == 0:
        return
    # Forward dataflow, intersection over predecessors.
    defined: list[set[str] | None] = [None] * n
    defined[0] = set(fn.params)
    labels = {ins.label: j for j, ins in enumerate(fn.body) if ins.label}
    work = [0]
    while work:
        i = work.pop()
        du = instr_defuse_reference(fn.body[i].op)
        missing = du.reads - defined[i]
        if missing:
            raise ir.ParseError(
                f"register {sorted(missing)[0]} may be read before assignment",
                fn.body[i].line)
        out = defined[i] | du.writes
        for j in successors_reference(fn, i, labels):
            if j >= n:
                continue
            if defined[j] is None:
                defined[j] = set(out)
                work.append(j)
            elif not out >= defined[j]:
                defined[j] &= out
                work.append(j)


def successors_reference(fn: ir.Function, i: int, labels: dict[str, int]) -> list[int]:
    """Indices of the possible next instructions after ``fn.body[i]``.

    ``labels`` maps each label of ``fn`` to its index;
    ``len(fn.body)`` stands for function exit.
    """
    op = fn.body[i].op
    if isinstance(op, ir.Jump):
        return [labels[op.target]]
    if isinstance(op, ir.BranchEqZero):
        return sorted({i + 1, labels[op.target]})
    return [i + 1]


# ``ir.instr_defuse`` before each instruction carried its reads and writes
# (``ir.Decoded``).
@dataclass(frozen=True)
class DefUse:
    reads: frozenset[str]
    writes: frozenset[str]


def address_regs_reference(addr: ir.AddressExpr) -> frozenset[str]:
    if isinstance(addr, ir.Indexed) and isinstance(addr.index, str):
        return frozenset([addr.index])
    if isinstance(addr, ir.Indirect):
        return frozenset([addr.reg])
    return frozenset()


def instr_defuse_reference(op: ir.Op) -> DefUse:
    """Registers read and written by one opcode."""
    e = frozenset()
    if isinstance(op, ir.Load):
        return DefUse(address_regs_reference(op.addr), frozenset([op.dest]))
    if isinstance(op, ir.Store):
        return DefUse(address_regs_reference(op.addr) | frozenset(op.value.regs), e)
    if isinstance(op, ir.Alu):
        return DefUse(frozenset(op.expr.regs), frozenset([op.dest]))
    if isinstance(op, ir.BranchEqZero):
        return DefUse(frozenset([op.cond]), e)
    if isinstance(op, ir.Protect) and op.reg:
        return DefUse(frozenset([op.reg]), e)
    if isinstance(op, ir.Call):
        return DefUse(frozenset(op.args), e)
    return DefUse(e, e)


# ``events._decode`` before it read each instruction's record: a dispatch
# on the instruction's type.
def decode_reference(node: cfg.ANode) -> events._Op:
    """``node``'s instruction, decoded once per graph (``events._walk_maps``)."""
    op, label = node.instr.op, events._node_label(node)
    if isinstance(op, ir.Alu):
        return events._Op("ALU", label, False, None, False, None, (), op.dest, op.expr.regs)
    if isinstance(op, (ir.Load, ir.Store)):
        addr, loc, gep, ptr, regs = op.addr, None, False, None, ()
        if isinstance(addr, ir.Direct):
            loc = addr.loc
        elif isinstance(addr, ir.Indirect):
            ptr, regs = addr.reg, (addr.reg,)
        elif isinstance(addr.index, int):
            loc = f"{addr.base}.{addr.index}"
        else:
            loc, gep, regs = addr.base, True, (addr.index,)
        if isinstance(op, ir.Load):
            return events._Op("R", label, False, loc, gep, ptr, regs, op.dest)
        return events._Op("W", label, False, loc, gep, ptr, regs, None, op.value.regs,
                          op.value.text)
    if isinstance(op, ir.BranchEqZero):
        return events._Op("BR", label, True, None, False, None, (), None, (op.cond,))
    if isinstance(op, (ir.Fence, ir.Protect)):
        fence = op.kind if isinstance(op, ir.Fence) else "lfence"
        return events._Op("F", label, True, None, False, None, (), None, (), "", fence)
    if isinstance(op, cfg.AbstractMemOp):
        return events._Op("AMO", label, False, None, False, None, op.pointer_args)
    return events._Op(None, label, False)  # skip, jump


# ``cfg.inline_calls`` before it kept the entry function's instructions and
# numbered fresh registers on the first inlined call.
def inline_calls_reference(prog: ir.Program, fn: ir.Function, tick=events.no_deadline) -> list:
    """Flatten ``fn`` with every call spliced in.

    Registers local to a callee are renamed fresh; parameters are
    substituted by the argument registers; labels get a per-instance
    suffix.  Recursive calls are expanded at most twice per function
    name and then abstracted over all their arguments.  ``tick`` runs once
    per instruction inlined: each level of calls can double the nodes.
    """
    used = [0]
    for f in prog.functions:
        for p in f.params:
            used.append(int(p[1:]))
        for ins in f.body:
            du = instr_defuse_reference(ins.op)
            for r in du.reads | du.writes:
                used.append(int(r[1:]))
    fresh = itertools.count(max(used) + 1)
    inst = itertools.count(1)

    def locals_of(f: ir.Function) -> set[str]:
        w: set[str] = set()
        for ins in f.body:
            w |= instr_defuse_reference(ins.op).writes
        return w - set(f.params)

    out: list[ANode] = []
    # One frame per open call: the function, its register map, its label
    # suffix, the expansion depth per name, and its remaining body.  A call
    # pushes its callee, so callee nodes land where the call stood, and the
    # call chain may be deeper than Python's recursion limit.
    frames = [(fn, {}, "", {fn.name: 1}, enumerate(fn.body))]
    while frames:
        f, m, suffix, depth, body = frames[-1]
        for idx, ins in body:
            tick()
            op = cfg._rename_op(ins.op, m)
            label = f"{ins.label}{suffix}" if ins.label else None
            if isinstance(op, (ir.BranchEqZero, ir.Jump)):
                op = replace(op, target=op.target + suffix)
            if not isinstance(op, ir.Call):
                out.append(cfg.ANode(ir.Instr(op, label, ins.line), f.name, idx,
                                 site=suffix))
                continue
            name, args = op.func, op.args
            if name in prog.externs:
                k = prog.externs[name]
                amo = cfg.AbstractMemOp(name, args[:k])
                out.append(cfg.ANode(ir.Instr(amo, label, ins.line), f.name, idx,
                                 site=suffix))
                continue
            try:
                callee = prog.function(name)
            except KeyError:
                raise cfg.CfgError(f"line {ins.line}: call to undefined function "
                               f"{name!r}") from None
            if depth.get(name, 0) >= 2:
                # Recursion cut: abstract over all arguments.
                amo = cfg.AbstractMemOp(name, args)
                out.append(cfg.ANode(ir.Instr(amo, label, ins.line), f.name, idx,
                                 site=suffix))
                continue
            if len(args) != len(callee.params):
                raise cfg.CfgError(f"line {ins.line}: call to {name!r} with "
                               f"{len(args)} args, expected {len(callee.params)}")
            k = next(inst)
            cm = dict(zip(callee.params, args))
            for r in sorted(locals_of(callee)):
                cm[r] = f"r{next(fresh)}"
            if label is not None:
                # Keep the call site addressable as a branch target.
                out.append(cfg.ANode(ir.Instr(ir.Skip(), label, ins.line), f.name,
                                 idx, site=suffix))
            frames.append((callee, cm, f"{suffix}_i{k}",
                           {**depth, name: depth.get(name, 0) + 1},
                           enumerate(callee.body)))
            break
        else:
            frames.pop()
    return out


# ``events._branch_regions`` and ``events._joins`` before they shared one
# topological order: postdominators by the dominator fixpoint of the reversed
# graph, regions and reads by depth-first search.
def branch_regions_reference(graph: cfg.ACfg) -> dict[int, frozenset[int]]:
    """Nodes control-dependent on each branch (postdominator-bounded).  Only
    branches have regions: a graph with none needs no postdominator pass."""
    branches = [node for node, nd in enumerate(graph.nodes)
                if isinstance(nd.instr.op, ir.BranchEqZero)]
    if not branches:
        return {}
    pred: dict[int, list[int]] = {}
    for node, succs in enumerate(graph.succ):
        for nxt in succs or [EXIT]:
            pred.setdefault(nxt, []).append(node)
    # Postdominators are the dominators of the reversed graph.
    ipdom = cfg.immediate_dominators(pred, EXIT)
    regions: dict[int, frozenset[int]] = {}
    for node in branches:
        succs = graph.succ[node]
        if len(succs) != 2:
            regions[node] = frozenset()
            continue
        stop = ipdom.get(node, EXIT)
        seen: set[int] = set()
        stack = [s for s in succs if s != stop]
        while stack:
            cur = stack.pop()
            if cur in seen or cur == stop or cur == EXIT:
                continue
            seen.add(cur)
            stack.extend(s for s in graph.succ[cur] if s != stop)
        regions[node] = frozenset(seen)
    return regions


def joins_reference(graph: cfg.ACfg) -> dict[int, tuple[int, frozenset[str]]]:
    """Per two-way branch whose arms both run through event-less steps (ALU,
    skip, jump) to one node: that join node, and the registers whose reaching
    definition a node reachable from it reads, through an indirect address, a
    stored value or an AMO pointer."""
    def run(node: int) -> int:
        while node != EXIT and isinstance(graph.nodes[node].instr.op, (ir.Alu, ir.Jump, ir.Skip)):
            node = graph.succ[node][0]
        return node
    joins = {node: join for node, succs in enumerate(graph.succ)
             if len(succs) == 2 and (join := run(succs[0])) == run(succs[1])}
    if not joins:
        return {}
    reads: dict[int, frozenset[str]] = {EXIT: frozenset()}
    # Depth first, each node once all it reaches has its reads (the ACfg is
    # acyclic).
    for start in range(len(graph.succ)):
        stack = [start]
        while stack:
            node = stack[-1]
            todo = [nxt for nxt in graph.succ[node] if nxt not in reads]
            if todo:
                stack += todo
                continue
            stack.pop()
            if node in reads:
                continue
            op = graph.nodes[node].instr.op
            own: set[str] = set()
            if isinstance(op, (ir.Load, ir.Store)) and isinstance(op.addr, ir.Indirect):
                own.add(op.addr.reg)
            if isinstance(op, ir.Store):
                own.update(op.value.regs)
            elif isinstance(op, cfg.AbstractMemOp):
                own.update(op.pointer_args)
            reads[node] = frozenset(own).union(*(reads[nxt] for nxt in graph.succ[node]))
    return {node: (join, reads[join]) for node, join in joins.items()}


# ``executions._simulate`` as it was, always from an empty state over the
# whole fetch order.
def build_comx_reference(
    st: events.EventStructure,
    access: ex.Accesses,
    silent: frozenset[int],
    site: events.Site | None,
    stale_src: int | None,
) -> tuple[dict[int, int], dict[str, list[int]]]:
    """The cache simulation: each access's fill source and each line's
    writers in fetch order (a write, a miss and an stl site read of the
    untouched line claim the line).

    Its result is confidential (:func:`executions.confidential`) by construction:

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
    rfx_in: dict[int, int] = {}
    cox: dict[str, list[int]] = {}
    for order in st.tfo:
        for eid in order:
            kind, x = access[eid]
            if kind is None or eid in silent:
                continue  # no access, or a silent store: no fill, no claim
            if site is not None and eid == site.read:
                # The misforwarded load: an stl site forwards from a stale
                # same-line writer (or runs against the untouched line), a
                # psf site fills from an aliased store's line.
                assert stale_src is not None
                rfx_in[eid] = stale_src
                if not ex._line_neutral(site, stale_src):
                    cox.setdefault(x, [0]).append(eid)
                continue
            hist = cox.setdefault(x, [0])
            rfx_in[eid] = hist[-1]
            if kind == "W" or len(hist) == 1:
                hist.append(eid)
    return rfx_in, cox
