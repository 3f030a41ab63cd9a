"""The path-tree walk of ``enumerate_event_structures`` against the enumerator
it replaced (``oracles.enumerate_event_structures_reference``).

The walk forks one builder per branch outcome, so structures share the events
of their common prefix; the reference builds every structure from the root.
Both must give the same structures in the same order, field by field, and the
same derived structure for every bypass site: ``derive_bypass`` builds each
as a view over its base, the references with a builder, one walk per base
(``oracles.derive_bypass_builder``) or one site at a time from the root
(``oracles.derive_bypass_reference``).
The builder derives each event's ctrl reads and the sites as each event is
emitted; both references set them by the post-passes that did so before
(``oracles.control_deps_reference``, ``oracles.sites_reference``), and the
sites are also compared with those of the emitter that scanned the unfenced
stores for each load (``oracles.ReferenceBuilder._sites_at``).
The walk's builder reads each node's record decoded once per graph; every
reference builds with ``oracles.ReferenceBuilder``, which dispatches on the
instruction at each fetch as the builder did before, so each event's every
field (location, ``gep``, reads, AMO pointers, kind, label) is compared
with that emission.
Where the walk merges two forks at a join and grafts the structures of one
onto the other, the reference still builds each path on its own
(``oracles.random_joins`` is the family that meets each refusal).
Each event's fetched nodes, and the fence points and bypass windows read
from them, are checked against the plans the reference keeps
(``oracles.fetched_reference``, ``oracles.fence_points_reference``,
``oracles.windows_reference``).
"""

from __future__ import annotations

import dataclasses
import json
import random

import oracles
import pytest
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import leakage as lk

PRIMITIVES = (
    frozenset(),
    frozenset({"branch"}),
    frozenset({"stl"}),
    frozenset({"psf"}),
)
# Every compared field, so a field added to or removed from the structure
# is compared without an edit here, and the final observer's id.
FIELDS = tuple(f.name for f in dataclasses.fields(ev.EventStructure) if f.compare) + (
    "bottom",
)


def assert_same_structure(got: ev.EventStructure, want: ev.EventStructure):
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    # The orders ``got`` reads off its events, against those the reference's
    # builder appended as it emitted each event (``oracles.ReferenceBuilder``).
    assert got.po == want.emitted_po and got.tfo == want.emitted_tfo
    assert got.fence_pairs == want.emitted_fence_pairs
    assert len(got.fetched) == len(got.events)


def assert_views_match_builder(st: ev.EventStructure, ref: ev.EventStructure,
                               d_spec: int) -> None:
    """``derive_bypass``'s views over ``st`` against the builder derivation
    they replaced, run on ``ref``, the reference's structure of ``st``'s
    path: every field equal, the prefix events ``st``'s own."""
    views = ev.derive_bypass(st, d_spec)
    built = oracles.derive_bypass_builder(ref, d_spec)
    assert len(views) == len(built) == len(st.sites)
    for site, view, want in zip(st.sites, views, built):
        assert (view is None) == (want is None)
        if view is not None:
            assert_same_structure(view, want)
            # the site read keeps its id and is the first transient event
            assert [e.eid for e in view.events if e.transient][0] == site.read
            assert all(a is b for a, b in zip(view.events[: site.read], st.events))


def assert_fence_points_match_reference(st: ev.EventStructure, ref: ev.EventStructure):
    """``_fence_points`` against the plan slice it replaced, on every span
    from a branch or a site's read to a later event of thread 0."""
    slots, walk_slots = oracles.slots_reference(ref), ev._walk_maps(st.acfg).slots
    reads = {site.read for site in st.sites}
    thread0 = [e for e in ref.step_of if st.events[e].thread == 0]
    for i, prim in enumerate(thread0):
        if prim in reads or st.events[prim].kind == "BR":
            for end in thread0[i + 1 :]:
                span = prim, end
                assert lk._fence_points(st.fetched, span, walk_slots) == (
                    oracles.fence_points_reference(ref, span, slots)), span


def assert_windows_match_reference(st, ref, d_spec: int, keys: dict) -> None:
    """``_windows`` against the plan-based one it replaced: the same first
    eid past each window and the same ``exits``.  ``keys`` maps each key to
    the other's, over the structures of one walk, so a key that meets two
    of the other's fails: both partition the windows alike."""
    got, want = ev._windows(st, d_spec), oracles.windows_reference(ref, d_spec)
    assert [w[:2] for w in got] == [(stop, exits) for _, exits, stop, _ in want]
    for (*_, mine), (*_, theirs) in zip(got, want):
        assert keys.setdefault(("new", mine), theirs) == theirs
        assert keys.setdefault(("old", theirs), mine) == mine


def assert_walk_matches_reference(src: str, d_spec: int = 8) -> None:
    graph = cfg.build_acfg(ir.parse(src))
    regions = oracles.branch_regions_reference(graph)
    for prims in PRIMITIVES:
        got = ev.enumerate_event_structures(graph, prims, d_spec)
        want = oracles.enumerate_event_structures_reference(graph, prims, d_spec)
        assert len(got) == len(want)
        keys: dict = {}
        for st, ref in zip(got, want):
            assert_same_structure(st, ref)
            assert st.sites == ref.emitted_sites
            assert st.fetched == oracles.fetched_reference(ref)
            assert_fence_points_match_reference(st, ref)
            if st.sites:  # a structure with branch windows has none
                assert_windows_match_reference(st, ref, d_spec, keys)
            assert_views_match_builder(st, ref, d_spec)
            derived_all = ev.derive_bypass(st, d_spec)
            for site, derived in zip(st.sites, derived_all):
                expected = oracles.derive_bypass_reference(ref, site, regions, d_spec)
                assert (derived is None) == (expected is None)
                if expected is not None:
                    oracles.silent_marks_reference(expected)
                    assert_same_structure(derived, expected)
                    assert derived.fetched == oracles.fetched_reference(expected)


@pytest.mark.parametrize(
    "path", sorted(CORPUS.rglob("*.lcm")), ids=lambda p: p.stem
)
def test_corpus_program_matches_reference(path):
    config = json.loads(path.with_suffix(".expect.json").read_text()).get(
        "config", {}
    )
    assert_walk_matches_reference(path.read_text(), config.get("d_spec", 250))


def test_random_programs_match_reference():
    for seed in range(8000, 8300):
        assert_walk_matches_reference(oracles.random_single(random.Random(seed)))


def test_random_diamonds_match_reference():
    for seed in range(8600, 8800):
        assert_walk_matches_reference(oracles.random_diamonds(random.Random(seed)))


def test_random_nested_programs_match_reference():
    for seed in range(9100, 9300):
        assert_walk_matches_reference(oracles.random_nested(random.Random(seed)))


def test_random_programs_with_aliases_match_reference():
    for seed in range(8300, 8360):
        rng = random.Random(seed)
        aliases = "alias (x, y)\n" + ("alias (y, z)\n" if rng.random() < 0.5 else "")
        assert_walk_matches_reference(aliases + oracles.random_single(rng))
        assert_walk_matches_reference(aliases + oracles.random_diamonds(rng))


def test_random_multithread_programs_match_reference():
    # With lfences, a store before one is ordered with nothing after it.
    for seed in range(8400, 8460):
        for lfence in (0.0, 0.5):
            assert_walk_matches_reference(
                oracles.random_multithread(random.Random(seed), lfence)
            )


def test_merged_diamonds_match_reference(monkeypatch):
    """Forks whose event-free arms meet at a join are merged when nothing
    after the join tells them apart (``_Builder.mergeable``), and the walked
    fork's structures are grafted onto the other; the family's arms define
    registers read later through ``[r]``, in stored values and as AMO
    pointers, or are followed by bypass sites only, under depth budgets that
    cut windows short.  Merges fire under every primitive set, also where
    the arms differ in length.  What ``mergeable`` does not compare is equal
    at every join by construction, which each call asserts."""
    verdicts: dict[tuple, int] = {}
    mergeable = ev._Builder.mergeable

    def committed(builder):
        return [e for e in builder.events if not e.transient]

    def counted(self, other, reads):
        assert (self.thread, self._first) == (other.thread, other._first)
        assert committed(self) == committed(other) and self.sites == other.sites
        assert self._stores == other._stores and self._lines == other._lines
        assert self._fence == other._fence and self._unfenced == other._unfenced
        verdict = mergeable(self, other, reads)
        unequal = sum(map(len, self.fetched)) != sum(map(len, other.fetched))
        key = (self.primitives, verdict, unequal)
        verdicts[key] = verdicts.get(key, 0) + 1
        return verdict

    monkeypatch.setattr(ev._Builder, "mergeable", counted)
    for seed in range(9400, 9500):
        rng = random.Random(seed)
        aliases = "alias (x, y)\n" if rng.random() < 0.3 else ""
        src = aliases + oracles.random_joins(rng, threads=rng.choice((0, 0, 2)))
        assert_walk_matches_reference(src, d_spec=rng.choice((1, 2, 3, 8)))

    def count(prims=None, verdict=None, unequal=None) -> int:
        return sum(n for (p, v, u), n in verdicts.items()
                   if prims in (None, p) and verdict in (None, v) and unequal in (None, u))

    assert count(verdict=True) > 50 and count(verdict=False) > 1000
    for prims in PRIMITIVES:
        assert count(prims, True) > 10, prims
        assert count(prims, True, True) > 5, prims


def test_walk_steps_grow_linearly_with_sequential_diamonds(monkeypatch):
    """The forks at each of ``sequential_diamonds(n)``'s branches merge
    under v1, v4 and psf, with arms of unequal length under the latter two,
    and also where a store after the diamonds reads a register definition
    (``W x <-r1``), so the walk steps each diamond a fixed number of times:
    linear in n, where walking every path steps 2^n paths."""
    calls = [0]
    step = ev._Builder.step

    def counted(self, s):
        calls[0] += 1
        return step(self, s)

    monkeypatch.setattr(ev._Builder, "step", counted)
    for prims in ({"branch"}, {"stl"}, {"psf"}):
        for tail in ("", "W x <-r1\n"):
            counts = []
            for n in (4, 8, 12):
                calls[0] = 0
                graph = cfg.build_acfg(ir.parse(oracles.sequential_diamonds(n) + tail))
                assert len(ev.enumerate_event_structures(graph, frozenset(prims))) == 2**n
                counts.append(calls[0])
            assert counts[2] - counts[1] == counts[1] - counts[0] < 100, (prims, tail)


def test_grafts_take_their_fork_head_and_their_leafs_entries():
    """A graft's fetched nodes are its fork's up to the event the join emits
    (``cut``), as on the reference's path, then its leaf's own entries: no
    entry spans the join, which is the arms' first node with an event."""
    sources = [oracles.sequential_diamonds(6)] + [
        oracles.random_joins(random.Random(seed), threads=threads)
        for seed in range(9400, 9440) for threads in (0, 2)]
    grafts = 0
    for src in sources:
        graph = cfg.build_acfg(ir.parse(src))
        for prims in PRIMITIVES:
            got = ev.enumerate_event_structures(graph, prims, 3)
            want = oracles.enumerate_event_structures_reference(graph, prims, 3)
            for st, ref in zip(got, want):
                if not isinstance(st, ev.Graft):
                    continue
                grafts += 1
                leafs = st.leaf.fetched
                assert len(st.fetched) == len(leafs)
                assert all(a is b for a, b in zip(st.fetched[st.cut:], leafs[st.cut:]))
                assert st.fetched[: st.cut] == oracles.fetched_reference(ref)[: st.cut]
    assert grafts > 500


def test_join_at_a_threads_exit_keeps_no_leading_steps_of_the_next():
    """Thread t0's arms run to its end, so the join is the exit and t1's
    first event is the graft's ``cut``.  t1's event-less steps before that
    event are kept nowhere: not with t0's last event, nor with the initial
    writer."""
    src = ("thread t0:\nR x ->r1\nr2 <-0\nBEQZ r1, end\nr2 <-1\nr2 <-2\nend: skip\n"
           "thread t1:\nr3 <-0\nr3 <-r3+1\nW y <-r3\nr3 <-r3+2\n")
    graph = cfg.build_acfg(ir.parse(src))
    leading = [graph.roots[1], graph.succ[graph.roots[1]][0]]
    assert all(isinstance(graph.nodes[n].instr.op, ir.Alu) for n in leading)
    for prims in (frozenset(), frozenset({"branch"})):
        got = ev.enumerate_event_structures(graph, prims)
        want = oracles.enumerate_event_structures_reference(graph, prims)
        assert [type(st) for st in got] == [ev.EventStructure, ev.Graft]
        for st, ref in zip(got, want):
            write = next(e.eid for e in st.events if e.thread == 1 and e.kind == "W")
            assert st.fetched == oracles.fetched_reference(ref)
            assert st.fetched[0] == st.fetched[-1] == ()
            assert st.fetched[write][0] == st.events[write].node_id
            assert not set(leading) & {n for run in st.fetched for n in run}
        assert got[1].cut == write
        assert got[1].fetched[: write] != got[0].fetched[: write]


def branching_threads(rng: random.Random, lfence: bool = False) -> str:
    """Two or three threads, each with up to two if-then diamonds; an arm
    may be an ``lfence`` only where ``lfence`` is set."""
    arm = ("W x <-1", "W x <-r1", "R y ->r1", "fence", "r1 <-r1&1") + ("lfence",) * lfence
    lines = []
    for t in range(rng.randint(2, 3)):
        lines.append(f"thread t{t}:")
        lines.append(f"R {rng.choice('xy')} ->r1")
        for k in range(rng.randint(0, 2)):
            lines.append(f"BEQZ r1, j{k}")
            lines.append(rng.choice(arm))
            lines.append(f"j{k}: skip")
            lines.append(rng.choice(arm))
    return "\n".join(lines) + "\n"


def test_multithread_programs_with_branches_match_reference():
    for seed in range(8500, 8540):
        for lfence in (False, True):
            rng = random.Random(seed)
            aliases = "alias (x, y)\n" if rng.random() < 0.3 else ""
            assert_walk_matches_reference(aliases + branching_threads(rng, lfence))


def test_silent_marks_follow_the_committed_path():
    # The second store to x is silent-eligible on both paths; its value is
    # r1's on the path that skips the reload, so only there is it definite.
    src = "R s ->r1\nW x <-r1\nBEQZ r1, j\nR t ->r1\nj: W x <-r1\n"
    sts = ev.enumerate_event_structures(cfg.build_acfg(ir.parse(src)))
    marks = [
        [(e.silent_eligible, e.silent_definite) for e in st.events if e.kind == "W"]
        for st in sts
    ]
    assert sorted(marks) == [
        [(False, False), (True, False)],
        [(False, False), (True, True)],
    ]
    assert_walk_matches_reference(src)


def psf_blocks(blocks: int) -> str:
    """The shape of the psf_bypass benchmark: store-bypass blocks behind a
    guard, each storing through an index and reloading it into a probe."""
    lines = ["h1: R g ->r1", "BEQZ r1, end", "r7 <-0"]
    for k in range(1, blocks + 1):
        lines += [
            f"sa{k}: R i{k} ->r2",
            "r3 <-r2&255",
            f"sw{k}: W T{k}+r3 <-r2",
            f"sr{k}: R T{k}+r3 ->r4",
            f"sp{k}: R P{k}+r4 ->r5",
            "r7 <-r7+1",
        ]
    lines.append("end: skip")
    return "\n".join(lines) + "\n"


def test_psf_blocks_views_match_builder():
    graph = cfg.build_acfg(ir.parse(psf_blocks(7)))
    for prims in (frozenset({"stl"}), frozenset({"psf"})):
        for st, ref in zip(ev.enumerate_event_structures(graph, prims, 25),
                           oracles.enumerate_event_structures_reference(graph, prims, 25)):
            # A structure's windows are kept per depth: views of one depth
            # after those of another are cut at their own depth's ends.
            for d_spec in (25, 3):
                assert_views_match_builder(st, ref, d_spec)


def test_derive_bypass_runs_no_builder_and_twins_each_event_once(monkeypatch):
    graph = cfg.build_acfg(ir.parse(psf_blocks(7)))
    (st,) = [
        s
        for s in ev.enumerate_event_structures(graph, frozenset({"psf"}), 25)
        if s.sites
    ]
    assert len(st.sites) >= 6
    calls = [0]
    step = ev._Builder.step

    def counted(self, s):
        calls[0] += 1
        return step(self, s)

    monkeypatch.setattr(ev._Builder, "step", counted)
    views = [v for v in ev.derive_bypass(st, 25) if v is not None]
    assert calls[0] == 0
    twins: dict[int, set[int]] = {}
    for view in views:
        for e in view.events:
            if e.transient and e.kind != "SBOT":
                twins.setdefault(e.eid, set()).add(id(e))
    # The windows overlap, and their twins are one object per base event.
    assert sum(e.transient for view in views for e in view.events) > len(twins)
    assert all(len(ids) == 1 for ids in twins.values())
    assert all(eid < st.bottom for eid in twins)


def test_bypass_needs_a_structure_without_branch_windows():
    graph = cfg.build_acfg(ir.parse(psf_blocks(2)))
    for prims in ({"branch", "stl"}, {"branch", "psf"}):
        with pytest.raises(ValueError, match="branch windows"):
            ev.enumerate_event_structures(graph, frozenset(prims))
