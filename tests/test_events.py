from __future__ import annotations

import json
import random

import oracles
import pytest
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import leakage as lk

BRANCH = frozenset({"branch"})
STL = frozenset({"stl"})
PSF = frozenset({"psf"})

TWO_WAY = (
    "i2: R y ->r2\nBEQZ r2, end\ni5: R A+r2 ->r4\ni6: R B+r4 ->r5\nend: skip\n"
)


def structures(src: str, prims=frozenset(), d_spec: int = 250):
    return ev.enumerate_event_structures(
        cfg.build_acfg(ir.parse(src)), prims, d_spec
    )


def by_label(st: ev.EventStructure) -> dict[str, ev.Event]:
    return {e.display(): e for e in st.events}


def test_straight_line_single_structure():
    sts = structures("R x ->r1\nW y <-r1\n")
    assert len(sts) == 1
    st = sts[0]
    names = [st.events[e].label for e in st.po[0]]
    assert names == ["main@0", "main@1"]
    assert st.tfo == st.po


def test_branch_yields_one_structure_per_committed_path():
    sts = structures(TWO_WAY)
    assert len(sts) == 2


def test_window_covers_untaken_arm_and_marks_transient():
    sts = structures(TWO_WAY, BRANCH)
    taken = next(s for s in sts if "i5" not in
                 {s.events[e].label for e in s.po[0]})
    events = by_label(taken)
    assert "i5_S" in events and "i6_S" in events
    assert events["i5_S"].transient and events["i6_S"].transient
    # po stays the committed path; tfo gains the transient fetches
    assert set(taken.po[0]) < set(taken.tfo[0])
    trans = {e.eid for e in taken.events if e.transient}
    assert trans == set(taken.tfo[0]) - set(taken.po[0])


def test_window_stops_before_fence():
    src = ("R y ->r2\nBEQZ r2, end\nlfence\nR A+r2 ->r4\nend: skip\n")
    sts = structures(src, BRANCH)
    for st in sts:
        assert not any(e.transient and e.kind == "R" for e in st.events)


def test_window_stops_before_second_branch():
    src = ("R y ->r2\nBEQZ r2, end\nR a ->r3\nBEQZ r3, end\n"
           "R b ->r4\nend: skip\n")
    sts = structures(src, BRANCH)
    labels = {e.display() for st in sts for e in st.events if e.transient}
    assert "main@2_S" in labels
    assert "main@4_S" in labels  # second branch's own window, committed paths
    # but never both in the same window: no structure fetches the second
    # branch transiently
    for st in sts:
        assert not any(e.transient and e.kind == "BR" for e in st.events)


def test_depth_bound_counts_every_fetch():
    src = ("R y ->r2\nBEQZ r2, end\nr3 <-r2\nr4 <-r2\nR A+r2 ->r5\n"
           "end: skip\n")
    shallow = structures(src, BRANCH, d_spec=2)
    labels = {e.display() for st in shallow for e in st.events if e.transient}
    assert "main@4_S" not in labels  # third fetch exceeds the bound
    deep = structures(src, BRANCH, d_spec=3)
    labels = {e.display() for st in deep for e in st.events if e.transient}
    assert "main@4_S" in labels


def test_running_off_the_end_adds_squash_event():
    src = "R y ->r2\nBEQZ r2, end\nW x <-1\nend: skip\n"
    sts = structures(src, BRANCH)
    kinds = {e.kind for st in sts for e in st.events}
    assert "SBOT" in kinds


def test_stl_sites_exclude_canonical_source():
    src = ("i1: R idx ->r1\ni2: W t <-0\ni3: W t <-r1\ni4: R t ->r2\n")
    sts = structures(src, STL)
    base = next(s for s in sts if not s.sites or True)
    (site,) = base.sites
    assert base.events[site.read].label == "i4"
    # stale choices: initial state and the first store, never the second
    source_labels = {base.events[s].label if s else "TOP" for s in site.sources}
    assert source_labels == {"TOP", "i2"}


def test_stl_site_requires_fence_free_store():
    src = "i1: R idx ->r1\ni2: W t <-r1\nlfence\ni3: R t ->r2\n"
    sts = structures(src, STL)
    assert all(not st.sites for st in sts)


def test_psf_sites_pair_different_locations():
    src = "i1: R y ->r1\ni2: W C+0 <-64\ni3: R C+r1 ->r2\n"
    sts = structures(src, PSF)
    st = sts[0]
    (site,) = st.sites
    assert site.kind == "psf"
    assert st.events[site.read].label == "i3"
    assert {st.events[s].label for s in site.sources} == {"i2"}


def test_po_subset_of_tfo_always():
    for prims in (frozenset(), BRANCH, STL, PSF):
        for st in structures(TWO_WAY, prims):
            for po_order, tfo_order in zip(st.po, st.tfo):
                assert set(po_order) <= set(tfo_order)


def test_dependency_edges_on_known_shape():
    sts = structures(TWO_WAY)
    st = next(s for s in sts if "i5" in {s.events[e].label for e in s.po[0]})
    ev_of = {e.label: e.eid for e in st.events}
    i5, i6 = st.events[ev_of["i5"]], st.events[ev_of["i6"]]
    assert ev_of["i2"] in i5.addr_reads
    assert ev_of["i5"] in i6.addr_reads
    assert i5.gep
    # branch condition taint
    br = next(e for e in st.events if e.kind == "BR")
    assert br.cond_reads == frozenset({ev_of["i2"]})


def test_store_value_taint_feeds_data_edge():
    sts = structures("i1: R x ->r1\ni2: W y <-r1&3\n")
    st = sts[0]
    ev_of = {e.label: e.eid for e in st.events}
    assert ev_of["i1"] in st.events[ev_of["i2"]].value_reads


def test_alias_declaration_merges_locations():
    src = "alias (A, B)\ni1: W A <-1\ni2: R B ->r1\n"
    sts = structures(src)
    merged = [st for st in sts
              if any({"A", "B"} <= set(group) for group in st.merged_aliases)]
    assert merged
    st = merged[0]
    locs = {e.location for e in st.events if e.is_memory()}
    assert len(locs) == 1


def test_timeout_tick_propagates():
    def boom():
        raise ev.AnalysisTimeout("budget")

    with pytest.raises(ev.AnalysisTimeout):
        ev.enumerate_event_structures(
            cfg.build_acfg(ir.parse(TWO_WAY)), BRANCH, 250, tick=boom
        )


def test_single_thread_event_ids_are_fetch_order():
    # Classification (``leakage._Chains._within``) and spans
    # (``leakage._span``) read a single-thread structure's event ids as its
    # fetch positions, and ``EventStructure.bottom`` is its last event: both
    # hold by construction, for every structure and every bypass view.
    programs = []
    for path in sorted(CORPUS.rglob("*.lcm")):
        config = json.loads(path.with_suffix(".expect.json").read_text()).get("config", {})
        programs.append((path.read_text(), config.get("d_spec", 250)))
    for family, seeds in ((oracles.random_single, range(8000, 8300)),
                          (oracles.random_diamonds, range(8600, 8800)),
                          (oracles.random_nested, range(9100, 9300))):
        programs += [(family(random.Random(seed)), 8) for seed in seeds]
    structures = views = 0
    for src, d_spec in programs:
        graph = cfg.build_acfg(ir.parse(src))
        if len(graph.roots) != 1:
            continue
        for prims in (BRANCH, STL, PSF):
            for st in ev.enumerate_event_structures(graph, prims, d_spec):
                derived = [v for v in ev.derive_bypass(st, d_spec) if v is not None]
                structures, views = structures + 1, views + len(derived)
                for s in [st, *derived]:
                    fetched = len(s.events) - 2  # all but the initial writer and observer
                    assert s.tfo == [list(range(1, fetched + 1))]
                    assert [e.kind for e in s.events].count("BOT") == 1
                    assert s.events[s.bottom].kind == "BOT" and s.events[0].kind == "TOP"
    assert structures > 10000 and views > 5000


def test_regions_and_joins_match_the_dominator_reference():
    # One topological order gives the postdominators, regions and join reads
    # that a dominator fixpoint and depth-first searches gave, on graphs in
    # and out of index order (unrolled loops run back to lower indices).
    srcs = [path.read_text() for path in sorted(CORPUS.rglob("*.lcm"))]
    for seed in range(40):
        rng = random.Random(seed)
        srcs += [oracles.random_diamonds(rng), oracles.random_nested(rng),
                 oracles.random_joins(rng), oracles.random_joins(rng, threads=2),
                 oracles.random_multithread(rng), oracles.sequential_diamonds(seed % 6)]
    unrolled = 0
    for src in srcs:
        graph = cfg.build_acfg(ir.parse(src))
        order = ev._topological(graph)
        assert sorted(order) == list(range(len(graph.nodes)))
        rank = {node: i for i, node in enumerate(order)}
        assert all(rank[u] < rank[v] for u, succs in enumerate(graph.succ)
                   for v in succs if v != cfg.EXIT)
        ops = [ev._decode(node) for node in graph.nodes]
        branches = [node for node, op in enumerate(ops) if op.kind == "BR"]
        assert ev._branch_regions(graph, order, branches) == oracles.branch_regions_reference(graph)
        assert ev._joins(graph, order, ops) == oracles.joins_reference(graph)
        unrolled += not cfg._forward_only(graph.succ)
    assert unrolled > 20


def test_records_match_the_dispatch_they_replaced():
    """Each node's record, read from what its parse (or its inlining)
    decoded, equals the one the type dispatch made: on graphs with calls,
    externs, loops, threads and every address and instruction form."""
    srcs = [path.read_text() for path in sorted(CORPUS.rglob("*.lcm"))]
    for seed in range(40):
        rng = random.Random(seed)
        srcs += [oracles.random_single(rng), oracles.random_nested(rng),
                 oracles.random_joins(rng), oracles.random_multithread(rng)]
    srcs.append("extern f/1\nr1 <-0\nr2 <-r1\nR [r2] ->r3\nW A+3 <-r3&r1\nR A+r1 ->r4\n"
                "protect r4\nprotect\nfence\nlfence\ncall f(r1, r2)\ncall g(r3)\nJMP e\n"
                "e: skip\nfunc g(r5):\nW [r5] <-r5\n")
    kinds = set()
    for src in srcs:
        for node in cfg.build_acfg(ir.parse(src)).nodes:
            want = oracles.decode_reference(node)
            if want.kind in (None, "ALU"):  # a node with no events has no label
                want = want._replace(label="")
            assert ev._decode(node) == want, node
            kinds.add(want.kind)
    assert kinds == {"R", "W", "ALU", "BR", "F", "AMO", None}


def test_each_node_is_decoded_once_per_graph(monkeypatch):
    """Every walk of a graph, under every engine and alias resolution, and
    every fork and window of it, reads the records of the graph's first."""
    calls = {"decode": 0, "walk": 0}
    decode, walk = ev._decode, ev._walk_paths

    def counted_decode(node):
        calls["decode"] += 1
        return decode(node)

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    monkeypatch.setattr(ev, "_decode", counted_decode)
    monkeypatch.setattr(ev, "_walk_paths", counted_walk)
    prog = ir.parse("alias (y, c0)\nalias (A, B)\n" + oracles.sequential_diamonds(4)
                    + TWO_WAY.replace("r2", "r3"))
    graph = cfg.build_acfg(prog)
    report = lk.analyze(prog, "all", lk.EngineConfig(), graph)
    assert calls["walk"] == 12  # 4 alias resolutions under each of v1, v4 and psf
    assert report.structures > 200 and report.records
    assert calls["decode"] == len(graph.nodes)
