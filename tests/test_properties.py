from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

import oracles
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex
from leakcheck import leakage as lk

seeds = st.integers(min_value=0, max_value=2**32 - 1)
engines = st.sampled_from(["v1", "v4", "psf"])


def single(seed: int) -> ir.Program:
    return ir.parse(oracles.random_single(random.Random(seed)))


def record_keys(report: lk.Report) -> set[tuple]:
    return {
        (r.label, r.transient, r.klass, r.access_label, r.access_transient,
         r.culprit_kind)
        for r in report.records
    }


@given(seeds)
def test_pretty_parse_is_a_fixpoint(seed):
    prog = single(seed)
    text = ir.pretty(prog)
    assert ir.pretty(ir.parse(text)) == text


@given(seeds)
def test_multithread_pretty_parse_is_a_fixpoint(seed):
    text = ir.pretty(
        ir.parse(oracles.random_multithread(random.Random(seed)))
    )
    assert ir.pretty(ir.parse(text)) == text


@given(seeds, st.sampled_from(["branch", "stl", "psf"]))
@settings(max_examples=60)
def test_transient_events_are_exactly_the_tfo_surplus(seed, prim):
    graph = cfg.build_acfg(single(seed))
    for struct in ev.enumerate_event_structures(graph, frozenset({prim})):
        po = {e for order in struct.po for e in order}
        tfo = {e for order in struct.tfo for e in order}
        assert po <= tfo
        assert {e.eid for e in struct.events if e.transient} == tfo - po
        for order in struct.po:
            assert not any(struct.events[e].transient for e in order)


def _witness_keys(prog: ir.Program, prim: str, d: int) -> set[tuple]:
    """Depth-stable witness identities: eids shift as windows grow, so
    candidates are keyed by committed-event displays and culprit edges by
    endpoint displays."""
    graph = cfg.build_acfg(prog)
    sts = ev.enumerate_event_structures(graph, frozenset({prim}), d)
    out = set()
    for cand in ex.enumerate_candidates(sts, d_spec=d):
        struct = cand.st

        def disp(e: int) -> str:
            if e == 0:
                return "⊤"
            if e == struct.bottom:
                return "⊥"
            return struct.events[e].display()

        cand_key = (
            tuple(disp(e) for order in struct.po for e in order),
            (cand.site.kind, disp(cand.site.read)) if cand.site else None,
            disp(cand.stale_src) if cand.stale_src is not None else None,
        )
        for w in lk.detect_leaks(cand):
            a, b = w.culprit.edge
            out.add((cand_key, w.culprit.kind, disp(a), disp(b)))
    return out


@given(seeds, st.sampled_from(["branch", "stl", "psf"]))
@settings(max_examples=40, deadline=None)
def test_witness_sets_grow_with_speculation_depth(seed, prim):
    prog = single(seed)
    shallow = _witness_keys(prog, prim, 2)
    deep = _witness_keys(prog, prim, 6)
    assert shallow <= deep
    assert _witness_keys(prog, prim, 0) <= shallow


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_windows_extend_as_prefixes(seed):
    prog = single(seed)
    graph = cfg.build_acfg(prog)

    def window_maps(d: int) -> dict[tuple, dict[str, list[str]]]:
        per_structure: dict[tuple, dict[str, list[str]]] = {}
        for struct in ev.enumerate_event_structures(
            graph, frozenset({"branch"}), d
        ):
            key = tuple(
                struct.events[e].display()
                for order in struct.po for e in order
            )
            windows: dict[str, list[str]] = {}
            for order in struct.tfo:
                for e in order:
                    event = struct.events[e]
                    if event.transient and event.kind != "SBOT":
                        anchor = struct.events[event.window].display()
                        windows.setdefault(anchor, []).append(event.display())
            per_structure[key] = windows
        return per_structure

    shallow, deep = window_maps(2), window_maps(6)
    assert set(shallow) == set(deep)  # committed paths don't depend on depth
    for key, windows in shallow.items():
        for anchor, seq in windows.items():
            longer = deep[key].get(anchor, [])
            assert longer[: len(seq)] == seq


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_architecturally_forced_executions_never_leak(seed):
    # no speculation window, no silent stores, no observer: the canonical
    # cache simulation realizes every implied relation
    graph = cfg.build_acfg(single(seed))
    sts = ev.enumerate_event_structures(graph, frozenset(), 0)
    for cand in ex.enumerate_candidates(sts):
        assert lk.detect_leaks(cand, probe=False) == []


@given(seeds, engines)
@settings(max_examples=40, deadline=None)
def test_class_selection_is_monotone(seed, engine):
    prog = single(seed)
    some = lk.analyze(prog, engine, lk.EngineConfig(
        scope="any", classes=frozenset({"universal_data"})))
    all_ = lk.analyze(prog, engine, lk.EngineConfig(
        scope="any", classes=frozenset(lk.CLASSES)))
    # a universal_data record survives verbatim, or is subsumed by a
    # higher-severity class for the same transmitter instance
    got = {(r.label, r.transient) for r in all_.records}
    for r in some.records:
        assert (r.label, r.transient) in got


@given(seeds, engines)
@settings(max_examples=40, deadline=None)
def test_computed_access_restriction_shrinks_reports(seed, engine):
    prog = single(seed)
    free = lk.analyze(prog, engine, lk.EngineConfig(
        scope="any", classes=frozenset(lk.CLASSES)))
    gep = lk.analyze(prog, engine, lk.EngineConfig(
        scope="any", classes=frozenset(lk.CLASSES), require_gep=True))
    assert record_keys(gep) <= record_keys(free)


@given(seeds, engines)
@settings(max_examples=30, deadline=None)
# Records sort by label first, so main@1_S precedes main@10 and lines()
# is out of string order for these two.
@example(392, "v4")
@example(694, "v4")
def test_reports_are_reproducible(seed, engine):
    prog = single(seed)
    conf = lk.EngineConfig(scope="any", classes=frozenset(lk.CLASSES),
                           silent_stores=True)
    report = lk.analyze(prog, engine, conf)
    assert report.lines() == lk.analyze(prog, engine, conf).lines()
    assert report.records == sorted(report.records, key=lk.record_sort_key)


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_windows_never_cross_a_fence(seed, lfence_only):
    graph = cfg.build_acfg(single(seed))
    for struct in ev.enumerate_event_structures(graph, frozenset({"branch"})):
        for order in struct.tfo:
            open_window = False
            for e in order:
                kind = struct.events[e].kind
                if struct.events[e].transient:
                    open_window = True
                    assert kind != "F"
                elif kind == "F" and open_window:
                    open_window = False


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_derived_relations_recompute(seed):
    graph = cfg.build_acfg(single(seed))
    sts = ev.enumerate_event_structures(graph, frozenset({"stl"}))
    for cand in ex.enumerate_candidates(sts, silent_stores=True):
        loc_of = {r: cand.access[r][1] for r in cand.rf}
        assert set(cand.fr()) == oracles.derive_fr(cand.rf, cand.co, loc_of)
        for order in cand.cox.values():
            assert order[0] == 0
        accesses = {e for o in cand.st.tfo for e in o if cand.access[e][0]}
        assert set(cand.rfx_in) == accesses - cand.silent


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_single_thread_arch_witness_is_tso_unique(seed):
    graph = cfg.build_acfg(single(seed))
    sts = ev.enumerate_event_structures(graph)
    for cand in ex.enumerate_candidates(sts):
        expected = oracles.tso_witnesses(
            oracles.structure_threads(cand), cand.st.fence_pairs
        )
        assert {oracles.arch_projection(cand)} == expected
