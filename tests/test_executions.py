from __future__ import annotations

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex


def candidates(src: str, prims=frozenset(), **kw):
    sts = ev.enumerate_event_structures(cfg.build_acfg(ir.parse(src)), prims)
    return ex.enumerate_candidates(sts, **kw)


def read_fixture(litmus_dir, name: str) -> str:
    return (litmus_dir / name).read_text()


def eids_by_label(cand):
    return {e.label: e.eid for e in cand.st.events}


# -- memory-model litmus shapes ---------------------------------------------


def test_store_buffering_allows_the_relaxed_outcome(litmus_dir):
    cands = candidates(read_fixture(litmus_dir, "store_buffering.lcm"))
    assert len(cands) == 4
    stale = [
        c for c in cands
        if all(w == 0 for w in c.rf.values())
    ]
    assert len(stale) == 1  # both loads reading the initial state is allowed


def test_fenced_store_buffering_forbids_both_stale(litmus_dir):
    cands = candidates(read_fixture(litmus_dir, "store_buffering_fenced.lcm"))
    assert len(cands) == 3
    assert not any(all(w == 0 for w in c.rf.values()) for c in cands)


def test_message_passing_orders_flag_after_data(litmus_dir):
    cands = candidates(read_fixture(litmus_dir, "message_passing.lcm"))
    assert len(cands) == 3
    for c in cands:
        ids = eids_by_label(c)
        saw_flag = c.rf[ids["i3"]] == ids["i2"]
        stale_data = c.rf[ids["i4"]] == 0
        assert not (saw_flag and stale_data)


def test_single_thread_witness_is_canonical():
    cands = candidates(
        "i1: W x <-1\ni2: R x ->r1\ni3: W x <-r1\ni4: R x ->r2\n"
    )
    assert len(cands) == 1
    (c,) = cands
    ids = eids_by_label(c)
    assert c.rf == {ids["i2"]: ids["i1"], ids["i4"]: ids["i3"]}
    assert c.co == {"x": [0, ids["i1"], ids["i3"]]}


@pytest.mark.parametrize(
    "fixture",
    ["store_buffering.lcm", "store_buffering_fenced.lcm",
     "message_passing.lcm"],
)
def test_witness_sets_match_exhaustive_oracle(litmus_dir, fixture):
    cands = candidates(read_fixture(litmus_dir, fixture))
    assert cands
    expected = oracles.tso_witnesses(
        oracles.structure_threads(cands[0]), cands[0].st.fence_pairs
    )
    assert {oracles.arch_projection(c) for c in cands} == expected


def test_indirect_accesses_of_two_threads_never_alias():
    """An indirect location is named by the node that defined its register,
    so each thread's ``[r1]`` is its own location, wherever in its thread's
    plan the definition sits: one candidate, with no rf between threads."""
    for head in ("", "skip\n"):
        src = f"thread t0:\nr1 <-0\nW [r1] <-1\nthread t1:\n{head}r1 <-0\nR [r1] ->r2\n"
        assert len(candidates(src)) == 1, head


def test_multithread_enumeration_is_capped():
    lines = ["thread t0:"]
    lines += [f"W x <-{k}" for k in range(6)]
    lines += ["thread t1:"]
    lines += [f"W y <-{k}" for k in range(6)]
    sts = ev.enumerate_event_structures(
        cfg.build_acfg(ir.parse("\n".join(lines) + "\n"))
    )
    with pytest.raises(ex.ExecutionError):
        ex.arch_witnesses(sts[0], ex.access_table(sts[0], {}))


# -- cache-state bookkeeping --------------------------------------------------


GADGET = (
    "i2: R y ->r2\nBEQZ r2, end\ni5: R A+r2 ->r4\ni6: R B+r4 ->r5\n"
    "end: skip\n"
)


def claims(c, e) -> bool:
    """Whether access ``e`` claims the line it fills from (a write or miss)."""
    return e in c.cox.get(c.xstate(e), [])


def test_line_fill_invariants():
    for c in candidates(GADGET, frozenset({"branch"})):
        # every executed access gets exactly one fill edge unless silent
        accesses = {e for order in c.st.tfo for e in order if c.access[e][0]}
        assert set(c.rfx_in) == accesses - c.silent
        for x, order in c.cox.items():
            assert order[0] == 0
            assert len(set(order)) == len(order)
            # a line's claimants fill from that line
            assert all(c.xstate(w) == x for w in order[1:])
        # the observer reads each written-to line from its last owner
        bottom = c.bottom_sources()
        for x, last in bottom.items():
            assert last == c.cox[x][-1] != 0
        for x, order in c.cox.items():
            assert (x in bottom) == (len(order) > 1)


def test_misses_claim_the_line_and_hits_do_not():
    (c,) = candidates("i1: R x ->r1\ni2: R x ->r2\ni3: W x <-1\n")
    ids = eids_by_label(c)
    assert claims(c, ids["i1"]) and c.rfx_in[ids["i1"]] == 0
    assert not claims(c, ids["i2"]) and c.rfx_in[ids["i2"]] == ids["i1"]
    # the hit never became the owner, so the store fills from the miss
    assert claims(c, ids["i3"]) and c.rfx_in[ids["i3"]] == ids["i1"]
    (order,) = c.cox.values()
    assert order == [0, ids["i1"], ids["i3"]]


def test_fr_and_frx_recomputed_from_parts():
    for c in candidates(GADGET, frozenset({"branch"})):
        loc_of = {r: c.access[r][1] for r in c.rf}
        assert set(c.fr()) == oracles.derive_fr(c.rf, c.co, loc_of)
        manual = set()
        for e, src in c.rfx_in.items():
            order = c.cox.get(c.xstate(e), [])
            if src in order:
                for w2 in order[order.index(src) + 1:]:
                    if w2 != e:
                        manual.add((e, w2))
        assert set(c.frx()) == manual


# -- silent stores ------------------------------------------------------------


def test_silent_store_leaves_no_trace(corpus_dir):
    src = (corpus_dir / "gadgets" / "silent_store_pair.lcm").read_text()
    cands = candidates(src, silent_stores=True)
    assert len(cands) == 2
    quiet = next(c for c in cands if c.silent)
    ids = eids_by_label(quiet)
    assert quiet.silent == frozenset({ids["i2"]})
    assert ids["i2"] not in quiet.rfx_in
    assert all(ids["i2"] not in order for order in quiet.cox.values())
    assert not claims(quiet, ids["i2"])
    # architecturally the elided write still participates
    assert ids["i2"] in quiet.co["x"]


def test_silent_subset_requires_opt_in(corpus_dir):
    src = (corpus_dir / "gadgets" / "silent_store_pair.lcm").read_text()
    assert all(not c.silent for c in candidates(src))


def test_subsets_are_made_one_at_a_time_in_their_old_order():
    items = [3, 5, 8, 13, 21]
    subsets = ex._nonempty_subsets(items)
    assert not isinstance(subsets, list)
    assert list(subsets) == oracles.nonempty_subsets_reference(items)
    pairs = [("x", "y"), ("y", "z"), ("a", "b"), ("x", "y")]
    resolutions = ev.alias_subsets(pairs)
    assert not isinstance(resolutions, list)
    assert list(resolutions) == oracles.alias_subsets_reference(pairs)


def _batches_between_ticks(monkeypatch, src, prims, **kw):
    """How many candidate batches were built between consecutive ticks."""
    built = [0]
    make = ex._make_candidates

    def counted(*args):
        built[0] += 1
        return make(*args)

    monkeypatch.setattr(ex, "_make_candidates", counted)
    sts = ev.enumerate_event_structures(cfg.build_acfg(ir.parse(src)), prims)
    marks = []
    ex.enumerate_candidates(sts, tick=lambda: marks.append(built[0]), **kw)
    marks.append(built[0])
    return [b - a for a, b in zip(marks, marks[1:])], built[0]


@pytest.mark.parametrize("path, prims, kw", [
    ("stress/deep_pipeline.lcm", frozenset({"psf"}), {"d_spec": 25}),
    ("gadgets/silent_store_pair.lcm", frozenset(), {"silent_stores": True}),
])
def test_deadline_is_checked_before_each_candidate_batch(
    monkeypatch, corpus_dir, path, prims, kw
):
    # a deadline that passes among the bypass or silent-store candidates
    # stops the enumeration within one batch, not at its end
    src = (corpus_dir / path).read_text()
    gaps, built = _batches_between_ticks(monkeypatch, src, prims, **kw)
    assert built > 1
    assert max(gaps) <= 1


# -- store-to-load bypass variants --------------------------------------------


def test_bypass_candidate_forwards_the_stale_line(corpus_dir):
    src = (corpus_dir / "stl" / "stl01.lcm").read_text()
    cands = candidates(src, frozenset({"stl"}))
    assert len(cands) == 2
    plain = [c for c in cands if c.site is None]
    bypass = [c for c in cands if c.site is not None]
    assert len(plain) == 1 and len(bypass) == 1
    (b,) = bypass
    assert b.site.kind == "stl"
    site_read = b.site.read
    assert b.st.events[site_read].label == "i4"
    # only one prior store, so the stale source is the untouched line
    assert b.stale_src == 0
    assert b.rfx_in[site_read] == 0
    assert claims(b, site_read)


def test_bypass_from_earlier_store_does_not_claim_the_line():
    src = ("i1: R v ->r1\ni2: W t <-7\ni3: W t <-r1\ni4: R t ->r2\n"
           "i5: R B+r2 ->r3\n")
    cands = candidates(src, frozenset({"stl"}))
    from_store = [c for c in cands if c.site and c.stale_src not in (None, 0)]
    assert from_store
    for c in from_store:
        ids = eids_by_label(c)
        assert c.stale_src == ids["i2"]
        assert c.rfx_in[c.site.read] == ids["i2"]
        assert not claims(c, c.site.read)
        assert all(c.site.read not in order for order in c.cox.values())


def test_aliased_fill_crosses_locations():
    src = "i1: R y ->r1\ni2: W C+0 <-64\ni3: R C+r1 ->r2\n"
    cands = candidates(src, frozenset({"psf"}))
    forged = [c for c in cands if c.site is not None]
    assert forged
    for c in forged:
        ids = eids_by_label(c)
        assert c.site.kind == "psf"
        assert c.rfx_in[ids["i3"]] == ids["i2"]
        assert c.xstate(ids["i3"]) == c.access[ids["i2"]][1]
        assert not claims(c, ids["i3"])


# -- confidentiality ----------------------------------------------------------


def corpus_and_random_programs():
    for path in sorted(CORPUS.rglob("*.lcm")):
        config = json.loads(path.with_suffix(".expect.json").read_text())
        yield path.read_text(), config.get("config", {}).get("d_spec", 250)
    for seed in range(9000, 9200):
        yield oracles.random_single(random.Random(seed)), 8
    for seed in range(9200, 9260):
        yield oracles.random_multithread(random.Random(seed)), 8


def confidential_candidates(src: str, d_spec: int) -> int:
    """Check every candidate of ``src`` under each primitive, silent stores
    on, with :func:`executions.confidential`; return how many there were."""
    graph = cfg.build_acfg(ir.parse(src))
    checked = 0
    for prims in ({"branch"}, {"stl"}, {"psf"}, {"stl", "psf"}):
        sts = ev.enumerate_event_structures(graph, frozenset(prims), d_spec)
        for cand in ex.enumerate_candidates(sts, silent_stores=True, d_spec=d_spec):
            assert ex.confidential(cand)
            checked += 1
    return checked


def test_every_enumerated_candidate_is_confidential():
    # Candidates are confidential by construction (``_build_comx`` argues
    # why), so enumeration no longer checks them; this test checks every
    # one.  Should a candidate ever fail, the argument is wrong and the
    # runtime check must come back.
    checked = 0
    for src, d_spec in corpus_and_random_programs():
        checked += confidential_candidates(src, d_spec)
    assert checked


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["random_single", "random_diamonds", "random_multithread"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_random_program_candidates_are_confidential(generator, seed, alias):
    src = getattr(oracles, generator)(random.Random(seed))
    assert confidential_candidates(("alias (x, y)\n" if alias else "") + src, 8)


# -- the candidate kernel -----------------------------------------------------


def kernel_programs():
    """The corpus, three random families, extern calls (AMOs) included, and
    the long-prefix block family, each with its ``d_spec`` and whether to
    check every event pair (not on the stress program, whose simulations
    have 37 million: there only each fill's line)."""
    for path in sorted(CORPUS.rglob("*.lcm")):
        config = json.loads(path.with_suffix(".expect.json").read_text())
        yield (path.read_text(), config.get("config", {}).get("d_spec", 250),
               path.parent.name != "stress")
    for seed in range(15):
        rng = random.Random(seed)
        yield oracles.random_single(rng), 8, True
        yield oracles.random_joins(rng), 8, True
        yield oracles.random_multithread(rng), 8, True
    for n in (6, 7, 8):
        yield oracles.bypass_blocks(n), 25, True


def frx_by_position(cand, every_pair: bool) -> set[tuple[int, int]]:
    """The pairs ``in_frx`` admits among every event pair, or among each fill
    and the writers of its line."""
    events = range(len(cand.st.events))
    if every_pair:
        return {(e, w) for e in events for w in events if cand.in_frx(e, w)}
    return {(e, w) for e in cand.rfx_in for w in cand.cox.get(cand.xstate(e), ())
            if cand.in_frx(e, w)}


def test_access_tables_and_frx_positions_match_references():
    # Every candidate's access table is the per-event lookup it replaced, for
    # every event and AMO choice; ``in_frx`` is membership in the full
    # ``frx``, for every event pair (:func:`frx_by_position`).  Candidates
    # that share a table or a simulation are checked once.
    amos = silent = psf = 0
    for src, d_spec, every_pair in kernel_programs():
        graph = cfg.build_acfg(ir.parse(src))
        for prims in ({"branch"}, {"stl", "psf"}):
            sts = ev.enumerate_event_structures(graph, frozenset(prims), d_spec)
            cands = ex.enumerate_candidates(sts, silent_stores=True, d_spec=d_spec)
            tables, simulations = set(), set()
            for cand in cands:
                events = range(len(cand.st.events))
                if id(cand.access) not in tables:
                    tables.add(id(cand.access))
                    amos += bool(cand.amo)
                    assert cand.access == [
                        oracles.kind_loc(cand.st, cand.amo, e) for e in events]
                if id(cand.rfx_in) not in simulations:
                    simulations.add(id(cand.rfx_in))
                    silent += bool(cand.silent)
                    psf += cand.site is not None and cand.site.kind == "psf"
                    frx = cand.frx()
                    assert frx == oracles.frx_reference(cand)
                    assert frx_by_position(cand, every_pair) == frx
    assert amos > 50 and silent > 50 and psf > 50, (amos, silent, psf)


def test_views_cut_from_their_base_match_fresh_ones():
    # A bypass candidate's access table, (rf, co) and cache simulation, cut
    # from its base's canonical candidate and resumed at the site read,
    # equal those built afresh for its view, maps in the same order; its AMO
    # choices are the view's own, in order; and the four edge checks find
    # nothing on it, so the observer rule's is its only witness.
    from leakcheck import leakage as lk

    views = amos = 0
    for src, d_spec, _ in kernel_programs():
        graph = cfg.build_acfg(ir.parse(src))
        sts = ev.enumerate_event_structures(graph, frozenset({"stl", "psf"}), d_spec)
        choices: dict[tuple, tuple] = {}  # (view, stale source) -> view, AMO choices
        for cand in ex.enumerate_candidates(sts, d_spec=d_spec):
            if cand.site is None:
                continue
            views += 1
            amos += bool(cand.amo)
            choices.setdefault((id(cand.st), cand.stale_src), (cand.st, []))[1].append(cand.amo)
            access = ex.access_table(cand.st, cand.amo)
            assert cand.access == access
            rf, co = ex.canonical_arch(cand.st, access)
            assert list(cand.rf.items()) == list(rf.items())
            assert list(cand.co.items()) == list(co.items())
            rfx_in, cox = oracles.build_comx_reference(
                cand.st, access, cand.silent, cand.site, cand.stale_src)
            assert list(cand.rfx_in.items()) == list(rfx_in.items())
            assert list(cand.cox.items()) == list(cox.items())
            found = oracles.leak_findings(cand)
            assert set(found) <= {("rf_without_rfx", (0, cand.st.bottom))}
            assert [(w.culprit.kind, w.culprit.edge) for w in lk.detect_leaks(cand)] == found
        for view, got in choices.values():
            assert got == ex._amo_choices(view)
    assert views > 500 and amos > 50, (views, amos)


def test_bypass_dedupe_keeps_every_alias_resolution(monkeypatch):
    # Under another alias resolution, a derived plan can match an earlier
    # one node for node while the locations differ, so its bypass
    # candidates are new: the records must equal those of a dedupe that
    # starts afresh at every structure.
    from leakcheck import leakage as lk

    config = lk.EngineConfig(d_spec=8, classes=frozenset(lk.CLASSES), scope="any")
    original = ev.derive_bypass
    for generator, seed in (
        (oracles.random_diamonds, 130),
        (oracles.random_diamonds, 75),
        (oracles.random_single, 271),
    ):
        prog = ir.parse("alias (x, y)\n" + generator(random.Random(seed)))
        for engine in ("v4", "psf"):
            records = lk.analyze(prog, engine, config).records
            with monkeypatch.context() as m:
                m.setattr(ev, "derive_bypass",
                          lambda st, d_spec, tick, seen: original(st, d_spec, tick, set()))
                assert lk.analyze(prog, engine, config).records == records


# -- memory -------------------------------------------------------------------


def test_psf_stress_analysis_peaks_under_32_mib():
    # psf on the stress program holds 2382 candidates over 120 cache
    # simulations.  A candidate stores rf, co, rfx and cox, and a sharer
    # copies only rfx: about 28 MiB.  Candidates that also store the maps
    # derived from those (fill lines, access modes, observer reads) peak
    # near 39 MiB.
    from leakcheck import leakage as lk

    prog = ir.parse((CORPUS / "stress" / "deep_pipeline.lcm").read_text())
    tracemalloc.start()
    try:
        report = lk.analyze(prog, "psf", lk.EngineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.candidates == 2382
    assert peak < 32 * 2**20


def test_psf_stress_analysis_of_every_class_peaks_under_8_mib():
    # Every class under scope any keeps 5344 repair elements.  Building
    # their fence points as ``analyze`` met each record peaked at 65 MiB;
    # built only when ``Report.elements`` is read, they leave about 3.3 MiB.
    from leakcheck import leakage as lk

    prog = ir.parse((CORPUS / "stress" / "deep_pipeline.lcm").read_text())
    config = lk.EngineConfig(scope="any", classes=frozenset(lk.CLASSES))
    tracemalloc.start()
    try:
        report = lk.analyze(prog, "psf", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 277
    assert peak < 8 * 2**20


def test_bypass_views_analysis_peaks_under_8_mib():
    # 320 blocks give 320 views of one structure under v4.  Views that also
    # stored their po and tfo, as slices of their base's, peaked at 9.5 MiB;
    # read off the events, they leave about 6.5 MiB.
    from leakcheck import leakage as lk

    prog = ir.parse(oracles.bypass_blocks(320))
    tracemalloc.start()
    try:
        report = lk.analyze(prog, "v4", lk.EngineConfig(d_spec=25, w_size=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 320
    assert peak < 8 * 2**20


def test_sequential_diamonds_analysis_peaks_under_24_mib():
    # 16384 structures, all but one grafts: views that share their leaf's
    # events and build no fetched nodes of their own unless read.  Grafts
    # that copied their plans peaked at 34 MiB under v1; unmerged walks at
    # 78 MiB under v4.
    from leakcheck import leakage as lk

    prog = ir.parse(oracles.sequential_diamonds(14))
    for engine in ("v1", "v4"):
        tracemalloc.start()
        try:
            report = lk.analyze(prog, engine, lk.EngineConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.structures, report.distinct) == (2**14, 1)
        assert peak <= 24 * 2**20, engine
