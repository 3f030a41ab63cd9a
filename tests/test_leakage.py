from __future__ import annotations

import itertools
import json
import random
import time

import oracles
import pytest
from conftest import CORPUS

from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex
from leakcheck import leakage as lk
from leakcheck.cli import main

ALL = frozenset(lk.CLASSES)

GADGET = (
    "i2: R y ->r2\nBEQZ r2, end\ni5: R A+r2 ->r4\ni6: R B+r4 ->r5\n"
    "end: skip\n"
)

BYPASS = (
    "i1: R idx ->r1\nr2 <-r1&15\ni3: W A+r2 <-0\ni4: R A+r2 ->r3\n"
    "i5: R B+r3 ->r4\n"
)


def run(src: str, engine: str = "v1", **kw) -> lk.Report:
    return lk.analyze(ir.parse(src), engine, lk.EngineConfig(**kw))


def keys(report: lk.Report) -> set[tuple]:
    return {
        (r.label, r.transient, r.klass, r.access_label, r.access_transient)
        for r in report.records
    }


def test_guarded_double_load_full_record_set():
    report = run(GADGET, scope="any", classes=ALL)
    assert keys(report) == {
        ("i2", False, "address", None, None),
        ("i5", False, "data", "i2", False),
        ("i5", True, "data", "i2", False),
        ("i6", False, "universal_data", "i5", False),
        ("i6", True, "universal_data", "i5", True),
    }
    assert {r.culprit_kind for r in report.records} == {"rf_without_rfx"}
    assert {r.engine for r in report.records} == {"v1"}


def test_window_and_committed_definitions_name_two_locations():
    """The branch's window fetches ``R A+r4 ->r2`` before the committed path
    does, and each fetch defines r2 anew: ``[r2]`` names one location per
    definition, so the committed ``R [r2]`` misses its own line instead of
    hitting the one the window's ``R [r2]`` filled, and leaks its committed
    access."""
    src = ("R x ->r1\nR w ->r4\nBEQZ r1, e0\nJMP j0\ne0: skip\nj0: skip\n"
           "R A+r4 ->r2\nR [r2] ->r1\n")
    report = run(src, scope="any", classes=ALL)
    assert keys(report) == {
        ("main@0", False, "address", None, None),
        ("main@1", False, "address", None, None),
        ("main@6", True, "data", "main@1", False),
        ("main@7", False, "universal_data", "main@6", False),
        ("main@7", True, "universal_data", "main@6", True),
    }
    assert {r.culprit_kind for r in report.records} == {"rf_without_rfx"}


def test_protect_on_an_unrelated_register_acts_as_lfence():
    assert run(GADGET).records
    protected = GADGET.replace("BEQZ r2, end\n", "BEQZ r2, end\nprotect r9\n")
    assert not run("r9 <-0\n" + protected).records


def test_transient_scope_drops_committed_findings():
    report = run(GADGET, scope="transient", classes=ALL)
    assert keys(report) == {
        ("i5", True, "data", "i2", False),
        ("i6", True, "universal_data", "i5", True),
    }


def test_transient_scope_classifies_no_committed_event(corpus_dir, monkeypatch):
    classified: list[bool] = []
    original = lk._Chains.classify

    def recorded(self, t):
        classified.append(self.st.events[t].transient)
        return original(self, t)

    monkeypatch.setattr(lk._Chains, "classify", recorded)
    prog = ir.parse((corpus_dir / "gadgets" / "spectre_psf.lcm").read_text())
    assert lk.analyze(prog, "psf", lk.EngineConfig()).records
    assert classified and all(classified)
    classified.clear()
    lk.analyze(prog, "psf", lk.EngineConfig(scope="any"))
    assert not all(classified)


def test_severity_collapse_keeps_strongest_class():
    report = run(GADGET, scope="any", classes=ALL)
    by_label: dict[str, set[str]] = {}
    for r in report.records:
        by_label.setdefault(r.label, set()).add(r.klass)
    # i6 satisfies data as well, but only the promoted class is reported
    assert by_label["i6"] == {"universal_data"}
    assert by_label["i5"] == {"data"}


def test_class_filter_narrows_output():
    only_ud = run(GADGET, scope="any", classes=frozenset({"universal_data"}))
    assert {(r.label, r.transient) for r in only_ud.records} == {
        ("i6", False),
        ("i6", True),
    }
    # every deviating access is an address transmitter for its own location
    only_addr = run(GADGET, scope="any", classes=frozenset({"address"}))
    assert {(r.label, r.transient) for r in only_addr.records} == {
        ("i2", False),
        ("i5", False),
        ("i5", True),
        ("i6", False),
        ("i6", True),
    }
    assert {r.klass for r in only_addr.records} == {"address"}


def test_probe_gating_silences_read_only_programs():
    report = run(GADGET, scope="any", classes=ALL, probe=False)
    assert report.records == []


def test_silent_store_finding_and_receiver():
    src = "i1: W x <-1\ni2: W x <-1\n"
    report = run(src, scope="any", classes=ALL, silent_stores=True,
                 probe=False)
    assert keys(report) == {("i2", False, "address", None, None)}
    (rec,) = report.records
    assert rec.culprit_kind == "co_imm_without_rfx"
    assert rec.silent == "definite"

    # the witness endpoint is the observer, sourced by the elided write
    sts = ev.enumerate_event_structures(cfg.build_acfg(ir.parse(src)))
    cands = ex.enumerate_candidates(sts, silent_stores=True)
    quiet = next(c for c in cands if c.silent)
    (w,) = lk.detect_leaks(quiet, probe=False)
    assert w.culprit.kind == "co_imm_without_rfx"
    assert w.receiver == quiet.st.bottom
    assert set(w.sources) <= set(quiet.silent)


def test_store_bypass_records():
    report = run(BYPASS, engine="v4",
                 classes=frozenset({"data", "universal_data"}))
    assert keys(report) == {
        ("i4", True, "data", "i1", False),
        ("i5", True, "universal_data", "i4", True),
    }


def test_forwarded_alias_records():
    src = ("i1: R y ->r1\ni2: W C+0 <-64\ni3: R C+r1 ->r2\n"
           "i4: R A+r2 ->r3\ni5: R B+r3 ->r4\n")
    report = run(src, engine="psf", classes=ALL)
    # The forged-forward load's own address is never architecturally
    # true, so its direct consumer stays a plain data transmitter; the
    # universal promotion lands one hop later.  The second data record
    # for i5 comes from the variant whose misforwarded site is i4 itself.
    assert keys(report) == {
        ("i4", True, "data", "i3", True),
        ("i5", True, "data", "i4", True),
        ("i5", True, "universal_data", "i4", True),
    }


def test_reports_are_deterministic():
    a = run(BYPASS, engine="v4", classes=ALL, scope="any")
    b = run(BYPASS, engine="v4", classes=ALL, scope="any")
    assert a.lines() == b.lines()
    assert a.lines() == sorted(a.lines()) or a.records == sorted(
        a.records, key=lk.record_sort_key
    )


def test_merged_engines_dedupe_records():
    merged = run(GADGET, engine="all", classes=ALL, scope="any")
    single = run(GADGET, engine="v1", classes=ALL, scope="any")
    assert keys(single) <= keys(merged)
    assert len(merged.records) == len(set(merged.records))
    # only the branch engine opens a window here, but the committed
    # observer finding is common to all three
    transient = {r.engine for r in merged.records
                 if r.label == "i6" and r.transient}
    committed = {r.engine for r in merged.records
                 if r.label == "i6" and not r.transient}
    assert transient == {"v1"}
    assert committed == {"v1", "v4", "psf"}


def test_fence_points_sit_between_branch_and_transmitter():
    report = run(GADGET, classes=frozenset({"universal_data"}))
    assert report.records and report.elements
    for el in report.elements:
        assert el.points == frozenset({("main", 2)})
    assert report.unrepairable == []


def test_fence_points_for_bypass_follow_the_site():
    report = run(BYPASS, engine="v4", classes=frozenset({"universal_data"}))
    assert report.records and report.elements
    for el in report.elements:
        assert el.points == frozenset({("main", 4)})


def test_committed_findings_have_no_fence_point():
    report = run(GADGET, scope="any", classes=frozenset({"address"}))
    committed = [r for r in report.unrepairable if not r.transient]
    assert committed  # i2 cannot be fenced away


def test_witness_graphs_highlight_the_culprit():
    report = run(GADGET, classes=frozenset({"universal_data"}),
                 collect_graphs=True)
    assert report.graphs
    title, dot = report.graphs[0]
    assert dot.startswith("digraph")
    assert "penwidth=2" in dot and "color=red" in dot
    assert "style=dashed" in dot  # transient nodes and dependency edges


def test_records_are_never_assigned_after_construction(corpus_dir, monkeypatch, capsys):
    # Records, transmitters, culprits, repair elements and sites hash by
    # value and are shared by memos and reports, so none may change once
    # made.  Their classes are not frozen, which costs a call per field on
    # every construction; this guard stands in for it over a corpus pass
    # and a read of every program's repair elements under every engine.
    assigned = []

    def guarded(self, name, value):
        if hasattr(self, name):  # an unset slot has no value yet
            assigned.append((type(self).__name__, name))
        object.__setattr__(self, name, value)

    def deleted(self, name):
        assigned.append((type(self).__name__, name))
        object.__delattr__(self, name)

    for cls in (lk.Record, lk.Transmitter, lk.Culprit, lk.RepairElement, ev.Site):
        monkeypatch.setattr(cls, "__setattr__", guarded)
        monkeypatch.setattr(cls, "__delattr__", deleted)
    site = ev.Site(1, "stl", (0,))
    site.read = 2
    assert assigned == [("Site", "read")]
    assigned.clear()

    assert main(["corpus", str(corpus_dir), "--no-timing"]) == 0
    capsys.readouterr()
    config = lk.EngineConfig(scope="any", classes=ALL)
    elements = [lk.analyze(ir.parse(path.read_text()), "all", config).elements
                for path in sorted(corpus_dir.rglob("*.lcm"))]
    assert any(elements) and assigned == []


def test_deadline_interrupts_analysis():
    cfg_ = lk.EngineConfig(deadline=time.monotonic() - 1.0)
    with pytest.raises(ev.AnalysisTimeout):
        lk.analyze(ir.parse(GADGET), "v1", cfg_)


def test_deadline_interrupts_bypass_derivation(corpus_dir):
    # under v4 the stress program spends most of its time deriving one
    # bypass structure per site; the deadline is checked before each.  The
    # budget is half of what the analysis takes untimed on this host.
    prog = ir.parse((corpus_dir / "stress" / "deep_pipeline.lcm").read_text())
    start = time.monotonic()
    lk.analyze(prog, "v4", lk.EngineConfig())
    budget = (time.monotonic() - start) / 2
    config = lk.EngineConfig(deadline=time.monotonic() + budget)
    start = time.monotonic()
    with pytest.raises(ev.AnalysisTimeout):
        lk.analyze(prog, "v4", config)
    assert time.monotonic() - start - budget < 0.1


def test_deadline_interrupts_path_enumeration():
    # 2^18 committed paths: the walk along the path tree checks the
    # deadline once per node, so it stops long before listing them all
    prog = ir.parse(oracles.sequential_diamonds(18))
    config = lk.EngineConfig(deadline=time.monotonic() + 0.2)
    start = time.process_time()
    with pytest.raises(ev.AnalysisTimeout):
        lk.analyze(prog, "v1", config)
    assert time.process_time() - start < 1.0


def test_deadline_interrupts_grafting():
    # 2^22 committed paths whose forks all merge: the walk takes a few
    # dozen steps, and grafting its one structure onto the 2^22 - 1 other
    # paths checks the deadline once per graft
    prog = ir.parse(oracles.sequential_diamonds(22))
    config = lk.EngineConfig(deadline=time.monotonic() + 0.2)
    start = time.process_time()
    with pytest.raises(ev.AnalysisTimeout):
        lk.analyze(prog, "v1", config)
    assert time.process_time() - start < 1.0


def test_thread_programs_are_rejected():
    src = "thread t0:\nW x <-1\nthread t1:\nR x ->r1\n"
    with pytest.raises(ex.ExecutionError):
        run(src)
    # the merge names itself, and no engine builds the ACfg first
    with pytest.raises(ex.ExecutionError, match="^engine all analyzes single-thread"):
        run(src, engine="all")


@pytest.mark.parametrize(
    "name",
    ["gadgets/spectre_v1.lcm", "gadgets/spectre_v4.lcm",
     "gadgets/spectre_psf.lcm", "pht/pht04.lcm", "stl/stl06.lcm"],
)
def test_all_engines_build_one_acfg_and_merge_the_engines(
    name, corpus_dir, monkeypatch
):
    prog = ir.parse((corpus_dir / name).read_text())
    config = lk.EngineConfig(scope="any", classes=ALL, collect_graphs=True)
    subs = [lk.analyze(prog, engine, config) for engine in ("v1", "v4", "psf")]
    built = []
    build_acfg = cfg.build_acfg
    monkeypatch.setattr(cfg, "build_acfg", lambda p, *tick: built.append(p) or build_acfg(p, *tick))
    merged = lk.analyze(prog, "all", config)
    assert built == [prog]
    assert merged.engine == "all"
    assert merged.records == sorted(
        {r for rep in subs for r in rep.records}, key=lk.record_sort_key
    )
    for part in ("elements", "unrepairable", "graphs"):
        assert getattr(merged, part) == [
            x for rep in subs for x in getattr(rep, part)
        ], part
    assert merged.graphs
    assert (merged.structures, merged.candidates) == (
        sum(rep.structures for rep in subs), sum(rep.candidates for rep in subs)
    )


def test_speculation_depth_limits_findings():
    shallow = run(GADGET, classes=frozenset({"universal_data"}), d_spec=1)
    assert keys(shallow) == set()
    deep = run(GADGET, classes=frozenset({"universal_data"}), d_spec=2)
    assert {r.label for r in deep.records} == {"i6"}


def test_window_size_limits_transmitter_distance():
    # the window is anchored at the transmitter and every chain hop must
    # land inside it: with w=1 the adjacent i5->i6 data hop survives, but
    # i2 is out of reach, demoting i5 to address and blocking i6's
    # universal promotion
    report = run(GADGET, scope="any", classes=ALL, w_size=1)
    assert keys(report) == {
        ("i2", False, "address", None, None),
        ("i5", False, "address", None, None),
        ("i5", True, "address", None, None),
        ("i6", False, "data", "i5", False),
        ("i6", True, "data", "i5", True),
    }
    tight = run(GADGET, scope="any", classes=ALL, w_size=0)
    assert tight.records and {r.klass for r in tight.records} == {"address"}


# --------------------------------------------------------------------------
# classification against the four-walk reference


def classification_matches_reference(src: str, d_spec: int = 8) -> list[lk.Transmitter]:
    """Assert that ``classify_transmitters``, memoised per structure as in
    ``analyze``, gives what ``oracles.classify_reference`` gives for every
    source of every witness, under v1, v4 and psf with ``w_size`` None and
    3; return the transmitters compared."""
    prog = ir.parse(src)
    graph = cfg.build_acfg(prog)
    compared = []
    for engine in ("v1", "v4", "psf"):
        structures = ev.enumerate_event_structures(
            graph, frozenset({lk._PRIMITIVES[engine]}), d_spec)
        for w_size in (None, 3):
            shared = None
            for cand in ex.iter_candidates(structures, d_spec=d_spec):
                if shared is None or shared.current is not cand.st:
                    shared = lk._Shared(cand.st)
                for w in lk.detect_leaks(cand):
                    got = lk.classify_transmitters(cand, list(w.sources), w_size, shared)
                    assert got == oracles.classify_reference(cand, w.sources, w_size), (
                        engine, w_size, cand.describe())
                    compared += [t for entries in got.values() for t in entries]
    return compared


def test_corpus_classification_matches_reference(corpus_dir):
    compared = []
    for path in sorted(corpus_dir.rglob("*.lcm")):
        config = json.loads(path.with_suffix(".expect.json").read_text()).get("config", {})
        compared += classification_matches_reference(
            path.read_text(), config.get("d_spec", 250))
    # The comparison reaches every class, and gep chains of both kinds.
    assert {t.klass for t in compared} == set(lk.CLASSES)
    assert {(t.klass, t.gep) for t in compared} >= {
        ("data", True), ("data", False), ("universal_data", True),
        ("universal_data", False)}


@pytest.mark.parametrize("family", [
    oracles.random_single, oracles.random_diamonds,
    lambda rng: oracles.random_joins(rng, sites=0.9),
], ids=["single", "diamonds", "joins"])
def test_random_classification_matches_reference(family):
    for seed in range(8000, 8150):
        classification_matches_reference(family(random.Random(seed)))


def test_admitted_classes_keep_what_all_classes_give():
    # With only some classes admitted, classification skips a chain kind,
    # or its universal walk, that no admitted class needs: each source keeps
    # every admitted class, so its most severe, that all five give it.
    subsets = [frozenset(c) for n in range(1, 6) for c in itertools.combinations(lk.CLASSES, n)]
    srcs = [p.read_text() for p in sorted(CORPUS.rglob("*.lcm")) if p.parent.name != "stress"]
    for seed in range(6):
        rng = random.Random(seed)
        srcs += [oracles.random_single(rng), oracles.random_joins(rng, sites=0.9)]
    kept = set()
    for src in srcs:
        graph = cfg.build_acfg(ir.parse(src))
        for prim in ("branch", "stl", "psf"):
            structures = ev.enumerate_event_structures(graph, frozenset({prim}), 8)
            for cand in ex.iter_candidates(structures, d_spec=8):
                for w in lk.detect_leaks(cand):
                    full = lk.classify_transmitters(cand, list(w.sources), None, lk._Shared(cand.st))
                    for classes in subsets:
                        got = lk.classify_transmitters(
                            cand, list(w.sources), None, lk._Shared(cand.st), classes)
                        for t, entries in full.items():
                            admitted = [x for x in entries if x.klass in classes]
                            assert [x for x in got[t] if x.klass in classes] == admitted
                            best = max(admitted, key=lambda x: lk._SEVERITY[x.klass], default=None)
                            kept.add(best and best.klass)
    assert kept == {None, *lk.CLASSES}
