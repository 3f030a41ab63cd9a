"""The per-structure sharing in ``analyze`` against the unshared path.

``analyze`` memoises classification per event structure, and shares edge
indexes and fetch positions between a structure and its bypass views
(``leakage._Shared``).  The reference is the same code with nothing shared:
each witness gets a fresh ``_Shared`` for ``classify_transmitters`` and
``findings``.  Both must give the same transmitters (but those of psf
sharers, and of grafts that replay their leaf's pass, which ``analyze``
does not classify), records and repair elements, in order.
"""

from __future__ import annotations

import json
import random

import oracles
import pytest
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex
from leakcheck import leakage as lk

ALL = frozenset(lk.CLASSES)
RANDOM_SEEDS = range(7000, 7300)


def reference_report(prog: ir.Program, engine: str, config: lk.EngineConfig):
    """``analyze`` with nothing shared between candidates, and the
    transmitters of every witness in the order they were classified."""
    structures = ev.enumerate_event_structures(
        cfg.build_acfg(prog), frozenset({lk._PRIMITIVES[engine]}), config.d_spec
    )
    report = lk.Report(engine=engine, records=[], unrepairable=[])
    seen: set[lk.Record] = set()
    transmitters = []
    seen_bypass: set = set()
    view_at: dict[int, int] = {}  # id of a structure -> its pass's first view
    candidates = []
    for st in structures:
        cands = ex.enumerate_candidates(
            [st], silent_stores=config.silent_stores, d_spec=config.d_spec,
            seen=seen_bypass,
        )
        # A graft replays its leaf's pass unless that pass derived a view
        # before the graft's cut; every other structure runs its own.
        leaf = view_at[id(st.leaf)] if isinstance(st, ev.Graft) else None
        first = leaf is None or leaf < st.cut
        view_at[id(st)] = min((cand.site.read for cand in cands if cand.site is not None),
                              default=st.bottom) if first else leaf
        candidates += [(first, cand) for cand in cands]
    for first, cand in candidates:
        for w in lk.detect_leaks(cand, probe=config.probe):
            fresh = lk._Shared(cand.st)  # nothing from earlier witnesses
            kept = [
                e
                for e in w.sources
                if config.scope == "any" or cand.st.events[e].transient
            ]
            classified = lk.classify_transmitters(
                cand, kept, config.w_size, fresh, config.classes)
            # analyze classifies nothing for a psf sharer, whose records are
            # its base's, nor for a graft that replays its leaf's pass; their
            # records still count below.
            if first and (cand.base is None or cand.site.kind != "psf"):
                transmitters.append(classified)
            for rec, span in lk.findings(cand, w, engine, config, fresh):
                seen.add(rec)
                points = oracles.fence_points_eager(cand.st, span)
                if points:
                    report.elements.append(lk.RepairElement(points, rec))
                else:
                    report.unrepairable.append(rec)
    report.records = sorted(seen, key=lk.record_sort_key)
    report.elements = list(dict.fromkeys(report.elements))
    report.unrepairable = list(dict.fromkeys(report.unrepairable))
    return report, transmitters


def assert_shared_matches_reference(
    src: str, monkeypatch, d_spec: int = 8, **config
) -> None:
    prog = ir.parse(src)
    # With no silent-eligible store, silent stores on enumerates exactly the
    # candidates of silent stores off; run that case once.
    eligible = any(
        e.silent_eligible
        for st in ev.enumerate_event_structures(cfg.build_acfg(prog))
        for e in st.events
    )
    original = lk.classify_transmitters
    shared_transmitters = []

    def recorded(cand, events, w_size=None, shared=None, classes=None):
        assert shared is not None and classes is not None
        shared_transmitters.append(original(cand, events, w_size, shared, classes))
        return shared_transmitters[-1]

    for engine in ("v1", "v4", "psf"):
        for silent in (False, True) if eligible else (False,):
            for w_size in (None, 3):
                cfg_ = lk.EngineConfig(
                    d_spec=d_spec, w_size=w_size, silent_stores=silent, **config
                )
                shared_transmitters.clear()
                with monkeypatch.context() as m:
                    m.setattr(lk, "classify_transmitters", recorded)
                    got = lk.analyze(prog, engine, cfg_)
                want, transmitters = reference_report(prog, engine, cfg_)
                assert shared_transmitters == transmitters
                assert got.records == want.records
                assert got.elements == want.elements
                assert got.unrepairable == want.unrepairable


@pytest.mark.parametrize(
    "path", sorted(CORPUS.rglob("*.lcm")), ids=lambda p: p.stem
)
def test_corpus_program_shared_path_matches_reference(path, monkeypatch):
    """Each program under its sidecar's depth, classes and scope."""
    sidecar = json.loads(path.with_suffix(".expect.json").read_text())
    config = sidecar.get("config", {})
    assert_shared_matches_reference(
        path.read_text(),
        monkeypatch,
        d_spec=config.get("d_spec", 250),
        classes=frozenset(config.get("classes", ["universal_data"])),
        scope=config.get("scope", "transient"),
    )


def test_random_programs_shared_path_matches_reference(monkeypatch):
    for seed in RANDOM_SEEDS:
        src = oracles.random_single(random.Random(seed))
        assert_shared_matches_reference(
            src, monkeypatch, classes=ALL, scope="any"
        )


def test_forwarding_relation_separates_candidates_of_one_structure(monkeypatch):
    # The two stl candidates of rd's derived structure differ only in the
    # stale source: forwarded from w1, rd_S carries a's value, so t_S's
    # access is a; forwarded from the initial state, it is rd_S.
    src = "a: R s ->r1\nw1: W x <-r1\nw2: W x <-0\nrd: R x ->r2\nt: R B+r2 ->r3\n"
    config = lk.EngineConfig(classes=ALL, scope="any")
    report = lk.analyze(ir.parse(src), "v4", config)
    assert {
        (r.access_label, r.access_transient)
        for r in report.records
        if r.label == "t" and r.transient
    } == {("a", False), ("rd", True)}
    assert_shared_matches_reference(src, monkeypatch, classes=ALL, scope="any")


def test_branch_regions_are_computed_once_per_analysis(monkeypatch):
    calls = [0]
    original = ev._branch_regions

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(ev, "_branch_regions", counted)
    prog = ir.parse((CORPUS / "stress" / "deep_pipeline.lcm").read_text())
    report = lk.analyze(prog, "psf", lk.EngineConfig(d_spec=25, w_size=50))
    assert report.candidates > 1000  # many bypass derivations, one region map
    assert calls[0] == 1
