"""``analyze`` analyses each merged path once.

Where the walk merges two paths whose arms differ only in event-less steps
(ALU, skip, jump), each structure of the other path is a graft
(``events.Graft``): it replays its leaf's pass (candidates, leak detection
and classification), with fence slots from its own fetched nodes, and its
witness graphs.  Every other structure runs its own pass.  The reference
is one pass over every candidate of every structure
(``oracles.analyze_reference``).  Both must give the same records, repair
elements (points and order), unrepairable records, witness graphs and
structure and candidate counts.
"""

from __future__ import annotations

import json
import random

import oracles
import pytest
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import leakage as lk

ALL = frozenset(lk.CLASSES)
CONFIGS = (
    {},
    {"scope": "any", "classes": ALL},
    {"scope": "any", "classes": ALL, "silent_stores": True},
    {"scope": "any", "classes": ALL, "probe": False, "w_size": 3},
    {"scope": "any", "classes": ALL, "collect_graphs": True},
)

# Diamonds with ALU-only arms of unequal length around stl/psf blocks.
# Before a site, the two paths have equal events but different fetched
# nodes, so both derive the site's view and their fence slots differ.  After
# a site, the two paths fetch the view's nodes alike up to the window's end,
# so only the first derives it: their events are equal, the graft runs its
# own pass.
GUARDED_BLOCKS = (
    "r7 <-0\nr8 <-0\na: R g ->r1\nBEQZ r1, j1\nr7 <-r7+1\nr7 <-r7+2\nj1: skip\n"
    "b: R i ->r2\nr3 <-r2&15\nw: W T+r3 <-r2\nr8 <-r8+1\nrd: R T+r3 ->r4\n"
    "p: R P+r4 ->r5\nc: R h ->r6\nBEQZ r6, j2\nr7 <-r7+1\nj2: skip\n"
    "w2: W U <-r6\nrd2: R T+r3 ->r9\nq: R Q+r9 ->r5\n",
    "r7 <-0\nr8 <-0\na: R g ->r1\nBEQZ r1, j1\nr7 <-r7+1\nj1: skip\n"
    "w: W x <-r1\nr8 <-r8+1\nr8 <-r8+1\nrd: R y ->r2\nt: R A+r2 ->r3\n"
    "BEQZ r3, j2\nr7 <-r7+1\nr7 <-r7+1\nj2: skip\n"
    "w2: W z <-r3\nrd2: R x ->r4\nt2: R B+r4 ->r5\n",
)


def assert_matches_reference(src: str, d_spec: int = 8, configs=CONFIGS) -> None:
    prog = ir.parse(src)
    graph = cfg.build_acfg(prog)
    for conf in configs:
        config = lk.EngineConfig(d_spec=d_spec, **conf)
        # "all" merges the three; run it under the first config only.
        for engine in ("v1", "v4", "psf") + ("all",) * (conf is configs[0]):
            got = lk.analyze(prog, engine, config, graph)
            want = oracles.analyze_reference(prog, engine, config, graph)
            where = (engine, conf)
            assert got.records == want.records, where
            assert got.elements == want.elements, where
            assert got.unrepairable == want.unrepairable, where
            assert got.graphs == want.graphs, where
            assert (got.structures, got.candidates) == (
                want.structures, want.candidates), where
            assert min(1, got.structures) <= got.distinct <= got.structures


@pytest.mark.parametrize(
    "path", sorted(CORPUS.rglob("*.lcm")), ids=lambda p: p.stem
)
def test_corpus_program_matches_reference(path):
    """Each program under its sidecar's depth and window; the stress
    program, whose psf graphs take seconds, under the default config."""
    config = json.loads(path.with_suffix(".expect.json").read_text()).get(
        "config", {}
    )
    assert_matches_reference(
        path.read_text(),
        d_spec=config.get("d_spec", 250),
        configs=CONFIGS[:1] if "stress" in path.parts else CONFIGS,
    )


def test_random_programs_match_reference():
    for seed in range(40):
        assert_matches_reference(oracles.random_single(random.Random(seed)))
    for seed in range(12):
        assert_matches_reference(oracles.random_diamonds(random.Random(seed)))
    for seed in range(6):
        src = oracles.random_nested(random.Random(seed))
        assert_matches_reference("alias (x, y)\n" + src)


def test_sequential_diamonds_match_reference():
    assert_matches_reference(oracles.sequential_diamonds(6))


@pytest.mark.parametrize("n", (6, 7, 8))
def test_bypass_blocks_match_reference(n):
    """The long-prefix family, under every config (the stress program, its
    shape at 40 blocks, runs under the first only)."""
    assert_matches_reference(oracles.bypass_blocks(n), d_spec=25)


def test_random_joins_match_reference(monkeypatch):
    """A graft (``events.Graft``) replays its leaf's pass, unless that pass
    derived a bypass view at a site before the join: then the graft runs its
    own.  The family's arms differ in length before and after bypass sites."""
    grafts = {"replay": 0, "own": 0}
    enumerate_structures, first_pass = ev.enumerate_event_structures, lk._first_pass

    def listed(*args):
        structures = enumerate_structures(*args)
        grafts["replay"] += sum(isinstance(st, ev.Graft) for st in structures)
        return structures

    def counted(st, *args):
        own = isinstance(st, ev.Graft)
        grafts["replay"] -= own
        grafts["own"] += own
        return first_pass(st, *args)

    monkeypatch.setattr(ev, "enumerate_event_structures", listed)
    monkeypatch.setattr(lk, "_first_pass", counted)
    for seed in range(30):
        rng = random.Random(seed)
        assert_matches_reference(oracles.random_joins(rng, sites=0.9),
                                 d_spec=rng.choice((1, 2, 3, 8)))
    assert grafts["replay"] > 100 and grafts["own"] > 5, grafts


@pytest.mark.parametrize("src", GUARDED_BLOCKS, ids=["indexed", "direct"])
def test_diamond_guarded_bypass_blocks_match_reference(src):
    for d_spec in (2, 3, 8):
        assert_matches_reference(src, d_spec=d_spec)


# The shape of the benchmark's branch_diamonds: five diamonds, then a v1
# gadget whose branch splits the 64 structures into two walked paths.
BRANCH_DIAMONDS = oracles.sequential_diamonds(5) + (
    "i2: R y ->r3\nBEQZ r3, end\ni5: R A+r3 ->r4\ni6: R B+r4 ->r5\nend: skip\n"
)


def test_report_counts_distinct_structures():
    report = lk.analyze(ir.parse(BRANCH_DIAMONDS), "v1", lk.EngineConfig())
    assert (report.structures, report.distinct) == (64, 2)
    assert [r.line() for r in report.records] == [
        "LEAK transmitter=i6_S class=universal_data access=i5_S "
        "culprit=rf_without_rfx engine=v1"
    ]
    prog = ir.parse(oracles.sequential_diamonds(10))
    report = lk.analyze(prog, "v1", lk.EngineConfig())
    assert (report.structures, report.distinct) == (1024, 1)
    report = lk.analyze(prog, "all", lk.EngineConfig())
    assert (report.structures, report.distinct) == (3 * 1024, 3)


def test_leaks_are_detected_once_per_distinct_content(monkeypatch):
    calls = [0]
    detect_leaks = lk.detect_leaks

    def counted(*args, **kwargs):
        calls[0] += 1
        return detect_leaks(*args, **kwargs)

    monkeypatch.setattr(lk, "detect_leaks", counted)
    prog = ir.parse(oracles.sequential_diamonds(8))
    for engine in ("v1", "v4", "psf"):
        calls[0] = 0
        report = lk.analyze(prog, engine, lk.EngineConfig())
        # one candidate per structure, 256 structures, all but one grafts
        assert (report.structures, report.candidates) == (256, 256)
        assert calls[0] == report.distinct == 1


def test_distinct_contents_hash_apart(monkeypatch):
    """Three event-free diamonds, then nine whose arms load: 4096 structures,
    512 of them walked and the rest grafts that replay them.  No structure is
    compared with another: only the merge at each join compares events, so
    ``Event`` comparisons stay under one per structure."""
    src = oracles.sequential_diamonds(3) + "".join(
        f"R d{k} ->r1\nBEQZ r1, e{k}\nR a{k} ->r3\ne{k}: skip\n" for k in range(9))
    calls = [0]
    eq = ev.Event.__eq__

    def counted(self, other):
        calls[0] += 1
        return eq(self, other)

    monkeypatch.setattr(ev.Event, "__eq__", counted)
    report = lk.analyze(ir.parse(src), "v1", lk.EngineConfig())
    assert (report.structures, report.distinct) == (4096, 512)
    assert calls[0] <= 4096
