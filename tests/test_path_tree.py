"""The path-tree walk of ``enumerate_event_structures`` against the enumerator
it replaced (``oracles.enumerate_event_structures_reference``).

The walk forks one builder per branch outcome, so structures share the events
of their common prefix; the reference builds every structure from the root.
Both must give the same structures in the same order, field by field, and the
same derived structure for every bypass site.
"""

from __future__ import annotations

import json
import random

import oracles
import pytest
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev

PRIMITIVES = (
    frozenset(),
    frozenset({"branch"}),
    frozenset({"stl"}),
    frozenset({"psf"}),
)
FIELDS = (
    "events", "po", "tfo", "top", "bottom", "addr", "addr_gep", "data",
    "ctrl", "fence_pairs", "sites", "merged_aliases", "bypass_site", "plans",
    "step_of", "regions",
)


def assert_same_structure(got: ev.EventStructure, want: ev.EventStructure):
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def assert_walk_matches_reference(src: str, d_spec: int = 8) -> None:
    graph = cfg.build_acfg(ir.parse(src))
    for prims in PRIMITIVES:
        got = ev.enumerate_event_structures(graph, prims, d_spec)
        want = oracles.enumerate_event_structures_reference(graph, prims, d_spec)
        assert len(got) == len(want)
        for st, ref in zip(got, want):
            assert_same_structure(st, ref)
            for site in st.sites:
                derived = ev.derive_bypass(st, site, d_spec)
                expected = ev.derive_bypass(ref, site, d_spec)
                assert (derived is None) == (expected is None)
                if expected is not None:
                    oracles.silent_marks_reference(expected)
                    assert_same_structure(derived, expected)


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


def test_random_programs_with_aliases_match_reference():
    for seed in range(8300, 8360):
        rng = random.Random(seed)
        aliases = "alias (x, y)\n" + ("alias (y, z)\n" if rng.random() < 0.5 else "")
        assert_walk_matches_reference(aliases + oracles.random_single(rng))
        assert_walk_matches_reference(aliases + oracles.random_diamonds(rng))


def test_random_multithread_programs_match_reference():
    for seed in range(8400, 8460):
        assert_walk_matches_reference(
            oracles.random_multithread(random.Random(seed))
        )


def branching_threads(rng: random.Random) -> str:
    """Two or three threads, each with up to two if-then diamonds."""
    arm = ("W x <-1", "W x <-r1", "R y ->r1", "fence", "r1 <-r1&1")
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
        rng = random.Random(seed)
        aliases = "alias (x, y)\n" if rng.random() < 0.3 else ""
        assert_walk_matches_reference(aliases + branching_threads(rng))


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
