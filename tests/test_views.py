"""Each bypass view reads its prefix state from its structure's sweep.

A structure's canonical candidate is swept once, in eid order, from one
site read to the next (``executions._Sweep``), and a view simulates only
its window from there.  The references are what each view rebuilt before:
its base's canonical candidate cut at the site read
(``oracles.view_tables_reference``), its classification from its whole
forwarding relation (``oracles.chains_reference``), and dedupe keys that
copy the whole fetched prefix (``oracles.bypass_dedupe_reference``).
"""

from __future__ import annotations

import json
import random

import oracles
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex
from leakcheck import leakage as lk


def programs():
    """The corpus under its sidecars' depths, three random families, and
    the long-prefix block family under the stress program's depth."""
    for path in sorted(CORPUS.rglob("*.lcm")):
        config = json.loads(path.with_suffix(".expect.json").read_text())
        yield path.read_text(), config.get("config", {}).get("d_spec", 250)
    for seed in range(40):
        rng = random.Random(seed)
        yield oracles.random_single(rng), 8
        yield oracles.random_diamonds(rng), 8
        yield oracles.random_joins(rng, sites=0.9), rng.choice((1, 2, 3, 8))
    for n in (6, 7, 8):
        yield oracles.bypass_blocks(n), 25


def assert_view_matches_reference(cand: ex.Candidate) -> None:
    """The view's window state, full tables and observer sources equal those
    of its base's canonical candidate cut at the site read."""
    rf, co, rfx_in, cox = oracles.view_tables_reference(cand)
    read = cand.site.read
    assert list(cand.fills.items()) == [(e, w) for e, w in rfx_in.items() if e >= read]
    for x, hist in cand.lines.items():  # the window's part of each line it touched
        assert cox.get(x, [0])[1 - len(hist):] == hist[1:], x
    assert cand.observed() == tuple(sorted({order[-1] for order in cox.values()}))
    for got, want in zip((cand.rf, cand.co, cand.rfx_in, cand.cox), (rf, co, rfx_in, cox)):
        assert list(got.items()) == list(want.items())


def test_views_match_their_cut_base():
    views = sharers = classified = 0
    for src, d_spec in programs():
        graph = cfg.build_acfg(ir.parse(src))
        for prim in ("stl", "psf"):
            seen: set = set()
            derived: set = set()
            reference: set = set()
            for st in ev.enumerate_event_structures(graph, frozenset({prim}), d_spec):
                # The same dedupe partition as the full-prefix keys.
                assert [view is None for view in ev.derive_bypass(st, d_spec, seen=derived)] == (
                    oracles.bypass_dedupe_reference(st, d_spec, reference))
                for cand in ex.iter_candidates([st], d_spec=d_spec, seen=seen):
                    if cand.site is None:
                        continue
                    views += 1
                    sharers += cand.base is not None
                    assert_view_matches_reference(cand)
                    for w in lk.detect_leaks(cand):
                        for w_size in (None, 3):
                            chains = oracles.chains_reference(cand, w_size)
                            got = lk.classify_transmitters(cand, list(w.sources), w_size,
                                                           lk._Shared(cand.st))
                            assert got == {t: chains.classify(t) for t in sorted(w.sources)}
                            classified += len(got)
    assert views > 4000 and sharers > 2500 and classified > 100000, (views, sharers, classified)


def test_bypass_blocks_at_forty():
    # Pinned counts of the long-prefix family at n = 40 under the stress
    # program's depth and window.
    prog = ir.parse(oracles.bypass_blocks(40))
    config = lk.EngineConfig(d_spec=25, w_size=50)
    counts = {}
    for engine in ("v4", "psf"):
        report = lk.analyze(prog, engine, config)
        counts[engine] = len(report.records), report.candidates
    assert counts == {"v4": (40, 42), "psf": (39, 2382)}
