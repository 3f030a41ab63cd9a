"""One cache simulation and one witness pass per bypass site.

The line-neutral stale sources of one site and AMO choice share a cache
simulation (``executions._refill``), and ``analyze`` runs ``detect_leaks``
once per simulation.  The reference is the path this replaced: a fresh
``_build_comx`` and a fresh ``detect_leaks`` for every candidate.
"""

from __future__ import annotations

import random
from collections import Counter

import oracles
from conftest import CORPUS
from leakcheck import executions as ex
from leakcheck import ir
from leakcheck import leakage as lk

RANDOM_SEEDS = range(60)


def programs():
    for path in sorted(CORPUS.rglob("*.lcm")):
        yield path.stem, path.read_text()
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        yield f"single{seed}", oracles.random_single(rng)
        yield f"diamonds{seed}", oracles.random_diamonds(rng)
        yield f"alias{seed}", "alias (x, y)\n" + oracles.random_single(rng)


def analyzed(prog, engine, config, monkeypatch):
    """The candidates ``analyze`` enumerates, and the witnesses it passes
    to ``findings`` for each of them (by candidate id)."""
    cands: list[ex.Candidate] = []
    used: dict[int, list[lk.LeakWitness]] = {}
    enumerate_candidates, findings = ex.enumerate_candidates, lk.findings

    def enumerated(*args, **kwargs):
        cands.extend(enumerate_candidates(*args, **kwargs))
        return cands

    def recorded(cand, w, *args):
        used.setdefault(id(cand), []).append(w)
        return findings(cand, w, *args)

    with monkeypatch.context() as m:
        m.setattr(ex, "enumerate_candidates", enumerated)
        m.setattr(lk, "findings", recorded)
        lk.analyze(prog, engine, config)
    return cands, used


def test_shared_simulations_match_fresh_ones(monkeypatch):
    shared = 0
    for name, src in programs():
        prog = ir.parse(src)
        for engine in ("v4", "psf"):
            for probe in (True, False):
                config = lk.EngineConfig(d_spec=8, probe=probe)
                cands, used = analyzed(prog, engine, config, monkeypatch)
                for cand in cands:
                    shared += cand.base is not None
                    rfx_in, rfx_xstate, cox, xmode, bottom = ex._build_comx(
                        cand.st, cand.amo, cand.silent, cand.site, cand.stale_src
                    )
                    where = (name, engine, probe, cand.describe())
                    assert list(cand.rfx_in.items()) == list(rfx_in.items()), where
                    assert list(cand.rfx_xstate.items()) == list(rfx_xstate.items()), where
                    assert (cand.cox, cand.xmode, cand.bottom_sources) == (
                        cox, xmode, bottom
                    ), where
                    if cand.base is not None and cand.site.kind == "psf":
                        # classify_transmitters reuses the base's relation
                        assert lk._forwarding(cand) == lk._forwarding(cand.base)
                    got = used.get(id(cand), [])
                    assert all(w.cand is cand for w in got), where
                    assert [(w.culprit, w.receiver, w.sources) for w in got] == [
                        (w.culprit, w.receiver, w.sources)
                        for w in lk.detect_leaks(cand, probe=probe)
                    ], where
    assert shared > 100  # the check saw many shared simulations


def test_stress_program_simulates_and_detects_once_per_simulation(monkeypatch):
    # psf on the stress program: 2382 candidates over 120 simulations.
    # Counts are deterministic, so they are pinned; no timing bound.
    calls: Counter = Counter()
    build_comx, detect_leaks = ex._build_comx, lk.detect_leaks

    def built(*args):
        calls["_build_comx"] += 1
        return build_comx(*args)

    def detected(*args, **kwargs):
        calls["detect_leaks"] += 1
        return detect_leaks(*args, **kwargs)

    monkeypatch.setattr(ex, "_build_comx", built)
    monkeypatch.setattr(lk, "detect_leaks", detected)
    path = CORPUS / "stress" / "deep_pipeline.lcm"
    report = lk.analyze(ir.parse(path.read_text()), "psf", lk.EngineConfig())
    assert (report.candidates, calls["_build_comx"]) == (2382, 120)
    assert calls["detect_leaks"] == calls["_build_comx"]
