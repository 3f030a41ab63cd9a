"""One cache simulation and one witness pass per bypass site.

The line-neutral stale sources of one site and AMO choice share a cache
simulation (``executions._refill``), and ``analyze`` runs ``detect_leaks``
once per simulation; a psf sharer also takes its base's records.  The
reference is the path this replaced: a fresh simulation of the whole
structure (``oracles.build_comx_reference``), a fresh ``detect_leaks`` and
``findings`` with a fresh ``_Shared`` for every candidate.
"""

from __future__ import annotations

import random
from collections import Counter

import oracles
import pytest
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex
from leakcheck import leakage as lk

RANDOM_SEEDS = range(60)

# spectre_psf with one more store to another location: its psf sites
# (i3, i4, i5) each have two stale sources, i0 and i2.
PSF_TWO_SOURCES = (
    "i0: W D+0 <-7\n"
    + (CORPUS / "gadgets" / "spectre_psf.lcm").read_text()
)


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
    iter_candidates, findings = ex.iter_candidates, lk.findings

    def enumerated(*args, **kwargs):
        for cand in iter_candidates(*args, **kwargs):
            cands.append(cand)
            yield cand

    def recorded(cand, w, *args):
        used.setdefault(id(cand), []).append(w)
        return findings(cand, w, *args)

    with monkeypatch.context() as m:
        m.setattr(ex, "iter_candidates", enumerated)
        m.setattr(lk, "findings", recorded)
        lk.analyze(prog, engine, config)
    return cands, used


def reference(cand, engine, config):
    """``detect_leaks(cand)``'s witnesses as (culprit, receiver, sources),
    and the ``findings`` of each, computed with nothing shared."""
    shared = lk._Shared(cand.st)
    witnesses = lk.detect_leaks(cand, probe=config.probe)
    return (
        [(w.culprit, w.receiver, w.sources) for w in witnesses],
        [lk.findings(cand, w, engine, config, shared) for w in witnesses],
    )


def test_shared_simulations_match_fresh_ones(monkeypatch):
    shared = psf_sharers = psf_records = 0
    for name, src in programs():
        prog = ir.parse(src)
        for engine in ("v4", "psf"):
            for probe in (True, False):
                config = lk.EngineConfig(
                    d_spec=8, probe=probe, scope="any", classes=frozenset(lk.CLASSES)
                )
                cands, used = analyzed(prog, engine, config, monkeypatch)
                base_ref: dict[int, tuple] = {}  # psf base id -> reference
                for cand in cands:
                    shared += cand.base is not None
                    rfx_in, cox = oracles.build_comx_reference(
                        cand.st, ex.access_table(cand.st, cand.amo), cand.silent,
                        cand.site, cand.stale_src,
                    )
                    where = (name, engine, probe, cand.describe())
                    assert list(cand.rfx_in.items()) == list(rfx_in.items()), where
                    assert cand.cox == cox, where
                    if cand.base is not None and cand.site.kind == "psf":
                        # A psf sharer's records are its base's: analyze
                        # never computes them.  Its graphs draw its base's
                        # witnesses on itself: those must match too.
                        psf_sharers += 1
                        assert id(cand) not in used, where
                        assert lk._forwarding(cand) == lk._forwarding(cand.base)
                        witnesses, found = reference(cand, engine, config)
                        if id(cand.base) not in base_ref:
                            base_ref[id(cand.base)] = reference(
                                cand.base, engine, config
                            )
                        base_witnesses, base_found = base_ref[id(cand.base)]
                        assert witnesses == base_witnesses, where
                        assert found == base_found, where
                        psf_records += sum(map(len, found))
                        continue
                    got = used.get(id(cand), [])
                    assert [(w.culprit, w.receiver, w.sources) for w in got] == [
                        (w.culprit, w.receiver, w.sources)
                        for w in lk.detect_leaks(cand, probe=probe)
                    ], where
    # The check saw many shared simulations, and psf sharers with records.
    assert shared > 100 and psf_sharers > 100 and psf_records > 100


def test_stress_program_simulates_and_detects_once_per_simulation(monkeypatch):
    # psf on the stress program: 2382 candidates over 120 simulations, and
    # findings only for the witnesses of the 120 candidates that ran a
    # simulation (one witness each).  A simulation counts wherever it
    # starts: from an empty state or resumed at a site read.  Counts are
    # deterministic, so they are pinned; no timing bound.
    calls: Counter = Counter()
    simulate, detect_leaks, findings = ex._simulate, lk.detect_leaks, lk.findings

    def built(*args):
        calls["_simulate"] += 1
        return simulate(*args)

    def detected(*args, **kwargs):
        calls["detect_leaks"] += 1
        return detect_leaks(*args, **kwargs)

    def found(*args):
        calls["findings"] += 1
        return findings(*args)

    monkeypatch.setattr(ex, "_simulate", built)
    monkeypatch.setattr(lk, "detect_leaks", detected)
    monkeypatch.setattr(lk, "findings", found)
    path = CORPUS / "stress" / "deep_pipeline.lcm"
    report = lk.analyze(ir.parse(path.read_text()), "psf", lk.EngineConfig())
    assert (report.candidates, calls["_simulate"]) == (2382, 120)
    assert calls["detect_leaks"] == calls["_simulate"]
    assert calls["findings"] == 120  # 2382 when every sharer ran findings


@pytest.mark.parametrize(
    "src, sharers",
    [((CORPUS / "gadgets" / "spectre_psf.lcm").read_text(), False),
     (PSF_TWO_SOURCES, True)],
    ids=["spectre_psf", "two_sources"],
)
def test_psf_witness_graphs_match_a_findings_pass_per_candidate(src, sharers):
    config = lk.EngineConfig(
        collect_graphs=True, scope="any", classes=frozenset(lk.CLASSES)
    )
    prog = ir.parse(src)
    structures = ev.enumerate_event_structures(
        cfg.build_acfg(prog), frozenset({"psf"}), config.d_spec
    )
    graphs: list[tuple[str, str]] = []
    sharer_graphs = 0
    for cand in ex.enumerate_candidates(structures, d_spec=config.d_spec):
        shared = lk._Shared(cand.st)
        for w in lk.detect_leaks(cand, probe=config.probe):
            if lk.findings(cand, w, "psf", config, shared):
                title = f"psf witness {len(graphs) + 1}"
                graphs.append((title, lk.witness_dot(cand, w, title)))
                if cand.base is not None:
                    # the sharer's graph draws its own stale fill edge
                    sharer_graphs += 1
                    edge = f'e{cand.stale_src} -> e{cand.site.read} [label="rfx"'
                    assert edge in graphs[-1][1]
    assert graphs
    assert (sharer_graphs > 0) == sharers
    assert lk.analyze(prog, "psf", config).graphs == graphs
