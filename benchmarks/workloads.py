"""The benchmark's workloads: seeded program families and the shipped corpus.

Every instance carries its expected answer, derived from how the program
was built (or, for the corpus, from its ``.expect.json`` sidecar), never
from the analyzer's own output.  A workload yields batches of instances:
one shuffled pass over the corpus, or a single generated program.  The
seed fixes every name, register and constant; it never changes a program's
shape, so every seed asks the analyzer for the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import random
import string
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from leakcheck import leakage
from leakcheck.leakage import EngineConfig, Record

CORPUS = Path("corpus")

# Instance sizes.  Each generated family stays under ~0.1 s per verdict on a
# 2-core machine, so a 15 s run gives the 100 verdicts that a 90th
# percentile needs; the oversize instances make the exponential stages run
# well past their budget.
PSF_BLOCKS = 7
PSF_OVERSIZE = 14
DIAMONDS = 5
DIAMONDS_OVERSIZE = 10
WINDOWS = 7
WINDOW_SLOTS = 4
WINDOWS_OVERSIZE = 8


@dataclass
class Instance:
    name: str
    text: str
    mode: str  # "check" (leakage.analyze) or "repair" (repair.repair)
    engine: str
    config: dict  # EngineConfig keyword arguments, deadline excluded
    check: Callable[[object], str | None]  # result -> mismatch, or None

    def engine_config(self, budget: float) -> EngineConfig:
        """The instance's config with a deadline ``budget`` seconds away."""
        return EngineConfig(deadline=time.monotonic() + budget, **self.config)


@dataclass
class Probe:
    """An oversize instance analysed under a short budget."""

    instance: Instance
    budget: float  # seconds


@dataclass
class Workload:
    name: str
    batches: Callable[[int], Iterator[list[Instance]]]
    probe: Callable[[int], Probe]


# --------------------------------------------------------------------------
# helpers


def _record_key(rec: Record) -> tuple:
    return (rec.label, rec.transient, rec.klass, rec.access_label,
            rec.access_transient)


def _expect_records(expected: set[tuple]) -> Callable[[object], str | None]:
    def check(report) -> str | None:
        got = {_record_key(r) for r in report.records}
        if got == expected:
            return None
        return (f"missing {sorted(expected - got)[:3]}, "
                f"unexpected {sorted(got - expected)[:3]}")
    return check


class _Names:
    """Fresh identifiers and a register permutation drawn from one rng."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()
        regs = [f"r{i}" for i in range(1, 16)]
        rng.shuffle(regs)
        self.regs = regs

    def loc(self) -> str:
        while True:
            name = "m" + "".join(
                self.rng.choice(string.ascii_lowercase + string.digits)
                for _ in range(5)
            )
            if name not in self.used:
                self.used.add(name)
                return name

    def alu(self, dst: str, src: str) -> str:
        op = self.rng.choice("+-^|")
        return f"{dst} <-{dst}{op}{src}"

    def imm(self, dst: str) -> str:
        op = self.rng.choice("+-^|")
        return f"{dst} <-{dst}{op}{self.rng.randrange(1, 4096)}"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _family(name: str, make: Callable[..., Instance], budget: float,
            **oversize) -> Workload:
    """A generated workload: instance ``index`` of ``seed`` is fixed."""

    def batches(seed: int) -> Iterator[list[Instance]]:
        for index in itertools.count():
            yield [make(_rng(name, seed, index), index)]

    def probe(seed: int) -> Probe:
        inst = make(_rng(f"{name}:oversize", seed, 0), 0, **oversize)
        return Probe(inst, budget)

    return Workload(name, batches, probe)


# --------------------------------------------------------------------------
# corpus: the shipped programs under their sidecar configs


def sidecar_instance(path: Path) -> Instance:
    sidecar = path.with_suffix(".expect.json")
    data = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    conf = data.get("config", {})
    config = dict(
        d_spec=conf.get("d_spec", 250),
        w_size=conf.get("w_size"),
        classes=frozenset(conf.get("classes", ["universal_data"])),
        scope=conf.get("scope", "transient"),
        require_gep=conf.get("require_gep", False),
        silent_stores=conf.get("silent_stores", False),
        probe=conf.get("probe", True),
    )
    expected = data.get("expect", [])

    def check(report) -> str | None:
        # The same comparison the corpus runner makes: the (label,
        # transient, class) set, then any access and culprit details.
        want = {(e["label"], bool(e.get("transient", False)), e["class"])
                for e in expected}
        got = {(r.label, r.transient, r.klass) for r in report.records}
        if want != got:
            return f"expected {sorted(want)}, got {sorted(got)}"
        for e in expected:
            key = (e["label"], bool(e.get("transient", False)), e["class"])
            same = [r for r in report.records
                    if (r.label, r.transient, r.klass) == key]
            if "access" in e and not any(
                r.access_label == e["access"]
                and (e.get("access_transient") is None
                     or r.access_transient == e["access_transient"])
                for r in same
            ):
                return f"{key}: access is not {e['access']}"
            if "culprit" in e and not any(
                r.culprit_kind == e["culprit"] for r in same
            ):
                return f"{key}: culprit is not {e['culprit']}"
        return None

    return Instance(str(path), path.read_text(), "check",
                    conf.get("engine", "all"), config, check)


def _corpus_batches(seed: int) -> Iterator[list[Instance]]:
    programs = [sidecar_instance(p) for p in sorted(CORPUS.rglob("*.lcm"))]
    rng = random.Random(f"corpus:{seed}")
    while True:
        order = list(programs)
        rng.shuffle(order)
        yield order


def _corpus_probe(seed: int) -> Probe:
    # The stress program under v4 with the default depth, given a fifth of
    # the time it needs; the deadline falls inside the bypass derivation,
    # which does not check it.
    path = CORPUS / "stress" / "deep_pipeline.lcm"
    inst = Instance(str(path), path.read_text(), "check", "v4",
                    {}, lambda report: None)
    return Probe(inst, 0.1)


# --------------------------------------------------------------------------
# psf_bypass: N independent store-bypass blocks behind one guard


def psf_bypass(rng: random.Random, index: int, blocks: int = PSF_BLOCKS) -> Instance:
    """The shape of ``corpus/stress/deep_pipeline.lcm`` with ``blocks`` blocks.

    Block k loads an index, stores through it and reloads it into the
    address of a probe load ``spk``.  Under psf the reload ``srk`` can be
    forwarded an earlier block's store, so every probe but the first
    (which has no earlier store to misforward from) is a universal-data
    transmitter with access ``srk``.
    """
    nm = _Names(rng)
    guard, idx, masked, val, out, acc, step = nm.regs[:7]
    lines = [f"h1: R {nm.loc()} ->{guard}", f"BEQZ {guard}, end",
             f"{step} <-0", f"{acc} <-1"]
    lines += [nm.imm(step) for _ in range(15)]
    expected = set()
    for k in range(1, blocks + 1):
        table, probe = nm.loc(), nm.loc()
        lines += [
            f"sa{k:02d}: R {nm.loc()} ->{idx}",
            f"{masked} <-{idx}&{rng.randrange(255, 65536)}",
            f"sw{k:02d}: W {table}+{masked} <-{idx}",
            f"sr{k:02d}: R {table}+{masked} ->{val}",
            f"sp{k:02d}: R {probe}+{val} ->{out}",
        ]
        lines += [nm.alu(acc, step) for _ in range(7)]
        if k > 1:
            expected.add((f"sp{k:02d}", True, "universal_data", f"sr{k:02d}",
                          True))
    lines.append("end: skip")
    return Instance(f"psf_bypass[{index}]", "\n".join(lines) + "\n", "check",
                    "psf", dict(d_spec=25, w_size=50),
                    _expect_records(expected))


# --------------------------------------------------------------------------
# branch_diamonds: N sequential branch diamonds, then one Spectre-v1 gadget


def branch_diamonds(rng: random.Random, index: int,
                    diamonds: int = DIAMONDS) -> Instance:
    """N if-then diamonds whose arms only compute, then the v1 gadget.

    Every branch doubles the committed paths, so there are 2^(N+1) event
    structures.  The diamonds touch memory only at fixed addresses, so the
    single universal-data record is the gadget's: ``i6`` transmits through
    the transient access ``i5``.
    """
    nm = _Names(rng)
    cond, acc, idx, val, out = nm.regs[:5]
    lines = [f"{acc} <-0"]
    for k in range(1, diamonds + 1):
        lines += [
            f"c{k:02d}: R {nm.loc()} ->{cond}",
            f"BEQZ {cond}, j{k:02d}",
            nm.imm(acc),
            f"j{k:02d}: skip",
        ]
    lines += [
        f"i2: R {nm.loc()} ->{idx}",
        f"BEQZ {idx}, end",
        f"i5: R {nm.loc()}+{idx} ->{val}",
        f"i6: R {nm.loc()}+{val} ->{out}",
        "end: skip",
    ]
    expected = {("i6", True, "universal_data", "i5", True)}
    return Instance(f"branch_diamonds[{index}]", "\n".join(lines) + "\n",
                    "check", "v1", {}, _expect_records(expected))


# --------------------------------------------------------------------------
# repair_windows: N independent v4 windows, each closed by an lfence


def repair_windows(rng: random.Random, index: int, windows: int = WINDOWS,
                   slots: int = WINDOW_SLOTS) -> Instance:
    """N Spectre-v4 gadgets, each followed by an lfence.

    In window w the masking store ``cw`` can be bypassed by the reload
    ``dw``, whose stale value steers ``ew`` and ``fw``.  Between ``dw`` and
    the first transmitter ``ew`` lie ``slots - 1`` ALU instructions, so each
    window offers ``slots`` fence slots and no slot serves two windows.  The
    minimum repair is one fence per window, inside that window's slots,
    and the fenced program checks clean.
    """
    nm = _Names(rng)
    size, raw, val, idx, out, acc = nm.regs[:6]
    lines = [f"{acc} <-0"]
    ranges: list[range] = []
    for w in range(1, windows + 1):
        var = nm.loc()
        lines += [
            f"a{w:02d}: R {nm.loc()} ->{size}",
            f"b{w:02d}: R {var} ->{raw}",
            f"c{w:02d}: W {var} <-{raw}&({size}-1)",
            f"d{w:02d}: R {var} ->{val}",
        ]
        first = len(lines)
        lines += [nm.imm(acc) for _ in range(slots - 1)]
        ranges.append(range(first, len(lines) + 1))
        lines += [
            f"e{w:02d}: R {nm.loc()}+{val} ->{idx}",
            f"f{w:02d}: R {nm.loc()}+{idx} ->{out}",
            "lfence",
        ]
    text = "\n".join(lines) + "\n"

    def check(plan) -> str | None:
        if not plan.success:
            return "repair did not succeed"
        if len(plan.fences) != windows:
            return f"{len(plan.fences)} fences, expected {windows}"
        hits = [sum(fp.func == "main" and fp.index in r for fp in plan.fences)
                for r in ranges]
        if hits != [1] * windows:
            return f"fences per window {hits}, expected one each"
        if leakage.analyze(plan.program, "v4", EngineConfig()).records:
            return "the fenced program still leaks"
        return None

    return Instance(f"repair_windows[{index}]", text, "repair", "v4", {},
                    check)


# --------------------------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", _corpus_batches, _corpus_probe),
        _family("psf_bypass", psf_bypass, 0.05, blocks=PSF_OVERSIZE),
        _family("branch_diamonds", branch_diamonds, 0.05,
                diamonds=DIAMONDS_OVERSIZE),
        _family("repair_windows", repair_windows, 0.05,
                windows=WINDOWS_OVERSIZE),
    )
}
