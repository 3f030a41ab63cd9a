from __future__ import annotations

import itertools
import json
import random
import time

import oracles
import pytest
from conftest import CORPUS
from hypothesis import example, given, settings, strategies as st
from leakcheck import cfg, ir
from leakcheck import events as ev
from leakcheck import executions as ex
from leakcheck import leakage as lk
from leakcheck import repair as rp
from leakcheck.events import AnalysisTimeout

UD = frozenset({"universal_data"})

GADGET = (
    "i2: R y ->r2\nBEQZ r2, end\ni5: R A+r2 ->r4\ni6: R B+r4 ->r5\n"
    "end: skip\n"
)


def do_repair(src: str, engine: str = "v1", **kw) -> rp.RepairPlan:
    return rp.repair(ir.parse(src), engine, lk.EngineConfig(**kw))


def test_single_fence_cuts_the_window():
    plan = do_repair(GADGET, classes=UD)
    assert plan.success
    assert [str(f) for f in plan.fences] == ["main:2"]
    assert plan.iterations == 1
    assert plan.minimal is True
    assert not lk.analyze(plan.program, "v1", lk.EngineConfig(classes=UD)).records


def test_fenced_program_needs_nothing():
    plan = do_repair(GADGET, classes=UD)
    again = rp.repair(plan.program, "v1", lk.EngineConfig(classes=UD))
    assert again.success and again.fences == [] and again.minimal is True


def test_bypass_gadget_fence_follows_the_site():
    src = ("i1: R idx ->r1\nr2 <-r1&15\ni3: W A+r2 <-0\ni4: R A+r2 ->r3\n"
           "i5: R B+r3 ->r4\n")
    plan = do_repair(src, engine="v4", classes=UD)
    assert plan.success
    assert [str(f) for f in plan.fences] == ["main:4"]


def test_two_independent_windows_need_two_fences():
    src = (
        "a1: R y ->r1\nBEQZ r1, mid\na3: R A+r1 ->r2\na4: R B+r2 ->r3\n"
        "mid: R z ->r4\nBEQZ r4, end\nb3: R C+r4 ->r5\nb4: R D+r5 ->r6\n"
        "end: skip\n"
    )
    plan = do_repair(src, classes=UD)
    assert plan.success
    assert len(plan.fences) == 2
    assert plan.minimal is True
    assert {str(f) for f in plan.fences} == {"main:2", "main:6"}


def test_shared_point_is_hit_once():
    # two findings in the same window (data and universal) share a slot
    plan = do_repair(GADGET, classes=frozenset({"data", "universal_data"}))
    assert plan.success
    assert len(plan.fences) == 1


def test_committed_leakage_is_not_fence_repairable():
    plan = do_repair(GADGET, scope="any", classes=frozenset({"address"}))
    assert not plan.success
    assert plan.unrepairable
    # the transient findings still get their fence; the committed ones stay
    assert all(not r.transient for r in plan.residual)


def test_inlined_callee_points_map_into_the_callee():
    src = (
        "i1: R y ->r1\n"
        "BEQZ r1, end\n"
        "call probe(r1)\n"
        "end: skip\n"
        "\n"
        "func probe(r1):\n"
        "p1: R A+r1 ->r2\n"
        "p2: R B+r2 ->r3\n"
    )
    plan = do_repair(src, classes=UD)
    assert plan.success
    assert [str(f) for f in plan.fences] == ["probe:0"]
    # the fence landed inside the callee body
    probe = next(f for f in plan.program.functions if f.name == "probe")
    assert probe.body[0].op == ir.Fence("lfence")


def test_hitting_set_prefers_earliest_points():
    sets = [frozenset({("main", 2), ("main", 3)})]
    chosen = rp.hitting_set(sets, lambda p: (0, p[1]))
    assert chosen == {("main", 2)}


def test_hitting_set_is_exact_on_overlaps():
    # {1,2} {2,3} {3,4}: one fence at 2 and one at 3 or 4 -> size 2;
    # greedy-by-position would also find 2 but must not find 3
    sets = [
        frozenset({("m", 1), ("m", 2)}),
        frozenset({("m", 2), ("m", 3)}),
        frozenset({("m", 3), ("m", 4)}),
    ]
    chosen = rp.hitting_set(sets, lambda p: (0, p[1]))
    assert len(chosen) == 2
    assert all(s & chosen for s in sets)


def test_duplicate_goals_do_not_change_the_hitting_set():
    a = frozenset({("m", 3), ("m", 4)})
    b = frozenset({("m", 1), ("m", 2)})
    c = frozenset({("m", 2), ("m", 3)})
    d = frozenset({("m", 4), ("m", 5)})
    goals = [a, b, a, c, b, d, c, a]
    order = lambda p: (0, p[1])  # noqa: E731
    deduped = list(dict.fromkeys(goals))
    assert deduped == [a, b, c, d]
    assert rp.hitting_set(goals, order) == rp.hitting_set(deduped, order)


def test_repair_hands_each_goal_to_the_hitting_set_once(monkeypatch):
    # i5_S and i6_S of the v1 window give two elements with one point set
    config = lk.EngineConfig(classes=frozenset(lk.CLASSES))
    elements = lk.analyze(ir.parse(GADGET), "v1", config).elements
    assert len({el.points for el in elements}) < len(elements)
    seen = []
    original = rp.hitting_set

    def recorded(goals, order_key, tick=None):
        seen.append(list(goals))
        return original(goals, order_key, tick)

    monkeypatch.setattr(rp, "hitting_set", recorded)
    plan = rp.repair(ir.parse(GADGET), "v1", config)
    assert plan.success
    assert seen == [[frozenset({("main", 2)})]]


def test_hitting_set_honours_the_deadline():
    # 120 random 3-point sets over 60 points form one component that the
    # packing bound does not tame: many seconds of search without a tick
    rng = random.Random(0)
    sets = [frozenset(("m", p) for p in rng.sample(range(60), 3))
            for _ in range(120)]
    config = lk.EngineConfig(deadline=time.monotonic() + 0.2)
    start = time.monotonic()
    with pytest.raises(AnalysisTimeout):
        rp.hitting_set(sets, lambda p: (0, p[1]), config.tick)
    assert time.monotonic() - start < 1.0


def test_hitting_set_search_depth_is_not_bounded_by_the_call_stack():
    # 2400 chained goals {i, i+1} form one component whose minimum set has
    # 1200 points, more than the interpreter's recursion limit.  Later
    # points rank first, so the first leaf is optimal and the bound cuts
    # every other branch.
    sets = [frozenset({("m", i), ("m", i + 1)}) for i in range(2400)]
    chosen = rp.hitting_set(sets, lambda p: -p[1])
    assert chosen == {("m", i) for i in range(1, 2400, 2)}


def test_hitting_set_on_an_earlier_first_chain_takes_linear_ticks():
    # 400 chained goals {i, i+1}, earlier points first.  The search's first
    # leaf takes nearly every point; bounded by that leaf and the packing
    # alone, the search backtracks through about n^2/4 subtrees.  A greedy
    # hitting set's size bounds it until the first leaf.
    sets = [frozenset({("m", i), ("m", i + 1)}) for i in range(400)]
    ticks = [0]

    def tick():
        ticks[0] += 1

    chosen = rp.hitting_set(sets, lambda p: p, tick)
    assert chosen == {("m", i) for i in range(1, 400, 2)}
    assert ticks[0] <= 2 * len(sets)


def two_function_order(p):
    return (0 if p[0] == "main" else 1, p[1])


def later_first_order(p):
    return (0 if p[0] == "main" else 1, -p[1])


def _blocks(sizes):
    """Consecutive disjoint runs of main's points, one per size."""
    out, start = [], 0
    for n in sizes:
        out.append(frozenset(("main", i) for i in range(start, start + n)))
        start += n
    return out


def random_goals(last: int, max_goals: int):
    point = st.tuples(st.sampled_from(("main", "g")), st.integers(0, last))
    return st.lists(st.frozensets(point, max_size=4), max_size=max_goals)


disjoint_goals = st.lists(st.integers(0, 4), max_size=7).map(_blocks)
chain_goals = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=7
).map(lambda runs: [frozenset(("main", i) for i in range(a, a + n))
                    for a, n in runs])


@st.composite
def goal_lists(draw):
    """Random, disjoint or chained goals, plus supersets and duplicates."""
    goals = draw(st.one_of(random_goals(9, 7), random_goals(2, 8),
                           disjoint_goals, chain_goals))
    if goals:
        pairs = st.tuples(st.sampled_from(goals), st.sampled_from(goals))
        goals += [a | b for a, b in draw(st.lists(pairs, max_size=3))]
        goals += draw(st.lists(st.sampled_from(goals), max_size=3))
    return draw(st.permutations(goals))


@given(goal_lists())
@example([frozenset({("main", 1), ("main", 2)}),
          frozenset({("main", 2), ("main", 3)}),
          frozenset({("main", 1), ("main", 3)})])
@example([frozenset({("main", i), ("main", i + 1)}) for i in range(9)])
@settings(max_examples=400, deadline=None)
def test_hitting_set_matches_the_plain_search(goals):
    for order in (two_function_order, later_first_order):
        assert rp.hitting_set(goals, order) == (
            oracles.hitting_set_reference(goals, order)
        )


@pytest.mark.parametrize(
    "path", sorted(CORPUS.rglob("*.lcm")), ids=lambda p: p.stem
)
def test_corpus_repair_goals_match_the_plain_search(path):
    """First-round goals under the sidecar's depth, window, classes, scope."""
    sidecar = json.loads(path.with_suffix(".expect.json").read_text())
    config = sidecar.get("config", {})
    config = lk.EngineConfig(
        d_spec=config.get("d_spec", 250),
        w_size=config.get("w_size"),
        classes=frozenset(config.get("classes", ["universal_data"])),
        scope=config.get("scope", "transient"),
    )
    prog = ir.parse(path.read_text())
    key = rp._point_order(prog)
    for engine in ("v1", "v4", "psf"):
        report = lk.analyze(prog, engine, config)
        goals = list(dict.fromkeys(el.points for el in report.elements))
        chosen = rp.hitting_set(goals, key)
        if (path.stem, engine) != ("deep_pipeline", "psf"):
            assert chosen == oracles.hitting_set_reference(goals, key)
            continue
        # The plain search cannot finish here (about 4^77 leaves).  The
        # minimal goals are pairwise disjoint, so its first optimal leaf
        # takes the earliest point of each.
        minimal = [s for s in goals if not any(t < s for t in goals)]
        assert len(set().union(*minimal)) == sum(map(len, minimal))
        assert chosen == {min(s, key=key) for s in minimal}


def independent_v4_windows(windows: int, slots: int = 4):
    """Spectre-v4 gadgets, each closed by an lfence, and their fence slots.

    In window w the reload ``dw`` can bypass the masking store ``cw``, and
    its stale value steers ``ew`` and ``fw``.  ``slots - 1`` ALU steps lie
    between ``dw`` and ``ew``, so each window offers ``slots`` fence slots
    of its own and one fence per window is the minimum.
    """
    lines = ["r9 <-0"]
    ranges = []
    for w in range(windows):
        lines += [
            f"a{w}: R n{w} ->r1",
            f"b{w}: R v{w} ->r2",
            f"c{w}: W v{w} <-r2&(r1-1)",
            f"d{w}: R v{w} ->r3",
        ]
        first = len(lines)
        lines += [f"r9 <-r9+{k + 1}" for k in range(slots - 1)]
        ranges.append(range(first, len(lines) + 1))
        lines += [f"e{w}: R A{w}+r3 ->r4", f"f{w}: R B{w}+r4 ->r5", "lfence"]
    return "\n".join(lines) + "\n", ranges


def test_forty_independent_windows_repair_in_under_a_second():
    src, ranges = independent_v4_windows(40)
    start = time.process_time()
    plan = do_repair(src, engine="v4")
    assert time.process_time() - start < 1.0
    assert plan.success and plan.iterations == 1
    assert len(plan.fences) == 40
    assert [sum(f.index in r for f in plan.fences) for r in ranges] == [1] * 40
    assert not lk.analyze(plan.program, "v4", lk.EngineConfig()).records


def test_minimality_check_analyses_once_per_fence(monkeypatch):
    src, _ = independent_v4_windows(3)
    prog, config = ir.parse(src), lk.EngineConfig()
    fences = {(f.func, f.index) for f in rp.repair(prog, "v4", config).fences}
    assert len(fences) == 3
    calls = []

    def counted(*args):
        calls.append(args)
        return lk.analyze(*args)

    monkeypatch.setattr(rp, "analyze", counted)
    assert rp._verify_minimal(prog, "v4", config, fences) is True
    assert len(calls) == 3


def single_thread_programs():
    """The corpus's single-thread programs but the stress one, and 20 seeds
    of each single-thread random family."""
    for path in sorted(CORPUS.rglob("*.lcm")):
        prog = ir.parse(path.read_text())
        if "stress" not in path.parts and not prog.multithread:
            yield prog
    for family in (oracles.random_joins, oracles.random_diamonds,
                   oracles.random_single):
        for seed in range(20):
            yield ir.parse(family(random.Random(seed)))


MINIMALITY_CONFIGS = (
    lk.EngineConfig(),
    lk.EngineConfig(scope="any", classes=frozenset(lk.CLASSES)),
    lk.EngineConfig(classes=frozenset(lk.CLASSES)),
    lk.EngineConfig(classes=frozenset({"data", "universal_data"}), d_spec=3),
)


def test_drop_one_minimality_matches_the_subset_search():
    # Adding a fence can add a record (see ``_verify_minimal``), so this
    # asserts upward closure only within each repair's chosen fences.
    checked = 0
    for prog in single_thread_programs():
        for engine, config in itertools.product(("v1", "v4", "psf"),
                                                MINIMALITY_CONFIGS):
            plan = rp.repair(prog, engine, config)
            fences = {(f.func, f.index) for f in plan.fences}
            if not plan.success or not 1 <= len(fences) <= 6:
                continue
            silencing = {
                subset
                for k in range(len(fences) + 1)
                for subset in map(frozenset, itertools.combinations(fences, k))
                if not lk.analyze(rp.insert_fences(prog, subset), engine,
                                  config).records
            }
            assert all(s | {p} in silencing for s in silencing for p in fences)
            assert rp._verify_minimal(prog, engine, config, fences) == (
                oracles.verify_minimal_reference(prog, engine, config, fences)
            )
            checked += 1
    assert checked >= 100


def test_psf_stress_repair_succeeds_within_the_default_budget():
    prog = ir.parse((CORPUS / "stress" / "deep_pipeline.lcm").read_text())
    config = lk.EngineConfig(d_spec=25, w_size=50,
                             deadline=time.monotonic() + 60)
    plan = rp.repair(prog, "psf", config)
    assert plan.success
    assert len(plan.fences) == 78 and plan.iterations == 1


def test_insert_fences_shifts_later_points():
    prog = ir.parse(GADGET)
    fenced = rp.insert_fences(prog, {("main", 2), ("main", 3)})
    ops = [i.op for i in fenced.functions[0].body]
    names = [type(op).__name__ for op in ops]
    assert names == ["Load", "BranchEqZero", "Fence", "Load", "Fence",
                     "Load", "Skip"]
    assert ops[2] == ir.Fence("lfence") == ops[4]


def test_fence_before_a_jump_target_takes_the_jumps():
    """A fence before a jump target gets a label no instruction has (here
    ``j_fence`` is taken), and the jumps to the target go to the fence, so
    every path to the target runs through it; a fence before an instruction
    no jump targets stays unlabelled."""
    prog = ir.parse("R c ->r1\nBEQZ r1, j\nJMP j\nj_fence: skip\nj: skip\nR x ->r2\n")
    fenced = rp.insert_fences(prog, {("main", 4), ("main", 5)})
    body = fenced.functions[0].body
    assert [str(ins) for ins in body] == [
        "R c ->r1", "BEQZ r1, j_fence_", "JMP j_fence_", "j_fence: skip",
        "j_fence_: lfence", "j: skip", "lfence", "R x ->r2"]
    assert ir.pretty(ir.parse(ir.pretty(fenced))) == ir.pretty(fenced)
    assert str(prog.functions[0].body[1]) == "BEQZ r1, j"  # the input is untouched


def test_diamonds_before_a_gadget_repair_in_one_iteration():
    """Each diamond's window ends at its join label: a fence placed there
    before the jump went around it, so every re-analysis found the same
    leaks and the repair spent all its iterations."""
    src = oracles.sequential_diamonds(3) + GADGET.replace("r2", "r3")
    classes = frozenset({"address", "data", "control", "universal_data", "universal_control"})
    plan = do_repair(src, classes=classes)
    assert plan.success and plan.iterations == 1 and plan.minimal is True
    assert [str(f) for f in plan.fences] == ["main:4", "main:8", "main:12", "main:15"]
    assert not lk.analyze(plan.program, "v1", lk.EngineConfig(classes=classes)).records


def test_clean_program_repair_is_a_no_op():
    plan = do_repair("i1: R x ->r1\nW y <-r1\n", classes=UD)
    assert plan.success and plan.fences == [] and plan.iterations == 1


def emitted_with_repeats(prog: ir.Program, engine: str, config: lk.EngineConfig):
    """Every repair element ``analyze`` meets, repeats included."""
    structures = ev.enumerate_event_structures(
        cfg.build_acfg(prog), frozenset({lk._PRIMITIVES[engine]}), config.d_spec
    )
    out = []
    shared = None
    for cand in ex.enumerate_candidates(
        structures, silent_stores=config.silent_stores, d_spec=config.d_spec
    ):
        if shared is None or shared.current is not cand.st:
            shared = lk._Shared(cand.st)
        for w in lk.detect_leaks(cand, probe=config.probe):
            for rec, span in lk.findings(cand, w, engine, config, shared):
                points = oracles.fence_points_eager(cand.st, span)
                if points:
                    out.append(lk.RepairElement(points, rec))
    return out


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(CORPUS.rglob("*.lcm")) if "stress" not in p.parts],
    ids=lambda p: p.stem,
)
def test_report_keeps_the_first_occurrence_of_each_element(path):
    sidecar = json.loads(path.with_suffix(".expect.json").read_text())
    config = sidecar.get("config", {})
    config = lk.EngineConfig(
        d_spec=config.get("d_spec", 250),
        w_size=config.get("w_size"),
        classes=frozenset(config.get("classes", ["universal_data"])),
        scope=config.get("scope", "transient"),
    )
    prog = ir.parse(path.read_text())
    for engine in ("v1", "v4", "psf"):
        elements = lk.analyze(prog, engine, config).elements
        everything = emitted_with_repeats(prog, engine, config)
        assert elements == list(dict.fromkeys(everything))
        # so repair's goals, in order, and with them its fences, are those
        # of the elements with repeats
        assert list(dict.fromkeys(el.points for el in elements)) == list(
            dict.fromkeys(el.points for el in everything)
        )


def test_stress_program_elements_are_distinct():
    prog = ir.parse((CORPUS / "stress" / "deep_pipeline.lcm").read_text())
    elements = lk.analyze(prog, "psf", lk.EngineConfig()).elements
    assert len(elements) > 1000
    assert len(elements) == len(set(elements))


# -- fence points built on first read ------------------------------------------


def assert_elements_match_eager(src: str, config: lk.EngineConfig) -> None:
    """``Report.elements``, built on first read, against the points
    ``analyze`` built as it met each record (``oracles.elements_reference``):
    the same elements in the same order, and the same unrepairable records,
    under every engine."""
    prog = ir.parse(src)
    for engine in ("v1", "v4", "psf", "all"):
        report = lk.analyze(prog, engine, config)
        elements, unrepairable = oracles.elements_reference(prog, engine, config)
        assert report.elements == elements, engine
        assert report.unrepairable == unrepairable, engine


@pytest.mark.parametrize("path", sorted(CORPUS.rglob("*.lcm")), ids=lambda p: p.stem)
def test_lazy_elements_match_the_eager_points_on_the_corpus(path):
    config = json.loads(path.with_suffix(".expect.json").read_text()).get("config", {})
    assert_elements_match_eager(path.read_text(), lk.EngineConfig(
        d_spec=config.get("d_spec", 250), w_size=config.get("w_size"),
        scope="any", classes=frozenset(lk.CLASSES)))


@pytest.mark.parametrize("family", [
    oracles.random_single, oracles.random_diamonds,
    lambda rng: oracles.random_joins(rng, sites=0.9),
], ids=["single", "diamonds", "joins"])
def test_lazy_elements_match_the_eager_points_on_random_programs(family):
    config = lk.EngineConfig(d_spec=8, scope="any", classes=frozenset(lk.CLASSES))
    for seed in range(9000, 9150):
        assert_elements_match_eager(family(random.Random(seed)), config)


def test_lazy_elements_match_the_eager_points_around_merged_diamonds():
    # Grafts replay the diamonds' leaf: the first gadget's spans end before
    # the joins, the second's start after them.
    before = "g2: R y ->r3\nBEQZ r3, e0\ng5: R A+r3 ->r4\ng6: R B+r4 ->r5\ne0: skip\n"
    src = before + oracles.sequential_diamonds(4) + GADGET.replace("r2", "r3")
    config = lk.EngineConfig(scope="any", classes=frozenset(lk.CLASSES))
    report = lk.analyze(ir.parse(src), "v1", config)
    assert report.structures > report.distinct and report.elements
    assert_elements_match_eager(src, config)
