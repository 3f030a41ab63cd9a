from __future__ import annotations

import time

import pytest

from leakcheck import ir
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
    # 14 disjoint 3-point sets: 3^14 branches, many seconds without a tick
    sets = [frozenset({("m", 3 * k + i) for i in range(3)}) for k in range(14)]
    config = lk.EngineConfig(deadline=time.monotonic() + 0.2)
    start = time.monotonic()
    with pytest.raises(AnalysisTimeout):
        rp.hitting_set(sets, lambda p: (0, p[1]), config.tick)
    assert time.monotonic() - start < 1.0


def test_insert_fences_shifts_later_points():
    prog = ir.parse(GADGET)
    fenced = rp.insert_fences(prog, {("main", 2), ("main", 3)})
    ops = [i.op for i in fenced.functions[0].body]
    names = [type(op).__name__ for op in ops]
    assert names == ["Load", "BranchEqZero", "Fence", "Load", "Fence",
                     "Load", "Skip"]
    assert ops[2] == ir.Fence("lfence") == ops[4]


def test_clean_program_repair_is_a_no_op():
    plan = do_repair("i1: R x ->r1\nW y <-r1\n", classes=UD)
    assert plan.success and plan.fences == [] and plan.iterations == 1
