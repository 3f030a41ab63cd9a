from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import CORPUS
from leakcheck import cfg, ir
from leakcheck.cfg import EXIT


def build(src: str) -> cfg.ACfg:
    return cfg.build_acfg(ir.parse(src))


def texts(acfg: cfg.ACfg) -> list[str]:
    return [str(nd.instr.op) for nd in acfg.nodes]


def test_straight_line():
    g = build("R x ->r1\nW y <-r1\nskip\n")
    assert g.roots == [0]
    assert g.succ == [[1], [2], [EXIT]]


def test_branch_diamond_and_jump():
    g = build("R x ->r1\nBEQZ r1, out\nW y <-1\nJMP out\nout: skip\n")
    assert g.succ[1] == [2, 4]
    assert g.succ[3] == [4]


def test_loop_unrolled_twice_with_severed_back_edge():
    g = build("R x ->r1\nloop: W y <-r1\nBEQZ r1, done\nJMP loop\ndone: skip\n")
    copies = {nd.copy for nd in g.nodes}
    assert (1,) in copies and (2,) in copies
    # the graph must be acyclic: no successor may re-enter copy one
    first_copy = {i for i, nd in enumerate(g.nodes) if nd.copy == (1,)}
    second_copy = {i for i, nd in enumerate(g.nodes) if nd.copy == (2,)}
    for i in second_copy:
        for s in g.succ[i]:
            assert s == EXIT or s not in first_copy
    # copy-one back edges continue into copy two
    assert any(s in second_copy for i in first_copy for s in g.succ[i])


def test_loop_copy_labels_stay_distinct_in_provenance():
    g = build("R x ->r1\nloop: W y <-r1\nBEQZ r1, done\nJMP loop\ndone: skip\n")
    provs = [nd.provenance for nd in g.nodes]
    assert len(provs) == len(set(provs))


def test_call_inlined_with_renamed_locals():
    g = build(
        "R x ->r1\ncall f(r1)\nskip\n\nfunc f(r1):\nr9 <-r1&1\nW y <-r9\n"
    )
    ops = texts(g)
    # the callee body appears between the caller's neighbors
    assert any(op.startswith("W y") for op in ops)
    assert not any("call" in op for op in ops)
    # callee-local r9 was renamed away from the caller's register space
    stores = [op for op in ops if op.startswith("W y")]
    assert "r9" not in stores[0]
    funcs = {nd.func for nd in g.nodes}
    assert funcs == {"main", "f"}
    assert {nd.site for nd in g.nodes if nd.func == "f"} == {"_i1"}


def test_two_instances_of_one_callee_are_distinct():
    g = build(
        "R x ->r1\ncall f(r1)\ncall f(r1)\nskip\n\nfunc f(r1):\nW y <-r1\n"
    )
    sites = sorted(nd.site for nd in g.nodes if nd.func == "f")
    assert sites == ["_i1", "_i2"]


def test_extern_call_becomes_abstract_memory_op():
    g = build("extern probe/1\nr1 <-0\ncall probe(r1)\n")
    kinds = [type(nd.instr.op) for nd in g.nodes]
    assert cfg.AbstractMemOp in kinds
    amo = next(nd.instr.op for nd in g.nodes
               if isinstance(nd.instr.op, cfg.AbstractMemOp))
    assert amo.pointer_args == ("r1",)


def test_recursion_cut_to_abstract_op():
    g = build(
        "r1 <-0\ncall f(r1)\n\nfunc f(r1):\nW x <-r1\ncall f(r1)\n"
    )
    amos = [nd for nd in g.nodes if isinstance(nd.instr.op, cfg.AbstractMemOp)]
    assert len(amos) == 1  # third expansion abstracted
    assert sum(1 for nd in g.nodes if str(nd.instr.op).startswith("W x")) == 2


def test_undefined_function_rejected():
    with pytest.raises(cfg.CfgError):
        build("r1 <-0\ncall nosuch(r1)\n")


def test_arity_mismatch_rejected():
    with pytest.raises(cfg.CfgError):
        build("r1 <-0\ncall f(r1, r1)\n\nfunc f(r1):\nskip\n")


def test_threads_are_disjoint_subgraphs():
    g = build("thread t0:\nW x <-1\nthread t1:\nR x ->r1\n")
    assert len(g.roots) == 2
    assert g.succ[0] == [EXIT]
    assert g.succ[1] == [EXIT]


def test_nested_loops_unroll_injectively():
    src = (
        "R x ->r1\n"
        "outer: W a <-r1\n"
        "inner: W b <-r1\n"
        "BEQZ r1, oexit\n"
        "JMP inner\n"
        "oexit: BEQZ r1, done\n"
        "JMP outer\n"
        "done: skip\n"
    )
    g = build(src)
    provs = [nd.provenance for nd in g.nodes]
    assert len(provs) == len(set(provs))
    assert any(len(nd.copy) == 2 for nd in g.nodes)


def test_to_dot_mentions_every_node():
    g = build("R x ->r1\nBEQZ r1, e\nW y <-1\ne: skip\n")
    dot = cfg.to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("shape=") >= len(g.nodes)


# -- invariants of every acfg -------------------------------------------------


def assert_acfg_invariants(g: cfg.ACfg) -> None:
    """Acyclic over the nodes reachable from a root; provenance injective."""
    reach, stack = set(g.roots), list(g.roots)
    while stack:
        for s in g.succ[stack.pop()]:
            if s != EXIT and s not in reach:
                reach.add(s)
                stack.append(s)
    edges = [(u, s) for u in reach for s in g.succ[u] if s != EXIT]
    assert not cfg.find_cycle(edges)
    provs = [nd.provenance for nd in g.nodes]
    assert len(provs) == len(set(provs))


def test_corpus_acfgs_keep_invariants(corpus_dir):
    for path in sorted(corpus_dir.rglob("*.lcm")):
        assert_acfg_invariants(build(path.read_text()))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_random_program_acfgs_keep_invariants(seed):
    assert_acfg_invariants(build(oracles.random_single(random.Random(seed))))


def test_unreachable_self_loop_is_accepted():
    g = build("JMP end\nx: skip\nJMP x\nend: skip\n")
    assert_acfg_invariants(g)
    assert g.succ[2] == [1]  # the unreachable cycle is left as written


def test_forward_only_graphs_have_no_back_edges(corpus_dir, monkeypatch):
    # ``summarize_loops`` returns a forward-only graph as it is: the
    # dominator pass it skips finds no back edge and no offender on any.
    graphs, summarize = [], cfg.summarize_loops
    monkeypatch.setattr(cfg, "summarize_loops",
                        lambda nodes, succ: graphs.append(succ) or summarize(nodes, succ))
    for path in sorted(corpus_dir.rglob("*.lcm")):
        build(path.read_text())
    for seed in range(40):
        rng = random.Random(seed)
        for src in (oracles.random_single(rng), oracles.random_diamonds(rng),
                    oracles.random_nested(rng), oracles.random_joins(rng),
                    oracles.random_joins(rng, threads=2), oracles.random_multithread(rng)):
            build(src)
    forward = [succ for succ in graphs if cfg._forward_only(succ)]
    assert len(forward) > 100 and len(graphs) - len(forward) > 20
    for succ in forward:
        assert cfg._find_back_edges(succ) == ([], [])


def test_self_loop_is_unrolled():
    # A self-loop's edge runs to no higher index: the graph is not forward-only.
    assert not cfg._forward_only([[0]])
    g = build("r1 <-0\nx: BEQZ r1, x\nW y <-1\n")
    assert_acfg_invariants(g)
    assert texts(g).count("BEQZ r1, x") == 2


def test_back_edge_search_is_linear_in_function_length():
    prog = ir.parse("r1 <-0\n" + "R A+r1 ->r1\n" * 16000)
    start = time.process_time()
    g = cfg.build_acfg(prog)
    assert time.process_time() - start < 1.0
    assert len(g.nodes) == 16001


def test_inlining_matches_reference():
    # The entry function's instructions are kept as they are, and fresh
    # registers are numbered on the first inlined call: the nodes are those
    # the renaming pass made.
    srcs = [path.read_text() for path in sorted(CORPUS.rglob("*.lcm"))] + [
        "func f(r1):\nR A+r1 ->r2\nBEQZ r2, out\nW x <-r2\nout: skip\n"
        "func main():\nr5 <-0\nc: call f(r5)\ncall f(r5)\nloop: BEQZ r5, loop\n",
        "extern e/1\nfunc g(r1):\ncall g(r1)\ncall e(r1)\nR [r1] ->r3\n"
        "func main(r7):\ncall g(r7)\nW y <-r7\n",
    ]
    for seed in range(20):
        srcs.append(oracles.random_joins(random.Random(seed)))
    kept = 0
    for src in srcs:
        prog = ir.parse(src)
        if prog.multithread:
            continue
        fn = prog.entry_function
        got = cfg.inline_calls(prog, fn)
        assert got == oracles.inline_calls_reference(prog, fn)
        kept += sum(any(node.instr is ins for ins in fn.body) for node in got)
    assert kept
