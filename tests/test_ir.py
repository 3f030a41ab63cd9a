from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import pickle
import random
import time

import oracles
import pytest
from conftest import CORPUS
from hypothesis import given, settings, strategies as st

from leakcheck import cfg, cli, ir, repair
from leakcheck import leakage as lk
from leakcheck.cli import main


def test_load_store_alu_forms():
    prog = ir.parse("r2 <-0\nR A+r2 ->r4\nW tmp <-r4&r2\nr3 <-(r2<r4)\n"
                    "R [r3] ->r5\nW B+0 <-1\n")
    ops = [ins.op for ins in prog.entry_function.body]
    assert isinstance(ops[1], ir.Load)
    assert ops[1].addr == ir.Indexed("A", "r2")
    assert ops[1].dest == "r4"
    assert isinstance(ops[2], ir.Store)
    assert ops[2].addr == ir.Direct("tmp")
    assert ops[2].value.regs == ("r4", "r2")
    assert isinstance(ops[3], ir.Alu)
    assert ops[3].expr.regs == ("r2", "r4")
    assert ops[4].addr == ir.Indirect("r3")
    assert ops[5].addr == ir.Indexed("B", 0)


def test_labels_and_branches():
    prog = ir.parse("i1: R x ->r1\nBEQZ r1, done\nW y <-r1\ndone: skip\n")
    body = prog.entry_function.body
    assert body[0].label == "i1"
    assert body[1].op.target == "done"
    assert body[3].label == "done"
    assert oracles.successors_reference(prog.entry_function, 1, {"i1": 0, "done": 3}) == [2, 3]


def test_numeric_branch_target_resolves_to_synthesized_label():
    prog = ir.parse("R x ->r1\nBEQZ r1, 4\nW y <-1\nskip\n")
    body = prog.entry_function.body
    assert body[1].op.target == "L4"
    assert body[3].label == "L4"


def test_synthesized_label_skips_a_label_in_use(tmp_path, capsys):
    # Line 6 is the target, and line 3 already has the label L6: the target
    # gets a label of its own, the program round-trips, and check reports
    # the gadget's leak.
    src = ("i1: R y ->r3\nBEQZ r3, 6\nL6: skip\ni5: R A+r3 ->r4\n"
           "i6: R B+r4 ->r5\nskip\n")
    body = ir.parse(src).entry_function.body
    assert [ins.label for ins in body] == ["i1", None, "L6", "i5", "i6", "L6_"]
    assert body[1].op.target == "L6_"
    text = ir.pretty(ir.parse(src))
    assert ir.pretty(ir.parse(text)) == text
    path = tmp_path / "numeric.lcm"
    path.write_text(src)
    assert main(["check", str(path), "--engine", "v1", "--no-timing"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "LEAK transmitter=i6_S class=universal_data access=i5_S "
        "culprit=rf_without_rfx engine=v1")


def test_fence_protect_call_extern_alias():
    prog = ir.parse(
        "alias (A, B)\nextern probe/1\nR x ->r1\nfence\nlfence\n"
        "protect r1\ncall probe(r1)\nskip\n"
    )
    assert prog.aliases == (("A", "B"),)
    assert prog.externs == {"probe": 1}
    kinds = [type(ins.op) for ins in prog.entry_function.body]
    assert kinds == [ir.Load, ir.Fence, ir.Fence, ir.Protect, ir.Call, ir.Skip]
    assert prog.entry_function.body[1].op.kind == "full"
    assert prog.entry_function.body[2].op.kind == "lfence"


def test_functions_and_entry():
    prog = ir.parse(
        "R x ->r1\ncall f(r1)\n\nfunc f(r1):\nW y <-r1\n"
    )
    assert [f.name for f in prog.functions] == ["main", "f"]
    assert prog.entry == "main"
    assert prog.function("f").params == ("r1",)


def test_threads_set_multithread():
    prog = ir.parse("thread t0:\nW x <-1\nthread t1:\nR x ->r1\n")
    assert prog.multithread
    assert [f.name for f in prog.functions] == ["t0", "t1"]


@pytest.mark.parametrize("src, fragment", [
    ("BEQZ r1, end\nend: skip\n", "read"),              # r1 never assigned
    ("R x ->r1\nBEQZ r1, nowhere\n", "nowhere"),
    ("a: skip\na: skip\n", "duplicate"),
    ("R x ->r1\nQ x\n", "unknown opcode"),
    ("R r1 ->r2\n", "bare register"),
    ("W x <-1\nthread t0:\nW y <-1\n", "mix"),
    ("thread t0:\ncall f()\n", "not allowed"),
    ("lbl:\n", "dangling"),
    ("a:\nb: skip\n", "two labels"),
    ("R x ->r1\nBEQZ r1, 9\n", "out of range"),
    ("", "empty"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(ir.ParseError) as err:
        ir.parse(src)
    assert fragment in str(err.value)


def test_register_defined_on_every_path_required():
    # r2 is only assigned on the fall-through path.
    bad = "R x ->r1\nBEQZ r1, end\nR y ->r2\nend: W z <-r2\n"
    with pytest.raises(ir.ParseError):
        ir.parse(bad)
    good = "R x ->r1\nBEQZ r1, end\nR y ->r2\nW z <-r2\nend: skip\n"
    ir.parse(good)


def test_comments_and_blank_lines_ignored():
    prog = ir.parse("; header\n\nR x ->r1  ; trailing\n")
    assert len(prog.entry_function.body) == 1


def test_pretty_round_trip_is_stable():
    src = ("r9 <-0\ni1: R A+r9 ->r1\nBEQZ r1, out\nW t <-r1&3\n"
           "r2 <-r1\nR [r2] ->r3\nout: skip\n")
    one = ir.pretty(ir.parse(src))
    two = ir.pretty(ir.parse(one))
    assert one == two


def test_defuse_and_address_regs():
    prog = ir.parse("r1 <-0\nR A+r1 ->r2\n")
    # the address register is a read, the destination a write: in the
    # instruction's record and by the dispatch it replaced
    op = prog.entry_function.body[1].op
    du = oracles.instr_defuse_reference(op)
    for reads, writes in ((set(op.reads), set(op.writes)), (du.reads, du.writes)):
        assert "r1" in reads and writes == {"r2"}
    for addr, regs in ((ir.Indexed("A", "r1"), {"r1"}), (ir.Indexed("A", 3), set()),
                       (ir.Indirect("r7"), {"r7"})):
        assert set(addr.regs) == oracles.address_regs_reference(addr) == regs


def test_parsed_program_copies_and_pickles():
    # every op, and the summary of an extern call the graph builds
    prog = ir.parse(
        "extern probe/1\nr9 <-0\nR A+r9 ->r1\nR [r1] ->r2\nW x <-r1&r2\n"
        "BEQZ r2, out\nJMP out\nout: fence\nlfence\nprotect r1\nprotect\n"
        "call probe(r1)\ncall f(r2)\nskip\n\nfunc f(r3):\nW y <-r3\n"
    )
    ops = [ins.op for f in prog.functions for ins in f.body]
    ops += [n.instr.op for n in cfg.build_acfg(prog).nodes]
    assert {type(op).__name__ for op in ops} >= {
        "Load", "Store", "Alu", "BranchEqZero", "Jump", "Fence", "Protect", "Call",
        "Skip", "AbstractMemOp"}
    for copied in (copy.copy(prog), copy.deepcopy(prog), pickle.loads(pickle.dumps(prog))):
        assert copied == prog
    for op in ops:
        for twin in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
            assert twin == op and hash(twin) == hash(op)
            assert (twin.tag, twin.reads, twin.writes) == (op.tag, op.reads, op.writes)


def test_definite_assignment_check_is_linear_in_function_length():
    src = "r1 <-0\n" + "R A+r1 ->r1\n" * 6400
    start = time.process_time()
    prog = ir.parse(src)
    assert time.process_time() - start < 1.0
    assert len(prog.entry_function.body) == 6401


# -- the parser against the one it replaced -----------------------------------


def parsed(parse, text: str):
    """``parse(text)``, or its error's message and line."""
    try:
        return parse(text)
    except ir.ParseError as exc:
        return exc.msg, exc.line


def assert_records_match_reference(prog: ir.Program) -> None:
    """Each instruction's reads and writes are those of the dispatch they
    replaced."""
    for fn in prog.functions:
        for ins in fn.body:
            du = oracles.instr_defuse_reference(ins.op)
            assert (set(ins.op.reads), set(ins.op.writes)) == (du.reads, du.writes), ins


def repaired_corpus_texts() -> list[str]:
    """Each single-thread corpus program with lfences at the points its
    repair chose, printed back: under its sidecar's engine and config, and
    under every engine, scope and class."""
    texts = []
    for path in sorted(CORPUS.rglob("*.lcm")):
        prog = ir.parse(path.read_text())
        if prog.multithread:
            continue
        data = json.loads(path.with_suffix(".expect.json").read_text())
        engine, config = cli._sidecar_config(data, argparse.Namespace(timeout=None))
        wide = dataclasses.replace(config, scope="any", classes=frozenset(lk.CLASSES))
        for engine, config in ((engine, config), ("all", wide)):
            plan = repair.repair(prog, engine, config)
            points = {(fp.func, fp.index) for fp in plan.fences}
            texts.append(ir.pretty(repair.insert_fences(prog, points)))
    return texts


def test_parser_matches_reference_on_corpus_and_random_families():
    texts = [path.read_text() for path in sorted(CORPUS.rglob("*.lcm"))]
    for seed in range(40):
        rng = random.Random(seed)
        texts += [oracles.random_single(rng), oracles.random_diamonds(rng),
                  oracles.random_nested(rng), oracles.random_joins(rng),
                  oracles.random_joins(rng, threads=2), oracles.random_multithread(rng)]
    repaired = repaired_corpus_texts()
    assert sum("_fence" in text for text in repaired) >= 1  # a fence before a jump target
    texts += [oracles.bypass_blocks(8), *repaired]
    for text in texts:
        prog = parsed(ir.parse, text)
        assert isinstance(prog, ir.Program)
        assert prog == parsed(oracles.parse_reference, text)
        assert_records_match_reference(prog)


def test_read_before_assignment_matches_reference():
    """Each instruction that defines a register, deleted in turn (its label
    kept on a ``skip``): the parser and the one it replaced accept the same
    program or report the same error at the same line."""
    texts = [path.read_text() for path in sorted(CORPUS.rglob("*.lcm"))]
    for seed in range(40):
        rng = random.Random(seed)
        texts += [oracles.random_single(rng), oracles.random_diamonds(rng),
                  oracles.random_nested(rng), oracles.random_joins(rng)]
    outcomes = {"program": 0, "read before assignment": 0}
    for text in texts:
        lines = text.splitlines()
        for fn in ir.parse(text).functions:
            for ins in fn.body:
                if not ins.op.writes:
                    continue
                cut = lines.copy()
                cut[ins.line - 1] = f"{ins.label}: skip" if ins.label else ""
                cut_text = "\n".join(cut) + "\n"
                got = parsed(ir.parse, cut_text)
                assert got == parsed(oracles.parse_reference, cut_text), (cut_text, got)
                if isinstance(got, ir.Program):
                    outcomes["program"] += 1
                    assert_records_match_reference(got)
                else:
                    assert "may be read before assignment" in got[0]
                    outcomes["read before assignment"] += 1
    assert min(outcomes.values()) > 200, outcomes


# Fragments of well- and ill-formed lines: opcodes and headers, operands,
# punctuation, a non-ASCII digit and letter, and comments.
FRAGMENTS = ["R", "W", "BEQZ", "JMP", "call", "fence", "lfence", "skip", "protect",
             "alias", "extern", "thread", "func", "r1", "r2", "r١", "rx", "x", "é",
             "A+r1", "A+3", "[r1]", "[ r2 ]", "L1", "1", "3", "done", "main", "f",
             ":", ",", "(", ")", "()", "<-", "->", "/", "+", ";", "; c", "_", "r1&r2"]
LINE = st.lists(st.tuples(st.sampled_from(["", "", " ", "  ", "\t"]),
                          st.sampled_from(FRAGMENTS)), max_size=6).map(
    lambda parts: "".join(sep + word for sep, word in parts))
# A line led by an opcode or header word, optionally labelled.
LED = st.tuples(st.sampled_from(["", "", "a: ", "b:", "R: ", "done :"]),
                st.sampled_from(FRAGMENTS[:16]), st.sampled_from(["", " ", "\t"]), LINE).map("".join)
# Instruction and header shapes with an operand drawn from the fragments.
SHAPED = st.tuples(st.sampled_from(["R {} ->r2", "R x ->{}", "W {} <-r1", "W x <-{}", "{} <-r1",
                                    "BEQZ {}, done", "BEQZ r1, {}", "JMP {}", "call f({})",
                                    "call {}", "func g({}):", "protect {}", "alias ({}, y)",
                                    "extern {}/2", "thread {}:", "{}: skip", "{}:"]),
                   st.sampled_from(FRAGMENTS)).map(lambda shape: shape[0].format(shape[1]))
VALID = st.sampled_from(["r1 <-0", "R x ->r2", "W A+r1 <-r2", "BEQZ r1, done", "done: skip",
                         "JMP done", "func f(r1):", "call f(r1)", "extern f/1",
                         "alias (x, y)", "thread t0:", "lfence", "protect r1"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(LINE, LED, SHAPED, VALID), min_size=1, max_size=4), st.booleans())
def test_parser_matches_reference_on_malformed_lines(lines, framed):
    # Framed, the lines sit between definitions of r1 and r2 and a ``done``
    # label, so one line in error is what makes the program fail.
    text = "\n".join(["r1 <-0\nr2 <-0", *lines, "done: skip"] if framed else lines) + "\n"
    assert parsed(ir.parse, text) == parsed(oracles.parse_reference, text)
