from __future__ import annotations

import random
import time

import oracles
import pytest
from conftest import CORPUS
from hypothesis import given, settings, strategies as st

from leakcheck import ir
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
    assert ir.successors(prog.entry_function, 1, {"i1": 0, "done": 3}) == [2, 3]


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
    # the address register is a read, the destination a write
    op = prog.entry_function.body[1].op
    du = ir.instr_defuse(op)
    assert "r1" in du.reads and du.writes == {"r2"}
    assert ir.address_regs(ir.Indexed("A", "r1")) == frozenset({"r1"})
    assert ir.address_regs(ir.Indexed("A", 3)) == frozenset()
    assert ir.address_regs(ir.Indirect("r7")) == frozenset({"r7"})


def test_definite_assignment_check_is_linear_in_function_length():
    src = "r1 <-0\n" + "R A+r1 ->r1\n" * 6400
    start = time.process_time()
    prog = ir.parse(src)
    assert time.process_time() - start < 1.0
    assert len(prog.entry_function.body) == 6401


# -- the parser against the one it replaced -----------------------------------


def parsed(parse, text: str):
    """``parse(text)`` printed back, or its error's message and line."""
    try:
        return ir.pretty(parse(text))
    except ir.ParseError as exc:
        return exc.msg, exc.line


def test_parser_matches_reference_on_corpus_and_random_families():
    texts = [path.read_text() for path in sorted(CORPUS.rglob("*.lcm"))]
    for seed in range(40):
        rng = random.Random(seed)
        texts += [oracles.random_single(rng), oracles.random_diamonds(rng),
                  oracles.random_nested(rng), oracles.random_joins(rng),
                  oracles.random_joins(rng, threads=2), oracles.random_multithread(rng)]
    for text in texts:
        assert parsed(ir.parse, text) == parsed(oracles.parse_reference, text)
        assert isinstance(parsed(ir.parse, text), str)


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
