from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import oracles
import pytest
from conftest import CORPUS, ROOT

from leakcheck import cfg
from leakcheck import leakage as lk
from leakcheck.cli import main

GADGET = (
    "i2: R y ->r2\nBEQZ r2, end\ni5: R A+r2 ->r4\ni6: R B+r4 ->r5\n"
    "end: skip\n"
)


@pytest.fixture
def gadget(tmp_path):
    f = tmp_path / "gadget.lcm"
    f.write_text(GADGET)
    return f


def test_check_reports_and_exits_nonzero(gadget, capsys):
    code = main(["check", str(gadget), "--engine", "v1", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAK transmitter=i6_S class=universal_data access=i5_S" in out
    assert "culprit=rf_without_rfx engine=v1" in out
    assert "1 leak record(s)" in out


def test_check_timing_goes_to_stderr(gadget, capsys):
    main(["check", str(gadget), "--engine", "v1"])
    captured = capsys.readouterr()
    assert "[" in captured.err and "s]" in captured.err
    assert "[" not in captured.out


def test_clean_program_exits_zero(tmp_path, capsys):
    f = tmp_path / "clean.lcm"
    f.write_text("i1: R x ->r1\nW y <-r1\n")
    code = main(["check", str(f), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no leaks" in out
    assert "LEAK" not in out


EMPTY_ENTRY_OUTPUT = {
    "check": (0, "{f}: no leaks\n"),
    "repair": (0, "{f}: repaired, 0 fence(s), 1 iteration(s), minimal\n"),
    "enumerate": (0, "1 event structures, 1 consistent candidate executions\n"),
}


@pytest.mark.parametrize("command", sorted(EMPTY_ENTRY_OUTPUT))
@pytest.mark.parametrize("rest", ["", "\nfunc other():\n" + GADGET], ids=["alone", "beside"])
def test_entry_with_an_empty_body_has_one_empty_structure(tmp_path, capsys, command, rest):
    # The entry has no node, so the walk ends where it starts: one structure
    # with no events, as for a lone ``skip``; a function beside it that is
    # never called adds nothing.
    f = tmp_path / "empty.lcm"
    f.write_text("func main():\n" + rest)
    argv = [command, str(f)] + (["--no-timing"] if command == "check" else [])
    code = main(argv)
    want_code, want_out = EMPTY_ENTRY_OUTPUT[command]
    assert (code, capsys.readouterr().out) == (want_code, want_out.format(f=f))
    skip = tmp_path / "skip.lcm"
    skip.write_text("skip\n")
    assert main([command, str(skip)] + argv[2:]) == want_code
    assert capsys.readouterr().out == want_out.format(f=skip)


def test_check_scope_and_classes_flags(gadget, capsys):
    code = main([
        "check", str(gadget), "--engine", "v1", "--no-timing",
        "--scope", "any", "--classes", "address,data",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "class=address" in out and "class=data" in out
    assert "universal" not in out


def test_check_writes_witness_graphs(gadget, tmp_path, capsys):
    dots = tmp_path / "dots"
    main(["check", str(gadget), "--engine", "v1", "--no-timing",
          "--dot", str(dots)])
    capsys.readouterr()
    files = sorted(dots.glob("witness_*.dot"))
    assert files
    text = files[0].read_text(encoding="utf-8")
    assert text.startswith("digraph")
    # i2 (e1) feeds the addresses of i5_S (e3) and i6_S (e4), and its
    # condition every event of the window, the squash (e5) included.
    deps = {line.strip() for line in text.splitlines() if ", style=dashed];" in line}
    assert deps == {f'e{a} -> e{b} [label="{rel}", style=dashed];' for a, b, rel in (
        (1, 3, "addr"), (3, 4, "addr"), (1, 3, "ctrl"), (1, 4, "ctrl"), (1, 5, "ctrl"))}
    main(["check", str(CORPUS / "gadgets" / "spectre_v4.lcm"), "--engine", "psf",
          "--no-timing", "--scope", "any", "--classes", ",".join(lk.CLASSES),
          "--dot", str(tmp_path / "v4")])
    capsys.readouterr()
    graphs = [f.read_text(encoding="utf-8") for f in (tmp_path / "v4").glob("*.dot")]
    assert any('e1 -> e3 [label="data", style=dashed]' in g for g in graphs)


def test_check_dot_onto_a_file_fails_before_the_analysis(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = main(["check", str(CORPUS / "gadgets" / "spectre_v1.lcm"), "--no-timing",
                 "--dot", str(taken)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "File exists" in captured.err
    assert captured.out == ""
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["gadgets/spectre_v1.lcm", "pht/pht04.lcm"])
def test_check_all_engines_writes_each_engines_graphs(name, tmp_path, capsys):
    def graphs(engine: str) -> list[str]:
        dots = tmp_path / engine
        main(["check", str(CORPUS / name), "--engine", engine, "--no-timing",
              "--dot", str(dots)])
        return [f.read_text() for f in sorted(dots.glob("witness_*.dot"))]

    merged = graphs("all")
    capsys.readouterr()
    assert merged
    assert merged == graphs("v1") + graphs("v4") + graphs("psf")


def test_enumerate_counts(gadget, capsys):
    code = main(["enumerate", str(gadget), "--primitives", "branch"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 event structures, 2 consistent candidate executions" in out


def test_enumerate_show_describes_candidates(gadget, capsys):
    main(["enumerate", str(gadget), "--primitives", "branch", "--show"])
    out = capsys.readouterr().out
    assert "--- candidate 1" in out
    assert "i5_S" in out  # some candidate carries the transient window


def test_enumerate_rejects_unknown_primitive(gadget, capsys):
    for primitives, message in (
        ("meltdown", "unknown primitive 'meltdown'"),
        ("stl,meltdown", "unknown primitive 'meltdown'"),
        ("branch,psf", "branch does not combine with stl or psf"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", str(gadget), "--primitives", primitives])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_repair_prints_fence_and_program(gadget, capsys):
    code = main(["repair", str(gadget), "--engine", "v1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FENCE lfence before main:2" in out
    assert "repaired, 1 fence(s), 1 iteration(s), minimal" in out
    assert "\nlfence\n" in out  # the fenced listing follows


def test_repair_output_file_round_trips(gadget, tmp_path, capsys):
    fixed = tmp_path / "fixed.lcm"
    code = main(["repair", str(gadget), "--engine", "v1",
                 "--output", str(fixed)])
    capsys.readouterr()
    assert code == 0
    assert main(["check", str(fixed), "--engine", "v1", "--no-timing"]) == 0
    capsys.readouterr()


def test_parse_pretty_prints(gadget, capsys):
    code = main(["parse", str(gadget)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "i2: R y ->r2"


def test_parse_dumps_cfg_dot(gadget, capsys):
    code = main(["parse", str(gadget), "--dump-acfg"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")


def test_parse_error_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.lcm"
    f.write_text("R x\n")
    code = main(["parse", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "parse error" in err


def test_path_enumeration_timeout_exits_two(tmp_path, capsys):
    f = tmp_path / "diamonds.lcm"
    # 2^20 paths: about seven times the budget on a 2-CPU VM.
    f.write_text(oracles.sequential_diamonds(20))
    code = main(["check", str(f), "--engine", "v1", "--timeout", "0.5"])
    assert code == 2
    assert "analysis timed out" in capsys.readouterr().err


def run_capped(path, *argv, command="check") -> tuple[subprocess.CompletedProcess, float]:
    """``leakcheck command path`` in a fresh process capped at 2 s CPU and
    100 MB of address space, so a stage that outgrows either is killed or
    fails rather than swapping; and the CPU seconds it took."""
    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (2, 2))
        resource.setrlimit(resource.RLIMIT_AS, (100 * 2**20, 100 * 2**20))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "leakcheck.cli", command, str(path), *argv],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return proc, cpu


def test_silent_store_subsets_honour_the_timeout(tmp_path):
    # 25 stores to one location: 24 silent-eligible ones, 2^24 subsets.
    f = tmp_path / "silent.lcm"
    f.write_text("W x <-0\n" * 25)
    proc, cpu = run_capped(f, "--silent-stores", "--timeout", "1", "--no-timing")
    assert proc.returncode == 2, proc.stderr
    assert "analysis timed out" in proc.stderr
    assert cpu < 2


def test_alias_subsets_honour_the_timeout(tmp_path):
    # 20 alias pairs: 2^20 alias resolutions.
    f = tmp_path / "aliases.lcm"
    f.write_text("".join(f"alias (a{k}, b{k})\n" for k in range(20))
                 + "R a0 ->r1\nW b0 <-r1\n")
    proc, cpu = run_capped(f, "--timeout", "1", "--no-timing")
    assert proc.returncode == 2, proc.stderr
    assert "analysis timed out" in proc.stderr
    assert cpu < 2


def test_out_of_memory_exits_two(tmp_path):
    # The stress program's witness graphs take about 300 MB, three times
    # the cap.  Exit 1 would read as "leaks found".
    proc, cpu = run_capped(CORPUS / "stress" / "deep_pipeline.lcm", "--dot", str(tmp_path),
                           "--no-timing")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: out of memory\n"
    assert cpu < 2


def test_independent_gadgets_repair_is_checked_minimal_within_the_cap(tmp_path):
    # 8 independent v1 gadgets: a subset search over the 8 fences would
    # re-analyse 255 programs; the drop-one check takes 8.
    f = tmp_path / "gadgets.lcm"
    f.write_text("".join(f"R y{k} ->r3\nBEQZ r3, end{k}\nR A{k}+r3 ->r4\n"
                         f"R B{k}+r4 ->r5\nend{k}: skip\n" for k in range(8)))
    proc, cpu = run_capped(f, "--engine", "v1", command="repair")
    assert proc.returncode == 0, proc.stderr
    assert "8 fence(s), 1 iteration(s), minimal" in proc.stdout
    assert cpu < 2


def fanout(tmp_path):
    """22 nested functions, each calling the next twice: 2^22 inlined loads."""
    funcs = [f"func f{i}():\ncall f{i + 1}()\ncall f{i + 1}()\n" for i in range(1, 22)]
    f = tmp_path / "fanout.lcm"
    f.write_text("call f1()\n\n" + "\n".join(funcs) + "\nfunc f22():\nR x ->r1\n")
    return f


def test_call_fanout_honours_the_timeout(tmp_path):
    proc, cpu = run_capped(fanout(tmp_path), "--timeout", "1", "--no-timing")
    assert proc.returncode == 2, proc.stderr
    assert "analysis timed out" in proc.stderr
    assert cpu < 2


def test_acfg_dump_honours_the_timeout(tmp_path):
    proc, cpu = run_capped(fanout(tmp_path), "--dump-acfg", "--timeout", "1", command="parse")
    assert proc.returncode == 2, proc.stderr
    assert "analysis timed out" in proc.stderr
    assert cpu < 2


def test_irreducible_control_flow_exits_two(tmp_path, capsys):
    f = tmp_path / "irreducible.lcm"
    f.write_text("r1 <-0\nBEQZ r1, b\na: skip\nb: skip\nBEQZ r1, a\n")
    code = main(["check", str(f), "--no-timing"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: irreducible control flow involving a (skip), b (skip), "
        "line 5 (BEQZ r1, a)\n"
    )
    # Two irreducible regions joined by straight-line code: only the nodes
    # of one cycle are named, not the code between the regions.
    f.write_text(
        "r1 <-0\nBEQZ r1, b\na: skip\nb: skip\nBEQZ r1, a\n"
        "c: skip\nBEQZ r1, e\nd: skip\ne: skip\nBEQZ r1, d\n"
    )
    assert main(["check", str(f), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        "error: irreducible control flow involving a (skip), b (skip), "
        "line 5 (BEQZ r1, a)\n"
    )


def test_call_chain_deeper_than_the_recursion_limit_is_inlined(tmp_path, capsys):
    # main calls f1, f1 calls f2, ..., and f1199 holds the gadget.
    funcs = [f"func f{i}():\ncall f{i + 1}()\n" for i in range(1, 1199)]
    f = tmp_path / "deep.lcm"
    f.write_text("call f1()\n\n" + "\n".join(funcs) + "\nfunc f1199():\n" + GADGET)
    code = main(["check", str(f), "--engine", "v1", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.endswith("deep.lcm: 1 leak record(s)\n")
    assert captured.err == ""


def test_unknown_class_exits_via_systemexit(gadget, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(gadget), "--classes", "timing", "--no-timing"])
    assert exc.value.code == 2
    assert "unknown class 'timing'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "--spec-depth", "-1"], "argument --spec-depth: must be at least 0"),
    (["check", "--w-size", "-3"], "argument --w-size: must be at least 0"),
    (["check", "--timeout", "-1"], "argument --timeout: must be at least 0"),
    (["repair", "--timeout", "nan"], "argument --timeout: must be at least 0"),
    (["check", "--spec-depth", "x"], "argument --spec-depth: invalid int value"),
    (["enumerate", "--engine", "v1"], "unrecognized arguments: --engine v1"),
])
def test_bad_option_value_is_a_usage_error(gadget, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(gadget), *argv[1:]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_corpus_negative_timeout_is_a_usage_error(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", str(corpus_dir), "--timeout", "-1"])
    assert exc.value.code == 2
    assert "argument --timeout: must be at least 0" in capsys.readouterr().err


def test_zero_timeout_means_no_deadline(gadget, capsys):
    code = main(["check", str(gadget), "--engine", "v1", "--no-timing",
                 "--timeout", "0"])
    assert code == 1
    assert "1 leak record(s)" in capsys.readouterr().out


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["check", str(tmp_path / "absent.lcm"), "--no-timing"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "enumerate", "check", "repair"])
def test_non_utf8_file_exits_two(tmp_path, capsys, command):
    f = tmp_path / "binary.lcm"
    f.write_bytes(b"\xff\xfe")
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


# -- corpus runner ------------------------------------------------------------


def write_case(root, name, text, expect):
    (root / f"{name}.lcm").write_text(text)
    (root / f"{name}.expect.json").write_text(json.dumps(expect))


def test_corpus_runner_passes_on_matching_expectations(tmp_path, capsys):
    expect = {
        # null is EngineConfig's own w_size
        "config": {"engine": "v1", "classes": ["universal_data"], "d_spec": 25,
                   "w_size": None},
        "expect": [
            {"label": "i6", "transient": True, "class": "universal_data",
             "access": "i5", "access_transient": True},
        ],
    }
    write_case(tmp_path, "one", GADGET, expect)
    code = main(["corpus", str(tmp_path), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 programs, 0 mismatch(es)" in out
    assert "ok" in out


def run_in_c_locale(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh process under the C locale with UTF-8 mode off,
    where the locale's encoding is ASCII."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "leakcheck.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_corpus_reads_programs_and_sidecars_as_utf8(tmp_path):
    # Both subcommands read the program and its sidecar as UTF-8.
    expect = {
        "about": "démo ⊤",
        "config": {"engine": "v1", "classes": ["universal_data"]},
        "expect": [{"label": "i6", "transient": True, "class": "universal_data"}],
    }
    program = tmp_path / "one.lcm"
    program.write_text("; démo ⊤\n" + GADGET, encoding="utf-8")
    (tmp_path / "one.expect.json").write_text(
        json.dumps(expect, ensure_ascii=False), encoding="utf-8")
    check = run_in_c_locale("check", str(program), "--engine", "v1", "--no-timing")
    assert (check.returncode, check.stderr) == (1, "")
    assert "transmitter=i6_S class=universal_data" in check.stdout
    corpus = run_in_c_locale("corpus", str(tmp_path), "--no-timing")
    assert (corpus.returncode, corpus.stderr) == (0, "")
    assert "1 programs, 0 mismatch(es)" in corpus.stdout


def test_files_are_written_as_utf8_and_stdout_errors_exit_two(gadget, tmp_path):
    dots = tmp_path / "dots"
    check = run_in_c_locale("check", str(gadget), "--engine", "v1", "--no-timing",
                            "--dot", str(dots))
    assert (check.returncode, check.stderr) == (1, "")
    assert "⊤" in (dots / "witness_001.dot").read_text(encoding="utf-8")
    cafe = tmp_path / "cafe.lcm"
    cafe.write_text(GADGET.replace("i5:", "café:"), encoding="utf-8")
    fixed = tmp_path / "fixed.lcm"
    repair = run_in_c_locale("repair", str(cafe), "--engine", "v1", "--output", str(fixed))
    assert (repair.returncode, repair.stderr) == (0, "")
    assert "\ncafé: R A+r2 ->r4\n" in fixed.read_text(encoding="utf-8")
    # The record names the access café_S, which ASCII stdout cannot print.
    check = run_in_c_locale("check", str(cafe), "--engine", "v1", "--no-timing")
    assert check.returncode == 2
    assert check.stderr.startswith("error: 'ascii' codec can't encode")


def test_corpus_runner_flags_mismatches(tmp_path, capsys):
    expect = {
        "config": {"engine": "v1", "classes": ["universal_data"]},
        "expect": [],
    }
    write_case(tmp_path, "one", GADGET, expect)
    code = main(["corpus", str(tmp_path), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert "1 mismatch(es)" in out


def test_corpus_runner_checks_culprit_detail(tmp_path, capsys):
    expect = {
        "config": {"engine": "v1", "classes": ["universal_data"]},
        "expect": [
            {"label": "i6", "transient": True, "class": "universal_data",
             "culprit": "fr_without_frx"},
        ],
    }
    write_case(tmp_path, "one", GADGET, expect)
    code = main(["corpus", str(tmp_path), "--no-timing"])
    capsys.readouterr()
    assert code == 1  # right record, wrong culprit


@pytest.mark.parametrize("config, message", [
    ({"classes": ["bogus"]}, "unknown class 'bogus'"),
    ({"scope": "everything"}, "invalid scope 'everything'"),
    ({"d_spec": -3}, "must be at least 0, got '-3'"),
    ({"w_size": 2.5}, "invalid int value: '2.5'"),
    ({"engine": "v9"}, "invalid engine 'v9'"),
    ({"probe": "no"}, "invalid probe 'no'"),
    ({"silent_stores": 1}, "invalid silent_stores 1"),
    ({"spec_depth": 5}, "unknown config key 'spec_depth'"),
    ({"d_spec": "25"}, "invalid int value: '25'"),
    ({"w_size": True}, "invalid int value: 'True'"),
])
def test_corpus_runner_rejects_bad_sidecar_config(tmp_path, capsys, config, message):
    write_case(tmp_path, "one", GADGET, {"config": config, "expect": []})
    code = main(["corpus", str(tmp_path), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert f"ERROR  [MISMATCH]  ({message})" in out


@pytest.mark.parametrize("sidecar, message", [
    ([], "the sidecar is not a JSON object"),
    ({"config": ["engine"]}, "'config' is not an object"),
    ({"config": {"classes": "data"}}, "classes 'data' is not a list of names"),
    ({"expect": {"label": "i6"}}, "'expect' is not a list"),
    ({"expect": ["i6"]}, "expect entry 1 is not an object"),
    ({"expect": [{"class": "data"}]}, "expect entry 1 needs a string 'label' and 'class'"),
    ({"expect": [{"label": "i6", "class": "data", "footnotes": "loop"}]},
     "expect entry 1: 'footnotes' is not a list of names"),
])
def test_corpus_runner_reports_malformed_sidecars(tmp_path, capsys, sidecar, message):
    write_case(tmp_path, "one", GADGET, sidecar)
    code = main(["corpus", str(tmp_path), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert f"ERROR  [MISMATCH]  ({message})" in out


@pytest.mark.parametrize("command", ["check", "repair"])
@pytest.mark.parametrize("engine", [None, "v4"])
def test_thread_programs_name_the_requested_engine(tmp_path, capsys, monkeypatch,
                                                   command, engine):
    f = tmp_path / "threads.lcm"
    f.write_text("thread t0:\nW x <-1\nthread t1:\nR x ->r1\n")
    monkeypatch.setattr(cfg, "build_acfg", None)  # rejected before the ACfg is built
    code = main([command, str(f)] + (["--engine", engine] if engine else []))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: engine {engine or 'all'} analyzes single-thread programs only\n")


def test_corpus_runner_empty_dir_exits_two(tmp_path, capsys):
    code = main(["corpus", str(tmp_path), "--no-timing"])
    assert code == 2
    assert "no litmus files" in capsys.readouterr().err


def test_shipped_corpus_is_green(corpus_dir, capsys):
    code = main(["corpus", str(corpus_dir), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 mismatch(es)" in out
