"""Command-line interface: output shapes, exit codes, determinism."""

import ast
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tdspace.words
from tdspace import (
    KernelCheck,
    build_2d_tree,
    cli,
    format_evolution,
    kernel_profile,
    parse_evolution,
    validate_structure,
)
from tdspace.structure import StructureReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_words_recursion(capsys):
    code, out, _ = run(capsys, "words", "-n", "6", "--recursion")
    assert code == 0
    assert "total 1539281" in out


def test_words_both_routes_agree(capsys):
    code, out, _ = run(capsys, "words", "-n", "3", "--recursion", "--enumerate")
    assert code == 0
    assert "routes agree" in out


def test_words_csv(capsys):
    code, out, _ = run(capsys, "words", "-n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,route,length,count"
    assert "2,recursion,2,2" in lines
    assert "2,recursion,3,1" in lines


def test_words_json(capsys):
    code, out, _ = run(capsys, "words", "-n", "4", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["routes"]["recursion"]["total"] == 377
    assert doc["agree"] is True


def test_words_enumeration_budget(capsys):
    code, _, err = run(capsys, "words", "-n", "6", "--enumerate")
    assert code == 2
    assert "budget" in err


def test_words_enumeration_budget_comes_before_the_recursion_row(capsys, monkeypatch):
    """``--enumerate --recursion`` past the enumeration cap of 5 exits 2
    without building the recursion row (about 160 MB at n = 20)."""

    def unreachable(n):
        raise AssertionError(f"the recursion row of {n} TDs was built")

    monkeypatch.setattr(cli, "word_count_row", unreachable)
    code, out, err = run(capsys, "words", "-n", "20", "--enumerate", "--recursion")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: word sweep for 20 TDs exceeds the budget of 5\n"


@pytest.mark.parametrize(
    "extra", [[], ["--deep"], ["--enumerate", "--deep"], ["--recursion", "--enumerate", "--deep"]]
)
def test_words_count_budget(capsys, extra):
    start = time.monotonic()
    code, out, err = run(capsys, "words", "-n", "21", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("budget exceeded: word count of 21 TDs")
    assert time.monotonic() - start < 1


def test_words_collision_is_exit_3(capsys, monkeypatch):
    choices = tdspace.words.choice_count
    monkeypatch.setattr(tdspace.words, "choice_count", lambda length: choices(length) + 1)
    code, out, err = run(capsys, "words", "-n", "3", "--enumerate")
    assert (code, out) == (3, "")
    assert err == "error: 4 derivations produced only 3 distinct words at 2 TDs\n"


def test_words_compares_the_walk_it_runs(capsys, monkeypatch):
    walk = cli._distinct_words
    monkeypatch.setattr(cli, "_distinct_words", lambda n, max_n: set(sorted(walk(n, max_n))[1:]))
    code, out, err = run(capsys, "words", "-n", "3", "--enumerate", "--recursion")
    assert code == 3
    assert out.endswith("total 21\nROUTES DISAGREE\n")
    assert err == "word-count routes disagree\n"


def test_count_worked_example(capsys):
    code, out, _ = run(capsys, "count", '{"steps":[[1,1],[1,0],[2,3]]}', "--oracle")
    assert code == 0
    assert "site=fence(1) factor=27" in out
    assert "site=fence(3) factor=2" in out
    assert "site=node(1b) factor=10" in out
    assert "27 * 2 * 10 = 540" in out
    assert "oracle 540 agrees" in out


def test_count_reads_the_evolution_from_stdin(capsys, monkeypatch):
    evolution = '{"steps":[[1,1],[1,0],[2,3]]}'
    inline = run(capsys, "count", evolution)
    monkeypatch.setattr(sys, "stdin", io.StringIO(evolution + "\n"))
    assert run(capsys, "count", "-") == inline
    assert inline[0] == 0 and "27 * 2 * 10 = 540" in inline[1]


def test_count_trivial_evolution(capsys):
    code, out, _ = run(capsys, "count", '{"steps":[]}')
    assert code == 0
    assert "1 = 1" in out


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", '{"steps":[[1,1]]}', "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == 5
    assert doc["factors"] == [{"site": "fence(1)", "factor": 5}]


def test_count_from_file(tmp_path, capsys):
    path = tmp_path / "ev.json"
    path.write_text('{"steps":[[1,0]]}')
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert "= 3" in out


@pytest.mark.parametrize("command", ["count", "export", "induce"])
def test_an_evolution_file_that_is_not_utf8_is_exit_1(tmp_path, capsys, command):
    path = tmp_path / "ev.json"
    path.write_bytes(b'{"steps":[[1,0]]}\xff')
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read evolution file {str(path)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["count", "export", "induce"])
def test_deeply_nested_json_is_exit_1(tmp_path, capsys, command):
    path = tmp_path / "ev.json"
    # deeper than the JSON parser of every supported Python accepts
    path.write_text('{"steps": ' + "[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", "error: invalid JSON: nested too deeply\n")


def doubling(tds):
    """The evolution of ``tds`` TDs whose every step duplicates the whole
    word, so that word ``k`` has 2**k - 1 symbols."""
    return json.dumps({"steps": [[1, 2**k - 1] for k in range(1, tds)]})


@pytest.mark.parametrize("command", ["count", "export", "induce"])
def test_a_word_past_the_budget_is_exit_2_before_it_is_built(capsys, command):
    """30 doubling steps, a 377-byte input, would replay to a word of
    2**31 - 1 symbols; the replay stops at the first word past the budget."""
    start = time.monotonic()
    code, out, err = run(capsys, command, doubling(31))
    assert (code, out) == (2, "")
    assert err == "budget exceeded: a word of 2097151 symbols exceeds the budget of 1048575\n"
    assert time.monotonic() - start < 1


def test_the_longest_words_in_the_budget_still_count(capsys):
    code, out, err = run(capsys, "count", doubling(20), "--format", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["steps"]) == 19


def test_count_oracle_mismatch_is_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_extensions_bruteforce", lambda *a, **k: 7)
    code, _, err = run(capsys, "count", '{"steps":[[1,1]]}', "--oracle")
    assert code == 3
    assert "disagrees" in err


def test_count_rejects_bad_steps(capsys):
    code, _, err = run(capsys, "count", '{"steps":[[9,9]]}')
    assert code == 1
    assert "error" in err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "-n", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "n,words,cnvs,td_graphs,evolutions,paths",
        "3,22,225,288,627,627",
    ]


def test_table_workers_identical(capsys):
    _, serial, _ = run(capsys, "table", "-n", "2")
    _, parallel, _ = run(capsys, "table", "-n", "2", "--workers", "3")
    assert serial == parallel


def test_table_depth_budget(capsys):
    code, _, err = run(capsys, "table", "-n", "5")
    assert code == 2
    assert "budget" in err


def test_table_memory_budget(capsys, monkeypatch):
    monkeypatch.setenv("TD_MAX_MEM", "1000")
    code, _, err = run(capsys, "table", "-n", "3")
    assert code == 2


@pytest.mark.parametrize("limit,code", [("30000", 2), ("50000", 0), ("150000", 0)])
def test_table_memory_budget_is_measured(capsys, monkeypatch, limit, code):
    # the n=3 dedup measures 31,210 bytes
    monkeypatch.setenv("TD_MAX_MEM", limit)
    got, _, err = run(capsys, "table", "-n", "3")
    assert got == code
    assert ("memory budget" in err) == (code == 2)


@pytest.mark.parametrize("workers", ["1", "2", "3", "11"])
def test_table_memory_budget_is_the_same_on_any_workers(capsys, monkeypatch, workers):
    """One byte under what one worker holds at n = 3 fails on every worker
    count, and so does 30,000 bytes.  The bytes named are those held at the
    first failing check, which falls at another point on one worker (31,210)
    than on several (30,730), so only the verdict is compared there."""
    monkeypatch.setenv("TD_MAX_MEM", "1")
    _, _, err = run(capsys, "table", "-n", "3")
    held = int(re.search(r"hold (\d+) bytes", err).group(1))
    monkeypatch.setenv("TD_MAX_MEM", str(held - 1))
    code, out, err = run(capsys, "table", "-n", "3", "--workers", workers)
    assert (code, out) == (2, "")
    assert err == (
        f"budget exceeded: dedup sets hold {held} bytes, "
        f"over the memory budget of {held - 1} bytes\n"
    )
    monkeypatch.setenv("TD_MAX_MEM", "30000")
    code, out, err = run(capsys, "table", "-n", "3", "--workers", workers)
    assert (code, out) == (2, "")
    assert err.endswith(" bytes, over the memory budget of 30000 bytes\n")


def test_table_memory_budget_of_zero_is_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("TD_MAX_MEM", "0")
    assert run(capsys, "table", "-n", "2") == (1, "", "error: TD_MAX_MEM must be positive, got 0\n")


def test_table_bad_mem_env(capsys, monkeypatch):
    monkeypatch.setenv("TD_MAX_MEM", "lots")
    code, _, err = run(capsys, "table", "-n", "2")
    assert code == 1
    assert "TD_MAX_MEM" in err


@pytest.mark.parametrize(
    "suite,extra",
    [
        ("structure", ["-n", "3"]),
        ("induction", ["-n", "3"]),
        ("kernel", ["-n", "2", "--seed", "5", "--trees", "20"]),
        ("grand-total", ["-n", "3"]),
    ],
)
def test_verify_suites_pass(capsys, suite, extra):
    code, out, _ = run(capsys, "verify", "--suite", suite, *extra)
    assert code == 0
    assert "suite passed" in out
    assert "FAIL" not in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "structure", "-n", "2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {"trees-validate", "formula-vs-oracle"}


def test_verify_kernel_requires_seed(capsys, monkeypatch):
    """The seed is checked before any work, not after the deterministic checks."""

    def no_work(*args, **kwargs):
        raise AssertionError("kernel_profile ran before the seed check")

    monkeypatch.setattr(cli, "kernel_profile", no_work)
    code, out, err = run(capsys, "verify", "--suite", "kernel", "-n", "5")
    assert (code, out) == (1, "")
    assert err == "error: verify is randomized; pass an explicit --seed\n"


def test_verify_induction_needs_two_levels(capsys):
    """``-n 1`` leaves no fiber level to check, and once passed checking nothing."""
    code, out, err = run(capsys, "verify", "--suite", "induction", "-n", "1")
    assert (code, out) == (1, "")
    assert err == "error: need n >= 2 for the induction suite, got 1\n"


def test_verify_time_limit(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "structure", "-n", "4", "--time-limit", "1e-9"
    )
    assert code == 2


@pytest.mark.parametrize("suite", ["structure", "kernel", "induction"])
def test_verify_stops_at_the_enumeration_cap(capsys, suite):
    """Past n = 6 without --deep the suite exits before any work; the time
    limit only bounds a run that ignores the cap."""
    code, out, err = run(
        capsys, "verify", "--suite", suite, "-n", "7", "--seed", "1", "--time-limit", "5"
    )
    assert (code, out) == (2, "")
    assert err == "budget exceeded: enumeration of 7 TDs exceeds the budget of 6\n"


def test_verify_deep_lifts_the_enumeration_cap(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "structure", "-n", "7", "--deep", "--time-limit", "1e-9"
    )
    assert (code, err) == (2, "budget exceeded: time limit exceeded\n")


def test_verify_failure_is_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form", lambda n: -1)
    code, out, _ = run(capsys, "verify", "--suite", "grand-total", "-n", "2")
    assert code == 3
    assert "FAIL formula-vs-closed-form" in out


def test_verify_failure_is_exit_3_in_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form", lambda n: -1)
    code, out, err = run(capsys, "verify", "--suite", "grand-total", "-n", "2", "--format", "json")
    doc = json.loads(out)
    assert (code, err, doc["passed"]) == (3, "", False)
    assert doc["checks"] == [
        {"name": "simulator-vs-formula", "passed": True, "details": "11 vs 11"},
        {"name": "formula-vs-closed-form", "passed": False, "details": "11 vs -1"},
    ]
    assert [list(check) for check in doc["checks"]] == [["name", "passed", "details"]] * 2


def test_verify_mismatch_is_replayable(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_extensions_bruteforce", lambda *a, **k: 7)
    code, out, _ = run(capsys, "verify", "--suite", "structure", "-n", "2")
    assert code == 3
    (line,) = [ln for ln in out.splitlines() if ln.startswith("FAIL formula-vs-oracle")]
    detail = line[len("FAIL formula-vs-oracle ("):]
    literal, rest = detail.split(": ", 1)
    assert literal.startswith('{"steps":')
    assert format_evolution(parse_evolution(literal)) == literal
    assert rest == "formula 1 vs oracle 7)"


def failing_report(tree):
    report = StructureReport()
    report.add("forced", False, "forced failure")
    return report


def unequal_where(picked):
    """A kernel profile with one unequal identity on the trees ``picked`` takes."""

    def profile(tree, budget):
        return (KernelCheck(1, 0, 1),) if picked(tree) else kernel_profile(tree, budget=budget)

    return profile


KERNEL = ["verify", "--suite", "kernel", "-n", "1", "--trees", "2", "--seed", "5"]
INDUCTION = ["verify", "--suite", "induction", "-n", "2"]
FIRST_EVOLUTION = '{"steps":[]}'


def first_tree(tree):
    """Whether ``tree`` is the tree of the first evolution, the one
    evolution tree that the kernel suite checks at n = 1."""
    return tree == build_2d_tree(parse_evolution(FIRST_EVOLUTION))


@pytest.mark.parametrize(
    "argv, target, stand_in, check, detail",
    [
        (
            ["verify", "--suite", "structure", "-n", "2"],
            "validate_structure", failing_report, "trees-validate", FIRST_EVOLUTION,
        ),
        (
            KERNEL, "kernel_profile", unequal_where(first_tree),
            "evolution-trees", FIRST_EVOLUTION,
        ),
        (KERNEL, "validate_beta_tree", failing_report, "random-trees", "seeds [5, 6]"),
        (
            KERNEL,
            "kernel_profile",
            unequal_where(lambda t: not first_tree(t) and t != cli._worked_kernel_tree()),
            "random-trees",
            "seeds [5, 6]",
        ),
        (INDUCTION, "_induction_factor", lambda n: 0, "fibers-base-1", FIRST_EVOLUTION),
        (
            INDUCTION, "word_count_total", lambda n: 0,
            "fibers-base-1", "fibers cover 3 of 0 evolutions",
        ),
    ],
)
def test_each_verify_failure_exits_3_with_its_fail_line(
    capsys, monkeypatch, argv, target, stand_in, check, detail
):
    """Each check fails alone, and a failing evolution is named by a
    ``{"steps": ...}`` literal that ``count`` replays."""
    monkeypatch.setattr(cli, target, stand_in)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [f"FAIL {check} ({detail})"]
    if detail.startswith('{"steps":'):
        monkeypatch.undo()
        assert run(capsys, "count", detail)[0] == 0


def first_fails(tree):
    """``validate_structure``, failing on the tree of the first evolution alone."""
    return failing_report(tree) if first_tree(tree) else validate_structure(tree)


@pytest.mark.parametrize(
    "argv, stand_ins, fails",
    [
        (
            ["verify", "--suite", "structure", "-n", "2"],
            {"validate_structure": first_fails, "count_extensions_bruteforce": lambda d, budget: 7},
            [
                f"FAIL trees-validate ({FIRST_EVOLUTION})",
                'FAIL formula-vs-oracle ({"steps":[[1,0]]}: formula 3 vs oracle 7)',
            ],
        ),
        (
            ["verify", "--suite", "induction", "-n", "3"],
            {"_induction_factor": lambda n: 0, "word_count_total": lambda n: 0},
            [f"FAIL fibers-base-1 ({FIRST_EVOLUTION})", 'FAIL fibers-base-2 ({"steps":[[1,0]]})'],
        ),
    ],
)
def test_two_failing_checks_each_show_their_first_failure(
    capsys, monkeypatch, argv, stand_ins, fails
):
    """Each check keeps its own first failure.  A tree that fails
    validation is not formula-checked, so the oracle's first mismatch is
    on the next evolution; and a level's failing base shows before its
    coverage detail."""
    for target, stand_in in stand_ins.items():
        monkeypatch.setattr(cli, target, stand_in)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == fails


@pytest.mark.parametrize(
    "target, stand_in, fail",
    [
        ("validate_beta_tree", failing_report, "{'seed': 5, 'reason': 'forced'}"),
        (
            "kernel_profile", unequal_where(lambda t: True),
            "{'seed': 5, 'r': 1, 'lhs': 0, 'rhs': 1}",
        ),
    ],
)
def test_beta_lists_each_failing_tree(capsys, monkeypatch, target, stand_in, fail):
    monkeypatch.setattr(cli, target, stand_in)
    code, out, _ = run(capsys, "beta", "--seed", "5", "--trees", "2")
    assert code == 3
    assert "kernel identity: 0/2 trees pass" in out
    assert [ln for ln in out.splitlines() if "FAIL" in ln][0] == f"  FAIL {fail}"


def test_export_major_dot(capsys):
    code, out, _ = run(capsys, "export", '{"steps":[[1,1]]}', "--what", "major")
    assert code == 0
    assert out.startswith("digraph")
    assert '"1a" -> "1b"' in out or '"1a" -> "2b"' in out


def test_export_tree_json_to_file(tmp_path, capsys):
    target = tmp_path / "tree.json"
    code, out, _ = run(
        capsys,
        "export",
        '{"steps":[[1,1],[1,0],[2,3]]}',
        "--what",
        "tree",
        "--format",
        "json",
        "-o",
        str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["n"] == 4


def test_export_hasse(capsys):
    code, out, _ = run(capsys, "export", '{"steps":[]}', "--what", "hasse")
    assert code == 0
    assert "digraph" in out


def test_induce_first_word(capsys):
    code, out, _ = run(capsys, "induce", '{"steps":[]}')
    assert code == 0
    assert "fiber size 3" in out
    assert "fiber sum 11 = 1 * 11 [matches]" in out


def test_induce_json(capsys):
    code, out, _ = run(capsys, "induce", '{"steps":[[1,1]]}', "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["fiber_sum"] == doc["predicted"] == 5 * 57
    assert len(doc["fiber"]) == sum(1 for _ in doc["fiber"])
    assert all(set(e) == {"steps", "word", "nodeset", "count"} for e in doc["fiber"])


def test_beta_sweep(capsys):
    code, out, _ = run(capsys, "beta", "--seed", "17", "--trees", "30", "--size", "10")
    assert code == 0
    assert "30/30 trees pass" in out


def test_beta_sweep_deterministic(capsys):
    _, first, _ = run(capsys, "beta", "--seed", "23", "--trees", "12")
    _, second, _ = run(capsys, "beta", "--seed", "23", "--trees", "12")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["beta", "--trees", "5"],
        ["frobnicate"],
        ["words", "--bogus"],
        ["verify", "--suite", "nope"],
    ],
)
def test_usage_errors_exit_1_not_2(capsys, argv):
    """argparse's native usage exit is 2, which this interface reserves
    for exceeded budgets."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["beta", "verify"])
@pytest.mark.parametrize("size", ["2", "3"])
def test_random_tree_size_below_four_is_rejected(capsys, command, size):
    """Random trees have at least four nodes, so smaller sizes cannot be honoured."""
    extra = ["--suite", "kernel", "-n", "1"] if command == "verify" else []
    code, out, err = run(capsys, command, *extra, "--seed", "1", "--trees", "3", "--size", size)
    assert code == 1
    assert out == ""
    assert "size >= 4" in err


@pytest.mark.parametrize("command", ["beta", "verify"])
@pytest.mark.parametrize("rate", ["1.5", "-1", "nan"])
def test_fence_rate_outside_unit_interval_is_rejected(capsys, command, rate):
    """A fence rate is a probability; anything else must not run silently."""
    extra = ["--suite", "kernel", "-n", "1"] if command == "verify" else []
    code, out, err = run(capsys, command, *extra, "--seed", "1", "--trees", "3",
                         f"--fence-rate={rate}")
    assert code == 1
    assert out == ""
    assert err == f"error: need 0 <= fence_rate <= 1, got {float(rate)}\n"


def test_beta_node_budget_of_zero_is_exit_1(capsys):
    code, out, err = run(capsys, "beta", "--seed", "1", "--node-budget", "0")
    assert (code, out, err) == (1, "", "error: need a positive node budget, got 0\n")


def test_deep_grand_total_warns_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "--suite", "grand-total", "-n", "2", "--deep")
    assert code == 0
    assert out.endswith("pass formula-vs-closed-form (11 vs 11)\nsuite passed\n")
    assert err == "grand total sweep for n=2; this can take minutes\n"


@pytest.mark.parametrize("limit", ["0", "-1", "nan"])
def test_time_limit_that_is_not_positive_is_rejected(capsys, limit):
    """NaN compares false with everything, so it must not pass as a limit
    that never expires."""
    code, out, err = run(capsys, "verify", "--suite", "grand-total", "-n", "4",
                         "--time-limit", limit)
    assert code == 1
    assert out == ""
    assert err == f"error: need a positive time limit, got {float(limit)}\n"


def test_unwritable_output_is_exit_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "words", "-n", "2", "-o", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write")
    assert not target.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_time_limit_stops_the_simulator_sweep(workers):
    """The suite runs ``tabulate`` first, over about 157 M paths at n = 5,
    which no host finishes within the limit.  In a subprocess, a deadline
    that failed to stop it would meet the timeout or the memory cap, whose
    exit says nothing of a time limit, instead of hanging the tests."""
    env = dict(os.environ, TD_MAX_MEM=str(128 * 2**20))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["verify", "--suite", "grand-total", "-n", "5", "--deep", "--time-limit", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "tdspace.cli", *argv, "--workers", workers],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "time limit" in done.stderr


def test_importing_the_cli_loads_no_pool_module():
    """Single-worker commands pay for every import; the process pool is
    imported only when a sweep starts one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, tdspace.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_reader_that_leaves_early_ends_the_cli_quietly():
    """``tdspace words -n 18 | head -1``: once the reader closes the pipe
    the CLI exits 1 with nothing on stderr, not with a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tdspace.cli", "words", "-n", "18"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"words after 18 TDs (recursion)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_a_broken_pipe_on_a_callers_stream_is_the_callers(monkeypatch):
    """In process, the CLI leaves a stdout that its caller put in place
    as it is and lets the error through."""

    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        cli.main(["words", "-n", "3"])


def joined_output(text):
    """What the CLI wrote when it joined the whole output first."""
    return text if text.endswith("\n") else text + "\n"


@pytest.mark.parametrize(
    "lines", [[], [""], ["", ""], ["a", ""], ["a", "b\n"], ["", "x"], ["a,b"] * 10_000]
)
def test_streamed_text_equals_the_joined_text(capsys, tmp_path, lines):
    expected = joined_output("\n".join(lines))
    result = cli.Result(json=None, text=lines, csv=(lines[:1], [[line] for line in lines[1:]]))
    for fmt in ("text", "csv"):
        cli._emit(cli._render(result, fmt), None)
        assert capsys.readouterr().out == expected
        target = tmp_path / f"out.{fmt}"
        cli._emit(cli._render(result, fmt), str(target))
        assert target.read_text() == expected


@pytest.mark.parametrize(
    "doc", [{}, [], '{"as": "is"}\n', {"rows": {str(m): m for m in range(10_000)}}]
)
def test_streamed_json_equals_the_joined_json(capsys, doc):
    cli._emit(cli._render(cli.Result(json=lambda: doc, text=[]), "json"), None)
    expected = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
    assert capsys.readouterr().out == joined_output(expected)


def test_the_trailing_newline_rule_holds_across_batches(capsys):
    cli._emit(["x\n"] * cli._BATCH + [""], None)
    assert capsys.readouterr().out == "x\n" * cli._BATCH


EV = '{"steps":[[1,1],[1,0],[2,3]]}'

#: per command: a valid line, a bad option value, and a line that misses
#: a required argument (an option's value where the command needs none)
PARSER_LINES = {
    "words": (["-n", "3"], ["-n", "x"], ["-n"]),
    "count": ([EV], [EV, "--node-budget", "x"], []),
    "table": (["-n", "2"], ["--format", "xml"], ["--workers"]),
    "verify": (["--suite", "structure", "-n", "2"], ["--suite", "nope"], ["-n", "2"]),
    "export": ([EV, "--what", "major"], [EV, "--what", "x"], []),
    "induce": ([EV], [EV, "--format", "xml"], []),
    "beta": (["--seed", "3", "--trees", "4"], ["--seed", "x"], ["--trees", "4"]),
}


def outcome(capsys, argv):
    """Exit code, or ``SystemExit`` code, with stdout and stderr."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommands(parser):
    (sub,) = (a for a in parser._actions if a.dest == "command")
    return list(sub.choices)


def recorded_builds(monkeypatch):
    """The subcommands of each parser that ``main`` builds from now on."""
    built, build = [], cli._build_parser

    def spy(command=None):
        parser = build(command)
        built.append(subcommands(parser))
        return parser

    monkeypatch.setattr(cli, "_build_parser", spy)
    return built


@pytest.mark.parametrize("command", list(PARSER_LINES))
def test_the_one_command_parser_behaves_like_the_full_one(capsys, monkeypatch, command):
    valid, bad_value, missing = PARSER_LINES[command]
    lines = [valid, ["-h"], [*valid, "--bogus"], bad_value, missing, [*valid, "extra"]]
    build = cli._build_parser
    built = recorded_builds(monkeypatch)
    one = [outcome(capsys, [command, *line]) for line in lines]
    assert built == [[command]] * len(lines)
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    assert [outcome(capsys, [command, *line]) for line in lines] == one
    assert one[0][0] == 0 and one[1][0] == ("SystemExit", 0)
    assert all(code == ("SystemExit", 1) for code, _, _ in one[2:])
    # a usage error names all seven commands, as the full parser does
    assert "{words,count,table,verify,export,induce,beta}" in one[2][2]


@pytest.mark.parametrize(
    "argv,code,says",
    [
        ([], 1, "error: the following arguments are required: command\n"),
        (["-h"], 0, "{words,count,table,verify,export,induce,beta}\n"),
        (["frobnicate"], 1, "error: argument command: invalid choice: 'frobnicate'"),
    ],
)
def test_no_known_command_goes_through_the_full_parser(capsys, monkeypatch, argv, code, says):
    built = recorded_builds(monkeypatch)
    exit_code, out, err = outcome(capsys, argv)
    assert built == [list(PARSER_LINES)]
    assert exit_code == ("SystemExit", code)
    assert says in out + err


def test_main_without_argv_reads_the_command_line(capsys, monkeypatch):
    expected = outcome(capsys, ["words", "-n", "3"])
    monkeypatch.setattr(sys, "argv", ["tdspace", "words", "-n", "3"])
    assert outcome(capsys, None) == expected


def test_only_main_reads_the_format():
    """Every command offers all its formats; only ``main`` picks one."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "fmt"
    }
    assert readers == {"main"}


@pytest.mark.parametrize(
    "argv,fmt",
    [
        *((["words", "-n", "3", "--enumerate"], fmt) for fmt in ("text", "csv", "json")),
        *((["induce", EV], fmt) for fmt in ("text", "csv", "json")),
        *((["export", EV, "--what", what], fmt)
          for what in ("tree", "hasse", "major") for fmt in ("dot", "json")),
    ],
)
def test_the_json_document_is_built_only_for_json(capsys, monkeypatch, argv, fmt):
    calls, result = [], cli.Result

    def spy(json, **fields):
        return result(json=lambda: calls.append(fmt) or json(), **fields)

    monkeypatch.setattr(cli, "Result", spy)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert (code, len(calls)) == (0, fmt == "json")
    assert out.startswith("{") == (fmt == "json")
