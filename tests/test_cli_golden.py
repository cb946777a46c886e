"""Byte-exact CLI outputs: stdout, stderr and exit code of fixed invocations.

Each golden under ``tests/goldens/`` is the stdout of ``tdspace ARGV``
recorded before the code it pins was refactored; any refactor must
reproduce it byte for byte.  Do not re-record a golden to make a change
pass: a changed byte is a changed interface.
"""

import argparse
from pathlib import Path

import pytest

from tdspace import cli
from tdspace.beta import induced_evolutions
from tdspace.words import word_count_row

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: README's worked evolution 1 -> 121 -> 3121 -> 3124121 (540 extensions).
EV = '{"steps":[[1,1],[1,0],[2,3]]}'
WORDS = ["words", "-n", "5", "--enumerate", "--recursion"]

#: (golden file, argv, exit code)
CASES = [
    *(
        (f"export-{what}.{fmt}", ["export", EV, "--what", what, "--format", fmt], 0)
        for what in ("tree", "major", "hasse")
        for fmt in ("dot", "json")
    ),
    ("count.txt", ["count", EV], 0),
    ("count-oracle.txt", ["count", EV, "--oracle"], 0),
    ("count-oracle.json", ["count", EV, "--oracle", "--format", "json"], 0),
    ("induce.txt", ["induce", EV], 0),
    ("induce.csv", ["induce", EV, "--format", "csv"], 0),
    ("induce.json", ["induce", EV, "--format", "json"], 0),
    *((f"words-n5.{fmt}", [*WORDS, "--format", fmt], 0) for fmt in ("text", "csv", "json")),
    *(
        (f"table-n3.{fmt}", ["table", "-n", "3", "--format", fmt], 0)
        for fmt in ("text", "csv", "json")
    ),
    *(
        (f"verify-structure-n3.{fmt}", ["verify", "--suite", "structure", "-n", "3",
                                        "--format", fmt], 0)
        for fmt in ("text", "json")
    ),
    # no -n: pins the default depth of 4
    ("verify-structure.txt", ["verify", "--suite", "structure"], 0),
    ("verify-kernel-n2.txt",
     ["verify", "--suite", "kernel", "-n", "2", "--seed", "5", "--trees", "20"], 0),
    ("verify-induction-n3.txt", ["verify", "--suite", "induction", "-n", "3"], 0),
    ("verify-grand-total-n3.json",
     ["verify", "--suite", "grand-total", "-n", "3", "--format", "json"], 0),
    *(
        (f"beta-seed17.{fmt}", ["beta", "--seed", "17", "--trees", "30", "--size", "10",
                                "--format", fmt], 0)
        for fmt in ("text", "json")
    ),
]


def _row_off_by_one(n):
    row = word_count_row(n)
    row[max(row)] += 1
    return row


#: (golden file, argv, patched cli attribute, replacement, stderr); all exit 3
MISMATCHES = [
    ("words-mismatch.txt", ["words", "-n", "3", "--enumerate", "--recursion"],
     "word_count_row", _row_off_by_one, "word-count routes disagree\n"),
    ("count-oracle-mismatch.txt", ["count", EV, "--oracle"],
     "count_extensions_bruteforce", lambda *a, **k: 7,
     "oracle disagrees with the closed-form count\n"),
    ("induce-mismatch.txt", ["induce", EV],
     "induced_evolutions", lambda ev, max_n: induced_evolutions(ev, max_n=max_n)[:-1],
     "fiber sum disagrees with the one-step recurrence\n"),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(capsys, name, argv, code):
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out.encode("utf-8") == (GOLDENS / name).read_bytes()
    assert err == ""


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_golden_through_output_file(capsys, tmp_path, name, argv, code):
    target = tmp_path / name
    assert cli.main([*argv, "-o", str(target)]) == code
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == (GOLDENS / name).read_bytes()


@pytest.mark.parametrize("name,argv,attr,fake,stderr", MISMATCHES,
                         ids=[c[0] for c in MISMATCHES])
def test_cli_mismatch_golden(capsys, monkeypatch, name, argv, attr, fake, stderr):
    monkeypatch.setattr(cli, attr, fake)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out.encode("utf-8") == (GOLDENS / name).read_bytes()
    assert err == stderr


def test_every_format_has_a_golden():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {
        (command, fmt)
        for command, p in sub.choices.items()
        for a in p._actions if a.dest == "fmt"
        for fmt in a.choices
    }
    pinned = {
        (args.command, args.fmt)
        for args in (parser.parse_args(argv) for _, argv, _ in CASES)
    }
    assert offered - pinned == set()
