"""Byte-exact CLI outputs: stdout and exit code of fixed invocations.

Each golden under ``tests/goldens/`` is the stdout of ``tdspace ARGV``
recorded before the double-tree types were merged; any refactor must
reproduce it byte for byte.  Do not re-record a golden to make a change
pass: a changed byte is a changed interface.
"""

from pathlib import Path

import pytest

from tdspace import cli

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: README's worked evolution 1 -> 121 -> 3121 -> 3124121 (540 extensions).
EV = '{"steps":[[1,1],[1,0],[2,3]]}'

#: (golden file, argv, exit code)
CASES = [
    *(
        (f"export-{what}.{fmt}", ["export", EV, "--what", what, "--format", fmt], 0)
        for what in ("tree", "major", "hasse")
        for fmt in ("dot", "json")
    ),
    ("count.txt", ["count", EV], 0),
    ("induce.txt", ["induce", EV], 0),
    ("induce.csv", ["induce", EV, "--format", "csv"], 0),
    *(
        (f"table-n3.{fmt}", ["table", "-n", "3", "--format", fmt], 0)
        for fmt in ("text", "csv", "json")
    ),
    *(
        (f"verify-structure-n3.{fmt}", ["verify", "--suite", "structure", "-n", "3",
                                        "--format", fmt], 0)
        for fmt in ("text", "json")
    ),
    ("verify-kernel-n2.txt",
     ["verify", "--suite", "kernel", "-n", "2", "--seed", "5", "--trees", "20"], 0),
    *(
        (f"beta-seed17.{fmt}", ["beta", "--seed", "17", "--trees", "30", "--size", "10",
                                "--format", fmt], 0)
        for fmt in ("text", "json")
    ),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(capsys, name, argv, code):
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDENS / name).read_bytes()
