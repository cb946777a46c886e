"""Count the lines of each module of ``src/tdspace/`` by kind.

Every physical line falls in one kind, checked in this order:
docstring (inside a module, class or function docstring), blank,
comment (only a ``#`` comment) and code (everything else).  Prints one
row per module, then the totals.  Standard library only; run it from
anywhere as ``python tools/src_lines.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tdspace"
KINDS = ("physical", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Lines of one module by kind."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["physical"] += 1
    return counts


def main() -> None:
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(SRC.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>11,}" for k in KINDS))
    print(f"{'total':<16}" + "".join(f"{totals[k]:>11,}" for k in KINDS))


if __name__ == "__main__":
    main()
