"""Line counts of the package source, split into code, docstring,
comment and blank lines.

Prints one row per module of ``src/bessel_interlace`` and a total: its
``wc -l`` lines (newline characters), then how many of them are code,
docstring, comment and blank lines. Each line counts once. A line is
code when it holds any token outside a comment and outside a module,
class or function docstring; otherwise it is a docstring line when a
docstring covers it, a comment line when it holds a comment, and blank
when it holds none of these (a blank line inside a docstring is a
docstring line). The four parts sum to ``wc -l``:

    python tests/src_lines.py            # the package next to this script
    python tests/src_lines.py <dir>      # every *.py file in <dir>

Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bessel_interlace"

_NOT_CONTENT = {tokenize.ENCODING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) of each module, class and function docstring, as tokenize's (row, column) positions."""
    lines = source.splitlines(keepends=True)

    def position(row: int, byte_col: int) -> tuple[int, int]:
        # ast counts columns in UTF-8 bytes, tokenize in characters.
        return row, len(lines[row - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append((position(first.lineno, first.col_offset), position(first.end_lineno, first.end_col_offset)))
    return spans


def classify(source: str) -> list[str]:
    """The kind of each of ``source``'s ``wc -l`` lines, one of KINDS, in order."""
    spans = _docstrings(source)
    rows: dict[str, set[int]] = {kind: set() for kind in KINDS}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CONTENT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif any(start <= tok.start and tok.end <= end for start, end in spans):
            kind = "docstring"
        else:
            kind = "code"
        rows[kind].update(range(tok.start[0], tok.end[0] + 1))
    return [next((kind for kind in KINDS[:3] if row in rows[kind]), "blank") for row in range(1, source.count("\n") + 1)]


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    totals = [0] * (len(KINDS) + 1)
    for path in sorted(directory.glob("*.py")):
        kinds = classify(path.read_text(encoding="utf-8"))
        row = [len(kinds), *(kinds.count(kind) for kind in KINDS)]
        totals = [t + n for t, n in zip(totals, row)]
        print(f"{path.name:<16}{row[0]:>7}" + "".join(f"{n:>11}" for n in row[1:]))
    print(f"{'total':<16}{totals[0]:>7}" + "".join(f"{n:>11}" for n in totals[1:]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
