"""README's ``## Library`` example runs, and its comments' claims hold.

A line whose comment reads ``# == <literal>`` claims that its expression
equals the literal; ``# ~<number>`` claims it equals the number to the
digits shown.
"""

import ast
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

CLAIM = re.compile(r"^(?P<expr>.+?)\s+#\s*(?:==\s*(?P<exact>\([^)]*\)|[^:\s]+)|~(?P<approx>[0-9.]+))")


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def claims(block: str) -> list[tuple[str, str, str]]:
    """(expression, kind, expected text) of each line that makes a claim."""
    found = []
    for line in block.splitlines():
        if m := CLAIM.match(line):
            kind = "exact" if m["exact"] else "approx"
            found.append((m["expr"], kind, m[kind]))
    return found


def test_library_block_claims():
    block = library_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    found = claims(block)
    assert [expr for expr, _, _ in found] == [
        "table[0].s, len(table)",
        'check_suite("theorem2", 0.5, 0.5, 20)',
        "find_breaking(0.0, 2.0).s",
        "has_positive_zero(0.0, 2.0, 50.0)",
    ]
    for expr, kind, expected in found:
        value = eval(expr, namespace)
        if kind == "exact":
            assert value == ast.literal_eval(expected), expr
        else:
            digits = len(expected.split(".")[1])
            assert value == pytest.approx(float(expected), abs=0.5 * 10**-digits), expr
