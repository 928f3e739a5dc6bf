"""``src_lines.py``, the code/docstring/comment/blank split of the package source."""

import pytest

import src_lines

MODULES = sorted(src_lines.PACKAGE.glob("*.py"))

SOURCE = '''\
"""Module docstring,

over three lines."""

# A comment.
import os  # a trailing comment


def f(x):
    """Function docstring."""
    s = """a string,
not a docstring"""  # its end
    return os.sep, s, x

    # An indented comment.
class C:
    """Class docstring, followed by a blank line."""

    def g(self): """A docstring on the def's line."""
x = ("""
""")
'''

EXPECTED = [
    "docstring", "docstring", "docstring", "blank",
    "comment", "code", "blank", "blank",
    "code", "docstring", "code", "code", "code", "blank",
    "comment", "code", "docstring", "blank",
    "code", "code", "code",
]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_parts_sum_to_wc_l(path):
    kinds = src_lines.classify(path.read_text(encoding="utf-8"))
    assert len(kinds) == path.read_bytes().count(b"\n")
    assert set(kinds) <= set(src_lines.KINDS)


def test_inline_source_lines():
    assert src_lines.classify(SOURCE) == EXPECTED


def test_docstring_or_comment_only_lines_are_never_code():
    kinds = src_lines.classify(SOURCE)
    for line, kind in zip(SOURCE.splitlines(), kinds):
        text = line.strip()
        if text.startswith("#") or text.startswith('"""') and text.endswith('"""') and text != '"""':
            assert kind != "code", line


def test_main_prints_each_module_and_the_total(capsys):
    assert src_lines.main([]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", *src_lines.KINDS]
    assert [row.split()[0] for row in rows] == [p.name for p in MODULES]
    numbers = [[int(n) for n in row.split()[1:]] for row in rows]
    assert [int(n) for n in total.split()[1:]] == [sum(column) for column in zip(*numbers)]
    assert all(lines == sum(parts) for lines, *parts in numbers)
