"""``wronskian_dump.py``, the identity check of ``has_positive_zero`` over a fixed grid."""

import subprocess
import sys
from pathlib import Path

import wronskian_dump

SCRIPT = Path(wronskian_dump.__file__)
RECORDED = SCRIPT.parent / "data" / "wronskian_dump.txt"
# Three cases as dump() writes them: nu, mu, x_max, then the outcome.
LINES = [
    "0.0 0.5 60.0 -> none\n",
    "0.0 2.0 60.0 -> 0x1.66e2965539b8ap+0\n",
    "0.0 2.0 1e-120 -> DOMAIN_X W is not evaluable on (0, x_max] below every critical point, x_max=1e-120\n",
]


def dumps(tmp_path, second):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("# recorded elsewhere\n" + "".join(LINES), encoding="ascii")
    b.write_text("".join(second), encoding="ascii")
    return a, b


def run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b)], capture_output=True, text=True)


def test_identical_dumps_differ_nowhere(tmp_path, capsys):
    a, b = dumps(tmp_path, LINES)
    assert wronskian_dump.compare(a, b, sys.stdout) == 0
    assert capsys.readouterr().out == "3 and 3 cases, 0 differ\n"
    assert run(a, b).returncode == 0


def test_a_moved_or_missing_case_differs(tmp_path, capsys):
    moved = LINES[1].replace("8ap+0", "8bp+0")
    a, b = dumps(tmp_path, [LINES[0], moved])
    assert wronskian_dump.compare(a, b, sys.stdout) == 2
    out = capsys.readouterr().out
    assert out.startswith("3 and 2 cases, 2 differ\n")
    assert f"+ {moved}" in out and "+ 0.0 2.0 1e-120 -> missing\n" in out
    assert run(a, b).returncode == 1


def test_dump_matches_the_recorded_cases(tmp_path, capsys):
    # Every case keeps the root bits, None, or error code and message
    # recorded in data/wronskian_dump.txt. A change that moves one must
    # re-record the file and say which case moved and why.
    now = tmp_path / "now.txt"
    with open(now, "w", encoding="ascii") as f:
        assert wronskian_dump.dump(f) == 324
    differ = wronskian_dump.compare(RECORDED, now, sys.stdout)
    assert differ == 0, capsys.readouterr().out
