"""``command_dump.py --compare``, the identity check of the benchmark commands between two dumps."""

import subprocess
import sys
from pathlib import Path

import command_dump
from bessel_interlace import cli

SCRIPT = Path(command_dump.__file__)
RECORDED = SCRIPT.parent / "data" / "command_dump.txt"
# Two commands as dump() writes them: seed, workload, position, subcommand,
# format, exit code, stdout sha256 and evaluator calls.
LINES = [
    "0 zeros-long 0 zeros csv exit=0 sha256=173b88281d1d5fcb8485d5fa47a31e12184a156c428835cd05558c2927cdd2b8 calls=30039\n",
    "0 search-mix 2 wronskian json exit=0 sha256=7b3a2e46880c641c44ecfef79ecc5226addc125a7d2e7aeff583500581f58026 calls=3034\n",
]


def dumps(tmp_path, second):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("".join(LINES), encoding="ascii")
    b.write_text("".join(second), encoding="ascii")
    return a, b


def run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b)], capture_output=True, text=True)


def test_identical_dumps_differ_nowhere(tmp_path, capsys):
    a, b = dumps(tmp_path, LINES)
    assert command_dump.compare(a, b, sys.stdout) == 0
    assert capsys.readouterr().out == "2 and 2 lines, 0 differ\n"
    assert run(a, b).returncode == 0


def test_one_call_count_moved_is_one_line(tmp_path, capsys):
    moved = LINES[1].replace("calls=3034", "calls=3035")
    a, b = dumps(tmp_path, [LINES[0], moved])
    assert command_dump.compare(a, b, sys.stdout) == 1
    assert capsys.readouterr().out == f"2 and 2 lines, 1 differ\n- {LINES[1]}+ {moved}"
    proc = run(a, b)
    assert proc.returncode == 1 and "calls=3035" in proc.stdout


def test_a_line_only_one_dump_has_differs(tmp_path, capsys):
    a, b = dumps(tmp_path, LINES[:1])
    assert command_dump.compare(a, b, sys.stdout) == 1
    assert capsys.readouterr().out.endswith("+ 0 search-mix 2 wronskian json missing\n")
    assert run(a, b).returncode == 1


def test_each_command_is_dumped_in_the_formats_it_takes():
    parser = cli.build_parser()
    assert command_dump._formats(parser, "verify") == ("json",)
    for command in ("zeros", "break", "counterexample", "wronskian"):
        assert command_dump._formats(parser, command) == ("csv", "json")


def test_comment_lines_are_skipped(tmp_path, capsys):
    a, b = dumps(tmp_path, ["# recorded elsewhere\n", *LINES])
    assert command_dump.compare(a, b, sys.stdout) == 0
    assert capsys.readouterr().out == "2 and 2 lines, 0 differ\n"


def test_seed_zero_matches_the_recorded_dump(tmp_path, capsys):
    # Every seed-0 benchmark command keeps the exit code, stdout bytes and
    # evaluator calls recorded in data/command_dump.txt. A change that
    # moves one must re-record the file and say which line moved and why.
    now = tmp_path / "now.txt"
    with open(now, "w", encoding="ascii") as f:
        assert command_dump.dump([0], f) == 10
    differ = command_dump.compare(RECORDED, now, sys.stdout)
    assert differ == 0, capsys.readouterr().out
