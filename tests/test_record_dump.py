"""``record_dump.py --compare``, the bit-identity check between two dumps."""

import hashlib
import io
import subprocess
import sys
from pathlib import Path

import record_dump
from bessel_interlace.zeros import clear_cache

SCRIPT = Path(record_dump.__file__)
RECORDED = SCRIPT.parent / "data" / "record_dump.txt"
# Two records as dump() writes them: kind, order, rank, value, lo, hi,
# residual (each float.hex) and iterations.
LINES = [
    "j 0x0.0p+0 1 0x1.33d152e971b40p+1 0x1.33d152e971b3fp+1 0x1.33d152e971b40p+1 -0x1.4p-55 2\n",
    "j 0x0.0p+0 2 0x1.6148f5b2c2e45p+2 0x1.6148f5b2c2e45p+2 0x1.6148f5b2c2e46p+2 0x1.8p-54 1\n",
]


def dumps(tmp_path, second):
    a, b = tmp_path / "a.hex", tmp_path / "b.hex"
    a.write_text("".join(LINES), encoding="ascii")
    b.write_text("".join(second), encoding="ascii")
    return a, b


def cli(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b)], capture_output=True, text=True)


def test_identical_dumps_differ_nowhere(tmp_path, capsys):
    a, b = dumps(tmp_path, LINES)
    assert record_dump.compare(a, b, sys.stdout) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 records, ranks identical\n")
    assert "hi: 0 differ" in out and "iterations in total: 3 -> 3\n" in out
    assert cli(a, b).returncode == 0


def test_one_hex_field_moved_is_one_record(tmp_path, capsys):
    # Rank 2's hi moves up one ulp.
    moved = LINES[1].replace("0x1.6148f5b2c2e46p+2", "0x1.6148f5b2c2e47p+2")
    a, b = dumps(tmp_path, [LINES[0], moved])
    assert record_dump.compare(a, b, sys.stdout) == 1
    out = capsys.readouterr().out
    assert "hi: 1 differ, largest move 1 ulps\n" in out and "value: 0 differ" in out
    proc = cli(a, b)
    assert proc.returncode == 1 and "hi: 1 differ" in proc.stdout


def test_dump_matches_the_recorded_hash():
    # Every sampled record keeps the bits whose hash data/record_dump.txt
    # holds. A change that moves one must re-record the file and say which
    # records moved and why.
    out = io.StringIO()
    try:
        count = record_dump.dump(out)
    finally:
        clear_cache()
    now = f"sha256={hashlib.sha256(out.getvalue().encode('ascii')).hexdigest()} records={count}"
    [recorded] = [line for line in RECORDED.read_text(encoding="ascii").splitlines() if not line.startswith("#")]
    assert now == recorded, (
        "records moved: dump the recorded commit's tree and this one, and run"
        " `python tests/record_dump.py --compare parent.hex change.hex` to see which fields moved"
    )
