"""Tests of the benchmark's own arithmetic, tracer and output checks."""

from __future__ import annotations

import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

from bessel_interlace import cli, zeros  # noqa: E402


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0 and err.getvalue() == ""
    return out.getvalue()


# --- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    s = [
        Span(1, "cli.main", None, 1, 0.0, 10.0),
        Span(2, "interlace", 1, 1, 1.0, 4.0),
        Span(3, "zeros.lookup", 2, 1, 2.0, 3.0),
        # A pool thread's span overlaps the first child; overlap counts once.
        Span(4, "interlace", 1, 2, 3.0, 6.0),
    ]
    selfs = spans.self_times(s)
    assert selfs["cli.main"] == pytest.approx(10.0 - 5.0)
    assert selfs["interlace"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert selfs["zeros.lookup"] == pytest.approx(1.0)


def test_self_time_clips_children_to_parent():
    s = [Span(1, "cli.main", None, 1, 0.0, 2.0), Span(2, "interlace", 1, 2, 1.5, 3.0)]
    assert spans.self_times(s)["cli.main"] == pytest.approx(1.5)


def test_hit_ratio_counts_lookups_without_walk_or_refine_below():
    s = [
        Span(1, "cli.main", None, 1, 0, 10),
        Span(2, "zeros.lookup", 1, 1, 0, 1),  # miss: walk beneath
        Span(3, "zeros.walk", 2, 1, 0, 0.5),
        Span(4, "zeros.lookup", 1, 1, 1, 2),  # hit
        Span(5, "zeros.lookup", 1, 1, 2, 4),  # miss: refine two levels down
        Span(6, "zeros.lookup", 5, 1, 2, 3),  # miss
        Span(7, "zeros.refine", 6, 1, 2, 2.5),
    ]
    assert spans.lookup_hits(s) == (1, 4)
    m = spans.summarize(s, Counter(), sequences=2, missing=[])
    assert m["zeros.cache.hit_ratio"] == pytest.approx(0.25)
    assert m["zeros.lookup.calls"] == 4
    assert m["zeros.lookup.self_s"] == pytest.approx(0.5 + 1 + (2 - 1) + 0.5)


def test_summary_leaves_out_metrics_of_missing_targets():
    s = [Span(1, "cli.main", None, 1, 0, 1)]
    m = spans.summarize(s, Counter(), sequences=0, missing=["zeros.refine", "zeros.initial_bracket"])
    assert "zeros.refine.calls" not in m and "zeros.iters_per_zero" not in m
    assert "zeros.cache.hit_ratio" not in m
    assert m["zeros.lookup.calls"] == 0 and "cli.self_s" in m


def test_tracer_sees_calls_through_imported_names_and_uninstalls():
    original = cli.zeros_upto
    zeros.clear_cache()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.zeros_upto is not original
        run_cli(["zeros", "--kind", "j", "--nu", "0.5", "--smax", "3"])
    finally:
        tracer.uninstall()
        zeros.clear_cache()
    assert cli.zeros_upto is original and tracer.missing == []
    names = Counter(sp.name for sp in tracer.spans())
    assert names["cli.main"] == 1 and names["zeros.lookup"] == 1
    assert names["zeros.walk"] == 3 and names["zeros.refine"] == 3
    counts = tracer.counts()
    assert counts["evaluate.calls.j"] > 0
    assert counts["zeros.walk.evals"] + counts["zeros.refine.evals"] == sum(
        counts[f"evaluate.calls.{k}"] for k in spans.EVAL_KINDS
    )
    assert tracer.sequence_keys() == {(zeros.ZeroKind.J, 0.5)}


# --- workloads ---------------------------------------------------------------

def test_default_seed_gives_the_canonical_commands():
    assert workloads.commands("verify-sweep", 0) == [
        ["verify", "--suite", "all", "--nu-grid", "0:10:0.25", "--smax", "20"]
    ]
    assert workloads.commands("verify-sweep-t2", 0)[0][-2:] == ["--threads", "2"]
    assert workloads.commands("zeros-long", 0) == [["zeros", "--kind", "y", "--nu", "2.5", "--smax", "10000"]]
    mix = workloads.commands("search-mix", 0)
    assert mix[0] == ["break", "--nu", "10", "--eps", "1.001", "--scap", "10000"]
    assert mix[1][4].startswith("400,401,") and mix[1][4].endswith(",600")


def test_seeds_are_reproducible_and_in_range():
    for seed in range(1, 30):
        assert workloads.commands("search-mix", seed) == workloads.commands("search-mix", seed)
        nu = float(workloads.commands("zeros-long", seed)[0][4])
        assert 2.0 <= nu <= 3.0
        start = float(workloads.commands("verify-sweep", seed)[0][4].split(":")[0])
        assert 0.0 <= start < 0.25
        first = int(workloads.commands("search-mix", seed)[1][4].split(",")[0])
        assert 395 <= first <= 405


# --- output checks -----------------------------------------------------------

@pytest.fixture(scope="module")
def zeros_table() -> str:
    zeros.clear_cache()
    return run_cli(["zeros", "--kind", "y", "--nu", "2.5", "--smax", "60"])


def _edit_row(table: str, row: int, column: int, fn) -> str:
    lines = table.splitlines()
    cells = lines[row].split(",")
    cells[column] = fn(cells[column])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_zeros_check_accepts_the_table(zeros_table):
    assert checks.check_zeros_table(zeros_table, "y", 2.5, 60) == []


def test_zeros_check_rejects_a_bracket_nudged_off_its_sign_change(zeros_table):
    # Both ends moved past the zero: same sign at each end.
    bad = _edit_row(zeros_table, 20, 4, lambda v: repr(float(v) + 0.5))
    bad = _edit_row(bad, 20, 5, lambda v: repr(float(v) + 0.5))
    problems = checks.check_zeros_table(bad, "y", 2.5, 60)
    assert any("straddle" in p for p in problems)


def test_zeros_check_rejects_a_rank_shifted_by_one(zeros_table):
    # Rows 30..60 relabelled s+1: strictly increasing, but off by one.
    lines = zeros_table.splitlines()
    for row in range(30, 61):
        cells = lines[row].split(",")
        cells[2] = str(int(cells[2]) + 1)
        lines[row] = ",".join(cells)
    problems = checks.check_zeros_table("\n".join(lines) + "\n", "y", 2.5, 60)
    assert problems and any("rank" in p for p in problems)
    one = _edit_row(zeros_table, 45, 2, lambda v: str(int(v) + 1))
    assert checks.check_zeros_table(one, "y", 2.5, 60)


def test_zeros_check_rejects_a_skipped_zero(zeros_table):
    # Drop the 20th zero and renumber: only the grid sign-change count sees it.
    lines = zeros_table.splitlines()
    del lines[20]
    for row in range(20, 60):
        cells = lines[row].split(",")
        cells[2] = str(row)
        lines[row] = ",".join(cells)
    problems = checks.check_zeros_table("\n".join(lines) + "\n", "y", 2.5, 59)
    assert len(problems) == 1 and "sign changes" in problems[0]


@pytest.fixture(scope="module")
def break_witness() -> str:
    zeros.clear_cache()
    return run_cli(["break", "--nu", "10", "--eps", "1.25", "--scap", "500"])


def test_break_check_accepts_the_witness(break_witness):
    assert checks.check_break(break_witness, 10.0, 1.25) == []


def test_break_check_rejects_corrupted_witnesses(break_witness):
    later = _edit_row(break_witness, 1, 2, lambda v: str(int(v) + 1))
    assert checks.check_break(later, 10.0, 1.25)
    swapped_lines = break_witness.splitlines()
    cells = swapped_lines[1].split(",")
    cells[3], cells[4] = cells[4], cells[3]
    swapped = swapped_lines[0] + "\n" + ",".join(cells) + "\n"
    assert checks.check_break(swapped, 10.0, 1.25)
    earlier = _edit_row(break_witness, 1, 2, lambda v: str(int(v) - 1))
    assert checks.check_break(earlier, 10.0, 1.25)
    # A true y > j pair, but one rank past the first break.
    s = int(break_witness.splitlines()[1].split(",")[2]) + 1
    y = checks.zero_of_rank(lambda x: checks.yv(11.25, x), 10.0 * s + 40, s)
    j = checks.zero_of_rank(lambda x: checks.jv(10.0, x), 10.0 * s + 40, s)
    assert y > j
    not_first = f"nu,eps,s,y_value,j_value\n10,1.25,{s},{y!r},{j!r}\n"
    assert any("already" in p for p in checks.check_break(not_first, 10.0, 1.25))


def test_counterexample_and_wronskian_checks():
    zeros.clear_cache()
    argv = ["counterexample", "--eps", "1", "--nu-list", "400,508", "--s", "1", "--pair", "jp-vs-y"]
    out = run_cli(argv)
    assert checks.check_command(argv, 0, out, "") == []
    flipped = out.replace("greater", "tmp").replace("less", "greater").replace("tmp", "less")
    assert checks.check_command(argv, 0, flipped, "")

    argv = ["wronskian", "--nu", "0", "--mu", "2", "--smax", "10", "--xmax", "60"]
    out = run_cli(argv)
    assert checks.check_command(argv, 0, out, "") == []
    first = out.splitlines()[-1].split("first_zero=")[1]
    moved = out.replace(f"first_zero={first}", f"first_zero={float(first) + 0.1!r}")
    assert checks.check_command(argv, 0, moved, "")


def test_command_check_counts_exit_codes_and_stderr():
    argv = ["verify", "--suite", "all", "--nu-grid", "0:0.25:0.25", "--smax", "2"]
    zeros.clear_cache()
    out = run_cli(argv)
    assert checks.check_command(argv, 0, out, "") == []
    assert checks.check_command(argv, 1, out, "")
    assert checks.check_command(argv, 0, out, "warning\n")
    violated = out.replace('"violations": []', '"violations": [{"suite": "theorem1"}]')
    assert checks.check_command(argv, 0, violated, "")
    zargv = ["zeros", "--kind", "y", "--nu", "2.5", "--smax", "1"]
    assert "malformed" in checks.check_command(zargv, 0, "kind,nu,s,value,bracket_lo,bracket_hi,residual\ny,2.5,x,1,1,1,0\n", "")[0]
