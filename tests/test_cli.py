import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import bessel_interlace.interlace as imod
import bessel_interlace.zeros as zmod
import fixtures
from cache_view import cached_columns
from bessel_interlace import cli
from bessel_interlace.cli import main, parse_grid, to_json
from bessel_interlace.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZerosCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0", "--smax", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,nu,s,value,bracket_lo,bracket_hi,residual"
        assert len(lines) == 3
        vals = [float(line.split(",")[3]) for line in lines[1:]]
        assert vals[0] == pytest.approx(fixtures.ORACLE_ZEROS[("j", 0.0, 1)], abs=1e-12)
        assert vals[1] == pytest.approx(fixtures.ORACLE_ZEROS[("j", 0.0, 2)], abs=1e-12)

    def test_conventional_jprime_row(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--kind", "jp", "--nu", "0", "--smax", "1")
        assert code == 0
        # j'_{0,1} = 0 with the degenerate bracket [0, 0] and residual 0.
        assert out.strip().split("\n")[1] == "jp,0,1,0,0,0,0"

    def test_domain_error_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "zeros", "--kind", "j", "--nu", "-1", "--smax", "1")
        assert code == 2
        assert "--nu" in err

    def test_bad_kind(self, capsys):
        # The parser owns --kind: only the four ZeroKind values pass, spelled exactly.
        for kind in ["q", "J", "jprime", " j "]:
            zmod.clear_cache()
            code, out, err = run_cli(capsys, "zeros", "--kind", kind, "--nu", "0", "--smax", "1")
            assert (code, out) == (2, ""), kind
            assert err.startswith("usage:") and "argument --kind: invalid choice" in err, kind
            assert zmod._cache == {}, kind

    def test_help_lists_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--help")
        assert code == 0
        assert "--kind {j,y,jp,yp}" in out

    def test_csv_json_same_numbers(self, capsys):
        _, csv_out, _ = run_cli(capsys, "zeros", "--kind", "y", "--nu", "2.5", "--smax", "3")
        _, json_out, _ = run_cli(capsys, "zeros", "--kind", "y", "--nu", "2.5", "--smax", "3", "--format", "json")
        csv_vals = [float(line.split(",")[3]) for line in csv_out.strip().split("\n")[1:]]
        json_vals = [z["value"] for z in json.loads(json_out)["zeros"]]
        assert csv_vals == json_vals


class TestZerosRendering:
    # The zeros table renders each record with one format string; every
    # line must be the per-cell rendering (_csv_line) of the same record.
    HEADER = "kind,nu,s,value,bracket_lo,bracket_hi,residual"

    @pytest.mark.parametrize(
        "kind,nu,smax",
        [("jp", "0", 3), ("j", "0.1", 3), ("y", "600", 3), ("jp", "600", 2), ("yp", "2.5", 1002)],
        ids=["jp-nu0-degenerate-first", "j-nu0.1-non-dyadic", "y-nu600", "jp-nu600", "yp-ranks-past-1000"],
    )
    def test_lines_match_per_cell_rendering_and_out_file(self, capsys, tmp_path, kind, nu, smax):
        argv = ["zeros", "--kind", kind, "--nu", nu, "--smax", str(smax)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        zkind = zmod.ZeroKind(kind)
        records = zmod.zeros_upto(zkind, float(nu), smax)
        expected = [cli._csv_line([zkind.value, float(nu), r.s, r.value, r.lo, r.hi, r.residual]) for r in records]
        assert out.split("\n") == [self.HEADER, *expected, ""]
        target = tmp_path / "zeros.csv"
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_non_dyadic_order_prints_seventeen_digits(self, capsys):
        _, out, _ = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0.1", "--smax", "3")
        assert {line.split(",")[1] for line in out.strip().split("\n")[1:]} == {"0.10000000000000001"}

    def test_small_tables_keep_per_cell_quoting(self):
        assert cli._csv_line(["false", 'a,b "c"', 0.1, 3]) == 'false,"a,b ""c""",0.10000000000000001,3'
        assert cli.to_csv(["a", "b"], iter(["1,2", "# t"])) == "a,b\n1,2\n# t\n"


B = cli._BLOCK
ZEROS_HEADER = "kind,nu,s,value,bracket_lo,bracket_hi,residual"


def whole_zeros_body(fmt, kind, nu, smax):
    """The zeros table as one string, from zeros_upto's records."""
    records = zmod.zeros_upto(zmod.ZeroKind(kind), nu, smax)
    if fmt == "json":
        found = [{"s": r.s, "value": r.value, "bracket_lo": r.lo, "bracket_hi": r.hi, "residual": r.residual} for r in records]
        return to_json({"kind": kind, "nu": nu, "zeros": found})
    lines = [cli._csv_line([kind, nu, r.s, r.value, r.lo, r.hi, r.residual]) for r in records]
    return "\n".join([ZEROS_HEADER, *lines]) + "\n"


def whole_chain_body(fmt, nu, eps, smax):
    """The chain table as one string, from chain_reports."""
    reports = imod.chain_reports(nu, eps, smax)
    all_ok = all(r.ok for r in reports)
    if fmt == "json":
        chains = [
            {"s": r.chain.s, "nodes": list(r.chain.nodes), "gaps": list(r.margins), "ok": r.ok, "first_failure": r.first_failure}
            for r in reports
        ]
        return to_json({"nu": nu, "eps": eps, "chains": chains, "all_ok": all_ok})
    header = ["nu", "eps", "s", *cli._NODE_COLUMNS, *[f"gap_{i}" for i in range(1, 7)], "ok"]
    rows = [[nu, eps, r.chain.s, *r.chain.nodes, *r.margins, str(r.ok).lower()] for r in reports]
    return "\n".join([",".join(header), *map(cli._csv_line, rows)]) + "\n"


class Discard:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def writelines(self, chunks):
        for _ in chunks:
            pass

    def flush(self):
        pass


class TestStreamedOutput:
    # zeros and chain tables are rendered and written _BLOCK rows at a time,
    # after every value is computed; the bytes are those of the whole body.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("smax", [1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("kind,nu", [("j", 0.1), ("yp", 2.5)])
    def test_zeros_bytes_at_block_edges(self, capsys, fmt, smax, kind, nu):
        code, out, err = run_cli(capsys, "zeros", "--kind", kind, "--nu", repr(nu), "--smax", str(smax), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == whole_zeros_body(fmt, kind, nu, smax)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("smax", [1, B + 1])
    def test_chain_bytes_at_block_edges(self, capsys, fmt, smax):
        code, out, err = run_cli(capsys, "chain", "--nu", "0.5", "--eps", "0.5", "--smax", str(smax), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == whole_chain_body(fmt, 0.5, 0.5, smax)

    def test_breaking_chain_keeps_exit_one(self, capsys):
        for fmt in ("csv", "json"):
            code, out, _ = run_cli(capsys, "chain", "--nu", "0", "--eps", "2", "--smax", str(B + 1), "--format", fmt)
            assert code == 1 and out == whole_chain_body(fmt, 0.0, 2.0, B + 1)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ["zeros", "--kind", "y", "--nu", "2.5", "--smax", str(3 * B + 7), "--format", fmt]
        _, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "zeros.out"
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_zeros_computed_before_the_first_chunk(self):
        zmod.clear_cache()
        try:
            args = cli.build_parser().parse_args(["zeros", "--kind", "j", "--nu", "1.5", "--smax", str(2 * B + 1)])
            code, chunks = cli.cmd_zeros(args)
            assert [len(columns[0]) for columns in cached_columns().values()] == [2 * B + 1]
            blocks = list(chunks)
        finally:
            zmod.clear_cache()
        assert code == 0 and blocks[0] == ZEROS_HEADER + "\n"
        assert [block.count("\n") for block in blocks[1:]] == [B, B, 1]

    # Peak minus retained traced memory: the render's transient cost, with the
    # zero cache and whatever else stays alive left out. A whole CSV body
    # takes ~2.6 MB here and a whole JSON body ~6.6 MB.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rendering_memory_is_bounded(self, monkeypatch, fmt):
        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert main(["zeros", "--kind", "y", "--nu", "2.5", "--smax", "10000", "--format", fmt]) == 0
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained < 0.5 * 2**20

    def test_rank_error_prints_nothing_and_creates_no_file(self, capsys, tmp_path):
        target = tmp_path / "zeros.csv"
        code, out, err = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0", "--smax", "10001", "--out", str(target))
        assert (code, out) == (2, "") and "error (--smax)" in err
        assert not target.exists()

    # A chunk that fails to render exits 2 as an internal error; the chunks
    # before it are already written, to stdout or to the --out file.
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_render_failure_after_one_block_keeps_it(self, capsys, monkeypatch, tmp_path, to_file):
        def handler(args):
            def chunks():
                yield "kind\n"
                raise RuntimeError("boom")

            return 0, chunks()

        monkeypatch.setitem(cli._HANDLERS, "zeros", handler)
        target = tmp_path / "zeros.csv"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0", "--smax", "1", *out_args)
        assert code == 2 and err == "bessel-interlace zeros: internal error (RuntimeError): boom\n"
        assert out == ("" if to_file else "kind\n")
        assert not to_file or target.read_text() == "kind\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "zeros", "--kind", "y", "--nu", "2.5", "--smax", str(B + 1), "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("bessel-interlace zeros: error (--out): ") and err.count("\n") == 1

    # On stdout, with Python's default buffering, the rows left in the buffer
    # must not fail a second time at interpreter exit.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("smax", [3, B + 1])
    def test_stdout_write_failure_exits_two_once(self, smax):
        argv = [sys.executable, "-m", "bessel_interlace.cli", "zeros", "--kind", "j", "--nu", "0", "--smax", str(smax)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("bessel-interlace zeros: error (--out): ") and proc.stderr.count("\n") == 1


class TestEarlyClosedStdout:
    # A reader that stops early (``| head -1``) ends the output quietly, with
    # the command's own exit code.
    # 10^4 rows break the pipe mid-table; one row, written to a pipe already
    # closed, breaks it at the final flush, and with buffered stdout that row
    # stays buffered until exit.
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("smax,lines_read", [(10000, 1), (1, 0)])
    def test_subprocess_exits_zero_without_stderr(self, smax, lines_read, unbuffered):
        argv = [sys.executable, "-m", "bessel_interlace.cli", "zeros", "--kind", "y", "--nu", "2.5", "--smax", str(smax)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            for _ in range(lines_read):
                assert proc.stdout.readline() == (ZEROS_HEADER + "\n").encode()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

    def test_in_process_leaves_file_descriptor_one(self, capsys, monkeypatch):
        class ClosedPipe(Discard):
            def writelines(self, chunks):
                next(iter(chunks))
                raise BrokenPipeError(32, "Broken pipe")

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["chain", "--nu", "0", "--eps", "2", "--smax", "5"]) == 1
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        assert capsys.readouterr().err == ""


class TestChainCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--nu", "0.5", "--eps", "0.5", "--smax", "20")
        assert code == 0
        assert all(line.endswith("true") for line in out.strip().split("\n")[1:])

    def test_breaking_sweep_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--nu", "0", "--eps", "2", "--smax", "5")
        assert code == 1
        assert any(line.endswith("false") for line in out.strip().split("\n")[1:])

    def test_zero_eps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--nu", "1", "--eps", "0", "--smax", "5")
        assert code == 2
        assert "--eps" in err


class TestRankCapUpFront:
    # Arguments that would read past the rank cap, or an order nu + eps past
    # NU_MAX, exit 2 naming the flag the caller passed and the values at
    # fault, before any zero is computed.
    @pytest.mark.parametrize(
        "argv,flag,values",
        [
            (["chain", "--nu", "0.5", "--eps", "0.5", "--smax", "10000"], "--smax", "10000"),
            (["verify", "--suite", "proposition", "--nu-grid", "0.5:0.5:1", "--smax", "10000"], "--smax", "10000"),
            (["break", "--nu", "10", "--eps", "1.0000001", "--scap", "20000"], "--scap", "20000"),
            (["chain", "--nu", "0", "--eps", "700", "--smax", "200"], "--eps", "nu=0.0 plus eps=700.0"),
            (["verify", "--suite", "all", "--nu-grid", "0:700:100"], "--nu-grid", "nu=600.0 plus eps=1.0"),
            (["break", "--nu", "0", "--eps", "700"], "--eps", "nu=0.0 plus eps=700.0"),
            (["verify", "--suite", "theorem2", "--nu-grid", "599:599.75:0.25", "--eps-grid", "0.25:0.5:0.25"], "--nu-grid", "nu=599.75 plus eps=0.5"),
            (["wronskian", "--nu", "0", "--mu", "2", "--smax", "10000", "--xmax", "-1"], "--xmax", "got -1.0"),
            (["counterexample", "--eps", "1", "--nu-list", "700", "--s", "0"], "--s", "got 0"),
            # J_0 and Y_2 have their 10^4-th zeros near 31,416, below --xmax.
            (["wronskian", "--nu", "0", "--mu", "2", "--smax", "10000", "--xmax", "40000"], "--xmax", "40000.0"),
            # Each grid is within the cap; their ~9.9e9 (nu, eps) points are not.
            (
                ["verify", "--suite", "theorem2", "--nu-grid", "0:99:0.001", "--eps-grid", "0.00001:1:0.00001"],
                "--nu-grid",
                "--nu-grid times --eps-grid has more than 100000 points, got 99001 x 100000",
            ),
        ],
        ids=[
            "chain",
            "verify-proposition",
            "break",
            "chain-shifted-order",
            "verify-shifted-order",
            "break-shifted-order",
            "verify-eps-grid-top",
            "wronskian-xmax",
            "counterexample-rank-before-order",
            "wronskian-xmax-past-the-cap",
            "verify-grid-product",
        ],
    )
    def test_rejected_before_any_zero(self, capsys, argv, flag, values):
        zmod.clear_cache()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error ({flag})" in err
        assert values in err
        assert zmod._cache == {}


class TestFlagAtFault:
    # Each argv has one bad flag, which the error must name.
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--suite", "all", "--nu-grid", "0:1:1", "--eps-grid", "a:b:c"], "--eps-grid"),
            (["verify", "--suite", "all", "--nu-grid", "0:1:1", "--eps-grid", "0.5:2:0.5"], "--eps-grid"),
            (["verify", "--suite", "theorem2", "--nu-grid", "700:700:1"], "--nu-grid"),
            (["wronskian", "--nu", "0", "--mu", "700"], "--mu"),
            (["counterexample", "--eps", "1", "--nu-list", "0,700", "--s", "1"], "--nu-list"),
            (["verify", "--suite", "all", "--nu-grid=-1e308:1e308:1"], "--nu-grid"),
            (["verify", "--suite", "all", "--nu-grid", "0:1:1", "--eps-grid", "0:1:1e-6"], "--eps-grid"),
            (["verify", "--suite", "all", "--nu-grid", "0:1:1", "--eps-grid", "0:1"], "--eps-grid"),
            (["verify", "--suite", "all", "--nu-grid", "0:1"], "--nu-grid"),
        ],
        ids=[
            "eps-grid-format", "eps-grid-range", "nu-grid-order", "mu-order", "nu-list-order", "nu-grid-overflow",
            "eps-grid-size", "eps-grid-two-parts", "nu-grid-two-parts",
        ],
    )
    def test_error_names_the_flag_at_fault(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error ({flag})" in err
        assert "internal error" not in err


class TestVerifyCommand:
    def test_all_suite_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--nu-grid", "0:2:0.5", "--smax", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "all"
        assert doc["violations"] == []
        assert doc["grid"]["smax"] == 5

    def test_proposition_exemption_notes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "proposition", "--nu-grid", "0:0:1", "--smax", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert any(n["suite"] == "proposition" for n in doc["exemptions"])

    def test_bogus_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "bogus", "--nu-grid", "0:1:1")
        assert (code, out) == (2, "")
        assert "argument --suite: invalid choice: 'bogus'" in err

    def test_csv_format_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--nu-grid", "0:1:1", "--format", "csv")
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err

    # The substitution harness and the benchmark tracer rely on verify
    # looking its suite check up on ``interlace`` at each call.
    @pytest.mark.parametrize("suite", ["theorem1", "proposition", "derivative-chains", "theorem2"])
    def test_suite_checks_looked_up_at_call_time(self, capsys, monkeypatch, suite):
        calls = []
        monkeypatch.setattr(imod, "check_suite", lambda *a: calls.append(a) or [])
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--nu-grid", "0.5:0.5:1", "--eps-grid", "1:1:1", "--smax", "2")
        assert (code, calls) == (0, [(suite, 0.5, 1.0, 2)])
        assert json.loads(out)["violations"] == []

    # Grid points outermost: every suite reads an order's sequences in turn,
    # so a cache bounded to a few orders' sequences builds each once.
    def test_grid_points_outermost(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(imod, "check_suite", lambda *a: calls.append(a[:3]) or [])
        code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--nu-grid", "0:1:0.5", "--eps-grid", "0.5:1:0.5", "--smax", "2")
        per_order = [("theorem1", 1.0), ("proposition", 1.0), ("derivative-chains", 0.5), ("derivative-chains", 1.0),
                     ("theorem2", 0.5), ("theorem2", 1.0)]
        assert (code, calls) == (0, [(suite, nu, eps) for nu in (0.0, 0.5, 1.0) for suite, eps in per_order])

    # BESSEL_INTERLACE_THREADS does not override the flag.
    @pytest.mark.parametrize("flag,env", [("0", None), ("0", "4")])
    def test_bad_thread_count_exits_two(self, capsys, monkeypatch, flag, env):
        args = ["verify", "--suite", "theorem2", "--nu-grid", "0:0:1", "--smax", "1", "--threads", flag]
        if env is not None:
            monkeypatch.setenv("BESSEL_INTERLACE_THREADS", env)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert "--threads" in err
        assert "usage:" in err and "argument --threads: must be >= 1, got 0" in err

    # The (nu, eps) points are capped as each grid is; the eps grid counts
    # only where a selected suite reads it.
    def test_grid_product_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_GRID_MAX_POINTS", 164)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--nu-grid", "0:10:0.25", "--smax", "20")
        assert code == 0 and json.loads(out)["violations"] == []
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--nu-grid", "0:10.25:0.25", "--smax", "20")
        assert (code, out) == (2, "")
        assert err.endswith("error (--nu-grid): --nu-grid times --eps-grid has more than 164 points, got 42 x 4\n")
        wide = ("--nu-grid", "0:1:1", "--eps-grid", "0.01:1:0.01", "--smax", "2")
        code, out, _ = run_cli(capsys, "verify", "--suite", "proposition", *wide)
        assert code == 0 and len(json.loads(out)["grid"]["eps"]) == 100
        code, out, err = run_cli(capsys, "verify", "--suite", "derivative-chains", *wide)
        assert (code, out) == (2, "")
        assert "got 2 x 100" in err

    def test_same_bytes_cold_warm_and_with_two_threads(self, capsys):
        args = ("verify", "--suite", "theorem2", "--nu-grid", "0:3:0.5", "--smax", "6")
        zmod.clear_cache()
        cold = run_cli(capsys, *args)
        warm = run_cli(capsys, *args)
        threaded = run_cli(capsys, *args, "--threads", "2")
        assert cold[0] == 0
        assert cold == warm == threaded


class TestBreakCommand:
    def test_finds_rank_one(self, capsys):
        code, out, _ = run_cli(capsys, "break", "--nu", "0", "--eps", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["s"] == 1
        assert doc["y_value"] - doc["j_value"] == pytest.approx(fixtures.BREAK_GAP_NU0_EPS2, abs=1e-9)

    def test_larger_order_needs_higher_rank(self, capsys):
        code, out, _ = run_cli(capsys, "break", "--nu", "10", "--eps", "1.25", "--scap", "500", "--format", "json")
        assert code == 0
        assert json.loads(out)["s"] > 1

    def test_eps_below_regime(self, capsys):
        code, _, err = run_cli(capsys, "break", "--nu", "0", "--eps", "0.5")
        assert code == 2
        assert "--eps" in err

    def test_cap_exhausted_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "break", "--nu", "10", "--eps", "1.25", "--scap", "2", "--format", "json")
        assert code == 1
        assert json.loads(out)["found"] is False


# A search that ends without its witness prints the not-found body, on
# stdout or in the --out file, and exits 1 with nothing on stderr.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["break", "--nu", "10", "--eps", "1.25", "--scap", "2"], "NOT_FOUND_WITHIN_CAP"),
        (["counterexample", "--eps", "0.1", "--nu-list", "0.5,5", "--s", "1"], "ONLY_ONE_ORDERING"),
    ],
    ids=["break", "counterexample"],
)
def test_search_not_found_body(capsys, tmp_path, argv, code, fmt):
    exit_code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (exit_code, err) == (1, "")
    if fmt == "json":
        doc = json.loads(out)
        assert (doc["found"], doc["code"]) == (False, code)
    else:
        assert out.startswith("found,error\nfalse,")
    target = tmp_path / "body"
    assert run_cli(capsys, *argv, "--format", fmt, "--out", str(target)) == (1, "", "")
    assert target.read_bytes() == out.encode("utf-8")


class TestWronskianCommand:
    def test_small_gap_profile(self, capsys):
        code, out, _ = run_cli(capsys, "wronskian", "--nu", "0", "--mu", "0.5", "--smax", "10")
        assert code == 0
        assert "# all_same_sign=true" in out
        assert "first_zero=none" in out

    def test_wide_gap_has_zero(self, capsys):
        code, out, _ = run_cli(capsys, "wronskian", "--nu", "0", "--mu", "2", "--smax", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["first_zero"] == pytest.approx(fixtures.W_0_2_FIRST_ZERO, abs=1e-9)

    def test_equal_orders_rejected(self, capsys):
        code, _, err = run_cli(capsys, "wronskian", "--nu", "1", "--mu", "1")
        assert code == 2

    # W overflows on all of (0, 1e-120], below every critical point: the
    # fault is --xmax's, not the orders'. At 1e-100 W is evaluable there.
    def test_x_max_below_every_critical_point_names_xmax(self, capsys):
        code, out, err = run_cli(capsys, "wronskian", "--nu", "0", "--mu", "2", "--xmax", "1e-120")
        assert (code, out) == (2, "")
        assert err.startswith("bessel-interlace wronskian: error (--xmax): ") and "x_max=1e-120" in err
        code, out, _ = run_cli(capsys, "wronskian", "--nu", "0", "--mu", "2", "--xmax", "1e-100")
        assert code == 0 and out.endswith(" first_zero=none\n")


class TestCounterexampleCommand:
    def test_both_orderings(self, capsys):
        code, out, _ = run_cli(
            capsys, "counterexample", "--eps", "1", "--nu-list", "0,599", "--s", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        orders = {w["ordering"]: w["nu"] for w in doc["witnesses"]}
        assert orders == {"greater": 0.0, "less": 599.0}

    def test_single_ordering_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "counterexample", "--eps", "0.1", "--nu-list", "0.5,5", "--s", "1")
        assert code == 1

    def test_bad_nu_list(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", "--eps", "0.1", "--nu-list", "a,b", "--s", "1")
        assert code == 2

    def test_empty_nu_list(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", "--eps", "0.1", "--nu-list", ",", "--s", "1")
        assert (code, out) == (2, "")
        assert "error (--nu-list)" in err

    def test_empty_nu_list_rejected_by_the_library(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", "--nu-list", ",", "--eps", "1", "--s", "1")
        assert (code, out) == (2, "")
        assert "error (--nu-list)" in err and "nu_list must be nonempty" in err


class TestHarness:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_malformed_number_exits_two(self, capsys):
        assert main(["zeros", "--kind", "j", "--nu", "abc", "--smax", "1"]) == 2

    def test_no_arguments_exits_two(self, capsys):
        assert main([]) == 2

    def test_internal_error_names_exception_type(self, capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "zeros", broken)
        code, out, err = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0", "--smax", "1")
        assert (code, out) == (2, "")
        assert "internal error (RuntimeError): boom" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "theorem2", "--nu-grid", "0:1:0.5", "--smax", "0"],
            ["verify", "--suite", "derivative-chains", "--nu-grid", "0:1:0.5", "--smax", "0"],
            ["verify", "--suite", "all", "--nu-grid", "0:1:0.5", "--smax", "0"],
            ["chain", "--nu", "1", "--eps", "0.5", "--smax", "0"],
            ["zeros", "--kind", "j", "--nu", "0", "--smax", "0"],
            ["wronskian", "--nu", "0", "--mu", "2", "--smax", "0"],
        ],
        ids=["verify-theorem2", "verify-derivative-chains", "verify-all", "chain", "zeros", "wronskian"],
    )
    def test_smax_below_one_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error (--smax)" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "zeros.csv"
        code = main(["zeros", "--kind", "j", "--nu", "0", "--smax", "1", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        data = target.read_bytes()
        assert data.endswith(b"\n")
        assert b"\r" not in data

    # An --out path that cannot be written is bad input: exit 2 with one
    # stderr line that names the flag, never a traceback (exit 1 is kept
    # for a mathematical violation).
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_exits_two(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0", "--smax", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("bessel-interlace zeros: error (--out): ") and err.count("\n") == 1
        assert str(target) in err

    def test_seventeen_digit_round_trip(self):
        import math

        rendered = to_json({"x": math.pi})
        assert json.loads(rendered)["x"] == math.pi

    def test_non_finite_floats_render_as_strings(self):
        # A violation can carry a saturated value, and JSON has no inf or nan.
        assert to_json([float("inf"), float("-inf"), float("nan")]) == '["inf", "-inf", "nan"]\n'

    def test_grid_parsing(self):
        assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
        assert parse_grid("2:2:1") == [2.0]
        with pytest.raises(Exception):
            parse_grid("1:0:0.5")

    def test_grid_size_capped_before_building(self):
        assert len(parse_grid("0:99999:1")) == 100_000
        for text in ("0:100000:1", "0:1:1e-6", "0:1", "a:1:1", "0:inf:1", "nan:1:1", "0:1:0", "0:1:-1"):
            with pytest.raises(DomainError) as info:
                parse_grid(text)
            assert info.value.code == "DOMAIN_GRID"

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bessel_interlace.cli", "zeros", "--kind", "y", "--nu", "0.5", "--smax", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("kind,nu,s,value")
