"""Command-line front end.

Subcommands: zeros, chain, verify, break, wronskian, counterexample.
Exit codes: 0 all checks passed, 1 mathematical violation found (or a
requested witness was not found), 2 usage or domain error. Numbers are
emitted with 17 significant digits in both CSV and JSON, which
round-trips IEEE doubles exactly, so identical flags produce
byte-identical output. Every command runs serially; ``--threads`` is
accepted for compatibility, and the parser rejects a value below 1.

A handler computes every value, then returns its exit code and its
output as chunks of text, which ``main`` writes to stdout or ``--out``:
the ``zeros`` and ``chain`` tables render _BLOCK rows a chunk. A write
that fails part way exits 2 and keeps what was written; a reader that
closes stdout early ends the output with the command's own exit code.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from itertools import islice

from . import evaluate as ev
from . import interlace, wronskian
from .errors import BesselInterlaceError, DomainError, SearchError
from .zeros import ZeroKind, drop_orders_below, zeros_upto


# --- number / structure formatting -----------------------------------------

def fmt(x) -> str:
    """17-significant-digit decimal rendering (lossless for doubles);
    non-finite floats read nan, inf, -inf."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _json(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ", ".join(f'"{k}": {_json(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, float) and not math.isfinite(obj):
        return f'"{fmt(obj)}"'
    return fmt(obj)


def to_json(obj) -> str:
    """Deterministic JSON with insertion-ordered keys and 17-digit floats."""
    return _json(obj) + "\n"


_BLOCK = 64  # rows per chunk of the zeros and chain tables; a chunk's copies peak at ~30 KB (CSV), ~44 KB (JSON)


def _blocks(items: Iterable[str]) -> Iterator[list[str]]:
    it = iter(items)
    while block := list(islice(it, _BLOCK)):
        yield block


def _json_blocks(obj: dict, key: str) -> Iterator[str]:
    """``to_json(obj)``, where ``obj[key]`` is an iterable of records, _BLOCK records at a time."""
    head, tail = _json({**obj, key: []}).split(f'"{key}": []')
    yield f'{head}"{key}": ['
    for i, block in enumerate(_blocks(map(_json, obj[key]))):
        yield (", " if i else "") + ", ".join(block)
    yield f"]{tail}\n"


def _csv_cell(value) -> str:
    if isinstance(value, str) and any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return fmt(value)


def _csv_line(row) -> str:
    """One CSV line, each cell quoted if needed and rendered by ``fmt``."""
    return ",".join(_csv_cell(c) for c in row)


def _csv_blocks(header: list[str], lines: Iterable[str]) -> Iterator[str]:
    """The header, then the already rendered lines, _BLOCK at a time."""
    yield ",".join(header) + "\n"
    for block in _blocks(lines):
        yield "\n".join(block) + "\n"


def to_csv(header: list[str], lines: Iterable[str]) -> str:
    """The header and the already rendered lines, one per line."""
    return "".join(_csv_blocks(header, lines))


# --- argument parsing -------------------------------------------------------

# A `verify --suite all` grid point costs 2-7 ms after import (2-vCPU Xeon,
# --smax 20), so a grid this large already runs for several minutes.
_GRID_MAX_POINTS = 100_000


def parse_grid(text: str) -> list[float]:
    """Parse lo:hi:step, endpoints inclusive within half a step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be lo:hi:step, got {text!r}", code="DOMAIN_GRID")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"grid components must be numbers, got {text!r}", code="DOMAIN_GRID")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise DomainError(f"grid components must be finite, got {text!r}", code="DOMAIN_GRID")
    if hi < lo:
        raise DomainError(f"grid needs hi >= lo, got {text!r}", code="DOMAIN_GRID")
    if hi == lo:
        return [lo]
    if step <= 0.0:
        raise DomainError(f"grid step must be positive, got {text!r}", code="DOMAIN_GRID")
    # Counted before any list is built; an infinite span is rejected too.
    span = (hi - lo) / step + 0.5
    if not span < _GRID_MAX_POINTS:
        raise DomainError(f"grid has more than {_GRID_MAX_POINTS} points, got {text!r}", code="DOMAIN_GRID")
    n = int(math.floor(span))
    points = [lo + i * step for i in range(n + 1)]
    if points and points[-1] > hi + 0.5 * step:
        points.pop()
    return points


def parse_nu_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise DomainError(f"--nu-list must be comma-separated numbers, got {text!r}", code="DOMAIN_NU")


def _recode(code: str, check, *args):
    """check(*args), with any DomainError it raises re-raised under ``code``.

    Names the right flag where two flags of one command share a check.
    """
    try:
        return check(*args)
    except DomainError as exc:
        raise DomainError(str(exc), code=code) from None


def thread_count(text: str) -> int:
    """--threads as an int; below 1, argparse's usage error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


# --- subcommand handlers ----------------------------------------------------

def cmd_zeros(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    kind = ZeroKind(args.kind)
    table = zeros_upto(kind, args.nu, args.smax)
    if args.format == "json":
        found = ({"s": s, "value": v, "bracket_lo": lo, "bracket_hi": hi, "residual": r} for s, v, lo, hi, r in table.rows())
        return 0, _json_blocks({"kind": kind.value, "nu": args.nu, "zeros": found}, "zeros")
    # One row template: every field but s is a float, and "%.17g" renders
    # a float exactly as format(x, ".17g"), which fmt calls.
    template = f"{kind.value},{fmt(args.nu)},%d,%.17g,%.17g,%.17g,%.17g"
    header = ["kind", "nu", "s", "value", "bracket_lo", "bracket_hi", "residual"]
    return 0, _csv_blocks(header, (template % row for row in table.rows()))


_NODE_COLUMNS = [label.translate(str.maketrans("(,", "__", "+)")) for label in interlace.CHAIN_LABELS]


def cmd_chain(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    reports = interlace.chain_reports(args.nu, args.eps, args.smax)
    all_ok = all(r.ok for r in reports)
    code = 0 if all_ok else 1
    if args.format == "json":
        chains = (
            {"s": r.chain.s, "nodes": list(r.chain.nodes), "gaps": list(r.margins), "ok": r.ok, "first_failure": r.first_failure}
            for r in reports
        )
        return code, _json_blocks({"nu": args.nu, "eps": args.eps, "chains": chains, "all_ok": all_ok}, "chains")
    rows = ([args.nu, args.eps, r.chain.s, *r.chain.nodes, *r.margins, str(r.ok).lower()] for r in reports)
    header = ["nu", "eps", "s", *_NODE_COLUMNS, *[f"gap_{i}" for i in range(1, 7)], "ok"]
    return code, _csv_blocks(header, map(_csv_line, rows))


_SUITES = (*interlace.SUITES, "all")


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    suites = {name: rules for name, rules in interlace.SUITES.items() if args.suite in (name, "all")}
    nu_grid = parse_grid(args.nu_grid)
    eps_grid = _recode("DOMAIN_EPS", parse_grid, args.eps_grid)
    if any(rules.eps is None for rules in suites.values()) and len(nu_grid) * len(eps_grid) > _GRID_MAX_POINTS:
        raise DomainError(
            f"--nu-grid times --eps-grid has more than {_GRID_MAX_POINTS} points, got {len(nu_grid)} x {len(eps_grid)}",
            code="DOMAIN_GRID",
        )
    for eps in eps_grid:
        interlace.check_eps(eps)
    # Every order read, nu and nu + eps, is checked before any zero is computed.
    top_eps = max(rules.eps or max(eps_grid) for rules in suites.values())
    for nu in nu_grid:
        _recode("DOMAIN_NU", ev.check_orders, nu, top_eps)

    # Grid points outermost, so every suite reads an order's sequences in turn; the sorts below fix the output order.
    # Point nu reads orders nu and nu + eps only, and the grid ascends, so the orders below nu are dropped.
    violations, notes = [], []
    for nu in nu_grid:
        drop_orders_below(nu)
        for name, rules in suites.items():
            for eps in eps_grid if rules.eps is None else (rules.eps,):
                violations += [(name, w) for w in interlace.check_suite(name, nu, eps, args.smax)]
                if rules.note and nu == 0.0 and eps == 1.0:
                    notes.append({"suite": name, "nu": nu, "note": rules.note})
    violations.sort(key=lambda sw: (sw[0], sw[1].nu, sw[1].eps, sw[1].s, sw[1].left_label))
    notes.sort(key=lambda n: (n["suite"], n["nu"]))

    body = {
        "suite": args.suite,
        "grid": {"nu": nu_grid, "eps": eps_grid, "smax": args.smax},
        "violations": [dict(asdict(w), suite=s) for s, w in violations],
        "exemptions": notes,
    }
    return (0 if not violations else 1), [to_json(body)]


def _not_found(output_format: str, exc: SearchError) -> str:
    """The body a search command prints when its witness is not found."""
    if output_format == "json":
        return to_json({"found": False, "error": str(exc), "code": exc.code})
    return to_csv(["found", "error"], [_csv_line(["false", str(exc)])])


def cmd_break(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    w = interlace.find_breaking(args.nu, args.eps, args.scap)
    row = {"nu": w.nu, "eps": w.eps, "s": w.s, "y_value": w.left_value, "j_value": w.right_value}
    if args.format == "json":
        return 0, [to_json({"found": True, **row})]
    return 0, [to_csv(list(row), [_csv_line(row.values())])]


def cmd_wronskian(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    _recode("DOMAIN_MU", ev.check_order, args.mu)
    wronskian.check_x_max(args.xmax)
    profile = wronskian.profile_extrema(args.nu, args.mu, args.smax)
    first_zero = wronskian.has_positive_zero(args.nu, args.mu, args.xmax)
    if args.format == "json":
        body = {
            "nu": args.nu,
            "mu": args.mu,
            "samples": [{"x": x, "w": w, "source": src} for x, w, src in profile.samples],
            "all_same_sign": profile.all_same_sign,
            "min_abs": profile.min_abs,
            "first_zero": first_zero,
        }
        return 0, [to_json(body)]
    lines = [_csv_line(sample) for sample in profile.samples]
    lines.append(
        f"# all_same_sign={str(profile.all_same_sign).lower()}"
        f" min_abs={fmt(profile.min_abs)}"
        f" first_zero={fmt(first_zero) if first_zero is not None else 'none'}"
    )
    return 0, [to_csv(["x", "w", "source"], lines)]


def cmd_counterexample(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    nu_list = parse_nu_list(args.nu_list)
    greater, less = interlace.counterexample_scan(args.eps, nu_list, args.s, pair=args.pair)
    witnesses = [("greater", greater), ("less", less)]
    if args.format == "json":
        records = [dict(asdict(w), ordering=tag) for tag, w in witnesses]
        return 0, [to_json({"pair": args.pair, "eps": args.eps, "s": args.s, "witnesses": records})]
    rows = [[tag, w.nu, w.eps, w.s, w.left_label, w.left_value, w.right_label, w.right_value] for tag, w in witnesses]
    header = ["ordering", "nu", "eps", "s", "left_label", "left_value", "right_label", "right_value"]
    return 0, [to_csv(header, map(_csv_line, rows))]


_HANDLERS = {
    "zeros": cmd_zeros,
    "chain": cmd_chain,
    "verify": cmd_verify,
    "break": cmd_break,
    "wronskian": cmd_wronskian,
    "counterexample": cmd_counterexample,
}

# Best-effort mapping from domain-error codes to the offending flag.
_CODE_FLAGS = {
    "DOMAIN_NU": "--nu",
    "OVERFLOW_NU": "--nu",
    "DOMAIN_MU": "--mu",
    "DOMAIN_X": "--xmax",
    "DOMAIN_S": "--smax",
    "DOMAIN_EPS": "--eps",
    "DOMAIN_GRID": "--nu-grid",
}
_CODE_FLAGS_PER_COMMAND = {
    ("break", "DOMAIN_S"): "--scap",
    ("counterexample", "DOMAIN_S"): "--s",
    ("counterexample", "DOMAIN_NU"): "--nu-list",
    ("counterexample", "OVERFLOW_NU"): "--nu-list",
    ("verify", "DOMAIN_NU"): "--nu-grid",
    ("verify", "DOMAIN_EPS"): "--eps-grid",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bessel-interlace",
        description="Bessel zero tables, interlacing verification, and Wronskian profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("csv", "json")):
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default="-", help="output path, or - for stdout")
        sp.add_argument("--threads", type=thread_count, default=None, help="ignored (every command runs serially); must be >= 1")

    sp = sub.add_parser("zeros", help="tabulate zeros of one kind and order")
    sp.add_argument("--kind", choices=[kind.value for kind in ZeroKind], required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--smax", type=int, required=True)
    common(sp)

    sp = sub.add_parser("chain", help="seven-node interlacing chains for s = 1..smax")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--smax", type=int, required=True)
    common(sp)

    sp = sub.add_parser("verify", help="run inequality sweeps over an order grid")
    sp.add_argument("--suite", choices=_SUITES, required=True)
    sp.add_argument("--nu-grid", dest="nu_grid", required=True, help="lo:hi:step")
    sp.add_argument("--eps-grid", dest="eps_grid", default="0.25:1.0:0.25", help="lo:hi:step, in (0,1]")
    sp.add_argument("--smax", type=int, default=20)
    common(sp, formats=("json",))

    sp = sub.add_parser("break", help="find the rank where an eps>1 chain breaks")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--scap", type=int, default=500)
    common(sp)

    sp = sub.add_parser("wronskian", help="cross-order Wronskian extremal profile")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--smax", type=int, default=10)
    sp.add_argument("--xmax", type=float, default=60.0)
    common(sp)

    sp = sub.add_parser("counterexample", help="witness both orderings of an unchained pair")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--nu-list", dest="nu_list", required=True, help="comma-separated orders")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--pair", choices=tuple(interlace.PAIRS), default="jp-vs-y")
    common(sp)

    return parser


def _fail(command: str, what: str, exc: Exception, code: int = 2) -> int:
    print(f"bessel-interlace {command}: {what}: {exc}", file=sys.stderr)
    return code


def _write_stdout(chunks: Iterable[str]) -> None:
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # What is still buffered can never be written, and Python's flush of
        # sys.stdout at exit would report it again, so the stream is let go;
        # file descriptor 1 itself is left as it is.
        sys.stdout = None
        if not isinstance(exc, BrokenPipeError):  # a gone reader (``| head``) ends the output quietly
            raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code or 0)
    try:
        code, chunks = _HANDLERS[args.command](args)
    except SearchError as exc:  # a search without its witness prints the not-found body
        code, chunks = 1, [_not_found(args.format, exc)]
    except DomainError as exc:
        flag = _CODE_FLAGS_PER_COMMAND.get((args.command, exc.code)) or _CODE_FLAGS.get(exc.code, "")
        return _fail(args.command, f"error ({flag})" if flag else "error", exc)
    except BesselInterlaceError as exc:
        return _fail(args.command, f"error ({exc.code})", exc, code=1)
    except Exception as exc:  # malformed input must never escape as a traceback
        return _fail(args.command, f"internal error ({type(exc).__name__})", exc)
    # Every zero is computed by now; the chunks render as they are written.
    try:
        if args.out == "-":
            _write_stdout(chunks)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
    except OSError as exc:  # a path that cannot be written is bad input, not a violation
        return _fail(args.command, "error (--out)", exc)
    except Exception as exc:  # a chunk that fails to render; the ones before it stay written
        return _fail(args.command, f"internal error ({type(exc).__name__})", exc)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
