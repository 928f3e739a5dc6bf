"""Output checks for the benchmark's CLI commands.

Independent of the library's root finding: zeros are located here by
vectorized scipy on a uniform grid plus plain bisection, and ranks by
counting grid sign changes from near x = 0. Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.special import jv, jvp, yv, yvp

# Well below the smallest spacing of consecutive zeros of any one family
# on the orders used here (about 2.4), so no cell holds two sign changes.
GRID_STEP = 0.25
GRID_START = 1e-3

#: Residual bound the zero tables promise, relative to max(1, x).
RESID_TOL = 1e-10

#: Agreement demanded between a reported zero and the one located here.
MATCH_TOL = 1e-10

#: Relative resolution of the evaluator; orderings closer than this pass
#: either way.
ORDER_TOL = 1e-12

FUNCS = {"j": jv, "y": yv, "jp": jvp, "yp": yvp}


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _sign_changes(f, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right ends of the grid cells over which f changes sign.

    Points where f is zero or not a number are skipped, so a change is
    counted between the nearest points that both have a sign.
    """
    with np.errstate(all="ignore"):
        signs = np.sign(np.asarray(f(xs), dtype=float))
    keep = np.nonzero(np.nan_to_num(signs) != 0.0)[0]
    flips = signs[keep[1:]] != signs[keep[:-1]]
    return xs[keep[:-1][flips]], xs[keep[1:][flips]]


def zero_of_rank(f, x_max: float, rank: int) -> float | None:
    """The rank-th zero of f on (GRID_START, x_max], bisected to full precision."""
    lefts, rights = _sign_changes(f, np.arange(GRID_START, x_max + GRID_STEP, GRID_STEP))
    if rank > len(lefts):
        return None
    return bisect(f, float(lefts[rank - 1]), float(rights[rank - 1]))


def bisect(f, a: float, b: float) -> float:
    fa = float(f(a))
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return m
        fm = float(f(m))
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m


def _close(a: float, b: float, tol: float = MATCH_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


# --- zeros ------------------------------------------------------------------

def check_zeros_table(text: str, kind: str, nu: float, smax: int) -> list[str]:
    """A ``zeros`` CSV table: ranks 1..smax, certified brackets, residuals."""
    rows = _csv_rows(text)
    header = ["kind", "nu", "s", "value", "bracket_lo", "bracket_hi", "residual"]
    if not rows or rows[0] != header:
        return [f"zeros: bad header {rows[:1]!r}"]
    body = rows[1:]
    if len(body) != smax:
        return [f"zeros: {len(body)} rows, expected {smax}"]
    if any(r[0] != kind or float(r[1]) != nu for r in body):
        return ["zeros: kind or nu column differs from the request"]
    s = np.array([int(r[2]) for r in body])
    value, lo, hi, resid = (np.array([float(r[i]) for r in body]) for i in (3, 4, 5, 6))
    problems = []
    if not (np.all(np.diff(s) > 0) and s[0] == 1 and s[-1] == smax):
        problems.append("zeros: ranks are not 1..smax strictly increasing")
    if not np.all(np.diff(value) > 0):
        problems.append("zeros: values are not strictly increasing")
    if not np.all((lo <= value) & (value <= hi)):
        problems.append("zeros: a value lies outside its bracket")
    f = lambda x: FUNCS[kind](nu, x)  # noqa: E731
    flo, fhi = f(lo), f(hi)
    straddle = (np.sign(flo) * np.sign(fhi) < 0) | (flo == 0) | (fhi == 0)
    if not np.all(straddle):
        problems.append(f"zeros: {int(np.sum(~straddle))} brackets do not straddle a sign change")
    tol = RESID_TOL * np.maximum(1.0, value)
    if not (np.all(np.abs(f(value)) <= tol) and np.all(np.abs(resid) <= tol)):
        problems.append("zeros: residual above 1e-10*max(1,x)")
    # Rank certification: with every bracket end on the grid, the number of
    # sign changes below a bracket is the number of zeros below it.
    xs = np.unique(np.concatenate([np.arange(GRID_START, hi.max() + GRID_STEP, GRID_STEP), lo, hi]))
    _, rights = _sign_changes(f, xs)
    below = np.searchsorted(rights, lo, side="right")
    if not np.array_equal(below, s - 1):
        bad = int(np.sum(below != s - 1))
        problems.append(f"zeros: {bad} brackets sit after a number of sign changes other than rank-1")
    return problems


# --- verify -----------------------------------------------------------------

def check_verify(text: str, argv: list[str]) -> list[str]:
    """A ``verify`` summary: the requested grid, and no violations."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"verify: output is not JSON ({exc})"]
    flags = _flags(argv)
    lo, hi, step = (float(v) for v in flags["--nu-grid"].split(":"))
    expected = round((hi - lo) / step) + 1
    grid = doc.get("grid", {})
    problems = []
    nus = grid.get("nu", [])
    if len(nus) != expected or not (_close(nus[0], lo) and _close(nus[-1], hi)):
        problems.append(f"verify: nu grid {nus[:1]}..{nus[-1:]} ({len(nus)} points) differs from {flags['--nu-grid']}")
    if grid.get("smax") != int(flags["--smax"]) or doc.get("suite") != flags["--suite"]:
        problems.append("verify: suite or smax differs from the request")
    if doc.get("violations") != []:
        problems.append(f"verify: {len(doc.get('violations') or [])} violations reported")
    return problems


# --- break ------------------------------------------------------------------

def check_break(text: str, nu: float, eps: float) -> list[str]:
    """A ``break`` witness: y_{nu+eps,s} > j_{nu,s} at s, and not at s - 1."""
    rows = _csv_rows(text)
    if len(rows) != 2 or rows[0] != ["nu", "eps", "s", "y_value", "j_value"]:
        return [f"break: unexpected table {rows[:2]!r}"]
    r_nu, r_eps, s, y_val, j_val = float(rows[1][0]), float(rows[1][1]), int(rows[1][2]), float(rows[1][3]), float(rows[1][4])
    if r_nu != nu or r_eps != eps or s < 1:
        return ["break: nu, eps or s differs from the request"]
    x_max = max(y_val, j_val) + 4.0
    y_of = lambda r: zero_of_rank(lambda x: yv(nu + eps, x), x_max, r)  # noqa: E731
    j_of = lambda r: zero_of_rank(lambda x: jv(nu, x), x_max, r)  # noqa: E731
    ys, js = y_of(s), j_of(s)
    if ys is None or js is None:
        return [f"break: fewer than {s} zeros below {x_max}"]
    problems = []
    if not (_close(y_val, ys) and _close(j_val, js)):
        problems.append(f"break: reported values are not y_(nu+eps,{s}) and j_(nu,{s})")
    tol = ORDER_TOL * js
    if not ys > js - tol:
        problems.append(f"break: y <= j at the reported rank {s}")
    if s > 1 and not y_of(s - 1) < j_of(s - 1) + tol:
        problems.append(f"break: y > j already at rank {s - 1}")
    return problems


# --- counterexample ---------------------------------------------------------

def check_counterexample(text: str, eps: float, nu_list: list[float]) -> list[str]:
    """Both jp-vs-y orderings witnessed, each confirmed at rank 1."""
    rows = _csv_rows(text)
    header = ["ordering", "nu", "eps", "s", "left_label", "left_value", "right_label", "right_value"]
    if len(rows) != 3 or rows[0] != header or [r[0] for r in rows[1:]] != ["greater", "less"]:
        return [f"counterexample: unexpected table {rows[:3]!r}"]
    problems = []
    for tag, r_nu, r_eps, s, llab, lval, rlab, rval in rows[1:]:
        nu, lval, rval = float(r_nu), float(lval), float(rval)
        if nu not in nu_list or float(r_eps) != eps or s != "1" or (llab, rlab) != ("jp(v+e,1)", "y(v,1)"):
            problems.append(f"counterexample: {tag} row does not match the request")
            continue
        x_max = max(lval, rval) + 4.0
        jp1 = zero_of_rank(lambda x: jvp(nu + eps, x), x_max, 1)
        y1 = zero_of_rank(lambda x: yv(nu, x), x_max, 1)
        if jp1 is None or y1 is None or not (_close(lval, jp1) and _close(rval, y1)):
            problems.append(f"counterexample: {tag} values are not jp_(nu+eps,1) and y_(nu,1) at nu={nu}")
            continue
        if (jp1 > y1) != (tag == "greater"):
            problems.append(f"counterexample: {tag} ordering not confirmed at nu={nu}")
    return problems


# --- wronskian --------------------------------------------------------------

def _wronskian(nu: float, mu: float, x):
    return jv(nu, x) * yvp(mu, x) - jvp(nu, x) * yv(mu, x)


def check_wronskian(text: str, nu: float, mu: float, smax: int, x_max: float) -> list[str]:
    """Samples sit on zeros of J_nu / Y_mu, and W changes sign at first_zero."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("# "):
        return ["wronskian: missing trailer"]
    trailer = dict(item.split("=", 1) for item in lines[-1][2:].split())
    rows = _csv_rows("\n".join(lines[:-1]))
    if not rows or rows[0] != ["x", "w", "source"] or len(rows) != 2 * smax + 1:
        return [f"wronskian: expected {2 * smax} samples"]
    x = np.array([float(r[0]) for r in rows[1:]])
    w = np.array([float(r[1]) for r in rows[1:]])
    src = np.array([r[2] for r in rows[1:]])
    problems = []
    if not np.all(np.diff(x) > 0) or np.sum(src == "J-zero") != smax or np.sum(src == "Y-zero") != smax:
        problems.append("wronskian: samples unsorted or not smax of each source")
    f = np.where(src == "J-zero", jv(nu, x), yv(mu, x))
    if not np.all(np.abs(f) <= RESID_TOL * np.maximum(1.0, x)):
        problems.append("wronskian: a sample is not a zero of its source")
    if not np.all(np.abs(w - _wronskian(nu, mu, x)) <= 1e-9 * np.maximum(1.0, np.abs(w))):
        problems.append("wronskian: a sampled W differs from J_nu Y'_mu - J'_nu Y_mu")
    if (trailer.get("all_same_sign") == "true") != bool(np.all(w > 0)):
        problems.append("wronskian: all_same_sign disagrees with the samples")
    first = trailer.get("first_zero", "none")
    if first != "none":
        r = float(first)
        if not 0.0 < r <= x_max or _wronskian(nu, mu, r * (1 - 1e-8)) * _wronskian(nu, mu, r * (1 + 1e-8)) >= 0.0:
            problems.append(f"wronskian: W does not change sign around first_zero={first}")
    return problems


# --- dispatch ---------------------------------------------------------------

def check_command(argv: list[str], code: int, out: str, err: str) -> list[str]:
    """Every problem with one CLI command's exit code, stderr and output."""
    if code != 0:
        return [f"{argv[0]}: exit code {code}: {err.strip()[:200]}"]
    if err:
        return [f"{argv[0]}: wrote to stderr: {err.strip()[:200]}"]
    f = _flags(argv)
    cmd = argv[0]
    try:
        if cmd == "zeros":
            return check_zeros_table(out, f["--kind"], float(f["--nu"]), int(f["--smax"]))
        if cmd == "verify":
            return check_verify(out, argv)
        if cmd == "break":
            return check_break(out, float(f["--nu"]), float(f["--eps"]))
        if cmd == "counterexample":
            return check_counterexample(out, float(f["--eps"]), [float(v) for v in f["--nu-list"].split(",")])
        if cmd == "wronskian":
            return check_wronskian(out, float(f["--nu"]), float(f["--mu"]), int(f["--smax"]), float(f["--xmax"]))
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"{cmd}: malformed output ({type(exc).__name__}: {exc})"]
    return [f"{cmd}: no output check for this command"]
