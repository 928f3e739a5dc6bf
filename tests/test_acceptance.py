"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ... PASS|FAIL` line (run pytest
with -s or -rA to see them all). Criterion 9a is expected to fail: at
eps=0.1, rank 1, the pair (j'_{nu+eps,1}, y_{nu,1}) keeps one ordering
across the entire supported order range, so no two-point order list can
exhibit both orderings; the extended-precision oracle confirms the
ordering claimed for nu=0.5 is reversed in reality. See the companion
tests for the flips that do exist (across ranks, and across orders at
eps=1).
"""

import math
import time

import pytest

import fixtures
import oracle
from bessel_interlace import (
    ZeroId,
    ZeroKind,
    build_chain,
    check_chain,
    counterexample_scan,
    eq19_residual,
    eval_J,
    eval_Y,
    eval_dJ,
    eval_dY,
    find_breaking,
    has_positive_zero,
    profile_extrema,
    sign_agreement,
    zero,
    zeros_upto,
)
from bessel_interlace.cli import main

EPS_SET = (0.25, 0.5, 0.75, 1.0)


def report(num: str, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


def test_criterion_1_theorem2_sweep(capsys):
    t0 = time.perf_counter()
    exit_code = main(
        ["verify", "--suite", "all", "--nu-grid", "0:10:0.25", "--smax", "20", "--out", "-"]
    )
    capsys.readouterr()  # discard the JSON body
    elapsed = time.perf_counter() - t0

    gaps_ok = True
    worst = math.inf
    for i in range(41):
        nu = 0.25 * i
        for eps in EPS_SET:
            for s in range(1, 21):
                rep = check_chain(build_chain(nu, eps, s))
                for pos, gap in enumerate(rep.margins):
                    if nu == 0.0 and eps == 1.0 and pos in (2, 5):
                        gaps_ok &= abs(gap) <= 1e-10
                    else:
                        gaps_ok &= gap > 1e-9
                        worst = min(worst, gap)
    with capsys.disabled():
        report(
            "1",
            "Theorem-2 sweep nu=0:10:0.25, eps in {0.25..1}, s<=20",
            exit_code == 0 and gaps_ok and elapsed <= 60.0,
            f"exit={exit_code}, min strict gap={worst:.3e}, {elapsed:.1f}s",
        )


def test_criterion_2_breaking(capsys):
    ok = True
    max_s = 0
    for nu in range(11):
        for eps in (1.25, 1.5, 2.0):
            w = find_breaking(float(nu), eps, 500)
            ok &= w.left_value > w.right_value
            max_s = max(max_s, w.s)
    w = find_breaking(0.0, 2.0, 10)
    gap = w.left_value - w.right_value
    ok &= w.s == 1
    ok &= abs(gap - fixtures.BREAK_GAP_NU0_EPS2) <= 1e-9
    with capsys.disabled():
        report(
            "2",
            "breaking witness s<=500 for nu=0..10, eps in {1.25,1.5,2}",
            ok,
            f"max witness s={max_s}, gap(0,2)={gap:.9f}",
        )


def test_criterion_3_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    for nu in (0.0, 0.5, 1.0, 2.7, 5.0):
        for kind in ZeroKind:
            enumerated = [r.value for r in zeros_upto(kind, nu, 10)]
            if kind is ZeroKind.JPRIME and nu == 0.0:
                enumerated = enumerated[1:]  # x=0 is conventional, not a sign change
            scanned = oracle.grid_scan(kind.value, nu, 50.0, 1e-3)
            ok &= len(scanned) >= len(enumerated)
            ok &= all(
                abs(a - b) <= 1e-9 for a, b in zip(enumerated, scanned)
            )
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report("3", "zeros_upto matches brute-force scan to 1e-9", ok and elapsed <= 30.0, f"{elapsed:.1f}s")


def test_criterion_4_convention_identities(capsys):
    worst = 0.0
    for s in range(2, 21):
        worst = max(
            worst,
            abs(zero(ZeroId(ZeroKind.JPRIME, 0.0, s)).value - zero(ZeroId(ZeroKind.J, 1.0, s - 1)).value),
        )
    for s in range(1, 21):
        worst = max(
            worst,
            abs(zero(ZeroId(ZeroKind.YPRIME, 0.0, s)).value - zero(ZeroId(ZeroKind.Y, 1.0, s)).value),
        )
    with capsys.disabled():
        report("4", "j'(0,s)=j(1,s-1), y'(0,s)=y(1,s) within 1e-10", worst <= 1e-10, f"worst={worst:.2e}")


def test_criterion_5_half_order_closed_form(capsys):
    vals = [r.value for r in zeros_upto(ZeroKind.Y, 0.5, 5)]
    worst = max(abs(v - e) for v, e in zip(vals, fixtures.HALF_ORDER_Y))
    with capsys.disabled():
        report("5", "y_{1/2,s} = (2s-1)pi/2 within 1e-12", worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_6_wronskian_criterion(capsys):
    ok = True
    for i in range(11):
        nu = 0.5 * i
        for eps in (0.25, 0.5, 1.0):
            prof = profile_extrema(nu, nu + eps, 10)
            ok &= prof.all_same_sign
            ok &= has_positive_zero(nu, nu + eps, 60.0) is None
        for eps in (1.5, 2.0):
            ok &= has_positive_zero(nu, nu + eps, 60.0) is not None
    with capsys.disabled():
        report("6", "W nonvanishing iff 0 < eps <= 1 (x_max 60)", ok)


def test_criterion_7_function_quality(capsys):
    import numpy as np

    rng = np.random.default_rng(20260809)
    worst_rec = worst_wron = worst_ode = 0.0
    for _ in range(500):
        nu = rng.uniform(0.0, 20.0)
        x = rng.uniform(0.1, 100.0)
        J = eval_J(nu, x)
        J1 = eval_J(nu + 1.0, x)
        dJ = eval_dJ(nu, x)
        Y = eval_Y(nu, x)
        Y1 = eval_Y(nu + 1.0, x)
        dY = eval_dY(nu, x)
        worst_rec = max(
            worst_rec,
            abs(dJ - (-J1 + (nu / x) * J)) / max(1.0, abs(J)),
            abs(dY - (-Y1 + (nu / x) * Y)) / max(1.0, abs(Y)),
        )
        target = 2.0 / (math.pi * x)
        worst_wron = max(worst_wron, abs(J * dY - dJ * Y - target) / target)
        for C, C1, dC in ((J, J1, dJ), (Y, Y1, dY)):
            d2 = (nu * (nu - 1.0) / (x * x) - 1.0) * C + C1 / x
            resid = x * x * d2 + x * dC + (x * x - nu * nu) * C
            scale = max(1.0, x * x) * max(1.0, abs(C), abs(C1))
            worst_ode = max(worst_ode, abs(resid) / scale)
    ok = worst_rec <= 1e-12 and worst_wron <= 1e-12 and worst_ode <= 1e-9
    with capsys.disabled():
        report(
            "7",
            "recurrence/Wronskian/ODE residuals on 500-point grid",
            ok,
            f"rec={worst_rec:.1e}, wron={worst_wron:.1e}, ode={worst_ode:.1e}",
        )


def test_criterion_8_proof_machinery(capsys):
    ok = True
    worst = 0.0
    for i in range(21):
        nu = 0.5 * i
        for s in range(1, 21):
            r = eq19_residual(nu, s)
            x = zero(ZeroId(ZeroKind.YPRIME, nu, s)).value
            scaled = r / max(1.0, abs(eval_Y(nu, x)))
            worst = max(worst, scaled)
            ok &= scaled <= 1e-11
            rep = sign_agreement(nu, s, 5)
            ok &= rep.same_sign_ok and rep.differ_ok
    with capsys.disabled():
        report("8", "eq19 residual <= 1e-11 and sign agreement, nu<=10, s<=20", ok, f"worst eq19={worst:.1e}")


def test_criterion_9a_jprime_vs_y_flip_as_stated(capsys):
    # As specified: eps=0.1, s=1, nu in {0.5, 5} shows both orderings.
    # Numerically j'_{nu+0.1,1} < y_{nu,1} for every nu in [0, 599.9]
    # (oracle-certified), so this criterion cannot be met; it is kept
    # red deliberately rather than weakened.
    try:
        greater, less = counterexample_scan(0.1, [0.5, 5.0], 1, pair="jp-vs-y")
        ok = greater.left_value > greater.right_value and less.left_value < less.right_value
        detail = "both orderings found"
    except Exception as exc:
        ok = False
        detail = f"{type(exc).__name__}: {exc}"
    with capsys.disabled():
        report("9a", "jp-vs-y flip at eps=0.1, s=1, nu in {0.5, 5}", ok, detail)


def test_criterion_9b_yprime_vs_j_flip_within_range(capsys):
    greater, less = counterexample_scan(0.25, [0.0, 400.0], 1, pair="yp-vs-j")
    ok = (
        greater.left_value > greater.right_value
        and less.left_value < less.right_value
        and 0.0 <= greater.nu <= 600.0
        and 0.0 <= less.nu <= 600.0
    )
    with capsys.disabled():
        report(
            "9b",
            "yp-vs-j flip found within nu in [0, 600] (eps=0.25, s=1)",
            ok,
            f"greater at nu={greater.nu}, less at nu={less.nu}",
        )
