"""Independent oracles for the test suite.

Everything but ``grid_scan`` goes through mpmath at 40 significant
digits and a deliberately naive root strategy (coarse sign scan, then
plain bisection). ``grid_scan`` is the same strategy in doubles, on
scipy's ``jv``/``yv`` ufuncs over a fine grid. Neither shares code or
algorithmic ideas with the library's bracket walk / safeguarded Newton
path, nor imports the library.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy import special

DPS = 40


def _with_dps(fn):
    def wrapped(*args, **kwargs):
        with mp.workdps(DPS):
            return fn(*args, **kwargs)

    return wrapped


def _func(kind: str, nu):
    nu = mp.mpf(nu)
    if kind == "j":
        return lambda x: mp.besselj(nu, x)
    if kind == "y":
        return lambda x: mp.bessely(nu, x)
    if kind == "jp":
        return lambda x: -mp.besselj(nu + 1, x) + nu / x * mp.besselj(nu, x)
    if kind == "yp":
        return lambda x: -mp.bessely(nu + 1, x) + nu / x * mp.bessely(nu, x)
    raise ValueError(kind)


@_with_dps
def eval_kind(kind: str, nu, x) -> mp.mpf:
    return _func(kind, str(nu))(mp.mpf(str(x)))


@_with_dps
def zeros_by_scan(kind: str, nu, x_max, step="0.05", bisections=140) -> list[mp.mpf]:
    """All zeros on (0, x_max]: stepwise sign scan, then bisection."""
    f = _func(kind, str(nu))
    step = mp.mpf(step)
    roots = []
    x = step / 1000 if kind == "jp" else step
    fx = f(x)
    while x < mp.mpf(str(x_max)):
        x2 = min(x + step, mp.mpf(str(x_max)))
        fx2 = f(x2)
        if fx * fx2 < 0:
            a, b, fa = x, x2, fx
            for _ in range(bisections):
                m = (a + b) / 2
                fm = f(m)
                if fm == 0:
                    a = b = m
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append((a + b) / 2)
        x, fx = x2, fx2
    return roots


@_with_dps
def root_near(kind: str, nu, value: float, delta: float, bisections: int = 40) -> mp.mpf:
    """The zero in [value-delta, value+delta], by plain bisection from a sign check."""
    f = _func(kind, str(nu))
    a, b = mp.mpf(repr(value)) - mp.mpf(repr(delta)), mp.mpf(repr(value)) + mp.mpf(repr(delta))
    fa = f(a)
    if fa * f(b) >= 0:
        raise ValueError(f"no sign change of {kind} at order {nu} within {delta} of {value!r}")
    for _ in range(bisections):
        m = (a + b) / 2
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return (a + b) / 2


@_with_dps
def certify_zero(kind: str, nu, value: float, delta: float = 1e-9) -> bool:
    """True when the target flips sign across [value-delta, value+delta]."""
    f = _func(kind, str(nu))
    v = mp.mpf(repr(value))
    d = mp.mpf(repr(delta))
    return f(v - d) * f(v + d) < 0


@_with_dps
def wronskian(nu, mu, x) -> mp.mpf:
    """W_{nu,mu}(x) = J_nu(x) Y'_mu(x) - J'_nu(x) Y_mu(x)."""
    x = mp.mpf(repr(x))
    return _func("j", str(nu))(x) * _func("yp", str(mu))(x) - _func("jp", str(nu))(x) * _func("y", str(mu))(x)


# Per kind: the name of its C_nu ufunc on ``special``, and whether the
# target is C'_nu. Read per call, so a test can stub the ufuncs.
_UFUNCS = {"j": ("jv", False), "y": ("yv", False), "jp": ("jv", True), "yp": ("yv", True)}

# scipy misevaluates subnormal orders: below this C_nu is read as C_0,
# which moves it by O(nu).
_TINY_ORDER = 1e-290


def grid_scan(kind: str, nu: float, x_max: float, step: float) -> list[float]:
    """Brute-force zero locator: grid sign scan plus plain bisection.

    Deliberately ignorant of brackets, anchors and walk reach. F is C_nu,
    or C'_nu = -C_{nu+1} + (nu/x) C_nu, on the grid step, 2 step, ...,
    x_max at once; each sign change is bisected to 1e-12. Raises
    ValueError on a step outside (0, 0.01] or an x_max not past it.
    """
    nu = float(nu)
    if not 0.0 < step <= 0.01:
        raise ValueError(f"step must be in (0, 0.01], got {step!r}")
    if not math.isfinite(x_max) or x_max <= step:
        raise ValueError(f"x_max must exceed step, got {x_max!r}")

    name, primed = _UFUNCS[kind]
    c = getattr(special, name)
    c_nu = 0.0 if 0.0 < nu < _TINY_ORDER else nu
    value = (lambda x: -c(nu + 1.0, x) + (nu / x) * c(c_nu, x)) if primed else functools.partial(c, c_nu)
    xs = np.arange(step, x_max + 0.5 * step, step)
    with np.errstate(invalid="ignore", over="ignore"):  # Y saturates to -inf: inf - inf, inf * inf
        vals = value(xs)
        ok = np.isfinite(vals)
        sign_flip = np.nonzero(ok[:-1] & ok[1:] & (vals[:-1] * vals[1:] < 0.0))[0]
        # Far below the turning point J_nu underflows to 0.0 on long
        # stretches, so an exact 0.0 is a root only between finite,
        # nonzero values of opposite sign.
        sign = np.sign(vals)
        exact = 1 + np.nonzero(ok[:-2] & ok[2:] & (sign[:-2] * sign[2:] < 0.0) & (vals[1:-1] == 0.0))[0]

    roots = []
    for i in sign_flip:
        a, b = float(xs[i]), float(xs[i + 1])
        fa = float(vals[i])
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fm = float(value(m))
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    roots.extend(float(xs[i]) for i in exact)
    return sorted(roots)
