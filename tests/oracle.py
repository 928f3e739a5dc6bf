"""Independent extended-precision oracle for the test suite.

Everything here goes through mpmath at 40 significant digits and a
deliberately naive root strategy (coarse sign scan, then plain
bisection), sharing no code or algorithmic ideas with the library's
bracket walk / safeguarded Newton path.
"""

from __future__ import annotations

import mpmath as mp

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
