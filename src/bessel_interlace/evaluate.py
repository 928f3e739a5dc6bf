"""Evaluation of J_nu, Y_nu and their derivatives.

Orders are real with 0 <= nu <= NU_MAX, arguments strictly positive.
Values are IEEE doubles backed by scipy.special (AMOS), which holds
relative accuracy near 1e-13 across the supported range, including
large orders where uniform asymptotic expansions take over.

Scalar calls go through scipy's typed ``cython_special.jv``/``yv``
entry points: the same code as the ``scipy.special.jv``/``yv`` ufuncs,
so the same bits, without the ufunc's per-call dispatch. They take
doubles only: the public functions and the ``ZeroId`` constructor
convert an order or argument to float once, at the boundary.

Derivatives are formed from the downward recurrence
C'_nu(x) = -C_{nu+1}(x) + (nu/x) C_nu(x), the same relation the
interlacing analysis relies on, so derivative values are consistent
with the function values by construction.

Where the true Y magnitude exceeds the double range (x far below a
large order) the value saturates to +/-inf; NaN is never returned for
in-domain inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special.cython_special import jv as _jv, yv as _yv

from .errors import DomainError

__all__ = ["NU_MAX", "EvalResult", "eval_J", "eval_Y", "eval_dJ", "eval_dY"]

#: Order cap. Counterexample searches need orders of several hundred;
#: evaluation accuracy is unverified above this.
NU_MAX = 600.0

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class EvalResult:
    """A function value plus an advisory absolute-error bound.

    ``est_abs_error`` is a cheap upper-bound heuristic (roughly 10 ulp
    of the value, with an amplitude floor in the oscillatory region),
    not a certified enclosure.
    """

    value: float
    est_abs_error: float


def check_order(nu: float) -> float:
    """Validate an order, returning it as float. Raises DomainError."""
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {nu!r}", code="DOMAIN_NU")
    if nu > NU_MAX:
        raise DomainError(f"order {nu!r} exceeds NU_MAX={NU_MAX}", code="OVERFLOW_NU")
    return nu


def check_orders(nu: float, eps: float, code: str = "DOMAIN_EPS") -> float:
    """Validate an order nu and the shifted order nu + eps, returning nu as float.
    Raises DomainError, under ``code`` when nu + eps exceeds NU_MAX."""
    nu = check_order(nu)
    if nu + eps > NU_MAX:
        raise DomainError(f"order nu={nu!r} plus eps={eps!r} exceeds NU_MAX={NU_MAX}", code=code)
    return nu


def check_argument(x: float) -> float:
    """Validate an argument, returning it as float. Raises DomainError."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be finite and > 0, got {x!r}", code="DOMAIN_X")
    return x


# Scalar fast paths on floats; the zero finder calls these in tight loops.

# Below this the backend misevaluates subnormal orders; snapping to 0
# changes the value by O(nu), far under the accuracy contract.
_TINY_ORDER = 1e-290


def bessel_j(nu: float, x: float) -> float:
    if 0.0 < nu < _TINY_ORDER:
        nu = 0.0
    return _jv(nu, x)


def bessel_y(nu: float, x: float) -> float:
    if 0.0 < nu < _TINY_ORDER:
        nu = 0.0
    return _yv(nu, x)


# Below the tiny order C_nu is C_0 and nu + 1 rounds to 1, but the
# (nu/x) C_nu term is kept: it dominates J' below x ~ sqrt(2 nu). At
# nu = 0 the term vanishes, so C'_0 = -C_1 costs one call.
def bessel_dj(nu: float, x: float) -> float:
    if nu < _TINY_ORDER:
        dj = -_jv(1.0, x)
        return dj if nu == 0.0 else dj + (nu / x) * _jv(0.0, x)
    return -_jv(nu + 1.0, x) + (nu / x) * _jv(nu, x)


def bessel_dy(nu: float, x: float) -> float:
    if nu < _TINY_ORDER:
        v = -_yv(1.0, x)
        if nu == 0.0:
            return v
        v += (nu / x) * _yv(0.0, x)
    else:
        v = -_yv(nu + 1.0, x) + (nu / x) * _yv(nu, x)
    # inf - inf where Y saturates, below the turning point or (tiny orders)
    # at a subnormal x: Y is negative and rising there.
    if math.isnan(v) and x < max(nu, _TINY_ORDER):
        return math.inf
    return v


def _error_estimate(nu: float, x: float, value: float) -> float:
    if math.isinf(value):
        return math.inf
    # Oscillatory region: absolute floor at the asymptotic amplitude.
    floor = math.sqrt(2.0 / (math.pi * x)) if x > max(nu, 1.0) else 0.0
    return 10.0 * _EPS * max(abs(value), floor)


def _checked(f, nu: float, x: float) -> EvalResult:
    """f(nu, x) at a checked order and argument, with its error estimate."""
    nu = check_order(nu)
    x = check_argument(x)
    v = f(nu, x)
    return EvalResult(v, _error_estimate(nu, x, v))


def eval_J(nu: float, x: float) -> EvalResult:
    """J_nu(x) for nu in [0, NU_MAX], x > 0."""
    return _checked(bessel_j, nu, x)


def eval_Y(nu: float, x: float) -> EvalResult:
    """Y_nu(x) for nu in [0, NU_MAX], x > 0.

    Saturates to -inf when the true magnitude overflows the double
    range (small x, large nu).
    """
    return _checked(bessel_y, nu, x)


def eval_dJ(nu: float, x: float) -> EvalResult:
    """J'_nu(x) = -J_{nu+1}(x) + (nu/x) J_nu(x)."""
    return _checked(bessel_dj, nu, x)


def eval_dY(nu: float, x: float) -> EvalResult:
    """Y'_nu(x) = -Y_{nu+1}(x) + (nu/x) Y_nu(x)."""
    return _checked(bessel_dy, nu, x)
