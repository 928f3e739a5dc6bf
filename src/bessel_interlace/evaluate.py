"""Evaluation of J_nu, Y_nu and their derivatives.

Orders are real with 0 <= nu <= NU_MAX, arguments strictly positive.
Values are IEEE doubles backed by scipy.special (AMOS), which holds
relative accuracy near 1e-13 across the supported range, including
large orders where uniform asymptotic expansions take over.

Scalar calls go through the ``double`` entry of scipy's typed
``cython_special.jv``/``yv``: the same code as the
``scipy.special.jv``/``yv`` ufuncs, so the same bits, without the
ufunc's per-call dispatch or Cython's choice among the fused
signatures on each call. They take doubles only: the public functions
and ``zeros.check_zero_id`` convert an order or argument to float once,
at the boundary.

The two are loaded without running ``scipy.special``'s package
``__init__``, which costs ~350 ms, mostly in its array-API backend layer
(it imports ``numpy.testing`` and ``numpy.f2py``). While ``scipy.special``
is not imported, ``_load_jv_yv`` puts a bare module with the package's
path in its place and imports ``cython_special`` under it; that init
loads only the compiled ``_ufuncs``, ``_ufuncs_cxx``, ``_special_ufuncs``,
``_gufuncs`` and ``_ellip_harm_2``. It then drops the stub and every
``scipy.special.*`` entry from ``sys.modules``, so a later
``import scipy.special`` runs the real ``__init__``, binds its
submodules and hands back the same extension objects. When
``scipy.special`` is already imported, or anything under the stub
raises, the plain import is taken, so a scipy whose ``cython_special``
comes to need its package namespace still loads correctly, only slower.
This import is not safe against another thread importing
``scipy.special`` while this module is itself being imported: that
thread could find the stub.

Derivatives are formed from the downward recurrence
C'_nu(x) = -C_{nu+1}(x) + (nu/x) C_nu(x), the same relation the
interlacing analysis relies on, so derivative values are consistent
with the function values by construction. J' alone switches to
J'_nu = J_{nu-1} - (nu/x) J_nu where the backend underflows J_{nu+1},
but not J_nu, to 0.0.

Where the true Y magnitude exceeds the double range (x far below a
large order) the value saturates to +/-inf; NaN is never returned for
in-domain inputs.
"""

from __future__ import annotations

import math
import os
import sys
import types

from .errors import DomainError

__all__ = ["NU_MAX", "eval_J", "eval_Y", "eval_dJ", "eval_dY"]

#: Order cap. Counterexample searches need orders of several hundred;
#: evaluation accuracy is unverified above this.
NU_MAX = 600.0


def _double(fused):
    """A fused Cython function's ``double`` specialisation, or the function
    itself where it has none."""
    return getattr(fused, "__signatures__", {}).get("double", fused)


def _load_jv_yv():
    """scipy's typed ``cython_special.jv`` and ``yv`` at their ``double``
    signature, imported under a stub ``scipy.special`` when that package
    is not imported yet."""
    if "scipy.special" not in sys.modules:
        try:
            import scipy

            stub = types.ModuleType("scipy.special")
            stub.__path__ = [os.path.join(scipy.__path__[0], "special")]
            sys.modules["scipy.special"] = stub
            try:
                from scipy.special.cython_special import jv, yv
            finally:
                # A submodule left behind would never be bound as an
                # attribute of the real package once it is imported.
                for name in list(sys.modules):
                    if name == "scipy.special" or name.startswith("scipy.special."):
                        del sys.modules[name]
                vars(scipy).pop("special", None)
            return _double(jv), _double(yv)
        except Exception:
            pass  # the plain import below either works or raises the real error
    from scipy.special.cython_special import jv, yv

    return _double(jv), _double(yv)


_jv, _yv = _load_jv_yv()


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
# nu = 0 the term vanishes, so C'_0 = -C_1 costs one call. The backend
# returns J as 0.0 below ~1e-290, so where J_{nu+1} reads 0.0 but J_nu
# does not, the upward relation J'_nu = J_{nu-1} - (nu/x) J_nu (A&S
# 9.1.27) replaces it; where J_nu reads 0.0 but J_{nu+1} does not, the
# downward recurrence J_nu = (2 (nu+1)/x) J_{nu+1} - J_{nu+2} (A&S 9.1.27)
# rebuilds J_nu. Where both read 0.0, J' stays 0.0.
def bessel_dj(nu: float, x: float) -> float:
    if nu < _TINY_ORDER:
        dj = -_jv(1.0, x)
        return dj if nu == 0.0 else dj + (nu / x) * _jv(0.0, x)
    above, here = _jv(nu + 1.0, x), _jv(nu, x)
    if above == 0.0 and here != 0.0 and nu >= 1.0:
        return _jv(nu - 1.0, x) - (nu / x) * here
    if here == 0.0 and above != 0.0:
        here = (2.0 * (nu + 1.0) / x) * above - _jv(nu + 2.0, x)
    return -above + (nu / x) * here


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


def eval_J(nu: float, x: float) -> float:
    """J_nu(x) for nu in [0, NU_MAX], x > 0."""
    return bessel_j(check_order(nu), check_argument(x))


def eval_Y(nu: float, x: float) -> float:
    """Y_nu(x) for nu in [0, NU_MAX], x > 0.

    Saturates to -inf when the true magnitude overflows the double
    range (small x, large nu).
    """
    return bessel_y(check_order(nu), check_argument(x))


def eval_dJ(nu: float, x: float) -> float:
    """J'_nu(x) = -J_{nu+1}(x) + (nu/x) J_nu(x)."""
    return bessel_dj(check_order(nu), check_argument(x))


def eval_dY(nu: float, x: float) -> float:
    """Y'_nu(x) = -Y_{nu+1}(x) + (nu/x) Y_nu(x)."""
    return bessel_dy(check_order(nu), check_argument(x))
