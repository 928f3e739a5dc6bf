"""Cross-order Wronskian analysis and the Y-family sign machinery.

W_{nu,mu}(x) = J_nu(x) Y'_mu(x) - J'_nu(x) Y_mu(x) vanishes somewhere
on (0, inf) exactly when |nu - mu| > 1. The weighted function
x * W_{nu,mu}(x) has its critical points precisely at the zeros of
J_nu and Y_mu (its derivative is (mu^2 - nu^2) J_nu(x) Y_mu(x) / x),
and W(0+) is positive for any admissible order pair, so checking the
sign of W at those points, together with the positive boundary limit,
decides nonvanishing. Between consecutive critical points x * W is
strictly monotone, which makes bisection on a sign change safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import evaluate as ev
from .errors import DomainError
from .zeros import S_MAX_LIMIT, ZeroId, ZeroKind, check_rank, zero, zeros_upto

__all__ = [
    "WronskianProfile",
    "SignIntervalReport",
    "eval_W",
    "profile_extrema",
    "has_positive_zero",
    "sign_agreement",
    "eq19_residual",
]


@dataclass(frozen=True)
class WronskianProfile:
    """W sampled at the critical points of x*W, with a sign summary.

    ``all_same_sign`` includes the (always positive) x -> 0+ boundary
    limit of W alongside the sampled values, so it is true exactly when
    the samples give no evidence of a zero anywhere on (0, cutoff].
    """

    nu: float
    mu: float
    samples: tuple[tuple[float, float, str], ...]
    all_same_sign: bool
    min_abs: float


@dataclass(frozen=True)
class SignIntervalReport:
    nu: float
    s: int
    same_sign_interval: tuple[float, float]
    differ_interval: tuple[float, float]
    same_sign_ok: bool
    differ_ok: bool


def eval_W(nu: float, mu: float, x: float) -> float:
    """J_nu(x) Y'_mu(x) - J'_nu(x) Y_mu(x)."""
    nu = ev.check_order(nu)
    mu = ev.check_order(mu)
    x = ev.check_argument(x)
    return ev.bessel_j(nu, x) * ev.bessel_dy(mu, x) - ev.bessel_dj(nu, x) * ev.bessel_y(mu, x)


def _extremal_points(nu: float, mu: float, s_max: int) -> list[tuple[float, str]]:
    pts = [(x, "J-zero") for x in zeros_upto(ZeroKind.J, nu, s_max).value]
    pts += [(x, "Y-zero") for x in zeros_upto(ZeroKind.Y, mu, s_max).value]
    pts.sort()
    return pts


def profile_extrema(nu: float, mu: float, s_max: int) -> WronskianProfile:
    """Evaluate W at the first s_max zeros of J_nu and of Y_mu."""
    nu = ev.check_order(nu)
    mu = ev.check_order(mu)
    if not mu > nu:
        raise DomainError(f"profile requires mu > nu, got nu={nu}, mu={mu}", code="DOMAIN_NU")
    samples = tuple((x, eval_W(nu, mu, x), src) for x, src in _extremal_points(nu, mu, s_max))
    # W(0+) > 0 for every admissible pair; a negative sample therefore
    # already witnesses a sign change even before the first critical point.
    all_same_sign = all(w > 0.0 for _, w, _ in samples)
    min_abs = min(abs(w) for _, w, _ in samples)
    return WronskianProfile(nu, mu, samples, all_same_sign, min_abs)


#: No zero of J_nu or Y_mu of rank S_MAX_LIMIT lies below this: j_{nu,s} > y_{nu,s} >= y_{0,s} > (s - 1) pi.
_X_CAP = (S_MAX_LIMIT - 1) * math.pi


def check_x_max(x_max: float) -> float:
    """Validate ``has_positive_zero``'s x_max, returning it as float. Raises DomainError."""
    x_max = float(x_max)
    if not 0.0 < x_max < _X_CAP:
        raise DomainError(f"x_max must lie in (0, {_X_CAP!r}), got {x_max!r}", code="DOMAIN_X")
    return x_max


def has_positive_zero(nu: float, mu: float, x_max: float) -> float | None:
    """A root of W on (0, x_max], or None if W keeps one sign there.

    Segments between consecutive critical points of x*W (plus the
    leading segment down to 0+ and the trailing one up to x_max) are
    monotone for x*W, so one endpoint sign check per segment finds
    every root; W is evaluated only up to the first, bisected to ~1e-12.
    Raises DomainError (DOMAIN_NU) when x*W shows no sign left of the
    first critical point: non-finite where Y_mu saturates, or 0.0 where
    J_nu underflows.
    """
    nu = ev.check_order(nu)
    mu = ev.check_order(mu)
    if nu == mu:
        raise DomainError("order pair must be distinct", code="DOMAIN_NU")
    x_max = check_x_max(x_max)

    def m(x: float) -> float:
        return x * eval_W(nu, mu, x)

    def evaluable(v: float) -> bool:
        # An x*W of exactly 0.0 has underflowed (J_nu far below a large
        # order) and shows no sign, no more than a NaN or inf does.
        return math.isfinite(v) and v != 0.0

    # Critical points of x*W up to x_max: zeros of J_nu and Y_mu.
    pts: list[float] = []
    for kind, order in ((ZeroKind.J, nu), (ZeroKind.Y, mu)):
        s = 1
        while (v := zero(ZeroId(kind, order, s)).value) <= x_max:
            pts.append(v)
            s += 1
    pts.sort()

    # Left edge: W(0+) is positive. Find an evaluable point left of the
    # first critical point that confirms it; below a large order the Y
    # factor saturates, so back toward the critical point on NaN/inf and
    # otherwise shrink toward 0 while the probe disagrees with the limit.
    first = pts[0] if pts else x_max
    x_left = 0.5 * first
    f_left = m(x_left)
    backoff = 0
    while not evaluable(f_left) and backoff < 40:
        x_left = 0.5 * (x_left + first)
        f_left = m(x_left)
        backoff += 1
    shrink = 0
    while f_left < 0.0 and shrink < 80 and x_left > 1e-250:
        candidate = x_left / 8.0
        value = m(candidate)
        if not evaluable(value):
            break
        x_left, f_left = candidate, value
        shrink += 1
    if not evaluable(f_left):
        raise DomainError(
            f"W is not evaluable left of its first critical point for nu={nu}, mu={mu}",
            code="DOMAIN_NU",
        )
    if f_left < 0.0:
        # Sign change hides below every evaluable point; report the
        # smallest resolvable location.
        return x_left

    # x_left lies below every critical point, and f_left > 0. Every move
    # of a keeps m(a) > 0, so a sign change is a negative m; signs are
    # compared directly, since a product of two tiny m underflows to 0.0.
    a = x_left
    for b in pts + [x_max]:
        fb = m(b)
        if fb == 0.0:
            return b
        if fb < 0.0:
            while b - a > 1e-12 * max(1.0, b):
                mid = 0.5 * (a + b)
                fm = m(mid)
                if fm == 0.0:
                    return mid
                if fm < 0.0:
                    b = mid
                else:
                    a = mid
            return 0.5 * (a + b)
        a = b
    return None


def _chebyshev_interior(lo: float, hi: float, n: int) -> list[float]:
    # Chebyshev nodes keep samples off the endpoints, which are zeros
    # of one of the functions under test.
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * math.cos(math.pi * (2 * k + 1) / (2 * n)) for k in range(n)]


def sign_agreement(nu: float, s: int, n_samples: int) -> SignIntervalReport:
    """Sign relationship of Y_nu and Y_{nu+1} on the two canonical intervals.

    On (y_{nu+1,s}, y_{nu,s+1}) the two functions agree in sign; on
    (y_{nu,s}, y_{nu+1,s}) they differ. Verdicts are per-interval
    conjunctions over Chebyshev-spaced interior samples.
    """
    # Checked before any zero is computed, and named as the caller passed
    # them: nu + 1 and rank s + 1 are read too.
    nu = ev.check_orders(nu, 1.0, code="OVERFLOW_NU")
    s = check_rank(s, S_MAX_LIMIT - 1)
    try:
        n = operator.index(n_samples)
    except TypeError:
        n = 0
    if n < 3:
        raise DomainError(f"n_samples must be an integer >= 3, got {n_samples!r}", code="DOMAIN_N")

    y_nu = zeros_upto(ZeroKind.Y, nu, s + 1)
    y_nu1 = zeros_upto(ZeroKind.Y, nu + 1.0, s)
    same_iv = (y_nu1[s - 1].value, y_nu[s].value)
    diff_iv = (y_nu[s - 1].value, y_nu1[s - 1].value)

    same_ok = True
    for x in _chebyshev_interior(*same_iv, n):
        if ev.bessel_y(nu, x) * ev.bessel_y(nu + 1.0, x) <= 0.0:
            same_ok = False
            break
    diff_ok = True
    for x in _chebyshev_interior(*diff_iv, n):
        if ev.bessel_y(nu, x) * ev.bessel_y(nu + 1.0, x) >= 0.0:
            diff_ok = False
            break
    return SignIntervalReport(nu, s, same_iv, diff_iv, same_ok, diff_ok)


def eq19_residual(nu: float, s: int) -> float:
    """|Y_{nu+1}(r) - (nu/r) Y_nu(r)| at r = y'_{nu,s}.

    The recurrence for Y' makes the two sides equal wherever Y' vanishes;
    the residual is the numerical witness of that identity.
    """
    nu = ev.check_order(nu)
    r = zero(ZeroId(ZeroKind.YPRIME, nu, s)).value
    return abs(ev.bessel_y(nu + 1.0, r) - (nu / r) * ev.bessel_y(nu, r))
