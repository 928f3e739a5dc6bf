"""Enumeration of positive real zeros j_{nu,s}, y_{nu,s}, j'_{nu,s}, y'_{nu,s}.

Every zero is certified by a sign-change bracket. A cached sequence is
extended one zero at a time by one loop, ``_extend_sequence``, which
builds F once per extension and hands each zero from one stage to the
next: ``initial_bracket`` walks to a bracket (lo, hi, F(lo), F(hi)),
and ``refine`` polishes that bracket into a ZeroRecord.

The walk starts from a lower anchor (x = nu for the first zero, then
the upper end of the previous walk's bracket, which held the previous
zero alone, so no zero lies between them) and steps strictly below the
minimum spacing of consecutive zeros, so ranks cannot be skipped; it
gives up _REACH past its anchor. No two zeros lie within twice that
spacing of the previous one, so the first step from the anchor may reach
that far past the previous zero. From rank 4 the walk's first points
after the anchor are g - h and g + 2h when those steps keep within both
bounds, where g extrapolates the last three zeros quadratically and h
bounds its error; the guess only places sign checks and never certifies
a rank. A walk point where F is exactly 0.0 ends the walk with that
point as its bracket's upper end, and refine returns it with the bracket
[x, x]; the next walk then starts just past that zero.
A walk step evaluates F alone (C_nu for J and Y), and the walk hands F
at its bracket's ends to refine, as the loop hands it F at the anchor,
so no point is evaluated twice: a guessed J or Y zero costs ~4 scipy
calls (2 walk points, 1 iterate, 1 probe).
Refinement is safeguarded Newton, started at the bracket's secant point,
that falls back to bisection whenever a Newton step would leave the
current bracket. A J' or Y' iterate takes its value and slope from one
pair C_nu(x), C_{nu+1}(x). A J or Y iterate evaluates C_nu(x) alone and
fetches C_{nu+1}(x) for its slope only when Newton has to step.
Newton runs until its step |F/F'| is at most tol / 16, or at most tol
twice running, with tol = WIDTH_TOL/2 * max(1, x); one probe tol past
the iterate, on the root's side, then certifies it when F changes sign
there, and the record's bracket is {iterate, probe}.
Signs are compared directly, never through a product of F values, which
underflows to 0.0 once both are below ~1e-162.

Indexing follows the classical convention: x = 0 counts as the first
zero of J'_0, so j'_{0,1} = 0 and j'_{0,s} = j_{1,s-1} for s >= 2. The
loop records it with the bracket [0, 0] and walks to none.
Y-family zeros are all strictly positive.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass

from . import evaluate as ev
from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "ZeroKind",
    "ZeroId",
    "Bracket",
    "ZeroRecord",
    "zero",
    "zeros_upto",
]

S_MAX_LIMIT = 10_000

#: Widest bracket a ZeroRecord may carry, relative to max(1, root): a
#: converged Newton iterate is certified by a probe half this far away,
#: and refinement also stops once the bracket narrows to this width.
WIDTH_TOL = 1e-14

#: |f(root)| certified by every ZeroRecord, relative to max(1, root).
RESID_TOL = 1e-10

MAX_REFINE_ITERS = 200

# No two consecutive zeros of any one target family sit closer than
# this on x > 0 (zero spacing tends to pi from either side and only
# widens near the turning point), so a walk step below it cannot
# straddle two sign changes, nor can a first step of up to twice this
# from the previous zero.
_MIN_GAP = 2.2

_STEP = 0.55 * _MIN_GAP

# How far a walk may travel past its anchor before it gives up. The
# furthest zero from its anchor on the supported domain is j_{600,1},
# 15.8 above nu = 600, so this leaves a wide margin; the tests check the
# bound against zeros found by a grid scan.
_REACH = 192.0


class ZeroKind(enum.Enum):
    J = "j"
    Y = "y"
    JPRIME = "jp"
    YPRIME = "yp"

    @classmethod
    def parse(cls, text: str) -> "ZeroKind":
        t = text.strip().lower()
        for kind in cls:
            if t in (kind.value, kind.name.lower()):
                return kind
        raise DomainError(f"unknown zero kind {text!r} (expected j, y, jp, yp)", code="DOMAIN_KIND")


def check_rank(s: int, cap: int = S_MAX_LIMIT, of: str = "") -> int:
    """Validate a rank s in 1..cap, returning it. Raises DomainError (DOMAIN_S);
    ``of`` ends the message of a rank past the cap."""
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"rank must be a positive integer, got {s!r}", code="DOMAIN_S")
    if s > cap:
        raise DomainError(f"rank {s} exceeds the supported cap {cap}{of}", code="DOMAIN_S")
    return s


@dataclass(frozen=True, slots=True)
class ZeroId:
    """Names one zero: the s-th positive zero of the kind's function at order nu.

    The constructor holds the one domain rule for a zero's kind, order and rank.
    """

    kind: ZeroKind
    nu: float
    s: int

    def __post_init__(self) -> None:
        """Raises DomainError on a kind, order or rank outside the supported domain."""
        if not isinstance(self.kind, ZeroKind):
            raise DomainError(f"zero kind must be a ZeroKind, got {self.kind!r}", code="DOMAIN_KIND")
        # The scalar evaluators take floats only (scipy's typed entry
        # points have no int signature), so an int order is converted here.
        object.__setattr__(self, "nu", ev.check_order(self.nu))
        check_rank(self.s)


@dataclass(frozen=True, slots=True)
class Bracket:
    """Interval whose endpoints carry opposite function signs.

    The conventional j'_{0,1} zero uses the degenerate bracket [0, 0],
    and a zero hit exactly at a point, the bracket [x, x].
    """

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    id: ZeroId
    value: float
    bracket: Bracket
    residual: float
    iterations: int


# Per kind: the name of its C_nu evaluator on ``ev``, and whether F is C'_nu.
_FAMILIES = {
    ZeroKind.J: ("bessel_j", False),
    ZeroKind.Y: ("bessel_y", False),
    ZeroKind.JPRIME: ("bessel_j", True),
    ZeroKind.YPRIME: ("bessel_y", True),
}


def _target(kind: ZeroKind, nu: float):
    """F of x at order nu, and how its slope dF/dx is had: (value, value_slope, slope).

    F is C_nu for J and Y: ``slope(x, F(x))`` = -C_{nu+1}(x) + (nu/x) C_nu(x)
    (A&S 9.1.27) costs one more call, and ``value_slope`` is None. F is
    C'_nu for J' and Y', from the same pair C_nu(x), C_{nu+1}(x) that gives
    its slope C'' = -C'/x - (1 - nu^2/x^2) C by Bessel's equation (A&S
    9.1.1): ``value_slope(x)`` returns both, and ``slope`` is None. ``ev``
    is read here, per call, so a wrapper installed there sees every
    evaluation.
    """
    name, primed = _FAMILIES[kind]
    bessel = getattr(ev, name)
    if not primed:
        return functools.partial(bessel, nu), None, lambda x, c0: -bessel(nu + 1.0, x) + (nu / x) * c0

    def value_slope(x):
        c0 = bessel(nu, x)
        d = -bessel(nu + 1.0, x) + (nu / x) * c0
        return d, -d / x - (1.0 - (nu / x) ** 2) * c0

    return (lambda x: value_slope(x)[0]), value_slope, None


def _scan_start(kind: ZeroKind, nu: float, prev: float | None) -> float:
    if prev is not None:
        # Just past the previous zero; far enough that the function value
        # clears rounding noise, far short of the next zero.
        return prev + max(1e-7, 1e-9 * prev)
    if kind is ZeroKind.JPRIME and 0.0 < nu < 1.0:
        # j'_{nu,1} ~ sqrt(2 nu) can sit arbitrarily close to 0, but above
        # sqrt(nu (nu + 2)) > sqrt(nu), a bound the checks never test.
        return min(1e-6, math.sqrt(nu))
    return max(nu, 1e-6)


# Not underscored: perfbench/spans.py spans this stage by its name.
def initial_bracket(
    id: ZeroId, target: tuple, prev: float | None, x: float | None, fx: float | None, guess: tuple[float, float] | None
) -> tuple[float, float, float, float]:
    """A bracket (lo, hi, F(lo), F(hi)) certified to hold exactly zero ``id``.

    ``target`` is F's ``_target`` triple and ``prev`` the previous zero
    of the sequence, None for the first. The walk starts at the anchor x
    with F(x) = fx: the upper end of prev's own walk bracket, so no zero
    lies in (prev, x]. With x None it starts at _scan_start(prev) and
    evaluates F there. It steps below the minimum zero spacing, so the
    first sign change it meets belongs to rank ``id.s``. A walk point
    where F is exactly 0.0 is such a zero: it ends the walk as the
    bracket's upper end, and refine returns it with the bracket [x, x].
    Raises BracketError if no sign change appears within _REACH of the
    anchor.

    From a previous zero the walk may first visit g - h and g + 2h, for
    a ``guess`` (g, h) at the zero. No two zeros lie within 2 * _MIN_GAP
    of the previous one, so the first step may reach that far past it;
    the step between the two points stays below _MIN_GAP. A guess that
    would break either bound, or whose g - h is not past the anchor, is
    not used. The guess only places sign checks: the ranks rest on the
    spacing alone.
    """
    value = target[0]
    if x is None:
        x = _scan_start(id.kind, id.nu, prev)
        fx = value(x)
        if fx == 0.0 or math.isnan(fx):
            x *= 1.0 + 1e-9
            fx = value(x)

    # Steps below the minimum zero spacing keep the rank certified; only
    # the first step from a previous zero may reach 2 * _MIN_GAP past it.
    ahead = []
    if guess is not None and prev is not None:
        g, h = guess
        lo, hi = g - h, g + 2.0 * h
        if x < lo <= prev + 2.0 * _MIN_GAP and lo < hi and hi - lo < _MIN_GAP:
            ahead = [hi, lo]
    budget = x + _REACH
    while x < budget:
        x2 = ahead.pop() if ahead else min(x + _STEP, budget)
        fx2 = value(x2)
        if math.isnan(fx2):
            raise BracketError(
                f"evaluator returned NaN at x={x2} while bracketing {id}",
                code="BRACKET_NOT_FOUND",
            )
        if fx2 == 0.0 or fx < 0.0 < fx2 or fx2 < 0.0 < fx:
            return x, x2, fx, fx2
        x, fx = x2, fx2
    raise BracketError(f"no sign change found for {id} within {_REACH} of its anchor", code="BRACKET_NOT_FOUND")


def _settled(fx: float, d: float, tol: float, dx_old: float) -> bool:
    """Newton's step |fx / d| is at most tol / 16, or at most tol after a
    last step of at most tol."""
    # tol / 16 is one to three ulps of an x >= 1; a second step within
    # tol means F is down to its rounding noise.
    return 16.0 * abs(fx) <= tol * abs(d) or (abs(fx) <= tol * abs(d) and dx_old <= tol)


# Not underscored: perfbench/spans.py spans this stage by its name.
def refine(id: ZeroId, target: tuple, a: float, b: float, fa: float, fb: float) -> ZeroRecord:
    """Polish the walk's bracket [a, b] of zero ``id``, with fa = F(a) and
    fb = F(b), by Newton safeguarded by bisection.

    Newton starts at the secant point a - F(a) (b - a) / (F(b) - F(a)) of
    the bracket, or at its midpoint when that point is not strictly
    inside. It runs until its step |F/F'| is at most tol / 16 or, twice
    running, at most tol, where tol = WIDTH_TOL/2 * max(1, |x|). One
    probe tol past that iterate x, on the root's side, then returns x
    with the bracket {x, probe} if F changes sign there; otherwise the
    probe narrows the bracket and the loop goes on. It also stops once
    the bracket is at most WIDTH_TOL * max(1, |x|) wide, and raises
    ConvergenceError after MAX_REFINE_ITERS iterations. The value is the
    evaluated iterate x, not x - F/F': that last step (one to three ulps)
    is not applied, so ``residual`` is exactly F(value) at no extra call.

    A J or Y iterate evaluates F = C_nu alone and runs that test with an
    estimate of F'(x): the bracket's secant slope (F(b) - F(a)) / (b - a)
    at the first iterate, the last iterate's F' after that. It calls
    C_{nu+1}(x) for F'(x) itself when the estimate is not finite or fails
    the test, and when Newton has to step. The estimate only decides
    whether to probe: the probe's sign change certifies every record.

    ``iterations`` counts the iterates, except one that ends the loop by
    an exact zero or the width stop, and not the probes. F at the ends
    comes with the bracket, so a zero certified by its first probe costs
    iterations + 1 points. A J or Y zero's points cost one C_nu call
    each, plus one C_{nu+1} call per iterate that steps; a J' or Y'
    point costs the pair.
    """
    value, value_slope, slope = target
    if fa == 0.0:
        return ZeroRecord(id, a, Bracket(a, a), 0.0, 0)
    if fb == 0.0:
        return ZeroRecord(id, b, Bracket(b, b), 0.0, 0)

    x = a - fa * (b - a) / (fb - fa)
    if not a < x < b:
        x = 0.5 * (a + b)
    d = (fb - fa) / (b - a)  # a J or Y iterate's first estimate of F'
    dx_old = b - a
    iterations = 0
    while True:
        if slope is None:
            fx, d = value_slope(x)
        else:
            fx = value(x)
        if fx == 0.0:
            a = b = x
            break
        if fa < 0.0 < fx or fx < 0.0 < fa:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if b - a <= WIDTH_TOL * max(1.0, abs(x)):
            break
        iterations += 1
        if iterations > MAX_REFINE_ITERS:
            raise ConvergenceError(f"no convergence for {id} after {MAX_REFINE_ITERS} iterations", code="NO_CONVERGENCE")
        tol = 0.5 * WIDTH_TOL * max(1.0, abs(x))
        # Tested before the in-bracket test below, which a sub-ulp Newton
        # step never passes. An estimated slope that fails is replaced by
        # F'(x), as is one that is not finite, and the test runs again.
        exact = slope is None
        settled = (exact or math.isfinite(d)) and _settled(fx, d, tol, dx_old)
        if not (settled or exact):
            d, exact = slope(x, fx), True
            settled = _settled(fx, d, tol, dx_old)
        if settled:
            probe = x - math.copysign(tol, fx / d)
            if a < probe < b:
                fp = value(probe)
                if fp < 0.0 < fx or fx < 0.0 < fp:
                    a, b = min(x, probe), max(x, probe)
                    break
                if fp > 0.0 < fa or fp < 0.0 > fa:
                    a, fa = probe, fp
                elif fp > 0.0 < fb or fp < 0.0 > fb:
                    b, fb = probe, fp
        if not exact:
            d = slope(x, fx)
        # Bisect when Newton would leave the bracket or crawl (rtsafe rule);
        # either way the bracket width at least halves every other step.
        newton_ok = d != 0.0 and abs(2.0 * fx) <= abs(dx_old * d)
        if newton_ok:
            x_new = x - fx / d
            newton_ok = a < x_new < b
        if not newton_ok:
            x_new = 0.5 * (a + b)
        dx_old = abs(x_new - x)
        if x_new == x:
            break
        x = x_new

    # Every exit leaves x at a or b with fx = F(x) already evaluated.
    return ZeroRecord(id, x, Bracket(a, b), fx, iterations)


# --- cached sequential enumeration ----------------------------------------

_cache: dict[tuple[ZeroKind, float], list[ZeroRecord]] = {}
# Per cached sequence whose last walk ended on a nonzero F: (z, x, F(x))
# with z its last zero and x that walk's upper end, where the next walk
# starts. The previous walk's bracket held z alone, so (z, x] holds no zero.
_anchors: dict[tuple[ZeroKind, float], tuple[float, float, float]] = {}
# Guards every read and extension of the cache. Extending a sequence never
# looks up another one, so holding it across the refinement cannot deadlock.
_cache_lock = threading.Lock()


def clear_cache() -> None:
    """Drop all memoized zero sequences (mainly for tests)."""
    with _cache_lock:
        _cache.clear()
        _anchors.clear()


def _predict(records: list[ZeroRecord]) -> tuple[float, float] | None:
    """A guess (g, h) at the next zero: g extrapolates the last three
    quadratically, and h, the gap to the linear extrapolation, bounds
    its error (at least ~2e-11 relative)."""
    if len(records) < 3:
        return None
    z1, z2, z3 = records[-3].value, records[-2].value, records[-1].value
    g = 3.0 * (z3 - z2) + z1
    return g, max(abs(g - (2.0 * z3 - z2)), 2e-11 * max(1.0, g))


def _extend_sequence(kind: ZeroKind, nu: float, s_max: int) -> list[ZeroRecord]:
    """The cached records of (kind, nu), extended to at least s_max ranks.

    Returns the cache's own list, which only ever grows: read it, never
    modify it.
    """
    key = (kind, nu)
    with _cache_lock:
        records = _cache.setdefault(key, [])
        if len(records) >= s_max:
            return records
        # Taken out for an extension and put back at its end, so one that
        # raises leaves no anchor and the next walk starts past the zero.
        anchor = _anchors.pop(key, None)
        target = _target(kind, nu)
        if not records and kind is ZeroKind.JPRIME and nu == 0.0:
            records.append(ZeroRecord(ZeroId(kind, nu, 1), 0.0, Bracket(0.0, 0.0), 0.0, 0))
        while len(records) < s_max:
            s = len(records) + 1
            id = ZeroId(kind, nu, s)
            prev, x, fx = anchor or (records[-1].value if records else None, None, None)
            a, b, fa, fb = initial_bracket(id, target, prev, x, fx, _predict(records))
            rec = refine(id, target, a, b, fa, fb)
            if records and not rec.value > records[-1].value:
                raise ConvergenceError(
                    f"zeros of {kind.name} nu={nu} failed to increase at s={s}",
                    code="NO_CONVERGENCE",
                )
            if abs(rec.residual) > RESID_TOL * max(1.0, abs(rec.value)):
                raise ConvergenceError(
                    f"residual {rec.residual!r} above tolerance for {id}",
                    code="NO_CONVERGENCE",
                )
            records.append(rec)
            anchor = (rec.value, b, fb) if fb != 0.0 else None
        if anchor:
            _anchors[key] = anchor
        return records


def zero(id: ZeroId) -> ZeroRecord:
    """The zero named by ``id``, with its certifying bracket."""
    return _extend_sequence(id.kind, id.nu, id.s)[id.s - 1]


def zeros_upto(kind: ZeroKind, nu: float, s_max: int) -> list[ZeroRecord]:
    """Records for ranks 1..s_max, strictly increasing in value."""
    id = ZeroId(kind, nu, s_max)
    return _extend_sequence(kind, id.nu, s_max)[:s_max]
