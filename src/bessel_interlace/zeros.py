"""Enumeration of positive real zeros j_{nu,s}, y_{nu,s}, j'_{nu,s}, y'_{nu,s}.

Every zero is certified by a sign-change bracket. A cached sequence is
one cache entry: its columns, float64 ``value``, ``other`` (the bracket
end that is not the value) and ``residual`` and an int16 ``iterations``,
with the rank s as the position (26 bytes per zero), and the anchor its
next extension starts from. One loop, ``_extend_sequence``, extends it
a zero at a time:
``initial_bracket`` walks to a bracket (lo, hi, F(lo), F(hi)) and states
what certifies each zero's rank; ``refine`` polishes that bracket into
the zero's columns and states when it stops and what a zero costs. Both
compare signs directly, never through a product of F values, which
underflows to 0.0 once both are below ~1e-162. No ``ZeroRecord`` is
kept: ``zero`` and a ``ZeroTable``'s index build one per call.

Indexing follows the classical convention: x = 0 counts as the first
zero of J'_0, so j'_{0,1} = 0 and j'_{0,s} = j_{1,s-1} for s >= 2. The
loop records it with the bracket [0, 0] and walks to none.
Y-family zeros are all strictly positive.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import threading
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from . import evaluate as ev
from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "ZeroKind",
    "ZeroId",
    "ZeroRecord",
    "ZeroTable",
    "zero",
    "zeros_upto",
]

S_MAX_LIMIT = 10_000

#: Widest bracket a zero may carry, relative to max(1, root): a
#: converged Newton iterate is certified by a probe half this far away,
#: and refinement also stops once the bracket narrows to this width.
WIDTH_TOL = 1e-14

#: |f(root)| certified by every zero, relative to max(1, root).
RESID_TOL = 1e-10

MAX_REFINE_ITERS = 200

# No two consecutive zeros of any one target family sit closer than
# this on x > 0: zero spacing tends to pi from either side and only
# widens near the turning point.
_MIN_GAP = 2.2

_STEP = 0.55 * _MIN_GAP

# How far a walk may travel past its anchor before it gives up. The
# furthest zero from its anchor on the supported domain is j_{600,1},
# 15.8 above nu = 600, so this leaves a wide margin; the tests check the
# bound against zeros found by a grid scan.
_REACH = 192.0

# Rank 1 at an order nu >= _FLOOR_ORDER lies above its floor nu + _FLOOR_SCALE
# c nu^(1/3), c = 2^(-1/3) |r| for r the first zero of Ai, Bi, Ai', Bi' (J, Y,
# J', Y'): Qu and Wong's bound for J, A&S 9.5.15-9.5.17's leading term for the
# rest; the tests check it against zeros found by a grid scan (margins: README).
_FLOOR_ORDER = 1.0
_FLOOR_SCALE = 0.99
_AIRY_FLOOR = {"j": 1.8557571, "y": 0.9315768, "jp": 0.8086165, "yp": 1.8210980}


class ZeroKind(enum.Enum):
    # Members are singletons, so identity hashing agrees with equality and
    # runs in C; Enum's own __hash__ is a Python call per cache key.
    __hash__ = object.__hash__

    J = "j"
    Y = "y"
    JPRIME = "jp"
    YPRIME = "yp"


def check_rank(s: int, cap: int = S_MAX_LIMIT, of: str = "") -> int:
    """Validate a rank s in 1..cap of any integral type, returning it as int.
    Raises DomainError (DOMAIN_S); ``of`` ends the message of a rank past the cap."""
    try:
        rank = operator.index(s)
    except TypeError:
        rank = 0
    if rank < 1:
        raise DomainError(f"rank must be a positive integer, got {s!r}", code="DOMAIN_S")
    if rank > cap:
        raise DomainError(f"rank {rank} exceeds the supported cap {cap}{of}", code="DOMAIN_S")
    return rank


def check_zero_id(kind: ZeroKind, nu: float, s: int) -> tuple[float, int]:
    """The one domain rule for a zero's kind, order and rank, which ``ZeroId``
    and ``zeros_upto`` both apply: returns (nu, s) as (float, int).
    Raises DomainError."""
    if not isinstance(kind, ZeroKind):
        raise DomainError(f"zero kind must be a ZeroKind, got {kind!r}", code="DOMAIN_KIND")
    # The scalar evaluators take floats only (scipy's typed entry points
    # have no int signature), so an int order becomes a float here; a rank
    # of any integral type becomes an int.
    return ev.check_order(nu), check_rank(s)


@dataclass(frozen=True, slots=True)
class ZeroId:
    """Names one zero: the s-th positive zero of the kind's function at order nu.

    The constructor applies ``check_zero_id``.
    """

    kind: ZeroKind
    nu: float
    s: int

    def __post_init__(self) -> None:
        """Raises DomainError on a kind, order or rank outside the supported domain."""
        nu, s = check_zero_id(self.kind, self.nu, self.s)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    """The s-th zero of its sequence, certified by F changing sign across
    [lo, hi]; ``residual`` is F(value) and ``iterations`` refine's iterates.

    The conventional j'_{0,1} zero has the degenerate bracket [0, 0], and a
    zero hit exactly at a point x, the bracket [x, x].
    """

    s: int
    value: float
    lo: float
    hi: float
    residual: float
    iterations: int


def _record(columns: tuple[array, ...], k: int) -> ZeroRecord:
    """The ZeroRecord of rank k + 1 of a sequence's columns."""
    value, other, residual, iterations = columns
    v, o = value[k], other[k]
    return ZeroRecord(k + 1, v, *((v, o) if v < o else (o, v)), residual[k], iterations[k])


def _column(i: int, name: str) -> property:
    return property(lambda self: self._columns[i][: self._n], doc=f"A copy of the {name} column, ranks 1..n.")


def _end(pick) -> property:
    doc = f"The bracket's {pick.__name__} end, ranks 1..n, rebuilt from the value and the other end."
    return property(lambda self: array("d", map(pick, *(c[: self._n] for c in self._columns[:2]))), doc=doc)


class ZeroTable:
    """Ranks 1..n of one zero sequence, read-only: a view of the cache's
    columns at length n, made without a copy.

    An int index builds that rank's ZeroRecord (index s - 1 for rank s),
    and a slice a list of them. ``value``, ``lo``, ``hi``, ``residual``
    and ``iterations`` return columns cut to n, as float64 (int16 for
    ``iterations``) ``array.array``s: copies, and ``lo`` and ``hi`` min
    and max of the value and the other end; ``rows()`` reads the printed
    fields in place instead. Two tables are equal when their columns hold
    the same bits. A cached sequence only grows, so ranks 1..n never
    change: the view keeps them after the sequence grows and after
    ``clear_cache``.
    """

    __slots__ = ("_columns", "_n")

    def __init__(self, columns: tuple[array, ...], n: int) -> None:
        """A view of the first n entries of ``columns``, (value, other,
        residual, iterations), which must each hold at least n and never
        change below n; ``other`` is the bracket end that is not the value."""
        self._columns = columns
        self._n = n

    value = _column(0, "value")
    lo = _end(min)
    hi = _end(max)
    residual = _column(2, "residual")
    iterations = _column(3, "iterations")

    def __len__(self) -> int:
        return self._n

    def rows(self) -> Iterator[tuple[int, float, float, float, float]]:
        """(s, value, lo, hi, residual) for s = 1..n, read from the columns
        without a copy."""
        # zip stops at its first iterable, the ranks, so no column is read past n.
        rows = zip(range(1, self._n + 1), *self._columns[:3])
        return ((s, v, v, o, r) if v < o else (s, v, o, v, r) for s, v, o, r in rows)

    def __getitem__(self, index):
        # range(n) does a sequence's index rules: negatives, bounds, slices.
        k = range(self._n)[index]
        return [_record(self._columns, i) for i in k] if isinstance(k, range) else _record(self._columns, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZeroTable):
            return NotImplemented
        n = self._n
        return n == other._n and all(a[:n].tobytes() == b[:n].tobytes() for a, b in zip(self._columns, other._columns))


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
    # Every other first zero walked to lies above nu and above 1e-6; the
    # tests check it against zeros found by a grid scan.
    return max(nu, 1e-6)


# Not underscored: perfbench/spans.py spans this stage by its name.
def initial_bracket(
    kind: ZeroKind, nu: float, s: int, target: tuple, prev: float | None, x: float | None, fx: float | None, guess: tuple | None
) -> tuple[float, float, float, float]:
    """A bracket (lo, hi, F(lo), F(hi)) certified to hold exactly the s-th
    zero of the kind at order nu, for F's ``_target`` triple ``target``.

    The walk starts at an anchor x, with F(x) = fx, above the s - 1 zeros
    found and below rank s: the upper end of the bracket that ``prev``, the
    previous zero, was walked to, which held that zero alone; with x None,
    at ``_scan_start``. For rank 1 at nu >= _FLOOR_ORDER it is the last
    point at or below the floor (``_AIRY_FLOOR``) of the lattice x, x +
    _STEP, ... from there, and no point before it is evaluated. It steps by
    _STEP < _MIN_GAP, so the first sign change it meets, or a point where F
    is exactly 0.0, is rank s. It raises BracketError when F reads NaN or
    no sign change appears within _REACH of the anchor.

    A ``guess`` (g, h), h bounding g's error, places the first two points
    at g - h and g + 2h. Rank s lies at least _MIN_GAP past prev and rank
    s + 1 at least 2 * _MIN_GAP, so a first step up to prev + 2 * _MIN_GAP
    meets rank s at most. The guess is used only when g - h is past the
    anchor and within that reach, and g + 2h less than _MIN_GAP above it.
    It only places sign checks: the ranks rest on the spacing alone.
    """
    value = target[0]
    if x is None:
        x = _scan_start(kind, nu, prev)
        if prev is None and nu >= _FLOOR_ORDER:
            floor = nu + _FLOOR_SCALE * _AIRY_FLOOR[kind.value] * nu ** (1.0 / 3.0)
            while x + _STEP <= floor:
                x += _STEP
        fx = value(x)
        if fx == 0.0 or math.isnan(fx):
            x *= 1.0 + 1e-9
            fx = value(x)

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
            raise BracketError(f"evaluator returned NaN at x={x2} while bracketing {ZeroId(kind, nu, s)}")
        if fx2 == 0.0 or fx < 0.0 < fx2 or fx2 < 0.0 < fx:
            return x, x2, fx, fx2
        x, fx = x2, fx2
    raise BracketError(f"no sign change found for {ZeroId(kind, nu, s)} within {_REACH} of its anchor")


# Not underscored: perfbench/spans.py spans this stage by its name.
def refine(
    kind: ZeroKind, nu: float, s: int, target: tuple, a: float, b: float, fa: float, fb: float
) -> tuple[float, float, float, float, int]:
    """Polish the walk's bracket [a, b] of the s-th zero, with fa = F(a)
    and fb = F(b), into (value, lo, hi, residual, iterations), value at lo or hi.

    Newton, safeguarded by bisection, starts at the bracket's secant point
    (its midpoint when that is not strictly inside) and runs until its step
    |F/F'| is at most tol / 16 or, twice running, at most tol, with tol =
    WIDTH_TOL/2 * max(1, |x|). One probe tol past that iterate x, on the
    root's side, returns x with the bracket {x, probe} if F changes sign
    there; otherwise the probe narrows the bracket and the loop goes on. It
    also stops once the bracket is at most WIDTH_TOL * max(1, |x|) wide, and
    raises ConvergenceError after MAX_REFINE_ITERS iterations. The value is
    the evaluated iterate x, not x - F/F', so ``residual`` is F(value).

    A J or Y iterate evaluates F = C_nu alone and tests the step with an
    estimate of F'(x), the secant slope first and the last iterate's F'
    after. It calls C_{nu+1}(x) for F'(x) when the estimate is not finite
    or fails the test, and when Newton has to step. The estimate only
    decides whether to probe; the probe's sign change certifies the zero.

    ``iterations`` counts every iterate, also one that ends the loop, and
    not the probes. F at the ends comes with the bracket, so a zero costs
    its iterations plus its probes in points: 1 when its first iterate ends
    the loop on the width test, 2 when its first probe certifies it. A J or Y point costs one C_nu call,
    plus one C_{nu+1} call per iterate that steps; a J' or Y' point the
    pair. Deep in a sequence McMahon's guess brackets a zero within
    WIDTH_TOL: a J or Y zero costs 3 calls (2 walk points, 1 iterate) and a
    J' or Y' zero 6.
    """
    value, value_slope, slope = target
    if fa == 0.0:
        return a, a, a, 0.0, 0
    if fb == 0.0:
        return b, b, b, 0.0, 0

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
        iterations += 1
        if fx == 0.0:
            a = b = x
            break
        if fa < 0.0 < fx or fx < 0.0 < fa:
            b, fb = x, fx
        else:
            a, fa = x, fx
        width = WIDTH_TOL * max(1.0, abs(x))
        if b - a <= width:
            break
        if iterations > MAX_REFINE_ITERS:
            raise ConvergenceError(f"no convergence for {ZeroId(kind, nu, s)} after {MAX_REFINE_ITERS} iterations")
        tol = 0.5 * width
        # Settled: Newton's step |fx / d| is at most tol / 16, or at most
        # tol after a last step of at most tol. tol / 16 is one to three
        # ulps of an x >= 1; a second step within tol means F is down to
        # its rounding noise. Tested before the in-bracket test below,
        # which a sub-ulp Newton step never passes. An estimated slope
        # that fails is replaced by F'(x), as is one that is not finite,
        # and the test runs again.
        need = abs(fx) if dx_old <= tol else 16.0 * abs(fx)
        exact = slope is None
        settled = (exact or math.isfinite(d)) and need <= tol * abs(d)
        if not (settled or exact):
            d, exact = slope(x, fx), True
            settled = need <= tol * abs(d)
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
    return x, a, b, fx, iterations


# --- cached sequential enumeration ----------------------------------------

# Per cached sequence, one entry (columns, anchor), dropped as one. The
# columns (value, other, residual, iterations) are float64 arrays and an
# int16 array (iterations <= MAX_REFINE_ITERS + 1), all of one length, the
# rank s at index s - 1; they only grow, and only under _cache_lock.
# ``refine`` returns its value as one end of its bracket, so lo and hi are
# min and max of the value and ``other``, exactly. The anchor, None or
# (x, F(x)), is where the next walk starts (``initial_bracket``); None
# before the first walk and after a walk that hit its zero exactly.
_cache: dict[tuple[ZeroKind, float], tuple[tuple[array, ...], tuple | None]] = {}
# Guards every lookup and extension of the cache. Extending a sequence never
# looks up another one, so holding it across the refinement cannot deadlock.
# A ZeroTable reads its columns below its length without it: those
# entries never change.
_cache_lock = threading.Lock()


def clear_cache() -> None:
    """Drop all memoized zero sequences (mainly for tests)."""
    with _cache_lock:
        _cache.clear()


def drop_orders_below(nu: float) -> None:
    """Drop every memoized sequence of an order below nu, for a caller that
    reads no such order again; ``ZeroTable`` views keep their ranks."""
    with _cache_lock:
        for key in [key for key in _cache if key[1] < nu]:
            del _cache[key]


def _mcmahon_row(kind: ZeroKind, nu: float) -> tuple[float, float, float, float, float]:
    """(c1, c3, c5, c7, shift) of McMahon's expansion of the kind's zeros at
    order nu, for ``_mcmahon``, with mu = 4 nu^2: A&S 9.5.12 gives the c
    for j and y, at beta = (s + nu/2 - 1/4) pi and (s + nu/2 - 3/4) pi;
    A&S 9.5.13 those for j' and y', at (s + nu/2 - 3/4) pi (so j'_{0,1} = 0
    counts as rank 1) and (s + nu/2 - 1/4) pi. beta = (s + shift) pi.
    """
    mu = 4.0 * nu * nu
    shift = 0.5 * nu - (0.25 if kind in (ZeroKind.J, ZeroKind.YPRIME) else 0.75)
    if kind in (ZeroKind.J, ZeroKind.Y):
        a = mu - 1.0
        return (
            a,
            4.0 * a * (7.0 * mu - 31.0) / 3.0,
            32.0 * a * ((83.0 * mu - 982.0) * mu + 3779.0) / 15.0,
            64.0 * a * (((6949.0 * mu - 153855.0) * mu + 1585743.0) * mu - 6277237.0) / 105.0,
            shift,
        )
    return (
        mu + 3.0,
        4.0 * ((7.0 * mu + 82.0) * mu - 9.0) / 3.0,
        32.0 * (((83.0 * mu + 2075.0) * mu - 3039.0) * mu + 3537.0) / 15.0,
        64.0 * ((((6949.0 * mu + 296492.0) * mu - 1248002.0) * mu + 7414380.0) * mu - 5853627.0) / 105.0,
        shift,
    )


def _mcmahon(row: tuple[float, float, float, float, float], s: int) -> float:
    """M(s) = beta - c1/(8 beta) - c3/(8 beta)^3 - c5/(8 beta)^5 - c7/(8 beta)^7,
    McMahon's expansion of the s-th zero with four corrections, for a
    ``_mcmahon_row``."""
    c1, c3, c5, c7, shift = row
    b8 = 8.0 * math.pi * (s + shift)
    t = 1.0 / (b8 * b8)
    return 0.125 * b8 - (c1 + t * (c3 + t * (c5 + t * c7))) / b8


def _predict(values: array, m: float | None, d_old: float | None, d_last: float | None) -> tuple[float, float] | None:
    """A guess (g, h) at the next zero of the sequence whose ``values``
    column this is, where h bounds g's error, from the source whose h is
    smaller; None before either has its history.

    McMahon's, from rank 3, with ``m`` = M(s) and d = z - M of the last
    two zeros, ``d_old`` before ``d_last``: g = m + d_last and h =
    max(2 |d_last - d_old|, 4 ulp(g)). The quadratic one, from rank 4: g
    extrapolates the last three zeros quadratically and h, the gap to the
    linear extrapolation, is at least 2e-11 * max(1, g), so a McMahon h
    below 2e-11 wins without it.
    """
    if d_old is not None:
        g = m + d_last
        h = max(2.0 * abs(d_last - d_old), 4.0 * math.ulp(g))
        if h < 2e-11 or len(values) < 3:
            return g, h
    elif len(values) < 3:
        return None
    z1, z2, z3 = values[-3], values[-2], values[-1]
    gq = 3.0 * (z3 - z2) + z1
    hq = max(abs(gq - (2.0 * z3 - z2)), 2e-11 * max(1.0, gq))
    return (g, h) if d_old is not None and h < hq else (gq, hq)


def _extend_sequence(kind: ZeroKind, nu: float, s_max: int) -> tuple[array, ...]:
    """The cached columns of (kind, nu), extended to at least s_max ranks.

    kind, nu and s_max must have passed ``check_zero_id``.
    Returns the cache's own columns, which only ever grow: read them,
    never modify them. McMahon's row and the last two d are rebuilt from
    the columns by each extension, to the bits one call would carry. The
    entry is stored without its anchor while the sequence grows, so an
    extension that raises leaves none: the next walk starts past the
    last zero.
    """
    key = (kind, nu)
    with _cache_lock:
        columns, anchor = _cache.get(key) or ((array("d"), array("d"), array("d"), array("h")), None)
        values, others, residuals, iterations = columns
        if len(values) >= s_max:
            return columns
        _cache[key] = columns, None
        x, fx = anchor or (None, None)
        row = d_old = d_last = None
        target = _target(kind, nu)
        if not values and kind is ZeroKind.JPRIME and nu == 0.0:
            for column in columns:
                column.append(0)
        while len(values) < s_max:
            s = len(values) + 1
            # McMahon's guess needs two walked zeros before it (j'_{0,1} = 0
            # is not walked), so a sequence that stops short of that
            # builds no row.
            if row is None and s > 2 and values[-2] > 0.0:
                row = _mcmahon_row(kind, nu)
                d_old, d_last = (values[r - 1] - _mcmahon(row, r) for r in (s - 2, s - 1))
            m = _mcmahon(row, s) if row else None
            prev = values[-1] if values else None
            a, b, fa, fb = initial_bracket(kind, nu, s, target, prev, x, fx, _predict(values, m, d_old, d_last))
            z, lo, hi, residual, its = refine(kind, nu, s, target, a, b, fa, fb)
            if values and not z > prev:
                raise ConvergenceError(f"zeros of {kind.name} nu={nu} failed to increase at s={s}")
            if abs(residual) > RESID_TOL * max(1.0, abs(z)):
                raise ConvergenceError(f"residual {residual!r} above tolerance for {ZeroId(kind, nu, s)}")
            values.append(z)
            others.append(hi if z == lo else lo)
            residuals.append(residual)
            iterations.append(its)
            x, fx = (b, fb) if fb != 0.0 else (None, None)
            if row:
                d_old, d_last = d_last, z - m
        _cache[key] = columns, None if x is None else (x, fx)
        return columns


def zero(id: ZeroId) -> ZeroRecord:
    """The zero named by ``id``, with its certifying bracket: a new
    ZeroRecord built from the cache's columns."""
    return _record(_extend_sequence(id.kind, id.nu, id.s), id.s - 1)


def zeros_upto(kind: ZeroKind, nu: float, s_max: int) -> ZeroTable:
    """Ranks 1..s_max, strictly increasing in value, as a read-only
    ``ZeroTable`` over the cache's columns."""
    nu, s_max = check_zero_id(kind, nu, s_max)
    return ZeroTable(_extend_sequence(kind, nu, s_max), s_max)
