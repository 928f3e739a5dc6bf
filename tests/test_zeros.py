import dataclasses
import functools
import math
import statistics
import sys
import tracemalloc
import types
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jv, jvp, yv, yvp

import fixtures
import oracle
from cache_view import cache_bytes, cached_columns
from bessel_interlace import (
    DomainError,
    ZeroId,
    ZeroKind,
    zero,
    zeros_upto,
)
import bessel_interlace.evaluate as ev
import bessel_interlace.interlace as imod
import bessel_interlace.zeros as zmod
from bessel_interlace.zeros import _MIN_GAP, _REACH, _STEP, WIDTH_TOL, _scan_start, _target


def zval(kind, nu, s):
    return zero(ZeroId(kind, nu, s)).value


def target(kind, nu):
    return _target(kind, nu)[0]


def cold_zero(id):
    """zero(id) from a cold cache, leaving the cache cold: a test's stubbed
    target must not reach a later lookup."""
    zmod.clear_cache()
    try:
        return zero(id)
    finally:
        zmod.clear_cache()


def spied(monkeypatch, name, id):
    """zero(id) from a cold cache, with each call the sequence loop makes to
    zmod.<name> (``initial_bracket`` or ``refine``) recorded by rank as
    (args, result); the rank is the third argument, after kind and order."""
    real, calls = getattr(zmod, name), {}

    def spy(*args):
        calls[args[2]] = args, real(*args)
        return calls[args[2]][1]

    with monkeypatch.context() as m:
        m.setattr(zmod, name, spy)
        return cold_zero(id), calls


_SCIPY = {ZeroKind.J: jv, ZeroKind.Y: yv, ZeroKind.JPRIME: jvp, ZeroKind.YPRIME: yvp}


@functools.lru_cache(maxsize=None)
def grid_zeros(kind, nu, count, step=0.05, bisections=60):
    """The first ``count`` positive zeros, found by a scipy grid scan plus
    vectorized bisection, without the library's root finder.

    No positive zero of J_nu, Y_nu, J'_nu or Y'_nu lies below nu, so the
    grid starts at nu / 2. It ends where the Debye phase
    sqrt(x^2 - nu^2) - nu arccos(nu/x), which gains about pi per zero,
    reaches (count + 2) pi. A ``step`` below the smallest zero spacing
    (2.2) keeps each grid cell to one zero; each zero is then bisected
    ``bisections`` times.
    """
    f = _SCIPY[kind]
    phase = lambda t: t - nu * math.atan2(t, nu) - (count + 2) * math.pi  # t = sqrt(x^2 - nu^2)
    x_max = math.hypot(nu, brentq(phase, 0.0, (count + 2) * math.pi * (1.0 + nu))) + 5.0
    xs = np.arange(max(0.01, 0.5 * nu), x_max, step)
    with np.errstate(all="ignore"):
        vals = f(nu, xs)
        i = np.nonzero(np.isfinite(vals[:-1]) & np.isfinite(vals[1:]) & (vals[:-1] * vals[1:] < 0.0))[0][:count]
        a, b, fa = xs[i], xs[i + 1], vals[i]
        for _ in range(bisections):
            m = 0.5 * (a + b)
            fm = f(nu, m)
            left = fa * fm <= 0.0
            a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    assert len(i) == count
    return tuple(0.5 * (a + b))


class TestZeroIdDomain:
    # check_zero_id holds the one domain rule for a zero's kind, order and rank,
    # and the constructor applies it.
    @pytest.mark.parametrize(
        "nu,s,code",
        [
            (math.nan, 1, "DOMAIN_NU"),
            (-1.0, 1, "DOMAIN_NU"),
            (600.5, 1, "OVERFLOW_NU"),
            (2.0, 0, "DOMAIN_S"),
            (2.0, 1.5, "DOMAIN_S"),
            (2.0, 2.0, "DOMAIN_S"),
            (2.0, 10_001, "DOMAIN_S"),
            (2.0, np.int64(0), "DOMAIN_S"),
            (2.0, np.int64(10_001), "DOMAIN_S"),
            (2.0, np.float64(2.0), "DOMAIN_S"),
        ],
    )
    def test_out_of_domain_rejected_on_construction(self, nu, s, code):
        with pytest.raises(DomainError) as err:
            ZeroId(ZeroKind.J, nu, s)
        assert err.value.code == code

    def test_int_order_stored_as_float(self):
        nu = ZeroId(ZeroKind.J, 2, 1).nu
        assert type(nu) is float and nu == 2.0

    def test_numpy_integer_rank_stored_as_int(self):
        for s in (np.int64(3), np.int32(3), np.uint16(3)):
            id = ZeroId(ZeroKind.J, 1, s)
            assert type(id.s) is int and id == ZeroId(ZeroKind.J, 1.0, 3)
            zmod.clear_cache()
            table = zeros_upto(ZeroKind.J, 1, s)
            assert len(table) == 3 and table == zeros_upto(ZeroKind.J, 1.0, 3)
            assert [(kind, type(nu)) for kind, nu in cached_columns()] == [(ZeroKind.J, float)]

    # A kind's text is parsed by the CLI's --kind choices only; the constructor takes no strings.
    @pytest.mark.parametrize("kind", ["j", None, ZeroKind])
    def test_kind_not_a_zero_kind_rejected(self, kind):
        with pytest.raises(DomainError) as err:
            ZeroId(kind, 1.0, 1)
        assert err.value.code == "DOMAIN_KIND"

    # zeros_upto applies the constructor's rule, check_zero_id, without
    # building a ZeroId: the same code and message, and no cache entry.
    @pytest.mark.parametrize(
        "kind,nu,s",
        [
            ("j", 1.0, 1),
            (None, math.nan, 0),
            (ZeroKind.Y, math.nan, 1),
            (ZeroKind.Y, math.inf, 1),
            (ZeroKind.Y, -math.inf, 1),
            (ZeroKind.Y, -0.5, 1),
            (ZeroKind.Y, math.nextafter(ev.NU_MAX, math.inf), 1),
            (ZeroKind.Y, math.nan, 0),
            (ZeroKind.J, 2.0, 0),
            (ZeroKind.J, 2.0, -3),
            (ZeroKind.J, 2.0, zmod.S_MAX_LIMIT + 1),
            (ZeroKind.J, 2.0, np.int64(0)),
            (ZeroKind.J, 2.0, np.int64(zmod.S_MAX_LIMIT + 1)),
            (ZeroKind.J, 2.0, 3.0),
        ],
    )
    def test_zeros_upto_rejects_as_the_constructor_does(self, kind, nu, s):
        zmod.clear_cache()
        with pytest.raises(DomainError) as by_id:
            ZeroId(kind, nu, s)
        with pytest.raises(DomainError) as by_lookup:
            zeros_upto(kind, nu, s)
        assert (by_lookup.value.code, str(by_lookup.value)) == (by_id.value.code, str(by_id.value))
        assert zmod._cache == {}

    def test_bad_kind_leaves_the_cache_empty(self):
        zmod.clear_cache()
        with pytest.raises(DomainError) as err:
            zeros_upto("y", 2.5, 3)
        assert err.value.code == "DOMAIN_KIND"
        assert zmod._cache == {}

    @pytest.mark.parametrize("cap", [1, 99, zmod.S_MAX_LIMIT])
    def test_check_rank_bounds(self, cap):
        assert zmod.check_rank(1, cap) == 1 and zmod.check_rank(cap, cap) == cap
        with pytest.raises(DomainError) as err:
            zmod.check_rank(0, cap)
        assert (err.value.code, str(err.value)) == ("DOMAIN_S", "rank must be a positive integer, got 0")
        with pytest.raises(DomainError) as err:
            zmod.check_rank(cap + 1, cap, of=" of the suite")
        assert (err.value.code, str(err.value)) == ("DOMAIN_S", f"rank {cap + 1} exceeds the supported cap {cap} of the suite")
        # Any integral type converts to int; a float, even an integral one, does not.
        rank = zmod.check_rank(np.int64(cap), cap)
        assert type(rank) is int and rank == cap
        with pytest.raises(DomainError) as err:
            zmod.check_rank(np.int64(cap + 1), cap, of=" of the suite")
        assert str(err.value) == f"rank {cap + 1} exceeds the supported cap {cap} of the suite"
        for bad in (np.int64(0), 1.0, 2.0, 1.5):
            with pytest.raises(DomainError) as err:
                zmod.check_rank(bad, cap)
            assert (err.value.code, str(err.value)) == ("DOMAIN_S", f"rank must be a positive integer, got {bad!r}")


class TestInitialBracket:
    # The walk's bracket of rank s, as the sequence loop hands it to refine.
    @staticmethod
    def walked(monkeypatch, kind, nu, s):
        _, walks = spied(monkeypatch, "initial_bracket", ZeroId(kind, nu, s))
        return walks[s][1]

    def test_first_j_zero_bracketed(self, monkeypatch):
        lo, hi, _, _ = self.walked(monkeypatch, ZeroKind.J, 0.0, 1)
        assert lo < fixtures.ORACLE_ZEROS[("j", 0.0, 1)] < hi
        assert hi - lo <= math.pi

    def test_half_order_y_bracketed(self, monkeypatch):
        lo, hi, _, _ = self.walked(monkeypatch, ZeroKind.Y, 0.5, 1)
        assert lo < math.pi / 2 < hi

    def test_jprime_convention_shift(self, monkeypatch):
        lo, hi, _, _ = self.walked(monkeypatch, ZeroKind.JPRIME, 0.0, 2)
        assert lo < fixtures.ORACLE_ZEROS[("j", 1.0, 1)] < hi

    def test_conventional_zero_is_not_walked(self, monkeypatch):
        rec, walks = spied(monkeypatch, "initial_bracket", ZeroId(ZeroKind.JPRIME, 0.0, 1))
        assert walks == {}
        assert (rec.lo, rec.hi) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "kind,nu,s",
        [
            (ZeroKind.J, 3.7, 4),
            (ZeroKind.Y, 0.0, 1),
            (ZeroKind.JPRIME, 0.3, 1),
            (ZeroKind.YPRIME, 12.0, 2),
        ],
    )
    def test_bracket_is_sign_change(self, monkeypatch, kind, nu, s):
        lo, hi, flo, fhi = self.walked(monkeypatch, kind, nu, s)
        f = target(kind, nu)
        # F at the ends comes with the bracket, exactly as F gives it.
        assert (flo.hex(), fhi.hex()) == (f(lo).hex(), f(hi).hex())
        assert f(lo) * f(hi) < 0.0
        assert hi - lo <= math.pi


class TestTarget:
    # _target gives a J or Y value C_nu and its slope from C_nu, C_{nu+1};
    # a J' or Y' value and slope from one pair C_nu, C_{nu+1}, and the value
    # alone bit-for-bit as the pair gives it. scipy's jvp/yvp (the n-th
    # derivative, n = 0 the function) form the derivatives their own way.
    DERIVATIVES = {ZeroKind.J: (jv, jvp, 0), ZeroKind.Y: (yv, yvp, 0), ZeroKind.JPRIME: (jv, jvp, 1), ZeroKind.YPRIME: (yv, yvp, 1)}

    @pytest.mark.parametrize("nu", [0.0, 0.3, 2.5, 30.0, 505.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_value_and_slope_match_scipy(self, kind, nu):
        c, dc, n = self.DERIVATIVES[kind]
        f, f_and_slope, f_slope = _target(kind, nu)
        # Exactly one way to the slope: F' from F(x) for J and Y, F and F' together for J', Y'.
        primed = kind in (ZeroKind.JPRIME, ZeroKind.YPRIME)
        assert (f_and_slope is None, f_slope is None) == (not primed, primed)
        for x in (nu + 1.0, nu + 7.3, 1.5 * nu + 40.0):  # past the turning point
            if f_slope is None:
                value, slope = f_and_slope(x)
            else:
                value = f(x)
                slope = f_slope(x, value)
            assert f(x) == value
            # Every term is at most |C_nu| + |C_{nu+1}| in size for x >= max(nu, 1).
            tol = 1e-12 * (abs(c(nu, x)) + abs(c(nu + 1.0, x)))
            assert value == pytest.approx(dc(nu, x, n), abs=tol)
            assert slope == pytest.approx(dc(nu, x, n + 1), abs=tol)

    @pytest.mark.parametrize("kind,nu", [(ZeroKind.J, 2.5), (ZeroKind.Y, 0.3), (ZeroKind.JPRIME, 30.0), (ZeroKind.YPRIME, 505.0)])
    def test_residual_is_the_target_at_the_value(self, kind, nu):
        for rec in zeros_upto(kind, nu, 12):
            assert rec.residual == target(kind, nu)(rec.value)


class TestWalkStop:
    # The cases that list the points evaluated use nu = 0.5, below
    # _FLOOR_ORDER, where the first walk evaluates every lattice point from
    # x0 = nu.

    # A walk point where F is exactly 0.0 ends the walk, and refine returns
    # it with the bracket [r, r], evaluating F nowhere else.
    def test_exact_zero_at_a_walk_point(self, monkeypatch):
        id = ZeroId(ZeroKind.J, 0.5, 1)
        x0 = _scan_start(id.kind, id.nu, None)
        r = (x0 + _STEP) + _STEP  # the walk's third point, as the walk forms it
        seen = []

        def line(kind, nu):
            def value(x):
                seen.append(x)
                return x - r

            return value, None, lambda x, fx: 1.0

        monkeypatch.setattr(zmod, "_target", line)
        rec = cold_zero(id)
        assert (rec.value, rec.lo, rec.hi, rec.residual, rec.iterations) == (r, r, r, 0.0, 0)
        assert seen == [x0, x0 + _STEP, r]

    def test_underflowing_product_is_no_bracket(self, monkeypatch):
        # F(x) F(x + _STEP) underflows to 0.0 at the first walk points, though
        # both are negative; the walk must go on to the sign change at 10.
        id = ZeroId(ZeroKind.J, 2.0, 1)
        slope = lambda x: 1e-170 if x < 10.0 else 1.0  # noqa: E731
        line = lambda x: slope(x) * (x - 10.0)  # noqa: E731
        monkeypatch.setattr(zmod, "_target", lambda kind, nu: (line, None, lambda x, fx: slope(x)))
        assert line(2.0) * line(2.0 + _STEP) == 0.0
        rec = cold_zero(id)
        assert rec.lo <= 10.0 <= rec.hi
        assert rec.value == pytest.approx(10.0, abs=1e-13)

    def test_sign_change_between_tiny_values(self, monkeypatch):
        # Across the sign change at 10 the product of two F values underflows
        # to -0.0; the walk and refine compare signs, so the zero is found.
        id = ZeroId(ZeroKind.J, 2.0, 1)
        line = lambda x: 1e-170 * (x - 10.0)  # noqa: E731
        monkeypatch.setattr(zmod, "_target", lambda kind, nu: (line, None, lambda x, fx: 1e-170))
        assert line(9.0) * line(11.0) == 0.0
        rec = cold_zero(id)
        assert rec.lo <= 10.0 <= rec.hi
        assert rec.value == pytest.approx(10.0, abs=1e-13)

    # F reading exactly 0.0 or NaN at the walk's start says nothing of the
    # sign there: the start moves up by 1e-9 relative, once, and the walk
    # goes on from that point to the sign change at 10.
    @pytest.mark.parametrize("at_start", [0.0, math.nan])
    def test_start_point_nudged_once(self, monkeypatch, at_start):
        id = ZeroId(ZeroKind.J, 0.5, 1)
        x0 = _scan_start(id.kind, id.nu, None)
        seen = []

        def value(x):
            seen.append(x)
            return at_start if x == x0 else x - 10.0

        monkeypatch.setattr(zmod, "_target", lambda kind, nu: (value, None, lambda x, fx: 1.0))
        rec = cold_zero(id)
        assert seen[:3] == [x0, x0 * (1.0 + 1e-9), x0 * (1.0 + 1e-9) + _STEP]
        assert rec.lo <= 10.0 <= rec.hi
        assert rec.value == pytest.approx(10.0, abs=1e-13)

    # A walk that meets no sign change within _REACH of its anchor, or F
    # reading NaN at a walk point, raises BracketError.
    @pytest.mark.parametrize("far", [1.0, math.nan])
    def test_walk_gives_up(self, monkeypatch, far):
        id = ZeroId(ZeroKind.J, 0.5, 1)
        x0 = _scan_start(id.kind, id.nu, None)
        seen = []

        def value(x):
            seen.append(x)
            return 1.0 if x == x0 else far

        monkeypatch.setattr(zmod, "_target", lambda kind, nu: (value, None, lambda x, fx: 1.0))
        with pytest.raises(zmod.BracketError) as err:
            cold_zero(id)
        assert err.value.code == "BRACKET_NOT_FOUND"
        assert max(seen) == (x0 + _REACH if far == 1.0 else x0 + _STEP)


class TestRefine:
    def test_refine_j01(self):
        rec = cold_zero(ZeroId(ZeroKind.J, 0.0, 1))
        assert rec.value == pytest.approx(fixtures.ORACLE_ZEROS[("j", 0.0, 1)], abs=1e-12)
        assert rec.lo <= rec.value <= rec.hi

    def test_refine_y11(self):
        rec = cold_zero(ZeroId(ZeroKind.Y, 1.0, 1))
        assert rec.value == pytest.approx(fixtures.ORACLE_ZEROS[("y", 1.0, 1)], abs=1e-12)

    def test_degenerate_conventional_bracket(self, monkeypatch):
        rec, polished = spied(monkeypatch, "refine", ZeroId(ZeroKind.JPRIME, 0.0, 1))
        assert polished == {}
        assert (rec.value, rec.lo, rec.hi, rec.residual, rec.iterations) == (0.0, 0.0, 0.0, 0.0, 0)


class TestStraddleProbe:
    # Once Newton's step is within tol = WIDTH_TOL/2 * max(1, x), refine
    # probes tol past x. A slope reported 64 times too steep makes Newton
    # claim convergence while the root is still several tol away, so the
    # probe shows no sign change and the loop must go on to a record that
    # still meets the contract. A J iterate tests with the last iterate's
    # slope, so from the second iterate on the steep one decides.
    def test_record_after_a_missed_probe(self, monkeypatch):
        kind, nu = ZeroKind.J, 0.0
        id = ZeroId(kind, nu, 1)
        seen = []  # (what, x, F(x)) for every value and slope refine asks for

        def too_steep(kind, nu):
            f, _, f_slope = _target(kind, nu)

            def value(x):
                seen.append(("value", x, f(x)))
                return seen[-1][2]

            def slope(x, fx):
                seen.append(("slope", x, fx))
                return 64.0 * f_slope(x, fx)

            return value, None, slope

        real_refine = zmod.refine

        def polish(kind, nu, s, target, a, b, fa, fb):
            del seen[:]  # the walk's points
            polished.append((a, b))
            return real_refine(kind, nu, s, target, a, b, fa, fb)

        polished = []
        monkeypatch.setattr(zmod, "_target", too_steep)
        monkeypatch.setattr(zmod, "refine", polish)
        rec = cold_zero(id)
        monkeypatch.undo()
        # The walk's bracket brings F at its ends: refine starts at their
        # secant point.
        [(a, b)] = polished
        fa, fb = target(kind, nu)(a), target(kind, nu)(b)
        assert a < a - fa * (b - a) / (fb - fa) < b
        assert seen[0][:2] == ("value", a - fa * (b - a) / (fb - fa))
        # A point evaluated between an iterate's value and its slope is that
        # iterate's probe; it missed when it lies tol past the iterate with
        # F of the same sign, and Newton then steps from the iterate.
        tol = lambda x: 0.5 * WIDTH_TOL * max(1.0, x)
        missed = [
            (x0, x1)
            for (w0, x0, f0), (w1, x1, f1), (w2, x2, _) in zip(seen, seen[1:], seen[2:])
            if (w0, w1, w2) == ("value", "value", "slope")
            and x2 == x0
            and f0 * f1 > 0.0
            and abs(abs(x1 - x0) - tol(x0)) <= 2.0 * math.ulp(x0)
        ]
        assert missed
        f = target(kind, nu)
        lo, hi = rec.lo, rec.hi
        assert f(lo) * f(hi) < 0.0
        assert hi - lo <= WIDTH_TOL * max(1.0, rec.value)
        assert rec.value in (lo, hi)
        assert rec.residual == f(rec.value)


class TestEvaluatedOnce:
    # Building a sequence evaluates no (function, order, x) twice: the walk
    # reads F alone, and refine takes F at the bracket ends from the walk.
    @pytest.mark.parametrize("nu", [0.0, 0.3, 2.5, 30.0, 505.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_no_point_evaluated_twice(self, monkeypatch, kind, nu):
        calls = []  # (function, order, x, inside the walk)
        walking = [False]

        def counted(name):
            bessel = getattr(ev, name)

            def wrapper(order, x):
                calls.append((name, order, x, walking[0]))
                return bessel(order, x)

            return wrapper

        real_walk = zmod.initial_bracket

        def walk(*args):
            walking[0] = True
            try:
                return real_walk(*args)
            finally:
                walking[0] = False

        zmod.clear_cache()
        for name in ("bessel_j", "bessel_y"):
            monkeypatch.setattr(ev, name, counted(name))
        monkeypatch.setattr(zmod, "initial_bracket", walk)
        zeros_upto(kind, nu, 30)
        monkeypatch.undo()
        zmod.clear_cache()

        points = [c[:3] for c in calls]
        assert len(set(points)) == len(points)
        walk_points = {}
        for _, order, x, in_walk in calls:
            if in_walk:
                walk_points.setdefault(x, []).append(order)
        assert walk_points
        # One C_nu call per J or Y walk point; C_nu and C_{nu+1} for J', Y'.
        per_point = [nu] if kind in (ZeroKind.J, ZeroKind.Y) else [nu, nu + 1.0]
        assert all(sorted(orders) == per_point for orders in walk_points.values())


class TestTargetBuilds:
    # An extension builds its target once, for every walk and refine it
    # makes; a lookup the cache answers builds none.
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_one_target_per_extension(self, monkeypatch, kind):
        built = []
        monkeypatch.setattr(zmod, "_target", lambda kind, nu: built.append((kind, nu)) or _target(kind, nu))
        zmod.clear_cache()
        try:
            zeros_upto(kind, 0.0, 50)
            assert built == [(kind, 0.0)]
            zero(ZeroId(kind, 0.0, 20))
            zeros_upto(kind, 0.0, 50)
            assert len(built) == 1
            zero(ZeroId(kind, 0.0, 60))
            assert built == [(kind, 0.0)] * 2
        finally:
            zmod.clear_cache()


class TestAccuracyAgainstOracle:
    # A converged Newton iterate sits within a few ulps of the root; the
    # extended-precision oracle bisects each root from a sign check.
    @pytest.mark.parametrize("nu", [0.3, 2.5, 30.3])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_ulps_from_the_oracle_root(self, kind, nu):
        ulps = []
        for rec in zeros_upto(kind, nu, 37)[::6]:
            root = oracle.root_near(kind.value, nu, rec.value, 1e-12 * max(1.0, rec.value))
            ulps.append(float(abs(root - rec.value)) / math.ulp(rec.value))
        assert statistics.median(ulps) <= 2.0
        assert max(ulps) <= 32.0

    # Deep in a sequence the walk's guess is right to ~1e-10 relative, so
    # refine must still move off it: a bracket centred on the guess
    # returns it unrefined, 1.41 ulps off at y_{2.5,7500}.
    @pytest.mark.parametrize(
        "kind,nu,s",
        [(ZeroKind.Y, 2.5, s) for s in (500, 1000, 2000, 5000, 7500, 10_000)] + [(ZeroKind.J, 10.0, s) for s in (500, 1000, 2000)],
    )
    def test_high_ranks_within_an_ulp(self, kind, nu, s):
        value = zval(kind, nu, s)
        root = oracle.root_near(kind.value, nu, value, 1e-12 * value)
        assert float(abs(root - value)) <= math.ulp(value)


class TestEvaluationBudget:
    # Each walk starts where the last one ended, with F there known, and
    # its new points g - h and g + 2h sit around the zero that McMahon's
    # expansion plus the last zero's offset from it predicts (the last
    # three zeros' quadratic at low ranks of large orders). Those points
    # lie within WIDTH_TOL of each other, so refine stops on its width test
    # at the bracket's secant point: a J or Y zero costs ~3 scipy calls (2
    # walk points, 1 iterate) and no C_{nu+1} call (8 starting the walk
    # past the previous zero, Newton at the midpoint and C_{nu+1} at every
    # iterate). A J' or Y' point costs two calls, so those zeros take ~6.
    @pytest.mark.parametrize(
        "kind,nu,ranks,budget",
        [
            (ZeroKind.Y, 2.5, 2000, 4),
            (ZeroKind.J, 10.0, 1500, 4),
            (ZeroKind.JPRIME, 10.0, 1500, 7),
            (ZeroKind.YPRIME, 2.5, 2000, 7),
        ],
    )
    def test_scipy_calls_per_zero(self, monkeypatch, kind, nu, ranks, budget):
        calls = [0]

        def counted(bessel):
            def wrapper(order, x):
                calls[0] += 1
                return bessel(order, x)

            return wrapper

        zmod.clear_cache()
        for name in ("bessel_j", "bessel_y"):
            monkeypatch.setattr(ev, name, counted(getattr(ev, name)))
        zeros_upto(kind, nu, ranks)
        monkeypatch.undo()
        zmod.clear_cache()
        assert calls[0] <= budget * ranks

    # A J or Y iterate asks for C_{nu+1} only to step (or when the slope it
    # estimates fails the convergence test). So a zero that ends without a
    # stepping iterate makes no C_{nu+1} call: one whose first iterate, the
    # walk bracket's secant point, ends refine on the width test or an
    # exact zero, or is certified by its probe (iterations == 1). No other
    # zero makes more than one per iterate.
    @pytest.mark.parametrize("kind,nu,ranks", [(ZeroKind.Y, 2.5, 2000), (ZeroKind.J, 10.0, 1500)])
    def test_c_nu_plus_1_only_to_step(self, monkeypatch, kind, nu, ranks):
        above = [0]  # C_{nu+1} calls so far
        unstepped, later = [], []  # C_{nu+1} calls per zero without a stepping iterate; (calls, iterations) for the others

        def counted(bessel):
            def wrapper(order, x):
                above[0] += order == nu + 1.0
                return bessel(order, x)

            return wrapper

        real_refine = zmod.refine

        def polish(*args):
            before = above[0]
            polished = real_refine(*args)
            *_, iterations = polished
            if iterations == 1:
                unstepped.append(above[0] - before)
            else:
                later.append((above[0] - before, iterations))
            return polished

        zmod.clear_cache()
        for name in ("bessel_j", "bessel_y"):
            monkeypatch.setattr(ev, name, counted(getattr(ev, name)))
        monkeypatch.setattr(zmod, "refine", polish)
        zeros_upto(kind, nu, ranks)
        monkeypatch.undo()
        zmod.clear_cache()
        assert len(unstepped) >= 0.8 * ranks
        assert not any(unstepped)
        # Every iterate is counted, the one that ends refine too, and none makes two calls.
        assert all(calls <= iterations for calls, iterations in later)
        assert above[0] == sum(calls for calls, _ in later)


class TestZero:
    def test_conventional_jprime_zero(self):
        assert zval(ZeroKind.JPRIME, 0.0, 1) == 0.0

    def test_j02(self):
        assert zval(ZeroKind.J, 0.0, 2) == pytest.approx(fixtures.ORACLE_ZEROS[("j", 0.0, 2)], abs=1e-12)

    def test_yprime01_is_y11(self):
        assert zval(ZeroKind.YPRIME, 0.0, 1) == pytest.approx(fixtures.ORACLE_ZEROS[("y", 1.0, 1)], abs=1e-12)

    def test_zeros_upto_j0(self):
        vals = [r.value for r in zeros_upto(ZeroKind.J, 0.0, 2)]
        assert vals == pytest.approx(
            [fixtures.ORACLE_ZEROS[("j", 0.0, 1)], fixtures.ORACLE_ZEROS[("j", 0.0, 2)]], abs=1e-12
        )

    def test_zeros_upto_half_order_y(self):
        vals = [r.value for r in zeros_upto(ZeroKind.Y, 0.5, 3)]
        assert vals == pytest.approx(fixtures.HALF_ORDER_Y[:3], abs=1e-12)

    def test_zeros_upto_jprime_convention(self):
        vals = [r.value for r in zeros_upto(ZeroKind.JPRIME, 0.0, 3)]
        expect = [0.0, fixtures.ORACLE_ZEROS[("j", 1.0, 1)], fixtures.ORACLE_ZEROS[("j", 1.0, 2)]]
        assert vals == pytest.approx(expect, abs=1e-12)

    def test_records_certify_roots(self):
        for rec in zeros_upto(ZeroKind.Y, 2.7, 8):
            assert rec.lo <= rec.value <= rec.hi
            assert abs(rec.residual) <= 1e-10 * max(1.0, rec.value)

    def test_consecutive_zeros_separated_by_nonzero_point(self):
        records = zeros_upto(ZeroKind.J, 1.5, 10)
        f = target(ZeroKind.J, 1.5)
        for a, b in zip(records, records[1:]):
            assert a.hi < b.lo
            assert f(0.5 * (a.value + b.value)) != 0.0

    def test_deep_rank_matches_mcmahon(self):
        recs = zeros_upto(ZeroKind.J, 0.0, 10_000)
        vals = [r.value for r in recs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        beta = (10_000 - 0.25) * math.pi
        assert vals[-1] == pytest.approx(beta + 1.0 / (8.0 * beta), abs=1e-9)

    # McMahon's expansion (A&S 9.5.13), mu = 4 nu^2: j'_{nu,s} at
    # beta' = (s + nu/2 - 3/4) pi (so j'_{0,1} = 0 counts as rank 1) and
    # y'_{nu,s} at (s + nu/2 - 1/4) pi. A skipped rank moves a value by ~pi.
    @pytest.mark.parametrize("nu", [0.0, 2.5, 30.0])
    @pytest.mark.parametrize("kind,shift", [(ZeroKind.JPRIME, 0.75), (ZeroKind.YPRIME, 0.25)])
    def test_deep_primed_ranks_match_mcmahon(self, kind, shift, nu):
        mu = 4.0 * nu * nu
        recs = zeros_upto(kind, nu, 10_000)
        for s in (2_000, 10_000):
            b8 = 8.0 * (s + 0.5 * nu - shift) * math.pi
            mcmahon = (
                b8 / 8.0
                - (mu + 3.0) / b8
                - 4.0 * (7.0 * mu**2 + 82.0 * mu - 9.0) / (3.0 * b8**3)
                - 32.0 * (83.0 * mu**3 + 2075.0 * mu**2 - 3039.0 * mu + 3537.0) / (15.0 * b8**5)
            )
            assert recs[s - 1].value == pytest.approx(mcmahon, abs=1e-9)

    # M(s) against A&S 9.5.12 (j, y) and 9.5.13 (j', y') transcribed here
    # with four corrections, mu = 4 nu^2, apart from the library's Horner
    # form; at low ranks every correction shows.
    ROWS = {
        "jy": lambda mu: (
            mu - 1.0,
            4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / 3.0,
            32.0 * (mu - 1.0) * (83.0 * mu**2 - 982.0 * mu + 3779.0) / 15.0,
            64.0 * (mu - 1.0) * (6949.0 * mu**3 - 153855.0 * mu**2 + 1585743.0 * mu - 6277237.0) / 105.0,
        ),
        "primed": lambda mu: (
            mu + 3.0,
            4.0 * (7.0 * mu**2 + 82.0 * mu - 9.0) / 3.0,
            32.0 * (83.0 * mu**3 + 2075.0 * mu**2 - 3039.0 * mu + 3537.0) / 15.0,
            64.0 * (6949.0 * mu**4 + 296492.0 * mu**3 - 1248002.0 * mu**2 + 7414380.0 * mu - 5853627.0) / 105.0,
        ),
    }

    @pytest.mark.parametrize("nu", [0.0, 0.3, 2.5, 30.0])
    @pytest.mark.parametrize(
        "kind,row,shift",
        [(ZeroKind.J, "jy", 0.25), (ZeroKind.Y, "jy", 0.75), (ZeroKind.JPRIME, "primed", 0.75), (ZeroKind.YPRIME, "primed", 0.25)],
    )
    def test_mcmahon_rows(self, kind, row, shift, nu):
        c1, c3, c5, c7 = self.ROWS[row](4.0 * nu * nu)
        m = functools.partial(zmod._mcmahon, zmod._mcmahon_row(kind, nu))
        for s in (2, 5, 20, 300):
            beta = (s + 0.5 * nu - shift) * math.pi
            b8 = 8.0 * beta
            expect = beta - c1 / b8 - c3 / b8**3 - c5 / b8**5 - c7 / b8**7
            assert m(s) == pytest.approx(expect, rel=1e-13)

    def test_rank_cap_enforced(self):
        with pytest.raises(DomainError):
            zeros_upto(ZeroKind.J, 0.0, 0)
        with pytest.raises(DomainError):
            zeros_upto(ZeroKind.J, 0.0, 10_001)
        with pytest.raises(DomainError):
            zero(ZeroId(ZeroKind.J, 0.0, 0))


class TestLookupCost:
    def test_zero_indexes_the_cached_sequence(self):
        # A warm lookup allocates O(1): a copy of the cached prefix alone
        # would take ~80 KB at rank 10^4.
        id = ZeroId(ZeroKind.J, 0.0, 10_000)
        zero(id)
        tracemalloc.start()
        try:
            rec = zero(id)
            table = zeros_upto(ZeroKind.J, 0.0, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.s == 10_000 and len(table) == 10_000
        assert peak < 8_000

    def test_cached_record_size(self):
        # A cold J_1 sequence to rank 2,000. The cache holds it as five
        # columns, four of float64 and one of int32, so a zero takes 36
        # bytes plus the arrays' growth slack (~1/16); a flat slotted
        # ZeroRecord per zero took ~187 bytes, with a ZeroId and a Bracket
        # ~283, and with a __dict__ ~430.
        zmod.clear_cache()
        tracemalloc.start()
        try:
            zero(ZeroId(ZeroKind.J, 1.0, 2000))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            zmod.clear_cache()
        assert current / 2000 <= 48
        assert not hasattr(zero(ZeroId(ZeroKind.J, 1.0, 1)), "__dict__")

    def test_sweep_cache_size(self):
        # The orders and ranks of `verify --suite all --nu-grid 0:10:0.25
        # --smax 20`: 180 sequences of 20 or 21 zeros. Their column buffers
        # hold at most 48 bytes per cached zero (36 bytes, and capacity for
        # 25 zeros each). On top of that each sequence holds ~0.77 KB: five
        # array headers, the column tuple, its key, its entry, its anchor
        # (x, F(x)) and its share of the dict; so the whole cache takes
        # ~83 bytes per zero, against ~188 for a ZeroRecord per zero.
        # The bound is on cache_bytes, which counts each object; tracemalloc
        # misses those the free lists hand out from before it started, and
        # read 72 to 83 here with the same cache, so it only bounds what
        # else the sweep leaves alive.
        zmod.clear_cache()
        tracemalloc.start()
        try:
            for suite, rules in imod.SUITES.items():
                for nu in (0.25 * i for i in range(41)):
                    for eps in (0.25, 0.5, 0.75, 1.0) if rules.eps is None else (rules.eps,):
                        imod.check_suite(suite, nu, eps, 20)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            sequences = cached_columns().values()
            cached = sum(len(columns[0]) for columns in sequences)
            buffers = sum(sys.getsizeof(c) - sys.getsizeof(array(c.typecode)) for cs in sequences for c in cs)
            held = cache_bytes()
        finally:
            zmod.clear_cache()
        assert cached == 3641
        assert buffers / cached <= 48
        assert held / cached <= 85
        assert current / cached <= 85

    def test_cached_record_is_immutable(self):
        # Every call builds a new record from the columns; its lo and hi are
        # the certificate, and no caller may rewrite them.
        id = ZeroId(ZeroKind.Y, 2.5, 7)
        rec = zero(id)
        assert _record_bits(zero(id)) == _record_bits(rec)
        for field, v in (("value", 1.0), ("lo", rec.hi), ("hi", rec.lo)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, field, v)
        assert _record_bits(zero(id)) == _record_bits(rec)


def _record_bits(rec):
    floats = (rec.value, rec.lo, rec.hi, rec.residual)
    return (rec.s, rec.iterations, *(v.hex() for v in floats))


COLUMNS = ("value", "lo", "hi", "residual", "iterations")


class TestZeroTable:
    # zeros_upto returns a read-only view of the cache's columns at a fixed
    # length; records are built per lookup, from the columns.
    def test_a_table_keeps_its_ranks_and_bits(self):
        zmod.clear_cache()
        table = zeros_upto(ZeroKind.Y, 2.5, 5)
        bits = [_record_bits(r) for r in table]
        try:
            zeros_upto(ZeroKind.Y, 2.5, 300)  # its sequence grows
            assert len(table) == 5 and [_record_bits(r) for r in table] == bits
            zmod.clear_cache()
            assert len(table) == 5 and [_record_bits(r) for r in table] == bits
            assert [len(getattr(table, name)) for name in COLUMNS] == [5] * 5
            assert zeros_upto(ZeroKind.Y, 2.5, 5) == table  # a cold rebuild, bit for bit
        finally:
            zmod.clear_cache()

    def test_item_assignment_raises(self):
        table = zeros_upto(ZeroKind.J, 1.5, 5)
        with pytest.raises(TypeError):
            table[0] = None
        with pytest.raises(TypeError):
            del table[0]
        assert zeros_upto(ZeroKind.J, 1.5, 5)[0].s == 1

    def test_writing_a_column_leaves_the_next_lookup_unchanged(self):
        table = zeros_upto(ZeroKind.J, 1.5, 5)
        bits = [_record_bits(r) for r in table]
        for name in COLUMNS:
            column = getattr(table, name)
            column[0] = -1
            column.append(7)
        assert [_record_bits(r) for r in zeros_upto(ZeroKind.J, 1.5, 5)] == bits
        assert [_record_bits(r) for r in table] == bits

    @pytest.mark.parametrize("kind,nu", [(ZeroKind.J, 1.5), (ZeroKind.JPRIME, 0.0)])
    def test_field_types(self, kind, nu):
        for rec in [zero(ZeroId(kind, nu, 1)), *zeros_upto(kind, nu, 3)]:
            assert type(rec.s) is int and type(rec.iterations) is int
            assert {type(getattr(rec, name)) for name in ("value", "lo", "hi", "residual")} == {float}

    def test_index_slice_and_iteration(self):
        table = zeros_upto(ZeroKind.J, 1.5, 6)
        records = list(table)
        assert [r.s for r in records] == list(range(1, 7))
        assert table[-1] == records[-1] and table[2] == zero(ZeroId(ZeroKind.J, 1.5, 3))
        assert table[1:5:2] == records[1:5:2] and table[10:] == []
        assert list(table.value) == [r.value for r in records]
        assert list(reversed(table)) == records[::-1]
        with pytest.raises(IndexError):
            table[6]
        with pytest.raises(IndexError):
            table[-7]

    def test_rows_read_the_printed_fields_in_place(self):
        zmod.clear_cache()
        try:
            table = zeros_upto(ZeroKind.Y, 2.5, 300)
            rows = table.rows()
            zeros_upto(ZeroKind.Y, 2.5, 600)  # its sequence grows under the open iterator
            assert list(rows) == [(r.s, r.value, r.lo, r.hi, r.residual) for r in table]
            tracemalloc.start()
            try:
                table.rows()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024  # a column property copies 300 * 8 bytes
        finally:
            zmod.clear_cache()

    def test_equality_compares_bits(self):
        def table(v):
            return zmod.ZeroTable((array("d", [v]), array("d", [v]), array("d", [v]), array("d", [0.0]), array("i", [1])), 1)

        assert table(math.nan) == table(math.nan)
        assert table(0.0) != table(-0.0)
        assert table(1.0) == table(1.0) and table(1.0) != table(2.0)
        assert zeros_upto(ZeroKind.J, 1.5, 5) != zeros_upto(ZeroKind.J, 1.5, 6)


class TestIntOrders:
    # scipy's typed entry points take no int; an int order must give
    # exactly the records of the float one, with a float order.
    @staticmethod
    def cold(fn):
        zmod.clear_cache()
        try:
            return fn()
        finally:
            zmod.clear_cache()

    @pytest.mark.parametrize("kind", list(ZeroKind))
    @pytest.mark.parametrize("nu", [0, 2, 30])
    def test_zero_and_zeros_upto(self, kind, nu):
        for s in (1, 5):
            got = self.cold(lambda: zero(ZeroId(kind, nu, s)))
            assert _record_bits(got) == _record_bits(self.cold(lambda: zero(ZeroId(kind, float(nu), s))))
        got = self.cold(lambda: zeros_upto(kind, nu, 6))
        assert [_record_bits(r) for r in got] == [_record_bits(r) for r in self.cold(lambda: zeros_upto(kind, float(nu), 6))]

    # The walk and refine of an int order are handed exactly the float
    # order, anchors and brackets of the float one.
    @pytest.mark.parametrize("kind", [ZeroKind.J, ZeroKind.YPRIME])
    @pytest.mark.parametrize("stage", ["initial_bracket", "refine"])
    def test_walk_and_refine(self, monkeypatch, kind, stage):
        def handed(nu):
            calls = spied(monkeypatch, stage, ZeroId(kind, nu, 3))[1]
            return {s: [v.hex() for v in args if type(v) is float] for s, (args, _) in calls.items()}

        got = handed(2)
        assert got == handed(2.0) and sorted(got) == [1, 2, 3]


class TestRankCertification:
    # The walk certifies ranks because it starts below the first zero,
    # steps less than _MIN_GAP, the smallest spacing of consecutive zeros,
    # and meets the zero within _REACH of its anchor. These assumptions are
    # checked against grid_zeros, over orders that include the small-order
    # j'/y' first gaps and the turning-point region.
    ORDERS = [
        0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0, 7.25,
        15.0, 30.0, 60.0, 120.0, 200.0, 300.0, 450.0, 505.0, 550.0, 599.5, 600.0,
    ]
    RANKS = 40

    @classmethod
    def ranked(cls, kind, nu):
        """Ranks 1..RANKS from grid_zeros, with the conventional j'_{0,1} = 0."""
        if kind is ZeroKind.JPRIME and nu == 0.0:
            return (0.0, *grid_zeros(kind, nu, cls.RANKS - 1))
        return grid_zeros(kind, nu, cls.RANKS)

    @pytest.mark.parametrize("nu", ORDERS)
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_gaps_exceed_min_gap(self, kind, nu):
        assert min(np.diff(self.ranked(kind, nu))) > _MIN_GAP

    @pytest.mark.parametrize("nu", ORDERS)
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_anchor_below_first_zero(self, kind, nu):
        first = next(z for z in self.ranked(kind, nu) if z > 0.0)
        assert _scan_start(kind, nu, None) < first

    # grid_zeros starts at 0.01, so j'_{nu,1} ~ sqrt(2 nu) at tiny orders
    # comes from mpmath; 1e-300 lies below ev._TINY_ORDER.
    @pytest.mark.parametrize("nu", [1e-12, 1e-14, 1e-100, 1e-300])
    def test_anchor_below_first_zero_at_tiny_orders(self, nu):
        anchor = _scan_start(ZeroKind.JPRIME, nu, None)
        first = oracle.root_near("jp", nu, math.sqrt(2.0 * nu), 0.5 * math.sqrt(2.0 * nu))
        # J'_nu > 0 from 0+ up to its first zero, so the walk starts below it.
        assert anchor < first and oracle.eval_kind("jp", nu, anchor) > 0

    @pytest.mark.parametrize("nu", ORDERS)
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_each_zero_within_reach_of_its_anchor(self, kind, nu):
        ranked = self.ranked(kind, nu)
        for prev, z in zip((None, *ranked), ranked):
            if z > 0.0:  # the conventional j'_{0,1} = 0 is not walked to
                assert z - _scan_start(kind, nu, prev) < _REACH

    @pytest.mark.parametrize("nu", ORDERS)
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_ranks_match_the_grid(self, kind, nu):
        values = [r.value for r in zeros_upto(kind, nu, self.RANKS)]
        assert values == pytest.approx(self.ranked(kind, nu), rel=1e-10, abs=1e-12)

    # The first walk at an order nu >= _FLOOR_ORDER evaluates nothing at or
    # below the floor A(nu) but the last lattice point there, so A must lie
    # below rank 1: at ORDERS, and on a 1.0-spaced order grid up to 600
    # scanned for rank 1 alone, with a grid step of 1.0 and 16 halvings (to
    # 1.5e-5) to keep it cheap; the least margin is 0.041.
    FLOOR_GRID = [float(nu) for nu in range(1, 601)]

    @staticmethod
    def floor(kind, nu):
        return nu + zmod._FLOOR_SCALE * zmod._AIRY_FLOOR[kind.value] * nu ** (1.0 / 3.0)

    @pytest.mark.parametrize("nu", [nu for nu in ORDERS if nu >= zmod._FLOOR_ORDER])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_floor_below_first_zero(self, kind, nu):
        assert self.floor(kind, nu) < self.ranked(kind, nu)[0]

    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_floor_below_first_zero_on_the_order_grid(self, kind):
        step, halvings = 1.0, 16
        error = step / 2**halvings
        assert [nu for nu in self.FLOOR_GRID if not self.floor(kind, nu) < grid_zeros(kind, nu, 1, step, halvings)[0] - error] == []

    # Where a lattice point past x0 = nu lies at or below the floor, the walk
    # does not evaluate F(x0); had it read 0.0 or NaN, the walk would have
    # nudged x0 and moved the lattice.
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_target_finite_and_nonzero_at_the_start(self, kind):
        orders = self.FLOOR_GRID + [nu for nu in self.ORDERS if nu >= zmod._FLOOR_ORDER]
        values = [target(kind, nu)(_scan_start(kind, nu, None)) for nu in orders]
        assert all(math.isfinite(v) and v != 0.0 for v in values)

    # The first walk's first point is the last lattice point x0, x0 + _STEP,
    # ... at or below the floor, and no evaluation lies below it; refine is
    # handed the bracket and F values, bit for bit, of a walk that evaluates
    # every lattice point.
    @pytest.mark.parametrize("nu", [30.0, 250.5, 505.0, 600.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_first_walk_starts_at_the_floor(self, monkeypatch, kind, nu):
        x0 = x = _scan_start(kind, nu, None)
        while x + _STEP <= self.floor(kind, nu):
            x += _STEP
        seen = []
        for name in ("bessel_j", "bessel_y"):
            real = getattr(ev, name)
            monkeypatch.setattr(ev, name, lambda order, at, real=real: seen.append(at) or real(order, at))
        skipped = spied(monkeypatch, "refine", ZeroId(kind, nu, 1))[1][1][0]
        assert x > x0 and min(seen) == seen[0] == x
        monkeypatch.setattr(zmod, "_FLOOR_ORDER", math.inf)
        every = spied(monkeypatch, "refine", ZeroId(kind, nu, 1))[1][1][0]
        assert [v.hex() for v in skipped[4:]] == [v.hex() for v in every[4:]]

    # Ranks 1-1000 of each kind at 2.5 and 30.3; Y_{2.5} runs to the cap.
    # Ranks 1-500 of each kind at 120, 505 and 600, near the order cap.
    @pytest.mark.parametrize(
        "kind,nu,ranks",
        [(kind, nu, 10_000 if (kind, nu) == (ZeroKind.Y, 2.5) else 1000) for kind in ZeroKind for nu in (2.5, 30.3)]
        + [(kind, nu, 500) for kind in ZeroKind for nu in (120.0, 505.0, 600.0)],
    )
    def test_deep_ranks_match_the_grid(self, kind, nu, ranks):
        # A coarser grid and 34 halvings (to 3e-11) keep the scan cheap; a
        # skipped rank would move every later value by ~pi.
        values = [r.value for r in zeros_upto(kind, nu, ranks)]
        assert values == pytest.approx(grid_zeros(kind, nu, ranks, step=0.5, bisections=34), rel=1e-10, abs=1e-12)

    # Ranks 1-2 of j' against mpmath. Below ev._TINY_ORDER the evaluators
    # read J_nu as J_0, but the target -J_{nu+1} + (nu/x) J_nu keeps nu in
    # its nu/x term, so j'_{nu,1} ~ sqrt(2 nu) is still bracketed as rank 1.
    # A value below 1 is held to WIDTH_TOL absolutely, not relatively. From
    # 2.2e-308 down to the smallest subnormal, F is below ~1e-154 near the
    # first zero, where a product of two F values underflows to 0.0.
    @pytest.mark.parametrize("nu", [1e-14, 1e-100, 1e-300, 2.2e-308, 1e-320, 5e-324])
    def test_first_jprime_zeros_at_tiny_orders(self, nu):
        first, second = zeros_upto(ZeroKind.JPRIME, nu, 2)
        root = oracle.root_near("jp", nu, math.sqrt(2.0 * nu), 0.5 * math.sqrt(2.0 * nu))
        assert first.lo <= root <= first.hi
        assert abs(first.value - root) <= WIDTH_TOL
        assert second.value == pytest.approx(float(oracle.root_near("jp", nu, 3.8317, 1e-3)), rel=1e-13)


class TestWrongGuess:
    # The guess (g, h) from _predict, McMahon's or the quadratic one, only
    # places the walk's sign checks, so no guess may cost a rank: each wrong
    # one below is either not used or leaves the walk to find the zero, and
    # every rank and value matches grid_zeros and a walk without guesses.
    # The fake replaces both sources, and a spy on the walk checks that it
    # gets the fake at every rank from 2, the first with a previous zero.
    # z is 0-based: z[s - 1] is rank s.
    RANKS = 30
    GUESSES = {
        "half-a-spacing-low": lambda z, s: (z[s - 1] - 0.5 * (z[s - 1] - z[s - 2]), 1e-9),
        "half-a-spacing-high": lambda z, s: (z[s - 1] + 0.5 * (z[s] - z[s - 1]), 1e-9),
        "at-the-next-zero": lambda z, s: (z[s], 1e-9),
        # Its first step holds two zeros: only the 2 * _MIN_GAP bound rejects it.
        "two-zeros-ahead": lambda z, s: (z[s + 1], 1e-9),
        "below-the-anchor": lambda z, s: (z[s - 2] - 1.0, 1e-9),
        "h-above-min-gap": lambda z, s: (z[s - 1] - 0.1 + 1.1 * _MIN_GAP, 1.1 * _MIN_GAP),
        # g - h just below the zero, g + 2h past the next one.
        "h-spans-two-zeros": lambda z, s: (z[s - 1] - 0.1 + 0.6 * _MIN_GAP, 0.6 * _MIN_GAP),
    }

    @staticmethod
    def values(kind, nu, count):
        zmod.clear_cache()
        try:
            return [r.value for r in zeros_upto(kind, nu, count)]
        finally:
            zmod.clear_cache()

    @pytest.mark.parametrize("guess", list(GUESSES))
    @pytest.mark.parametrize("nu", [0.0, 2.5, 30.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_a_wrong_guess_never_costs_a_rank(self, monkeypatch, kind, nu, guess):
        z = TestRankCertification.ranked(kind, nu)
        fake = self.GUESSES[guess]
        real_walk, walked = zmod.initial_bracket, {}

        def walk(kind, nu, s, target, prev, x, fx, guess):
            walked[s] = guess
            return real_walk(kind, nu, s, target, prev, x, fx, guess)

        monkeypatch.setattr(zmod, "_predict", lambda records, *carry: None)
        cold = self.values(kind, nu, self.RANKS)
        monkeypatch.setattr(zmod, "_predict", lambda records, *carry: fake(z, len(records) + 1) if records else None)
        monkeypatch.setattr(zmod, "initial_bracket", walk)
        guessed = self.values(kind, nu, self.RANKS)
        assert {s: g for s, g in walked.items() if s > 1} == {s: fake(z, s) for s in range(2, self.RANKS + 1)}
        assert guessed == pytest.approx(z[: self.RANKS], rel=1e-10, abs=1e-12)
        assert all(abs(g - c) <= 2.0 * WIDTH_TOL * max(1.0, c) for g, c in zip(guessed, cold))


class TestCarriedAnchor:
    # Each walk after the first starts at the previous walk's upper end x,
    # with F(x) known: that walk's bracket held the previous zero z alone,
    # so (z, x] holds no zero. It evaluates F at _scan_start(kind, nu, z) =
    # z + max(1e-7, 1e-9 z) only when the previous walk ended on an exact
    # 0.0, which leaves no point past z, or after the conventional j'_{0,1}.
    RANKS = 30

    @staticmethod
    def build(monkeypatch, kind, nu, forced_zero=None):
        """Ranks 1..RANKS from a cold cache, and every x where F alone is
        evaluated; F reads exactly 0.0 at ``forced_zero``."""
        seen = []

        def traced(kind, nu):
            f, f_and_slope, f_slope = _target(kind, nu)

            def value(x):
                seen.append(x)
                return 0.0 if x == forced_zero else f(x)

            return value, f_and_slope, f_slope

        zmod.clear_cache()
        monkeypatch.setattr(zmod, "_target", traced)
        try:
            return zeros_upto(kind, nu, TestCarriedAnchor.RANKS), set(seen)
        finally:
            monkeypatch.undo()
            zmod.clear_cache()

    @pytest.mark.parametrize("nu", [0.0, 2.5, 30.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_no_walk_restarts_past_the_previous_zero(self, monkeypatch, kind, nu):
        records, seen = self.build(monkeypatch, kind, nu)
        grid = TestRankCertification.ranked(kind, nu)[: self.RANKS]
        assert [r.value for r in records] == pytest.approx(grid, rel=1e-10, abs=1e-12)
        restarts = {_scan_start(kind, nu, r.value) for r in records[:-1] if r.value > 0.0}
        assert not restarts & seen

    @pytest.mark.parametrize("kind,nu", [(ZeroKind.J, 2.5), (ZeroKind.Y, 0.0), (ZeroKind.JPRIME, 30.0), (ZeroKind.YPRIME, 2.5)])
    def test_exact_walk_hit_falls_back(self, monkeypatch, kind, nu):
        # Rank s's guess puts the walk's point g + 2h on the zero's own value
        # z, where F is made to read exactly 0.0: rank s is z with the
        # bracket [z, z], and rank s + 1's walk starts at _scan_start(z).
        s = 10
        z = zval(kind, nu, s)
        h = 2.0**-30  # a power of two, so z - 2h and back are exact here
        assert (z - 2.0 * h) + 2.0 * h == z
        predict = zmod._predict
        monkeypatch.setattr(zmod, "_predict", lambda records, *carry: (z - 2.0 * h, h) if len(records) == s - 1 else predict(records, *carry))
        records, seen = self.build(monkeypatch, kind, nu, forced_zero=z)
        hit = records[s - 1]
        assert (hit.value, hit.lo, hit.hi, hit.residual, hit.iterations) == (z, z, z, 0.0, 0)
        grid = TestRankCertification.ranked(kind, nu)[: self.RANKS]
        assert [r.value for r in records] == pytest.approx(grid, rel=1e-10, abs=1e-12)
        restarts = {_scan_start(kind, nu, r.value) for r in records[:-1]}
        assert restarts & seen == {_scan_start(kind, nu, z)}

    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_entry_keeps_the_restart_point_alone(self, kind):
        # The anchor is (x, F(x)) with x past the last zero's bracket and
        # short of the next zero; McMahon's row and offsets are not kept.
        zmod.clear_cache()
        try:
            last = zeros_upto(kind, 2.5, 12)[-1]
            _, anchor = zmod._cache[kind, 2.5]
            x, fx = anchor
            assert last.hi <= x < zval(kind, 2.5, 13)
            assert fx == target(kind, 2.5)(x)
        finally:
            zmod.clear_cache()

    def test_failed_extension_leaves_no_anchor(self, monkeypatch):
        # The records kept before a refine that raises are followed by a walk
        # from just past the last of them, and every rank comes out as cold.
        zmod.clear_cache()
        cold = zeros_upto(ZeroKind.J, 2.5, 8)
        zmod.clear_cache()
        real_refine = zmod.refine

        def failing(kind, nu, s, *args):
            if s == 6:
                raise zmod.ConvergenceError("forced", code="NO_CONVERGENCE")
            return real_refine(kind, nu, s, *args)

        monkeypatch.setattr(zmod, "refine", failing)
        with pytest.raises(zmod.ConvergenceError):
            zeros_upto(ZeroKind.J, 2.5, 8)
        monkeypatch.undo()
        columns, anchor = zmod._cache[ZeroKind.J, 2.5]
        assert (len(columns[0]), anchor) == (5, None)
        assert zeros_upto(ZeroKind.J, 2.5, 8) == cold
        zmod.clear_cache()

    def test_evicting_one_sequence_rebuilds_it_cold(self):
        # Dropping a sequence's entry drops its anchor with it: a stale
        # anchor would start rank 1's walk past j_{2.5,5}, and rank 1 would
        # read j_{2.5,6}. The other sequence keeps its entry.
        zmod.clear_cache()
        cold = zeros_upto(ZeroKind.J, 2.5, 5)
        other = zeros_upto(ZeroKind.Y, 2.5, 5)
        try:
            with zmod._cache_lock:
                del zmod._cache[ZeroKind.J, 2.5]
            assert zeros_upto(ZeroKind.J, 2.5, 5) == cold
            assert cached_columns()[ZeroKind.Y, 2.5][0] is other._columns[0]
        finally:
            zmod.clear_cache()


class TestMcMahonCarry:
    # The sequence loop carries McMahon's row and d = z - M(s) of the last
    # two walked zeros from one zero to the next within an extension; the
    # cache keeps neither, so each extension rebuilds them from its columns.
    # A sequence built one rank at a time gets the same records, bit for
    # bit, as one built by a single call.
    RANKS = 60

    @staticmethod
    def counted_mcmahon(monkeypatch):
        """Counts of _mcmahon_row builds and of M evaluations."""
        counts = {"builds": 0, "evals": 0}

        def counted(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(zmod, "_mcmahon_row", counted("builds", zmod._mcmahon_row))
        monkeypatch.setattr(zmod, "_mcmahon", counted("evals", zmod._mcmahon))
        return counts

    @pytest.mark.parametrize("interruption", ["none", "failed", "cleared"])
    @pytest.mark.parametrize("nu", [0.0, 2.5, 30.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_one_rank_at_a_time_matches_one_call(self, monkeypatch, kind, nu, interruption):
        zmod.clear_cache()
        whole = [_record_bits(r) for r in zeros_upto(kind, nu, self.RANKS)]
        zmod.clear_cache()
        real_refine, cut = zmod.refine, self.RANKS // 2
        if interruption == "failed":

            def failing(kind, nu, s, *args):
                if s == cut:
                    raise zmod.ConvergenceError("forced", code="NO_CONVERGENCE")
                return real_refine(kind, nu, s, *args)

            monkeypatch.setattr(zmod, "refine", failing)
            for s in range(1, cut):
                zero(ZeroId(kind, nu, s))
            with pytest.raises(zmod.ConvergenceError):
                zero(ZeroId(kind, nu, cut))
            monkeypatch.setattr(zmod, "refine", real_refine)
        elif interruption == "cleared":
            for s in range(1, cut):
                zero(ZeroId(kind, nu, s))
            zmod.clear_cache()
        counts = self.counted_mcmahon(monkeypatch)
        try:
            before = len(cached_columns().get((kind, nu), ((),))[0])
            ranked = [_record_bits(zero(ZeroId(kind, nu, s))) for s in range(1, self.RANKS + 1)]
        finally:
            zmod.clear_cache()
        assert ranked == whole
        # Each call here is one extension that walks one rank. One that
        # walks a rank s >= 3 builds the row once and derives the two d
        # before it with two M, then evaluates M once for s. Below rank 3
        # the sequence has no two walked zeros, nor at j'_{0,3}, whose rank
        # 1, j'_{0,1} = 0, is not walked.
        first = 4 if kind is ZeroKind.JPRIME and nu == 0.0 else 3
        builds = self.RANKS + 1 - max(before + 1, first)
        assert counts == {"builds": builds, "evals": builds + 2 * builds}

    # From rank 50 McMahon's guess g = M(s) + d_{s-1}, h = max(2 |d_{s-1} -
    # d_{s-2}|, 4 ulp(g)) brackets the zero on the walk's points g - h and
    # g + 2h almost always, so the walk needs no further point.
    @pytest.mark.parametrize("nu", [0.0, 2.5, 30.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_mcmahon_guess_brackets_the_zero(self, kind, nu):
        z = [r.value for r in zeros_upto(kind, nu, 2000)]
        row = zmod._mcmahon_row(kind, nu)
        m = functools.partial(zmod._mcmahon, row)
        d = [v - m(s) for s, v in enumerate(z, 1)]
        inside = 0
        for s in range(50, 2001):
            g, h = zmod._predict([], m(s), d[s - 3], d[s - 2])
            inside += g - h < z[s - 1] < g + 2.0 * h
        assert inside >= 0.95 * 1951


class TestOracleScan:
    # oracle.grid_scan, the brute-force scan that cross-checks zeros_upto.
    def test_matches_enumeration_for_j0(self):
        scanned = oracle.grid_scan("j", 0.0, 10.0, 0.001)
        enumerated = [r.value for r in zeros_upto(ZeroKind.J, 0.0, 3)]
        assert len(scanned) == 3
        assert scanned == pytest.approx(enumerated, abs=1e-9)

    def test_finds_first_y0_zero(self):
        scanned = oracle.grid_scan("y", 0.0, 1.0, 0.001)
        assert len(scanned) == 1
        assert scanned[0] == pytest.approx(fixtures.ORACLE_ZEROS[("y", 0.0, 1)], abs=1e-9)

    def test_empty_below_first_zero(self):
        assert oracle.grid_scan("j", 5.0, 1.0, 0.001) == []

    def test_step_cap(self):
        with pytest.raises(ValueError):
            oracle.grid_scan("j", 0.0, 10.0, 0.1)

    # Far below the turning point J_505 and J'_505 underflow to 0.0 on
    # thousands of grid points; none of them is a root.
    @pytest.mark.parametrize("kind", [ZeroKind.J, ZeroKind.JPRIME])
    def test_underflow_is_not_a_root(self, kind):
        scanned = oracle.grid_scan(kind.value, 505.0, 560.0, 0.01)
        enumerated = [r.value for r in zeros_upto(kind, 505.0, 10) if r.value < 560.0]
        assert len(enumerated) >= 2
        assert scanned == pytest.approx(enumerated, abs=1e-10)

    @staticmethod
    def stubbed_scan(monkeypatch, f):
        # F is C_nu for J, so a stubbed jv makes the scan read F = f(x).
        monkeypatch.setattr(oracle, "special", types.SimpleNamespace(jv=lambda nu, x: f(x), yv=None))
        return oracle.grid_scan("j", 0.0, 3.0, 2.0**-7)

    def test_exact_zero_on_the_grid_counted_once(self, monkeypatch):
        # 1.0 is a point of the dyadic grid, where F is exactly 0.0.
        assert self.stubbed_scan(monkeypatch, lambda x: x - 1.0) == [1.0]

    def test_flat_zero_stretch_counts_nothing(self, monkeypatch):
        assert self.stubbed_scan(monkeypatch, lambda x: np.maximum(x - 1.0, 0.0)) == []

    @staticmethod
    def point_by_point(kind, nu, x_max, step):
        """The same scan with the library's scalar F evaluated at each grid point."""
        xs = np.arange(step, x_max + 0.5 * step, step)
        value = _target(kind, nu)[0]
        vals = np.array([value(x) for x in xs.tolist()])
        ok = np.isfinite(vals)
        with np.errstate(over="ignore"):
            flips = np.nonzero(ok[:-1] & ok[1:] & (vals[:-1] * vals[1:] < 0.0))[0]
        roots = []
        for i in flips:
            a, b, fa = float(xs[i]), float(xs[i + 1]), float(vals[i])
            while b - a > 1e-12:
                m = 0.5 * (a + b)
                fm = value(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
        # An exact 0.0 counts only between finite, nonzero values of opposite sign.
        for i in range(1, len(xs) - 1):
            if vals[i] == 0.0 and ok[i - 1] and ok[i + 1] and np.sign(vals[i - 1]) * np.sign(vals[i + 1]) == -1.0:
                roots.append(float(xs[i]))
        return sorted(roots)

    # Orders at 0, subnormal (snapped to 0), away from 0, and one where
    # Y saturates to -inf and Y' to inf - inf at the small end of the grid.
    @pytest.mark.parametrize("nu", [0.0, 1e-310, 2.7, 30.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_ufunc_grid_matches_point_by_point_scan(self, kind, nu):
        scanned = oracle.grid_scan(kind.value, nu, 45.0, 0.01)
        assert [r.hex() for r in scanned] == [r.hex() for r in self.point_by_point(kind, nu, 45.0, 0.01)]
        assert all(type(r) is float for r in scanned)
        assert len(scanned) >= 2


class TestOrderingInvariants:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.7, 10.0, 50.0])
    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_strictly_increasing_to_rank_100(self, kind, nu):
        vals = [r.value for r in zeros_upto(kind, nu, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", list(ZeroKind))
    def test_monotone_in_order(self, kind):
        grid = [0.5 * i for i in range(21)]
        for s in (1, 5, 20):
            last = -math.inf
            for nu in grid:
                if kind is ZeroKind.JPRIME and s == 1 and nu == 0.0:
                    continue  # conventional zero at the origin
                v = zval(kind, nu, s)
                assert v > last
                last = v

    def test_first_jprime_zero_at_least_order(self):
        for nu in [0.5 * i for i in range(1, 21)]:
            assert zval(ZeroKind.JPRIME, nu, 1) >= nu

    def test_convention_identities(self):
        for s in range(2, 21):
            assert abs(zval(ZeroKind.JPRIME, 0.0, s) - zval(ZeroKind.J, 1.0, s - 1)) <= 1e-10
        for s in range(1, 21):
            assert abs(zval(ZeroKind.YPRIME, 0.0, s) - zval(ZeroKind.Y, 1.0, s)) <= 1e-10


class TestAgainstFrozenOracle:
    @pytest.mark.parametrize("key", sorted(fixtures.ORACLE_ZEROS))
    def test_oracle_bisected_values(self, key):
        kind, nu, s = key
        assert zval(ZeroKind(kind), nu, s) == pytest.approx(fixtures.ORACLE_ZEROS[key], abs=1e-12)

    @pytest.mark.parametrize("key", sorted(fixtures.CERTIFIED_ZEROS))
    def test_sign_certified_values(self, key):
        kind, nu, s = key
        assert zval(ZeroKind(kind), nu, s) == pytest.approx(fixtures.CERTIFIED_ZEROS[key], abs=1e-8)

    def test_live_oracle_rederivation(self):
        # Re-derive a sample with the extended-precision scan oracle.
        for kind, nu, s, x_max in [
            ("j", 0.0, 1, 3.0),
            ("y", 1.0, 1, 3.0),
            ("jp", 0.6, 1, 2.0),
            ("j", 5.0, 1, 9.5),
        ]:
            roots = oracle.zeros_by_scan(kind, nu, x_max)
            assert float(roots[s - 1]) == pytest.approx(fixtures.ORACLE_ZEROS[(kind, nu, s)], abs=1e-13)


class TestConcurrency:
    def test_parallel_enumeration_is_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        import bessel_interlace.zeros as zmod

        zmod.clear_cache()
        jobs = [(ZeroKind.J, 3.3), (ZeroKind.Y, 3.3), (ZeroKind.J, 4.1), (ZeroKind.YPRIME, 0.7)] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda kn: [r.value for r in zeros_upto(kn[0], kn[1], 30)], jobs))
        for i in range(4):
            baseline = results[i]
            for j in range(i, len(jobs), 4):
                assert results[j] == baseline  # bit-for-bit: one cache entry

    def test_cache_lock_under_contention(self):
        # Many threads extend the same few sequences to staggered lengths
        # with a tiny switch interval; a lost or doubled append would leave
        # a rank missing, repeated or out of order.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import bessel_interlace.zeros as zmod

        zmod.clear_cache()
        jobs = [(kind, 1.5, 3 + (i % 7)) for i in range(12) for kind in (ZeroKind.J, ZeroKind.YPRIME)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(zeros_upto, kind, nu, n) for kind, nu, n in jobs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for (kind, nu, n), table in zip(jobs, results):
            assert [r.s for r in table] == list(range(1, n + 1))
        for columns in cached_columns().values():
            TestConcurrency.assert_whole(columns)

    @staticmethod
    def assert_whole(columns):
        """All columns of one length, each rank's fields one zero (its value
        inside its own bracket), and values strictly increasing."""
        values, los, his, _, iterations = columns
        assert len({len(c) for c in columns}) == 1
        assert all(lo <= v <= hi for lo, v, hi in zip(los, values, his))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0 <= i <= zmod.MAX_REFINE_ITERS + 1 for i in iterations)

    def test_table_held_while_eight_threads_extend(self):
        # One thread reads a table of 10 ranks over and over while 8 threads
        # extend its sequence to up to 330 ranks: the table keeps its ranks
        # and bits throughout, and every longer table begins with them.
        from concurrent.futures import ThreadPoolExecutor

        zmod.clear_cache()
        held = zeros_upto(ZeroKind.J, 1.5, 10)
        bits = [_record_bits(r) for r in held]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(zeros_upto, ZeroKind.J, 1.5, 10 + 40 * i) for i in range(1, 9)]
                reads = 0
                while not all(f.done() for f in futures) or not reads:
                    assert [_record_bits(r) for r in held] == bits and len(held.value) == 10
                    reads += 1
                tables = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        try:
            assert [_record_bits(r) for r in held] == bits
            longest = [_record_bits(r) for r in tables[-1]]
            for table in tables:
                assert [_record_bits(r) for r in table] == longest[: len(table)]
            TestConcurrency.assert_whole(cached_columns()[ZeroKind.J, 1.5])
        finally:
            zmod.clear_cache()


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(ZeroKind)),
    nu=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    s=st.integers(min_value=1, max_value=40),
)
def test_zero_record_properties(kind, nu, s):
    rec = zero(ZeroId(kind, nu, s))
    if kind is ZeroKind.JPRIME and nu == 0.0 and s == 1:
        assert rec.value == 0.0
        return
    assert rec.lo <= rec.value <= rec.hi
    assert abs(rec.residual) <= 1e-10 * max(1.0, rec.value)
    assert rec.value > 0.0
    if s > 1:
        assert rec.value > zero(ZeroId(kind, nu, s - 1)).value
