import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv, yv

import fixtures
import oracle
from bessel_interlace import (
    NU_MAX,
    DomainError,
    eval_J,
    eval_Y,
    eval_dJ,
    eval_dY,
)
import bessel_interlace.evaluate as ev

J01 = fixtures.ORACLE_ZEROS[("j", 0.0, 1)]
J11 = fixtures.ORACLE_ZEROS[("j", 1.0, 1)]
Y01 = fixtures.ORACLE_ZEROS[("y", 0.0, 1)]
Y11 = fixtures.ORACLE_ZEROS[("y", 1.0, 1)]
JP11 = fixtures.ORACLE_ZEROS[("jp", 1.0, 1)]


class TestExamples:
    def test_j_at_origin_limit(self):
        assert eval_J(0.0, 1e-300).value == pytest.approx(1.0, abs=1e-12)

    def test_j_1_at_1(self):
        assert eval_J(1.0, 1.0).value == pytest.approx(fixtures.J_1_AT_1, abs=1e-14)

    def test_j_vanishes_at_first_zero(self):
        assert abs(eval_J(0.0, J01).value) <= 1e-12

    def test_y_half_order_zero(self):
        assert abs(eval_Y(0.5, math.pi / 2).value) <= 1e-12

    def test_y_vanishes_at_first_zero(self):
        assert abs(eval_Y(0.0, Y01).value) <= 1e-12

    def test_y_negative_near_origin(self):
        assert eval_Y(0.0, 0.01).value < 0.0

    def test_dj_vanishes_at_j11(self):
        # J'_0 = -J_1, so j_{1,1} is a zero of J'_0.
        assert abs(eval_dJ(0.0, J11).value) <= 1e-12

    def test_dj_negative_at_j01(self):
        assert eval_dJ(0.0, J01).value < 0.0

    def test_dj_vanishes_at_jp11(self):
        assert abs(eval_dJ(1.0, JP11).value) <= 1e-12

    def test_dy_vanishes_at_y11(self):
        # Y'_0 = -Y_1.
        assert abs(eval_dY(0.0, Y11).value) <= 1e-12

    def test_dy_positive_at_y01(self):
        assert eval_dY(0.0, Y01).value > 0.0

    def test_dy_recurrence_composition(self):
        lhs = eval_dY(2.0, 1.0).value
        rhs = -eval_Y(3.0, 1.0).value + 2.0 * eval_Y(2.0, 1.0).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDomain:
    @pytest.mark.parametrize("fn", [eval_J, eval_Y, eval_dJ, eval_dY])
    def test_rejects_nonpositive_x(self, fn):
        with pytest.raises(DomainError) as exc:
            fn(1.0, 0.0)
        assert exc.value.code == "DOMAIN_X"
        with pytest.raises(DomainError):
            fn(1.0, -3.0)

    @pytest.mark.parametrize("fn", [eval_J, eval_Y, eval_dJ, eval_dY])
    def test_rejects_negative_order(self, fn):
        with pytest.raises(DomainError) as exc:
            fn(-0.5, 1.0)
        assert exc.value.code == "DOMAIN_NU"

    def test_rejects_order_above_cap(self):
        with pytest.raises(DomainError) as exc:
            eval_J(NU_MAX + 1.0, 10.0)
        assert exc.value.code == "OVERFLOW_NU"

    @pytest.mark.parametrize("code", ["DOMAIN_EPS", "OVERFLOW_NU"])
    def test_shifted_order_bound(self, code):
        # nu + eps = NU_MAX is accepted; one ulp above is rejected under the code passed.
        assert ev.check_orders(1, NU_MAX - 1.0, code) == 1.0
        eps = math.nextafter(NU_MAX - 1.0, math.inf)
        assert 1.0 + eps == math.nextafter(NU_MAX, math.inf)
        with pytest.raises(DomainError) as exc:
            ev.check_orders(1.0, eps, code)
        assert exc.value.code == code
        assert str(exc.value) == f"order nu=1.0 plus eps={eps!r} exceeds NU_MAX={NU_MAX}"


def _bits(v):
    """A float's exact identity: its hex form, with every NaN alike."""
    return "nan" if math.isnan(v) else v.hex()


class TestUfuncParity:
    # The scalar paths call scipy's typed cython_special entry points; the
    # reference is the scipy.special.jv/yv ufuncs, with the same order snap,
    # recurrence and NaN rule. x runs from 1e-6 to 3000 and straddles each
    # order, so Y saturates to -inf below the turning point.
    ORDERS = [0.0, 1e-300, 0.01, 0.5, 1.0, 2.0, 2.5, 30.0, 120.0, 505.0, 600.0]

    @staticmethod
    def reference(name, nu, x):
        c = jv if name in ("bessel_j", "bessel_dj") else yv
        snapped = 0.0 if nu < ev._TINY_ORDER else nu
        if name in ("bessel_j", "bessel_y"):
            return float(c(snapped, x))
        if nu == 0.0:
            return float(-c(1.0, x))
        with np.errstate(invalid="ignore"):
            v = float(-c(nu + 1.0, x) + (nu / x) * c(snapped, x))
        return math.inf if name == "bessel_dy" and math.isnan(v) and x < max(nu, ev._TINY_ORDER) else v

    @staticmethod
    def grid(nu):
        xs = np.geomspace(1e-6, 3000.0, 301).tolist()
        return xs + [nu * f for f in (0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0) if nu > 0.0]

    @pytest.mark.parametrize("name", ["bessel_j", "bessel_y", "bessel_dj", "bessel_dy"])
    @pytest.mark.parametrize("nu", ORDERS)
    def test_bit_for_bit(self, name, nu):
        fn = getattr(ev, name)
        for x in self.grid(nu):
            got = fn(nu, x)
            assert type(got) is float, (name, nu, x)
            assert _bits(got) == _bits(self.reference(name, nu, x)), (name, nu, x)

    def test_saturation_is_covered(self):
        # The grid reaches Y = -inf, and Y' = inf - inf before the NaN rule.
        assert -math.inf in [ev.bessel_y(505.0, x) for x in self.grid(505.0)]
        assert math.inf in [ev.bessel_dy(600.0, x) for x in self.grid(600.0)]


class TestTinyOrders:
    # Below _TINY_ORDER the backend sees order 0, but C'_nu keeps its
    # (nu/x) C_nu term, which dominates J' below x ~ sqrt(2 nu).
    @pytest.mark.parametrize("nu", [5e-324, 1e-300, 1e-291])
    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-150, 1e-100, 1e-3, 1.0, 7.5])
    def test_dj_against_extended_precision(self, nu, x):
        with mpmath.workdps(60):
            m_nu, m_x = mpmath.mpf(nu), mpmath.mpf(x)
            ref = float(m_nu / m_x * mpmath.besselj(m_nu, m_x) - mpmath.besselj(m_nu + 1, m_x))
        assert eval_dJ(nu, x).value == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_order_zero_is_one_call(self, monkeypatch):
        calls = []
        for name, fn in (("_jv", ev._jv), ("_yv", ev._yv)):
            monkeypatch.setattr(ev, name, lambda nu, x, fn=fn: calls.append(nu) or fn(nu, x))
        assert ev.bessel_dj(0.0, 2.0) == -jv(1.0, 2.0)
        assert ev.bessel_dy(0.0, 2.0) == -yv(1.0, 2.0)
        assert calls == [1.0, 1.0]

    def test_dy_saturates_to_inf_at_subnormal_x(self):
        # Y_0 and Y_1 both read -inf there; Y' = -Y_1 + (nu/x) Y_0 is +inf, not NaN.
        for nu, x in [(1e-300, 1e-310), (5e-324, 1e-310), (0.0, 1e-310)]:
            assert ev.bessel_dy(nu, x) == math.inf


class TestIntInputs:
    # The typed entry points have no integer signature; ints must give
    # exactly the float results.
    @pytest.mark.parametrize("fn", [eval_J, eval_Y, eval_dJ, eval_dY])
    @pytest.mark.parametrize("nu,x", [(0, 3), (2, 3), (3, 1), (30, 40)])
    def test_eval(self, fn, nu, x):
        assert _bits(fn(nu, x).value) == _bits(fn(float(nu), float(x)).value)


def _quality_grid(n=500, seed=20260809):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 20.0), rng.uniform(0.1, 100.0)) for _ in range(n)]


class TestInvariants:
    def test_recurrence_residual(self):
        for nu, x in _quality_grid(150):
            J = eval_J(nu, x).value
            tol = 1e-12 * max(1.0, abs(J))
            rj = eval_dJ(nu, x).value - (-eval_J(nu + 1.0, x).value + (nu / x) * J)
            ry = eval_dY(nu, x).value - (
                -eval_Y(nu + 1.0, x).value + (nu / x) * eval_Y(nu, x).value
            )
            assert abs(rj) <= tol
            assert abs(ry) <= tol

    def test_same_order_wronskian_identity(self):
        for nu, x in _quality_grid(150):
            w = eval_J(nu, x).value * eval_dY(nu, x).value - eval_dJ(nu, x).value * eval_Y(nu, x).value
            target = 2.0 / (math.pi * x)
            assert abs(w - target) <= 1e-12 * target

    def test_ode_residual(self):
        # C'' rebuilt from two recurrence applications:
        # C'' = (nu(nu-1)/x^2 - 1) C_nu + C_{nu+1}/x.
        # The bound is scaled by the dominant operand magnitude, which for
        # J (|J| <= 1) reduces to plain 1e-9 * max(1, x^2).
        for nu, x in _quality_grid(150):
            for f, df in ((eval_J, eval_dJ), (eval_Y, eval_dY)):
                c = f(nu, x).value
                c1 = f(nu + 1.0, x).value
                dc = df(nu, x).value
                d2 = (nu * (nu - 1.0) / (x * x) - 1.0) * c + c1 / x
                resid = x * x * d2 + x * dc + (x * x - nu * nu) * c
                scale = max(1.0, x * x) * max(1.0, abs(c), abs(c1))
                assert abs(resid) <= 1e-9 * scale

    def test_reflection_identities(self):
        for x in np.linspace(0.1, 60.0, 37):
            dj = eval_dJ(0.0, x).value
            j1 = eval_J(1.0, x).value
            assert abs(dj + j1) <= 1e-13 * max(abs(j1), 1e-300)
            dy = eval_dY(0.0, x).value
            y1 = eval_Y(1.0, x).value
            assert abs(dy + y1) <= 1e-13 * max(abs(y1), 1e-300)

    def test_accuracy_against_extended_precision(self):
        # Contract: relative error <= 1e-12 away from zeros, otherwise
        # absolute error <= 1e-13 * max(1, x).
        for nu, x in _quality_grid(40, seed=7):
            for lib, kind in ((eval_J, "j"), (eval_Y, "y")):
                got = lib(nu, x).value
                ref = oracle.eval_kind(kind, nu, x)
                abs_err = abs(ref - got)
                rel_err = abs_err / abs(ref) if ref != 0 else 0.0
                assert rel_err <= 1e-12 or abs_err <= 1e-13 * max(1.0, x), (nu, x, kind)

    def test_error_estimate_is_advisory_upper_scale(self):
        for nu, x in [(0.0, 1.0), (2.5, 7.0), (20.0, 55.0), (0.5, 0.2)]:
            res = eval_J(nu, x)
            assert res.est_abs_error >= 0.0
            assert res.est_abs_error < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    x=st.floats(min_value=1e-3, max_value=200.0, allow_nan=False),
)
def test_never_nan_and_wronskian_holds(nu, x):
    j = eval_J(nu, x)
    y = eval_Y(nu, x)
    assert not math.isnan(j.value)
    assert not math.isnan(y.value)
    dy = eval_dY(nu, x).value
    if math.isinf(y.value) or not math.isfinite(dy):
        return
    w = j.value * dy - eval_dJ(nu, x).value * y.value
    target = 2.0 / (math.pi * x)
    assert abs(w - target) <= 1e-11 * target
