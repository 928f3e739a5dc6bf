import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

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
        assert eval_J(0.0, 1e-300) == pytest.approx(1.0, abs=1e-12)

    def test_j_1_at_1(self):
        assert eval_J(1.0, 1.0) == pytest.approx(fixtures.J_1_AT_1, abs=1e-14)

    def test_j_vanishes_at_first_zero(self):
        assert abs(eval_J(0.0, J01)) <= 1e-12

    def test_y_half_order_zero(self):
        assert abs(eval_Y(0.5, math.pi / 2)) <= 1e-12

    def test_y_vanishes_at_first_zero(self):
        assert abs(eval_Y(0.0, Y01)) <= 1e-12

    def test_y_negative_near_origin(self):
        assert eval_Y(0.0, 0.01) < 0.0

    def test_dj_vanishes_at_j11(self):
        # J'_0 = -J_1, so j_{1,1} is a zero of J'_0.
        assert abs(eval_dJ(0.0, J11)) <= 1e-12

    def test_dj_negative_at_j01(self):
        assert eval_dJ(0.0, J01) < 0.0

    def test_dj_vanishes_at_jp11(self):
        assert abs(eval_dJ(1.0, JP11)) <= 1e-12

    def test_dy_vanishes_at_y11(self):
        # Y'_0 = -Y_1.
        assert abs(eval_dY(0.0, Y11)) <= 1e-12

    def test_dy_positive_at_y01(self):
        assert eval_dY(0.0, Y01) > 0.0

    def test_dy_recurrence_composition(self):
        lhs = eval_dY(2.0, 1.0)
        rhs = -eval_Y(3.0, 1.0) + 2.0 * eval_Y(2.0, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    # Every (nu, x) the examples above evaluate at.
    INPUTS = [
        (0.0, 1e-300), (1.0, 1.0), (0.0, J01), (0.5, math.pi / 2), (0.0, Y01), (0.0, 0.01),
        (0.0, J11), (1.0, JP11), (0.0, Y11), (2.0, 1.0), (3.0, 1.0),
    ]

    @pytest.mark.parametrize(
        "fn,fast", [(eval_J, ev.bessel_j), (eval_Y, ev.bessel_y), (eval_dJ, ev.bessel_dj), (eval_dY, ev.bessel_dy)]
    )
    def test_checked_value_is_the_plain_float(self, fn, fast):
        for nu, x in self.INPUTS:
            got = fn(nu, x)
            assert type(got) is float
            assert _bits(got) == _bits(fast(nu, x)), (nu, x)


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
        for fn in (eval_J, eval_Y, eval_dJ, eval_dY):
            with pytest.raises(DomainError) as exc:
                fn(NU_MAX + 1.0, 10.0)
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
    # The scalar paths call the ``double`` entries of scipy's typed
    # cython_special functions; the reference is the scipy.special.jv/yv
    # ufuncs, with the same order snap, recurrence and NaN rule. x runs from
    # 1e-6 to 3000 and straddles each order, so Y saturates to -inf below
    # the turning point.
    ORDERS = [0.0, 1e-300, 0.01, 0.5, 1.0, 2.0, 2.5, 30.0, 120.0, 505.0, 600.0]

    @staticmethod
    def reference(name, nu, x):
        c = jv if name in ("bessel_j", "bessel_dj") else yv
        snapped = 0.0 if nu < ev._TINY_ORDER else nu
        if name in ("bessel_j", "bessel_y"):
            return float(c(snapped, x))
        if nu == 0.0:
            return float(-c(1.0, x))
        if name == "bessel_dj" and c(nu + 1.0, x) == 0.0 != c(nu, x) and nu >= 1.0:
            return float(c(nu - 1.0, x) - (nu / x) * c(nu, x))
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


class TestDoubleEntry:
    # ev._jv and ev._yv are the ``double`` specialisations of scipy's fused
    # cython_special.jv and yv, which skip the fused dispatch on each call.
    # Every order the scalar paths pass (C_nu, C_{nu+1}, C_{nu-1}), tiny
    # orders unsnapped, and x down to subnormals, where Y saturates.
    ORDERS = [0.0, 5e-324, 1e-300, 1e-291, 0.01, 0.5, 1.0, 2.5, 30.0, 141.0, 505.0, NU_MAX - 1.0, NU_MAX, NU_MAX + 1.0]
    TINY_X = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-150]

    @pytest.mark.parametrize("nu", ORDERS)
    def test_bit_parity_with_the_fused_entry(self, nu):
        from scipy.special import cython_special as cs

        for x in self.TINY_X + TestUfuncParity.grid(nu):
            for typed, fused in ((ev._jv, cs.jv), (ev._yv, cs.yv)):
                got = typed(nu, x)
                assert type(got) is float, (nu, x)
                assert _bits(got) == _bits(fused(nu, x)), (typed, nu, x)

    def test_saturation_is_covered(self):
        assert -math.inf in [ev._yv(NU_MAX, x) for x in TestUfuncParity.grid(NU_MAX)]
        assert ev._yv(0.0, 5e-324) == -math.inf

    def test_fallback_is_the_fused_callable(self):
        def plain(nu, x):
            return 0.0

        assert ev._double(plain) is plain
        no_double = types.SimpleNamespace(__signatures__={"double complex": plain})
        assert ev._double(no_double) is no_double
        assert ev._double(types.SimpleNamespace(__signatures__={"double": plain})) is plain


def _fresh(code, *flags, stdin=""):
    """Run ``code`` in a fresh interpreter that imports this library; its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(ev.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *flags, "-c", code], input=stdin, capture_output=True, text=True, env=env)


def _fresh_json(code, stdin=""):
    proc = _fresh(code, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Prefix for _fresh_json: the scipy.special modules loaded, and whether each
# submodule is bound as an attribute of its parent package.
_SPECIAL = """
import json, sys
def special():
    return sorted(n for n in sys.modules if n == "scipy.special" or n.startswith("scipy.special."))
def bound():
    return all(getattr(sys.modules[n.rpartition(".")[0]], n.rpartition(".")[2], None) is sys.modules[n]
               for n in special() if n != "scipy.special")
"""


class TestStubLoad:
    # evaluate imports cython_special under a stub scipy.special unless the
    # real package is imported already. This process has imported it, so
    # every case runs in a fresh interpreter.
    def test_leaves_no_stub(self):
        code = _SPECIAL + "import scipy, bessel_interlace.cli\nprint(json.dumps([special(), 'special' in vars(scipy)]))"
        assert _fresh_json(code) == [[], False]

    def test_later_import_binds_the_same_objects(self):
        # A submodule left in sys.modules would not be bound by the real
        # package's init, and scipy.special.cython_special would raise.
        code = _SPECIAL + """
import bessel_interlace.evaluate as ev
import scipy.special.cython_special
import scipy.special as sp
print(json.dumps([sp.cython_special.jv["double"] is ev._jv, sp.cython_special.yv["double"] is ev._yv, bound()]))
"""
        assert _fresh_json(code) == [True, True, True]

    def test_plain_import_when_scipy_special_is_loaded(self):
        code = _SPECIAL + """
import scipy.special as sp
import bessel_interlace.evaluate as ev
print(json.dumps([sys.modules.get("scipy.special") is sp, sp.cython_special.jv["double"] is ev._jv,
                  sp.cython_special.yv["double"] is ev._yv, bound()]))
"""
        assert _fresh_json(code) == [True, True, True, True]

    @pytest.mark.parametrize("fail", ["scipy.special.cython_special", "scipy.special._gufuncs"])
    def test_failure_under_the_stub_falls_back(self, fail):
        # The finder refuses only while scipy.special is a bare module (no
        # __file__); _gufuncs is refused after three siblings have loaded.
        code = _SPECIAL + f"""
class Refuse:
    hits = 0
    def find_spec(self, name, path=None, target=None):
        if name == {fail!r} and not hasattr(sys.modules.get("scipy.special"), "__file__"):
            Refuse.hits += 1
            raise ImportError("refused under the stub")
sys.meta_path.insert(0, Refuse())
import bessel_interlace.evaluate as ev
import scipy.special as sp
print(json.dumps([Refuse.hits, sp.__file__.endswith("__init__.py"), bound(),
                  sp.cython_special.jv["double"] is ev._jv, sp.cython_special.yv["double"] is ev._yv]))
"""
        assert _fresh_json(code) == [1, True, True, True, True]

    def test_bit_parity_on_the_stub_path(self):
        # TestUfuncParity's check, with the values computed before any
        # scipy.special package is imported.
        names = ["bessel_j", "bessel_y", "bessel_dj", "bessel_dy"]
        points = [(nu, x) for nu in (0.0, 1e-300, 2.5, 141.0, 600.0) for x in TestUfuncParity.grid(nu)]
        code = _SPECIAL + f"""
import bessel_interlace.evaluate as ev
fns = [getattr(ev, name) for name in {names!r}]
values = [[f(nu, x) for f in fns] for nu, x in json.loads(sys.stdin.read())]
print(json.dumps([special(), [[type(v).__name__, "nan" if v != v else v.hex()] for row in values for v in row]]))
"""
        loaded, got = _fresh_json(code, stdin=json.dumps(points))
        assert loaded == []
        want = [["float", _bits(TestUfuncParity.reference(name, nu, x))] for nu, x in points for name in names]
        assert got == want

    def test_import_graph(self):
        # Deterministic where import timings are not: the package init's
        # array-API layer, and what it imports, stay unloaded.
        heavy = ["numpy.testing", "numpy.f2py", "scipy.special._support_alternative_backends"]
        code = f"import json, sys, bessel_interlace.cli\nprint(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
        assert _fresh_json(code) == []

    def test_import_is_warning_free(self):
        proc = _fresh("import bessel_interlace.cli", "-W", "error")
        assert (proc.returncode, proc.stderr) == (0, "")


class TestTinyOrders:
    # Below _TINY_ORDER the backend sees order 0, but C'_nu keeps its
    # (nu/x) C_nu term, which dominates J' below x ~ sqrt(2 nu).
    @pytest.mark.parametrize("nu", [5e-324, 1e-300, 1e-291])
    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-150, 1e-100, 1e-3, 1.0, 7.5])
    def test_dj_against_extended_precision(self, nu, x):
        with mpmath.workdps(60):
            m_nu, m_x = mpmath.mpf(nu), mpmath.mpf(x)
            ref = float(m_nu / m_x * mpmath.besselj(m_nu, m_x) - mpmath.besselj(m_nu + 1, m_x))
        assert eval_dJ(nu, x) == pytest.approx(ref, rel=1e-13, abs=0.0)

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


class TestUnderflowedJ:
    # scipy returns J as 0.0 below ~1e-290: J_141(0.9) reads 0.0 against
    # mpmath's 6.7e-293, while J_140(0.9) = 2.1e-290 does not, so
    # -J_141 + (140/0.9) J_140 was 2e-5 off J'_140(0.9).
    @pytest.mark.parametrize("nu,x", [(140.0, 0.9), (300.0, 24.109598014621803), (600.0, 140.42179024151886)])
    def test_dj_where_j_nu_plus_1_underflows(self, nu, x):
        assert jv(nu + 1.0, x) == 0.0 != jv(nu, x)
        ref = float(oracle.eval_kind("jp", nu, x))
        assert eval_dJ(nu, x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_dj_where_j_nu_underflows_too(self):
        # J_{nu-1} alone would read twice J'; J' stays 0.0, as J_nu reads.
        assert jv(121.0, 0.3375) == jv(120.0, 0.3375) == 0.0 != jv(119.0, 0.3375)
        assert ev.bessel_dj(120.0, 0.3375) == 0.0

    def test_dj_where_only_j_nu_underflows(self):
        # J_115(0.25) reads 0.0 against mpmath's 4.8e-293, while J_116(0.25)
        # = 5.1e-296 does not, so -J_116 alone gave J' the wrong sign. The
        # downward recurrence rebuilds J_115; J_117 reads 0.0 too (mpmath
        # 5.5e-299), which leaves ~1e-6 of J'.
        assert jv(115.0, 0.25) == 0.0 != jv(116.0, 0.25)
        ref = float(oracle.eval_kind("jp", 115.0, 0.25))
        assert eval_dJ(115.0, 0.25) == pytest.approx(ref, rel=1e-5, abs=0.0)


class TestIntInputs:
    # The typed entry points have no integer signature; ints must give
    # exactly the float results.
    @pytest.mark.parametrize("fn", [eval_J, eval_Y, eval_dJ, eval_dY])
    @pytest.mark.parametrize("nu,x", [(0, 3), (2, 3), (3, 1), (30, 40)])
    def test_eval(self, fn, nu, x):
        assert _bits(fn(nu, x)) == _bits(fn(float(nu), float(x)))


def _quality_grid(n=500, seed=20260809):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 20.0), rng.uniform(0.1, 100.0)) for _ in range(n)]


class TestInvariants:
    def test_recurrence_residual(self):
        for nu, x in _quality_grid(150):
            J = eval_J(nu, x)
            tol = 1e-12 * max(1.0, abs(J))
            rj = eval_dJ(nu, x) - (-eval_J(nu + 1.0, x) + (nu / x) * J)
            ry = eval_dY(nu, x) - (
                -eval_Y(nu + 1.0, x) + (nu / x) * eval_Y(nu, x)
            )
            assert abs(rj) <= tol
            assert abs(ry) <= tol

    def test_same_order_wronskian_identity(self):
        for nu, x in _quality_grid(150):
            w = eval_J(nu, x) * eval_dY(nu, x) - eval_dJ(nu, x) * eval_Y(nu, x)
            target = 2.0 / (math.pi * x)
            assert abs(w - target) <= 1e-12 * target

    def test_ode_residual(self):
        # C'' rebuilt from two recurrence applications:
        # C'' = (nu(nu-1)/x^2 - 1) C_nu + C_{nu+1}/x.
        # The bound is scaled by the dominant operand magnitude, which for
        # J (|J| <= 1) reduces to plain 1e-9 * max(1, x^2).
        for nu, x in _quality_grid(150):
            for f, df in ((eval_J, eval_dJ), (eval_Y, eval_dY)):
                c = f(nu, x)
                c1 = f(nu + 1.0, x)
                dc = df(nu, x)
                d2 = (nu * (nu - 1.0) / (x * x) - 1.0) * c + c1 / x
                resid = x * x * d2 + x * dc + (x * x - nu * nu) * c
                scale = max(1.0, x * x) * max(1.0, abs(c), abs(c1))
                assert abs(resid) <= 1e-9 * scale

    def test_reflection_identities(self):
        for x in np.linspace(0.1, 60.0, 37):
            dj = eval_dJ(0.0, x)
            j1 = eval_J(1.0, x)
            assert abs(dj + j1) <= 1e-13 * max(abs(j1), 1e-300)
            dy = eval_dY(0.0, x)
            y1 = eval_Y(1.0, x)
            assert abs(dy + y1) <= 1e-13 * max(abs(y1), 1e-300)

    def test_accuracy_against_extended_precision(self):
        # Contract: relative error <= 1e-12 away from zeros, otherwise
        # absolute error <= 1e-13 * max(1, x).
        for nu, x in _quality_grid(40, seed=7):
            for lib, kind in ((eval_J, "j"), (eval_Y, "y")):
                got = lib(nu, x)
                ref = oracle.eval_kind(kind, nu, x)
                abs_err = abs(ref - got)
                rel_err = abs_err / abs(ref) if ref != 0 else 0.0
                assert rel_err <= 1e-12 or abs_err <= 1e-13 * max(1.0, x), (nu, x, kind)


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    x=st.floats(min_value=1e-3, max_value=200.0, allow_nan=False),
)
def test_never_nan_and_wronskian_holds(nu, x):
    j = eval_J(nu, x)
    y = eval_Y(nu, x)
    assert not math.isnan(j)
    assert not math.isnan(y)
    dy = eval_dY(nu, x)
    if math.isinf(y) or not math.isfinite(dy):
        return
    w = j * dy - eval_dJ(nu, x) * y
    target = 2.0 / (math.pi * x)
    assert abs(w - target) <= 1e-11 * target
