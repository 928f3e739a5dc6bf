import math

import numpy as np
import pytest

import bessel_interlace.evaluate as ev
import bessel_interlace.wronskian as wmod
import bessel_interlace.zeros as zmod
import fixtures
import oracle
from bessel_interlace import (
    DomainError,
    ZeroId,
    ZeroKind,
    eq19_residual,
    eval_W,
    eval_Y,
    eval_dJ,
    eval_dY,
    has_positive_zero,
    profile_extrema,
    sign_agreement,
    zero,
)
from bessel_interlace.wronskian import _X_CAP
from bessel_interlace.zeros import S_MAX_LIMIT


class TestEvalW:
    def test_same_order_is_classical_identity(self):
        assert eval_W(0.0, 0.0, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_first_term_drops_at_j_zero(self):
        x = zero(ZeroId(ZeroKind.J, 0.0, 1)).value
        w = eval_W(0.0, 1.0, x)
        expect = -eval_dJ(0.0, x) * eval_Y(1.0, x)
        assert w == pytest.approx(expect, rel=1e-12)

    def test_int_orders_and_argument(self):
        # The typed evaluators take no int; ints give the float bits.
        assert eval_W(0, 2, 3).hex() == eval_W(0.0, 2.0, 3.0).hex()

    def test_nonzero_for_small_gap(self):
        assert eval_W(0.0, 0.5, 10.0) != 0.0

    def test_matches_extended_precision(self):
        for nu, mu, x in [(0.0, 0.5, 10.0), (1.0, 2.5, 7.3), (0.0, 2.0, 1.0)]:
            ref = float(
                oracle.eval_kind("j", nu, x) * oracle.eval_kind("yp", mu, x)
                - oracle.eval_kind("jp", nu, x) * oracle.eval_kind("y", mu, x)
            )
            assert eval_W(nu, mu, x) == pytest.approx(ref, rel=1e-11, abs=1e-15)


class TestProfileExtrema:
    def test_gap_half_same_sign(self):
        assert profile_extrema(1.0, 1.5, 10).all_same_sign

    def test_gap_one_boundary_same_sign(self):
        assert profile_extrema(0.0, 1.0, 10).all_same_sign

    def test_gap_two_not_same_sign(self):
        # The sampled extrema are all negative while W(0+) is positive:
        # the sign summary (which includes the boundary limit) is false.
        prof = profile_extrema(0.0, 2.0, 10)
        assert not prof.all_same_sign
        assert all(w < 0.0 for _, w, _ in prof.samples)
        assert prof.min_abs > 0.0

    def test_samples_sorted_and_sourced(self):
        prof = profile_extrema(0.5, 1.25, 6)
        xs = [x for x, _, _ in prof.samples]
        assert xs == sorted(xs)
        assert {src for _, _, src in prof.samples} == {"J-zero", "Y-zero"}
        assert len(prof.samples) == 12

    def test_requires_mu_above_nu(self):
        with pytest.raises(DomainError):
            profile_extrema(2.0, 1.0, 5)


class TestHasPositiveZero:
    def test_absent_for_half_gap(self):
        assert has_positive_zero(0.0, 0.5, 50.0) is None

    def test_present_for_gap_two(self):
        root = has_positive_zero(0.0, 2.0, 50.0)
        assert root == pytest.approx(fixtures.W_0_2_FIRST_ZERO, abs=1e-9)
        # The root precedes the first critical point of x*W.
        assert root < zero(ZeroId(ZeroKind.J, 0.0, 1)).value

    def test_absent_at_unit_gap_boundary(self):
        assert has_positive_zero(3.0, 4.0, 50.0) is None

    def test_rejects_equal_orders(self):
        with pytest.raises(DomainError):
            has_positive_zero(1.0, 1.0, 50.0)

    # Every rejected x_max is named, and rejected before any zero is computed.
    @pytest.mark.parametrize("x_max", [-1.0, 0.0, math.nan, math.inf, _X_CAP, 40000.0])
    def test_rejects_bad_x_max(self, x_max):
        zmod.clear_cache()
        with pytest.raises(DomainError) as exc:
            has_positive_zero(0.0, 2.0, x_max)
        assert exc.value.code == "DOMAIN_X"
        assert "x_max" in str(exc.value)
        assert zmod._cache == {}

    def test_evaluates_W_only_up_to_the_first_root(self, monkeypatch):
        # The root lies below j_{0,1}; the ~380 critical points past it up to
        # x = 600 need no evaluation of W.
        profile_extrema(0.0, 2.0, 200)
        calls = []
        monkeypatch.setattr(wmod, "eval_W", lambda *a: calls.append(a) or eval_W(*a))
        assert has_positive_zero(0.0, 2.0, 600.0) == pytest.approx(fixtures.W_0_2_FIRST_ZERO, abs=1e-9)
        assert len(calls) <= 45

    # With nu far above mu, x*W near its first root is ~1e-170: a product
    # of two such values underflows to -0.0, and bisection on it kept the
    # wrong half (2.356... and 10.09... were returned). mpmath's W changes
    # sign across each expected root, from W(0+) > 0.
    @pytest.mark.parametrize("nu,mu,root", [(100.0, 0.5, 1.586583877129023), (150.0, 2.0, 3.406882025353487)])
    def test_root_where_products_underflow(self, nu, mu, root):
        assert oracle.wronskian(nu, mu, root * (1.0 - 1e-9)) > 0 > oracle.wronskian(nu, mu, root * (1.0 + 1e-9))
        assert has_positive_zero(nu, mu, 60.0) == pytest.approx(root, rel=1e-11)

    # J_{nu+1} reads 0.0 near the root while J_nu does not: J'_nu lost
    # that term, and 0.8999824203634987 and 1.5809629407558903 were
    # returned where mpmath's W keeps its sign.
    @pytest.mark.parametrize("nu,mu,root", [(140.0, 0.0, 0.8999825522480531), (155.0, 0.5, 1.580963467913563)])
    def test_root_where_j_nu_plus_1_underflows(self, nu, mu, root):
        assert oracle.wronskian(nu, mu, root * (1.0 - 1e-9)) > 0 > oracle.wronskian(nu, mu, root * (1.0 + 1e-9))
        assert has_positive_zero(nu, mu, 60.0) == pytest.approx(root, rel=1e-11)

    # J_600 underflows on all of (0, y_{2,1}), so x*W reads exactly 0.0
    # there and shows no sign; 9.58e-73, where mpmath gives W > 0, was
    # returned as a root.
    def test_underflowed_left_edge_not_evaluable(self):
        assert oracle.wronskian(600.0, 2.0, 9.577064802646286e-73) > 0
        with pytest.raises(DomainError) as exc:
            has_positive_zero(600.0, 2.0, 60.0)
        assert exc.value.code == "DOMAIN_NU"
        assert "not evaluable" in str(exc.value)

    # Y_2 overflows on all of (0, 1e-120], and no critical point lies
    # there: x_max alone is at fault.
    def test_x_max_below_every_critical_point_not_evaluable(self):
        with pytest.raises(DomainError) as exc:
            has_positive_zero(0.0, 2.0, 1e-120)
        assert exc.value.code == "DOMAIN_X"
        assert "not evaluable" in str(exc.value) and "x_max=1e-120" in str(exc.value)
        assert has_positive_zero(0.0, 2.0, 1e-100) is None

    def test_reads_each_family_in_doubling_blocks(self, monkeypatch):
        # Ranks up to floor(600 / pi) + 2 = 192, whose zeros lie past x_max.
        zmod.clear_cache()
        reads = []
        monkeypatch.setattr(wmod, "zeros_upto", lambda *a: reads.append(a) or zmod.zeros_upto(*a))
        assert has_positive_zero(0.0, 2.0, 600.0) == pytest.approx(fixtures.W_0_2_FIRST_ZERO, abs=1e-9)
        ranks = [1, 2, 4, 8, 16, 32, 64, 128, 192]
        assert reads == [(ZeroKind.J, 0.0, n) for n in ranks] + [(ZeroKind.Y, 2.0, n) for n in ranks]

    # Roots as the function returned them when it read its critical points
    # one rank per lookup, until the first zero past x_max (commit 08b9213).
    RANK_BY_RANK = {
        (0.0, 2.0, 50.0): "0x1.66e2965539b8ap+0",
        (0.0, 2.0, 600.0): "0x1.66e2965539b8ap+0",
        (1.0, 4.5, 40.0): "0x1.77837e934729ep+1",
        (3.0, 4.0, 50.0): None,
        (2.0, 4.5, 200.0): "0x1.f2a5e9c43c1d6p+1",
    }

    @pytest.mark.parametrize("args", RANK_BY_RANK)
    def test_block_reads_return_the_rank_by_rank_root(self, args):
        zmod.clear_cache()
        root = has_positive_zero(*args)
        assert (None if root is None else root.hex()) == self.RANK_BY_RANK[args]

    @pytest.mark.parametrize("nu,mu,x_max", [(3.0, 4.0, 50.0), (0.0, 0.5, 50.0), (1.0, 1.5, 100.0)])
    def test_sign_checks_at_the_rank_by_rank_critical_points(self, monkeypatch, nu, mu, x_max):
        # Without a root, W is checked at the left edge, at each critical
        # point up to x_max in order, and at x_max: the points, taken one
        # rank at a time through ``zero``, are the block reads' points.
        expect = []
        for kind, order in ((ZeroKind.J, nu), (ZeroKind.Y, mu)):
            s = 1
            while (v := zero(ZeroId(kind, order, s)).value) <= x_max:
                expect.append(v)
                s += 1
        xs = []
        monkeypatch.setattr(wmod, "eval_W", lambda *a: xs.append(a[2]) or eval_W(*a))
        assert has_positive_zero(nu, mu, x_max) is None
        assert xs[1:] == sorted(expect) + [x_max]

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 3.5, 5.0])
    def test_criterion_matches_order_gap(self, nu):
        for eps in (0.25, 0.5, 1.0):
            assert has_positive_zero(nu, nu + eps, 60.0) is None, (nu, eps)
        for eps in (1.5, 2.0):
            assert has_positive_zero(nu, nu + eps, 60.0) is not None, (nu, eps)


class TestXCap:
    # (s - 1) pi lies below every zero of rank s of J_nu and of Y_mu: y_{0,s}
    # is the least of them, since y_{mu,s} rises with the order and
    # j_{nu,s} > y_{nu,s}. So _X_CAP, the bound at s = S_MAX_LIMIT, caps
    # x_max, and has_positive_zero reads no family past rank
    # floor(x_max / pi) + 2. Checked on the certified brackets at every rank.
    def test_below_every_zero_at_every_rank(self):
        y0 = zmod.zeros_upto(ZeroKind.Y, 0.0, S_MAX_LIMIT)
        lo, hi = np.array(y0.lo), np.array(y0.hi)
        bound = np.arange(S_MAX_LIMIT) * math.pi
        assert bound[-1] == _X_CAP
        assert (lo > bound).all()  # the smallest margin is ~pi/4, at the top rank
        assert (np.array(zmod.zeros_upto(ZeroKind.J, 0.0, S_MAX_LIMIT).lo) > hi).all()
        assert (np.array(zmod.zeros_upto(ZeroKind.Y, 0.5, S_MAX_LIMIT).lo) > hi).all()


class TestExtremalCharacterization:
    @pytest.mark.parametrize("nu,mu", [(1.0, 1.5), (0.0, 2.0)])
    def test_no_interior_sign_change_between_critical_points(self, nu, mu):
        # Between consecutive critical points x*W is monotone, so when the
        # endpoint samples agree in sign there is no interior sign change
        # (for (0,2) the only sign change sits before the first critical
        # point, never between them).
        prof = profile_extrema(nu, mu, 8)
        for (xa, wa, _), (xb, wb, _) in zip(prof.samples, prof.samples[1:]):
            if wa * wb <= 0.0:
                continue
            for k in range(1, 21):
                x = xa + (xb - xa) * k / 21.0
                assert eval_W(nu, mu, x) * wa > 0.0


class TestSignAgreement:
    def test_base_intervals_at_nu0(self):
        rep = sign_agreement(0.0, 1, 5)
        assert rep.same_sign_ok and rep.differ_ok
        assert rep.same_sign_interval[0] == pytest.approx(fixtures.ORACLE_ZEROS[("y", 1.0, 1)], abs=1e-12)
        assert rep.same_sign_interval[1] == pytest.approx(fixtures.ORACLE_ZEROS[("y", 0.0, 2)], abs=1e-12)
        assert rep.differ_interval == (
            pytest.approx(fixtures.ORACLE_ZEROS[("y", 0.0, 1)], abs=1e-12),
            pytest.approx(fixtures.ORACLE_ZEROS[("y", 1.0, 1)], abs=1e-12),
        )

    @pytest.mark.parametrize("nu,s,n", [(2.0, 3, 5), (0.5, 1, 3)])
    def test_interior_verdicts(self, nu, s, n):
        rep = sign_agreement(nu, s, n)
        assert rep.same_sign_ok and rep.differ_ok

    def test_needs_three_samples(self):
        for n in (2, 3.5, 3.0, np.int64(2)):
            with pytest.raises(DomainError) as exc:
                sign_agreement(0.0, 1, n)
            assert exc.value.code == "DOMAIN_N"

    def test_numpy_integer_rank_and_samples(self):
        rep = sign_agreement(2.0, np.int64(3), np.int64(5))
        assert rep == sign_agreement(2.0, 3, 5)
        assert type(rep.s) is int

    @pytest.mark.parametrize("reading,verdicts,calls", [(-1.0, (False, True), 12), (0.0, (False, False), 4), (math.nan, (True, True), 20)])
    def test_a_verdict_fails_only_on_a_product_of_the_wrong_sign(self, monkeypatch, reading, verdicts, calls):
        # Each interval stops at its first failing sample; a NaN product has
        # no sign, fails neither verdict, and every sample is read.
        sign_agreement(2.0, 3, 5)  # the zeros, computed before the stub
        seen = []
        monkeypatch.setattr(ev, "bessel_y", lambda nu, x: seen.append(x) or (reading if nu == 2.0 else 1.0))
        rep = sign_agreement(2.0, 3, 5)
        assert (rep.same_sign_ok, rep.differ_ok) == verdicts
        assert len(seen) == calls

    def test_order_past_cap_rejected_before_any_zero(self):
        # nu + 1 = 600.5 is past NU_MAX; the error names the nu passed, and
        # no sequence is computed first.
        zmod.clear_cache()
        with pytest.raises(DomainError) as exc:
            sign_agreement(599.5, 1, 3)
        assert exc.value.code == "OVERFLOW_NU"
        assert "599.5" in str(exc.value) and "600.5" not in str(exc.value)
        assert zmod._cache == {}

    def test_rank_past_cap_rejected_before_any_zero(self):
        # Rank s + 1 is read too, so the cap is one below S_MAX_LIMIT; the
        # error names the s passed, not s + 1.
        zmod.clear_cache()
        with pytest.raises(DomainError) as exc:
            sign_agreement(0.0, 10_000, 3)
        assert exc.value.code == "DOMAIN_S"
        assert str(exc.value) == "rank 10000 exceeds the supported cap 9999"
        assert zmod._cache == {}


class TestEq19:
    def test_nu0_both_sides_vanish(self):
        r = eq19_residual(0.0, 1)
        assert r <= 1e-11
        x = zero(ZeroId(ZeroKind.YPRIME, 0.0, 1)).value
        assert abs(eval_Y(1.0, x)) <= 1e-12

    @pytest.mark.parametrize("nu,s", [(1.0, 1), (4.2, 7)])
    def test_residual_bound(self, nu, s):
        x = zero(ZeroId(ZeroKind.YPRIME, nu, s)).value
        assert eq19_residual(nu, s) <= 1e-11 * max(1.0, abs(eval_Y(nu, x)))

    def test_sign_coincidence_at_yprime_zeros(self):
        # Eq19 consequence: Y_nu and Y_{nu+1} share sign at y'_{nu,s}.
        for nu in (0.5, 2.0, 7.0):
            for s in (1, 3, 9):
                x = zero(ZeroId(ZeroKind.YPRIME, nu, s)).value
                assert eval_Y(nu, x) * eval_Y(nu + 1.0, x) > 0.0
