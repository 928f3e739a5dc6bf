import math

import numpy as np
import pytest

import fixtures
from cache_view import cached_columns
import bessel_interlace.interlace as imod
import bessel_interlace.zeros as zmod
from bessel_interlace import cli
from bessel_interlace import (
    CHAIN_LABELS,
    DomainError,
    InterlaceChain,
    SearchError,
    ViolationWitness,
    ZeroId,
    ZeroKind,
    build_chain,
    check_chain,
    check_derivative_chains,
    check_proposition,
    check_suite,
    check_theorem1,
    counterexample_scan,
    find_breaking,
    zero,
)
from substitute import substituted_zeros


def zval(kind, nu, s):
    return zero(ZeroId(kind, nu, s)).value


class TestBuildChain:
    def test_nu0_eps1_nodes(self):
        nodes = build_chain(0.0, 1.0, 1).nodes
        expect = [
            0.0,
            fixtures.ORACLE_ZEROS[("y", 0.0, 1)],
            fixtures.ORACLE_ZEROS[("y", 1.0, 1)],
            fixtures.ORACLE_ZEROS[("y", 1.0, 1)],  # y'_{0,1} = y_{1,1}
            fixtures.ORACLE_ZEROS[("j", 0.0, 1)],
            fixtures.ORACLE_ZEROS[("j", 1.0, 1)],
            fixtures.ORACLE_ZEROS[("j", 1.0, 1)],  # j'_{0,2} = j_{1,1}
        ]
        assert list(nodes) == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("nu,eps,s", [(0.5, 0.5, 1), (1.0, 1.0, 3)])
    def test_nodes_strictly_increase(self, nu, eps, s):
        nodes = build_chain(nu, eps, s).nodes
        assert all(b > a for a, b in zip(nodes, nodes[1:]))

    def test_nodes_are_zero_finder_records(self):
        chain = build_chain(2.5, 0.75, 4)
        expect = (
            zval(ZeroKind.JPRIME, 2.5, 4),
            zval(ZeroKind.Y, 2.5, 4),
            zval(ZeroKind.Y, 3.25, 4),
            zval(ZeroKind.YPRIME, 2.5, 4),
            zval(ZeroKind.J, 2.5, 4),
            zval(ZeroKind.J, 3.25, 4),
            zval(ZeroKind.JPRIME, 2.5, 5),
        )
        assert chain.nodes == expect  # bit-for-bit: one source of truth

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            build_chain(1.0, 0.0, 1)

    def test_numpy_integer_rank_is_stored_as_int(self):
        chain = build_chain(2.5, 0.75, np.int64(4))
        assert type(chain.s) is int and chain == build_chain(2.5, 0.75, 4)

    @pytest.mark.parametrize("s", [0, 10_000, 2.0])
    def test_bad_rank_rejected_before_any_zero(self, s):
        zmod.clear_cache()
        with pytest.raises(DomainError) as exc:
            build_chain(2.5, 0.75, s)
        assert exc.value.code == "DOMAIN_S"
        assert zmod._cache == {}


class TestCheckChain:
    def test_interior_order_ok(self):
        assert check_chain(build_chain(0.5, 0.5, 1)).ok

    def test_nu0_eps1_equalities_exempt(self):
        rep = check_chain(build_chain(0.0, 1.0, 1))
        assert rep.ok
        assert abs(rep.margins[2]) <= 1e-10  # y_{1,1} vs y'_{0,1}
        assert abs(rep.margins[5]) <= 1e-10  # j_{1,1} vs j'_{0,2}

    def test_eps2_breaks_at_documented_pair(self):
        rep = check_chain(build_chain(0.0, 2.0, 1))
        assert not rep.ok
        assert rep.first_failure == 2
        assert CHAIN_LABELS[2] == "y(v+e,s)"
        assert CHAIN_LABELS[3] == "yp(v,s)"
        assert rep.margins[2] < 0.0


class TestClassicalChains:
    @pytest.mark.parametrize("nu,smax", [(0.5, 20), (0.0, 20), (7.3, 10)])
    def test_theorem1_clean(self, nu, smax):
        assert check_theorem1(nu, smax) == []

    @pytest.mark.parametrize("nu,smax", [(1.0, 20), (0.0, 20), (3.5, 10)])
    def test_proposition_clean(self, nu, smax):
        assert check_proposition(nu, smax) == []

    def test_theorem1_rank_cap(self):
        with pytest.raises(DomainError):
            check_theorem1(1.0, 101)


class TestTable:
    def test_only_identity_pairs_are_exempt_at_nu0(self):
        # Forced to gap 0 at nu = 0, eps = 1, pairs that are no identity
        # there must still be reported.
        j01 = zval(ZeroKind.J, 0.0, 1)
        with substituted_zeros({("j", 1.0, 1): lambda v: j01}):
            found = [(w.left_label, w.right_label, w.s) for w in check_theorem1(0.0, 3)]
        assert found == [("j(v,1)", "j(v+e,1)", 1)]
        jp02 = zval(ZeroKind.JPRIME, 0.0, 2)
        with substituted_zeros({("jp", 1.0, 1): lambda v: jp02}):
            found = [(w.left_label, w.right_label, w.s) for w in check_derivative_chains(0.0, 1.0, 3)]
        assert found == [("jp(v+e,1)", "jp(v,2)", 1)]

    def test_identity_pairs_exempt_only_within_tolerance(self):
        with substituted_zeros({("y", 1.0, 2): lambda v: v + 1e-6}):
            rep = check_chain(build_chain(0.0, 1.0, 2))
            assert (rep.ok, rep.first_failure) == (False, 2)
            found = [(w.left_label, w.right_label, w.s) for w in check_proposition(0.0, 3)]
        assert found == [("y(v+e,2)", "yp(v,2)", 2)]

    def test_sweeps_read_exactly_the_ranks_they_check(self):
        # Interleavings stop at s_max; closed chains read rank s_max + 1.
        zmod.clear_cache()
        check_derivative_chains(0.5, 0.5, 3)
        check_theorem1(2.0, 3)
        lengths = {(kind.value, nu): len(columns[0]) for (kind, nu), columns in cached_columns().items()}
        assert lengths == {
            ("jp", 0.5): 3,
            ("jp", 1.0): 3,
            ("yp", 0.5): 3,
            ("yp", 1.0): 3,
            ("jp", 2.0): 4,
            ("j", 2.0): 3,
            ("j", 3.0): 3,
            ("y", 2.0): 3,
            ("y", 3.0): 3,
            ("yp", 2.0): 3,
            ("jp", 3.0): 3,
            ("yp", 3.0): 3,
        }


def per_rank_reference(suite, nu, eps, s_max):
    """The checker the column pass replaced: a list of node values per row and rank.

    Reads the node families through ``interlace.zeros_upto``, so it sees
    the same substitutions as the checks.
    """
    rules = imod.SUITES[suite]
    chains = rules.chains
    need = {}
    for chain in chains:
        for node in chain.nodes[:-1] if chain.open else chain.nodes:
            need[node.kind, node.shifted] = max(need.get((node.kind, node.shifted), 0), s_max + node.offset)
    seqs = {(k, sh): imod.zeros_upto(k, nu + eps if sh else nu, n) for (k, sh), n in need.items()}
    out = []
    for chain in chains:
        for s in range(1, s_max + 1):
            nodes = chain.nodes[:-1] if chain.open and s == s_max else chain.nodes
            values = [seqs[n.kind, n.shifted][s - 1 + n.offset].value for n in nodes]
            for i, (left, right) in enumerate(zip(values, values[1:])):
                gap = right - left
                if gap > max(1e-9, 1e-12 * abs(right)):
                    continue
                if nu == 0.0 and eps == 1.0 and i in chain.identities and abs(gap) <= imod.EQ_TOL:
                    continue
                a, b = chain.nodes[i], chain.nodes[i + 1]
                labels = (a.text, b.text) if rules.per_rank else (a.label(s), b.label(s))
                out.append(ViolationWitness(nu, eps, s, *labels, left, right))
                if rules.per_rank:
                    break
    return out


def theorem1_reference(nu, eps, s_max):
    node = imod.SUITES["theorem1"].lead
    jp1 = imod.zeros_upto(node.kind, nu, 1 + node.offset)[-1].value
    lead = [ViolationWitness(nu, 1.0, 1, "nu", "jp(v,1)", nu, jp1)] if jp1 < nu - 1e-12 * max(1.0, nu) else []
    return lead + per_rank_reference("theorem1", nu, 1.0, s_max)


# Per public check: how it is called at (nu, eps, s_max), and the per-rank reference.
CHECKS = {
    "theorem1": (lambda nu, eps, s_max: check_theorem1(nu, s_max), theorem1_reference),
    "proposition": (
        lambda nu, eps, s_max: check_proposition(nu, s_max),
        lambda nu, eps, s_max: per_rank_reference("proposition", nu, 1.0, s_max),
    ),
    "derivative-chains": (
        check_derivative_chains,
        lambda nu, eps, s_max: per_rank_reference("derivative-chains", nu, eps, s_max),
    ),
    "theorem2": (
        lambda nu, eps, s_max: check_suite("theorem2", nu, eps, s_max),
        lambda nu, eps, s_max: per_rank_reference("theorem2", nu, eps, s_max),
    ),
}


def exact_gaps():
    """Node pairs (left, right) whose gap right - left is exactly at the strict bound.

    The first gap is 1e-9 itself; the second is 1e-12 * right, above 1e-9.
    """
    for m in range(4800, 6000):
        gap = m * 2.0**-42  # a multiple of the spacing of doubles in [1024, 2048)
        right = gap * 1e12
        if 1024.0 <= right < 2048.0 and 1e-12 * right == gap:
            return [(0.0, 1e-9), (right - gap, right)]
    raise AssertionError("no exact relative gap found")


def witnesses(found):
    return [(w.left_label, w.right_label, w.s) for w in found]


class TestColumnPass:
    """The column pass against the per-rank checker it replaced, under substituted zeros."""

    CASES = {
        "clean": ("theorem2", 0.5, 0.5, 6, {}),
        "top-rank-open-chain": ("theorem1", 0.5, 1.0, 4, {("j", 1.5, 4): lambda v: v - 10.0}),
        "top-rank-derivative-chain": ("derivative-chains", 2.0, 0.5, 3, {("jp", 2.5, 3): lambda v: v - 10.0}),
        "above-top-rank-only-in-closed-chain": ("theorem1", 0.5, 1.0, 4, {("jp", 0.5, 5): lambda v: v - 10.0}),
        "two-pairs-one-rank": (
            "theorem2",
            0.5,
            0.5,
            4,
            {("y", 1.0, 3): lambda v: v + 100.0, ("j", 0.5, 3): lambda v: v - 100.0},
        ),
        "rows-and-ranks": (
            "theorem1",
            1.0,
            1.0,
            5,
            {
                ("y", 2.0, 2): lambda v: v + 100.0,
                ("j", 1.0, 3): lambda v: v - 100.0,
                ("yp", 1.0, 4): lambda v: v + 100.0,
                ("y", 1.0, 4): lambda v: v + 200.0,
            },
        ),
        "nan-and-inf": (
            "theorem2",
            0.5,
            0.5,
            4,
            {("y", 1.0, 2): lambda v: math.nan, ("j", 1.0, 3): lambda v: math.inf},
        ),
        "identity-gap-negative-inside-tolerance": ("theorem2", 0.0, 1.0, 3, {("y", 1.0, 2): lambda v: v + 0.9e-10}),
        "identity-gap-positive-inside-tolerance": ("proposition", 0.0, 1.0, 3, {("y", 1.0, 2): lambda v: v - 0.9e-10}),
        "identity-gap-negative-outside-tolerance": ("theorem2", 0.0, 1.0, 3, {("y", 1.0, 2): lambda v: v + 1.1e-10}),
        "identity-gap-positive-outside-tolerance": ("proposition", 0.0, 1.0, 3, {("j", 1.0, 2): lambda v: v - 1.1e-10}),
        # An identity pair forced to gap 0 away from nu = 0, eps = 1 is not exempt.
        "identity-pair-off-identity-order": (
            "proposition",
            0.5,
            1.0,
            3,
            {("y", 1.5, 2): lambda v: zval(ZeroKind.YPRIME, 0.5, 2)},
        ),
        "identity-pair-off-identity-eps": (
            "theorem2",
            0.0,
            0.5,
            3,
            {("y", 0.5, 2): lambda v: zval(ZeroKind.YPRIME, 0.0, 2)},
        ),
    }

    # What the cases with failures must report, in this order.
    EXPECT = {
        "clean": [],
        "top-rank-open-chain": [("j(v,4)", "j(v+e,4)", 4)],
        "top-rank-derivative-chain": [("jp(v,3)", "jp(v+e,3)", 3)],
        "above-top-rank-only-in-closed-chain": [("j(v,4)", "jp(v,5)", 4)],
        "two-pairs-one-rank": [("y(v+e,s)", "yp(v,s)", 3)],
        "rows-and-ranks": [
            ("j(v+e,2)", "j(v,3)", 2),
            ("y(v+e,2)", "y(v,3)", 2),
            ("y(v,4)", "y(v+e,4)", 4),
            ("yp(v,3)", "j(v,3)", 3),
            ("y(v,4)", "yp(v,4)", 4),
            ("yp(v,4)", "j(v,4)", 4),
            ("yp(v,4)", "yp(v+e,4)", 4),
        ],
        "nan-and-inf": [("y(v,s)", "y(v+e,s)", 2), ("j(v,s)", "j(v+e,s)", 3)],
        "identity-gap-negative-inside-tolerance": [],
        "identity-gap-positive-inside-tolerance": [],
        "identity-gap-negative-outside-tolerance": [("y(v+e,s)", "yp(v,s)", 2)],
        "identity-gap-positive-outside-tolerance": [("j(v+e,2)", "jp(v,3)", 2)],
        "identity-pair-off-identity-order": [("y(v+e,2)", "yp(v,2)", 2)],
        "identity-pair-off-identity-eps": [("y(v+e,s)", "yp(v,s)", 2)],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_per_rank_reference(self, case):
        suite, nu, eps, s_max, changes = self.CASES[case]
        check, reference = CHECKS[suite]
        with substituted_zeros(changes):
            found = check(nu, eps, s_max)
            expect = reference(nu, eps, s_max)
        # Compared by repr, which is exact for floats: a NaN read from a
        # column is a new object each time, and NaN != NaN.
        assert list(map(repr, found)) == list(map(repr, expect))
        assert witnesses(found) == self.EXPECT[case]

    @pytest.mark.parametrize("suite", list(CHECKS))
    @pytest.mark.parametrize("nu,eps", [(0.0, 1.0), (0.0, 0.5), (2.5, 0.75)])
    def test_true_zeros_match_per_rank_reference(self, suite, nu, eps):
        check, reference = CHECKS[suite]
        assert check(nu, eps, 12) == reference(nu, eps, 12) == []

    @pytest.mark.parametrize("at_bound", [0, 1], ids=["absolute", "relative"])
    def test_gap_exactly_at_the_bound_fails(self, at_bound):
        left, right = exact_gaps()[at_bound]
        assert right - left == max(1e-9, 1e-12 * abs(right))
        # j(v+e,1) <= jp(v,2) is the only pair either node is in at nu = 1.
        for right_value, fails in [(right, True), (math.nextafter(right, math.inf), False)]:
            changes = {("j", 2.0, 1): lambda v: left, ("jp", 1.0, 2): lambda v: right_value}
            with substituted_zeros(changes):
                found = check_proposition(1.0, 2)
                assert found == per_rank_reference("proposition", 1.0, 1.0, 2)
            assert witnesses(found) == ([("j(v+e,1)", "jp(v,2)", 1)] if fails else [])
            # The same bound in check_chain, at its last pair.
            nodes = (*(left - 10.0 * k for k in range(5, 0, -1)), left, right_value)
            rep = check_chain(InterlaceChain(1.0, 0.5, 1, nodes))
            assert (rep.ok, rep.first_failure) == ((False, 5) if fails else (True, None))

    def test_check_chain_reports_the_first_failing_pair(self):
        with substituted_zeros(self.CASES["two-pairs-one-rank"][4]):
            rep = check_chain(build_chain(0.5, 0.5, 3))
        assert (rep.ok, rep.first_failure) == (False, 2)
        assert rep.margins[2] < 0.0 and rep.margins[3] < 0.0


class _SealedCache:
    """Stands in for ``zeros._cache``: any direct read fails the test."""

    def _read(self, *args):
        raise AssertionError("zeros._cache read outside zeros_upto")

    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = _read


class TestLookups:
    """Each check reads each node family once, through the lookup boundary only."""

    FAMILIES = {
        "theorem1": {(kind, nu) for kind in ("j", "y", "jp", "yp") for nu in (2.0, 3.0)},
        "proposition": {("j", 3.0), ("jp", 2.0), ("y", 3.0), ("yp", 2.0)},
        "derivative-chains": {("jp", 2.0), ("jp", 2.5), ("yp", 2.0), ("yp", 2.5)},
        "theorem2": {("jp", 2.0), ("y", 2.0), ("y", 2.5), ("yp", 2.0), ("j", 2.0), ("j", 2.5)},
        "chain": {("jp", 2.0), ("y", 2.0), ("y", 2.5), ("yp", 2.0), ("j", 2.0), ("j", 2.5)},
    }

    @staticmethod
    def spied(monkeypatch):
        """Log each ``zeros_upto`` call's arguments, and seal the cache to all else."""
        real, fn = zmod._cache, imod.zeros_upto
        reads = []

        def read(*args):
            reads.append(args)
            zmod._cache = real
            try:
                return fn(*args)
            finally:
                zmod._cache = sealed

        sealed = _SealedCache()
        monkeypatch.setattr(imod, "zeros_upto", read)
        monkeypatch.setattr(zmod, "_cache", sealed)
        return reads

    @pytest.mark.parametrize("suite", [*CHECKS, "chain"])
    def test_one_read_per_family_and_no_cache_access(self, suite, monkeypatch):
        reads = self.spied(monkeypatch)
        if suite == "chain":
            reports = imod.chain_reports(2.0, 0.5, 20)
            assert [r.chain.s for r in reports if r.ok] == list(range(1, 21))
        else:
            assert CHECKS[suite][0](2.0, 0.5, 20) == []
        # Theorem 1's leading bound nu <= j'_{nu,1} reads rank 1 last, besides its families.
        lead = [(ZeroKind.JPRIME, 2.0, 1)] if suite == "theorem1" else []
        assert reads[len(reads) - len(lead) :] == lead
        families = [(kind.value, nu) for kind, nu, _ in reads[: len(reads) - len(lead)]]
        assert sorted(families) == sorted(self.FAMILIES[suite])  # each exactly once

    def test_build_chain_reads_its_seven_nodes_only(self, monkeypatch):
        reads = self.spied(monkeypatch)
        chain = build_chain(2.0, 0.5, 20)
        # One read per node, each up to the node's rank: no lower rank is checked.
        assert [(kind.value, nu, s) for kind, nu, s in reads] == [
            ("jp", 2.0, 20), ("y", 2.0, 20), ("y", 2.5, 20), ("yp", 2.0, 20),
            ("j", 2.0, 20), ("j", 2.5, 20), ("jp", 2.0, 21),
        ]
        assert check_chain(chain).ok

    def test_find_breaking_reads_64_ranks_per_lookup(self, monkeypatch):
        reads = self.spied(monkeypatch)
        assert find_breaking(10.0, 1.0318, 100).s == 65  # the witness opens the second read
        y, j = (ZeroKind.Y, 10.0 + 1.0318), (ZeroKind.J, 10.0)
        assert reads == [(*y, 64), (*j, 64), (*y, 100), (*j, 100)]  # the second read stops at s_cap


class TestSuites:
    """Each ``SUITES`` entry holds a suite's rows and rules, resolved at import."""

    # Theorem 1's leading bound nu <= j'_{nu,1} fails, and every suite has a
    # pair that ends at j'_{1,2}.
    FORCED = {("jp", 1.0, 1): lambda v: 0.5, ("jp", 1.0, 2): lambda v: v - 100.0}

    def test_caps_resolved_and_verify_runs_every_suite(self):
        caps = {suite: rules.cap for suite, rules in imod.SUITES.items()}
        assert caps == {"theorem1": 100, "proposition": 9999, "derivative-chains": 10000, "theorem2": 9999}
        assert cli._SUITES == (*imod.SUITES, "all")

    def test_only_theorem1_has_a_lead_and_only_theorem2_reports_per_rank(self):
        assert [s for s, rules in imod.SUITES.items() if rules.lead] == ["theorem1"]
        assert imod.SUITES["theorem1"].lead.label(1) == "jp(v,1)"
        assert [s for s, rules in imod.SUITES.items() if rules.per_rank] == ["theorem2"]

    @pytest.mark.parametrize("suite", ["bogus", "all", "Theorem1"])
    def test_unknown_suite_is_a_domain_error_before_any_zero(self, suite):
        zmod.clear_cache()
        with pytest.raises(DomainError) as err:
            imod.check_suite(suite, 1.0, 1.0, 3)
        assert err.value.code == "DOMAIN_SUITE"
        assert str(err.value) == (
            f"suite must be one of 'theorem1', 'proposition', 'derivative-chains', 'theorem2', got {suite!r}"
        )
        assert zmod._cache == {}

    @pytest.mark.parametrize("suite", list(CHECKS))
    @pytest.mark.parametrize("forced", [False, True], ids=["clean", "forced"])
    def test_public_check_is_check_suite(self, suite, forced):
        eps = imod.SUITES[suite].eps or 0.5
        with substituted_zeros(self.FORCED if forced else {}):
            found = CHECKS[suite][0](1.0, eps, 4)
            assert found == imod.check_suite(suite, 1.0, eps, 4)
        assert bool(found) == forced
        if forced and suite == "theorem1":
            assert witnesses(found[:1]) == [("nu", "jp(v,1)", 1)]


class TestSweepArguments:
    # An empty rank range or a non-positive increment must be an error,
    # never a clean result.
    @pytest.mark.parametrize(
        "check",
        [
            lambda: check_suite("theorem2", 1.0, 0.5, 0),
            lambda: check_derivative_chains(1.0, 0.5, 0),
            lambda: check_proposition(1.0, 0),
        ],
        ids=["theorem2", "derivative-chains", "proposition"],
    )
    def test_no_ranks_rejected(self, check):
        with pytest.raises(DomainError) as exc:
            check()
        assert exc.value.code == "DOMAIN_S"

    # Closed chains read rank s_max + 1, interleavings stop at s_max; the
    # error names the s_max the caller passed and comes before any zero is
    # computed.
    @pytest.mark.parametrize(
        "check,message",
        [
            (lambda: check_suite("theorem2", 0.5, 0.5, 10_000), "rank 10000 exceeds the supported cap 9999 "),
            (lambda: check_proposition(0.5, 10_000), "rank 10000 exceeds the supported cap 9999 "),
            (lambda: check_derivative_chains(0.5, 0.5, 10_001), "rank 10001 exceeds the supported cap 10000 "),
            (lambda: check_theorem1(0.5, 101), "rank 101 exceeds the supported cap 100 "),
        ],
        ids=["theorem2", "proposition", "derivative-chains", "theorem1"],
    )
    def test_rank_past_the_cap_rejected_up_front(self, check, message):
        zmod.clear_cache()
        with pytest.raises(DomainError) as exc:
            check()
        assert exc.value.code == "DOMAIN_S"
        assert str(exc.value).startswith(message)
        assert zmod._cache == {}

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
    def test_theorem2_rejects_bad_eps(self, eps):
        with pytest.raises(DomainError) as exc:
            check_suite("theorem2", 1.0, eps, 3)
        assert exc.value.code == "DOMAIN_EPS"

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (1.0, math.inf)])
    def test_check_eps_bounds(self, lo, hi):
        assert imod.check_eps(hi, lo, hi) == hi
        assert imod.check_eps(math.nextafter(lo, hi), lo, hi) > lo
        for eps in (lo, math.nan):
            with pytest.raises(DomainError) as exc:
                imod.check_eps(eps, lo, hi)
            assert (exc.value.code, str(exc.value)) == ("DOMAIN_EPS", f"eps must lie in ({lo!r}, {hi!r}], got {eps!r}")


class TestDerivativeChains:
    def test_nu0_eps1_prefix(self):
        assert check_derivative_chains(0.0, 1.0, 3) == []
        prefix = [
            zval(ZeroKind.JPRIME, 0.0, 1),
            zval(ZeroKind.JPRIME, 1.0, 1),
            zval(ZeroKind.JPRIME, 0.0, 2),
            zval(ZeroKind.JPRIME, 1.0, 2),
        ]
        expect = [
            0.0,
            fixtures.ORACLE_ZEROS[("jp", 1.0, 1)],
            fixtures.ORACLE_ZEROS[("j", 1.0, 1)],
            fixtures.ORACLE_ZEROS[("jp", 1.0, 2)],
        ]
        assert prefix == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("nu,eps,smax", [(2.0, 0.5, 10), (0.1, 1.0, 10)])
    def test_clean_sweeps(self, nu, eps, smax):
        assert check_derivative_chains(nu, eps, smax) == []

    def test_eps_regime_guard(self):
        with pytest.raises(DomainError):
            check_derivative_chains(1.0, 1.5, 5)


class TestSubsumption:
    def test_theorem2_implies_derivative_interlacing(self):
        # Mirrors the derivation of the derivative chains from two
        # overlapping unit-increment chains.
        for nu in [0.0, 0.5, 1.0, 2.5, 5.0]:
            for s in range(1, 11):
                if check_chain(build_chain(nu, 1.0, s)).ok and check_chain(build_chain(nu + 1.0, 1.0, s)).ok:
                    assert zval(ZeroKind.JPRIME, nu + 1.0, s) < zval(ZeroKind.JPRIME, nu, s + 1) + 1e-10
                    assert zval(ZeroKind.YPRIME, nu + 1.0, s) < zval(ZeroKind.YPRIME, nu, s + 1) + 1e-10


class TestFindBreaking:
    def test_nu0_eps2_first_rank(self):
        w = find_breaking(0.0, 2.0, 10)
        assert w.s == 1
        assert w.left_value == pytest.approx(fixtures.ORACLE_ZEROS[("y", 2.0, 1)], abs=1e-12)
        assert w.right_value == pytest.approx(fixtures.ORACLE_ZEROS[("j", 0.0, 1)], abs=1e-12)
        assert w.left_value - w.right_value == pytest.approx(fixtures.BREAK_GAP_NU0_EPS2, abs=1e-9)

    def test_nu10_eps125_rank(self):
        w = find_breaking(10.0, 1.25, 500)
        assert w.s == fixtures.BREAKING_RANKS[(10.0, 1.25)]
        assert w.left_value > w.right_value

    def test_eps_just_above_one(self):
        w = find_breaking(0.0, 1.01, 10_000)
        assert w.s == fixtures.BREAKING_RANKS[(0.0, 1.01)]

    def test_witness_labels_carry_its_rank(self):
        w = find_breaking(10.0, 1.25)
        assert (w.left_label, w.right_label) == (f"y(v+e,{w.s})", f"j(v,{w.s})")
        assert w.s > 1

    def test_cap_too_small(self):
        with pytest.raises(SearchError) as exc:
            find_breaking(10.0, 1.25, 3)
        assert exc.value.code == "NOT_FOUND_WITHIN_CAP"

    def test_numpy_integer_cap(self):
        assert find_breaking(10.0, 1.5, np.int64(100)) == find_breaking(10.0, 1.5, 100)
        with pytest.raises(SearchError) as exc:
            find_breaking(10.0, 1.25, np.int64(3))
        assert str(exc.value).startswith("no rank s <= 3 ")

    # Witnesses at both ends of the first two 64-rank reads.
    BOUNDARIES = [(1.0323, 64), (1.0318, 65), (1.01637, 128), (1.0162, 129)]

    @pytest.mark.parametrize("eps,rank", BOUNDARIES)
    def test_chunk_boundary_matches_a_rank_by_rank_search(self, eps, rank):
        left, right = imod._BREAKING.nodes
        zmod.clear_cache()
        try:
            s = next(s for s in range(1, 10_001) if imod._zval(left, 10.0, eps, s) > imod._zval(right, 10.0, eps, s))
            expected = ViolationWitness(
                10.0, eps, s, left.label(s), right.label(s), imod._zval(left, 10.0, eps, s), imod._zval(right, 10.0, eps, s)
            )
            zmod.clear_cache()
            assert (s, find_breaking(10.0, eps, 10_000)) == (rank, expected)
        finally:
            zmod.clear_cache()

    @pytest.mark.parametrize("eps,rank", BOUNDARIES)
    def test_cap_below_the_witness_reads_no_further(self, eps, rank):
        zmod.clear_cache()
        try:
            with pytest.raises(SearchError) as exc:
                find_breaking(10.0, eps, rank - 1)
            assert exc.value.code == "NOT_FOUND_WITHIN_CAP"
            lengths = {key: len(columns[0]) for key, columns in cached_columns().items()}
            assert lengths == {(ZeroKind.Y, 10.0 + eps): rank - 1, (ZeroKind.J, 10.0): rank - 1}
        finally:
            zmod.clear_cache()

    def test_one_target_per_chunk(self, monkeypatch):
        # The witness at rank 2,126 lies in the 34th 64-rank read, so each of
        # the two sequences is read, and extended, 34 times up to rank 2,176.
        built = []
        real = zmod._target
        monkeypatch.setattr(zmod, "_target", lambda kind, nu: built.append((kind, nu)) or real(kind, nu))
        zmod.clear_cache()
        try:
            assert find_breaking(10.0, 1.001, 10_000).s == 2126
        finally:
            zmod.clear_cache()
        assert set(built) == {(ZeroKind.J, 10.0), (ZeroKind.Y, 10.0 + 1.001)}
        assert len(built) == 2 * math.ceil(2176 / 64) == 68

    def test_regime_guard(self):
        # An infinite eps passes the eps range and fails nu + eps <= NU_MAX, under the same code.
        zmod.clear_cache()
        for eps in (0.5, 1.0, math.inf):
            with pytest.raises(DomainError) as exc:
                find_breaking(0.0, eps, 10)
            assert exc.value.code == "DOMAIN_EPS"
        assert zmod._cache == {}


class TestCounterexampleScan:
    def test_jp_vs_y_flip_across_orders_at_eps_one(self):
        greater, less = counterexample_scan(1.0, [0.0, 599.0], 1)
        assert greater.nu == 0.0 and greater.left_value > greater.right_value
        assert less.nu == 599.0 and less.left_value < less.right_value

    def test_jp_vs_y_flip_at_rank_two(self):
        greater, less = counterexample_scan(0.1, [0.5, 300.0], 2)
        assert greater.nu == 0.5
        assert less.nu == 300.0
        for w in (greater, less):
            assert (w.left_label, w.right_label) == ("jp(v+e,2)", "y(v,2)")

    def test_jp_vs_y_single_order_at_rank_one(self):
        # j'_{nu+0.1,1} < y_{nu,1} everywhere on the supported range; a
        # two-point list can only see one ordering.
        with pytest.raises(SearchError) as exc:
            counterexample_scan(0.1, [0.5, 5.0], 1)
        assert exc.value.code == "ONLY_ONE_ORDERING"

    def test_yp_vs_j_flip(self):
        greater, less = counterexample_scan(0.25, [0.0, 400.0], 1, pair="yp-vs-j")
        assert greater.nu == 0.0
        assert less.nu == 400.0
        assert greater.left_value == pytest.approx(fixtures.CERTIFIED_ZEROS[("yp", 0.25, 1)], abs=1e-8)
        assert less.left_value == pytest.approx(fixtures.CERTIFIED_ZEROS[("yp", 400.25, 1)], abs=1e-8)

    def test_single_point_errors(self):
        with pytest.raises(SearchError):
            counterexample_scan(0.1, [0.5], 1)

    def test_empty_order_list(self):
        with pytest.raises(DomainError) as exc:
            counterexample_scan(1.0, [], 1)
        assert exc.value.code == "DOMAIN_NU"

    def test_bad_pair_name(self):
        with pytest.raises(DomainError) as exc:
            counterexample_scan(0.1, [0.5, 5.0], 1, pair="nope")
        assert exc.value.code == "DOMAIN_PAIR"

    def test_cli_offers_exactly_the_library_pairs(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        [pair] = [a for a in sub.choices["counterexample"]._actions if a.dest == "pair"]
        assert tuple(pair.choices) == tuple(imod.PAIRS) == ("jp-vs-y", "yp-vs-j")
        assert pair.default in imod.PAIRS

    def test_eps_regime_guard(self):
        with pytest.raises(DomainError):
            counterexample_scan(1.5, [0.5, 5.0], 1)

    def test_numpy_integer_rank_is_stored_as_int(self):
        witnesses = counterexample_scan(1.0, [0.0, 599.0], np.int64(1))
        assert [type(w.s) for w in witnesses] == [int, int]
        assert witnesses == counterexample_scan(1.0, [0.0, 599.0], 1)

    @pytest.mark.parametrize("s", [0, 10_001, 1.0])
    def test_bad_rank_rejected_before_any_order(self, s):
        # The rank is checked before the first entry, so an entry past
        # NU_MAX does not hide it.
        zmod.clear_cache()
        with pytest.raises(DomainError) as exc:
            counterexample_scan(1.0, [700.0, 0.0], s)
        assert exc.value.code == "DOMAIN_S"
        assert zmod._cache == {}

    @pytest.mark.parametrize(
        "eps,nu_list,named",
        [(1.0, [0.0, 700.0], "700.0"), (1.0, [599.5, 0.0], "599.5 plus eps=1.0")],
        ids=["entry-past-cap", "shift-past-cap"],
    )
    def test_order_error_names_the_entry_passed(self, eps, nu_list, named):
        # Not the shifted order nu + eps (701.0, 600.5), which the caller never passed.
        with pytest.raises(DomainError) as exc:
            counterexample_scan(eps, nu_list, 1)
        assert exc.value.code == "OVERFLOW_NU"
        assert named in str(exc.value)


class TestTheorem2Sweep:
    def test_quarter_grid(self):
        for nu in [0.0, 0.25, 2.0, 7.75, 10.0]:
            for eps in (0.25, 0.5, 0.75, 1.0):
                for s in (1, 7, 20):
                    assert check_chain(build_chain(nu, eps, s)).ok, (nu, eps, s)
