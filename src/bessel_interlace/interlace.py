"""Interlacing chains for Bessel zeros, their checks, and breaking searches.

Every comparison of zeros the package makes is one parsed row: a chain
of a suite of ``SUITES`` below, whose entry holds its rows and its
rules, or a search row beside them (``_BREAKING``, ``PAIRS``). Theorem
1's leading bound nu <= j'_{nu,1} is its entry's lead node, not a row.
The unified chain at order nu, increment eps, rank s is

    j'_{nu,s} < y_{nu,s} < y_{nu+eps,s} < y'_{nu,s}
             < j_{nu,s} < j_{nu+eps,s} < j'_{nu,s+1}

valid for 0 < eps <= 1. At nu = 0, eps = 1 two of the "<" degenerate
to exact equalities (J'_0 = -J_1 and Y'_0 = -Y_1 identify zero
families), as do both Proposition pairs; the checks exempt exactly
those pairs. For eps > 1 the chain breaks: some rank has
y_{nu+eps,s} > j_{nu,s}.

All node values come from the shared zero-finder cache, so a value
reused across chains is bit-for-bit identical. A suite, like a chain
table, reads each node family once through ``zeros_upto`` as its value
column and checks each row as one pass over its node columns, each
column sliced by its node's rank offset; witnesses are built only for
failing ranks.
``find_breaking`` reads its two families the same way, in chunks of
``_CHUNK`` ranks. ``build_chain`` and ``counterexample_scan`` read one
zero per node (``_zval``), the last rank of its ``zeros_upto`` table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from . import evaluate as ev
from .errors import DomainError, SearchError
from .zeros import S_MAX_LIMIT, ZeroKind, check_rank, zeros_upto

__all__ = [
    "CHAIN_LABELS", "SUITES", "InterlaceChain", "ChainReport", "ViolationWitness", "build_chain", "check_chain",
    "check_suite", "check_theorem1", "check_proposition", "check_derivative_chains", "find_breaking",
    "counterexample_scan",
]

#: Ranks ``find_breaking`` reads per lookup: enough to make the per-lookup
#: cost negligible, few enough that a witness at a low rank computes little
#: past it.
_CHUNK = 64

#: |gap| at or below this is an exact-equality degeneracy, not a violation.
EQ_TOL = 1e-10

_NODE = re.compile(r"(jp|yp|j|y)\((v|v\+e),(s|s\+1)\)")


class _Node(NamedTuple):
    text: str
    kind: ZeroKind
    shifted: bool  # order nu + eps rather than nu
    offset: int  # rank s + offset

    def order(self, nu: float, eps: float) -> float:
        return nu + eps if self.shifted else nu

    def label(self, s: int) -> str:
        return f"{self.kind.value}({'v+e' if self.shifted else 'v'},{s + self.offset})"


class _Chain(NamedTuple):
    nodes: tuple[_Node, ...]
    identities: frozenset[int]  # positions i of the "<=" pairs (node i, node i+1)
    open: bool


def _parse(text: str) -> _Chain:
    tokens = text.split()
    is_open = tokens[-1] == "..."
    if is_open:
        tokens[-1] = tokens[0].replace(",s)", ",s+1)")
    nodes = []
    for token in tokens[::2]:
        kind, order, rank = _NODE.fullmatch(token).groups()
        nodes.append(_Node(token, ZeroKind(kind), order == "v+e", int(rank == "s+1")))
    identities = frozenset(i for i, sign in enumerate(tokens[1::2]) if sign == "<=")
    return _Chain(tuple(nodes), identities, is_open)


def _top_nodes(chain: _Chain) -> tuple[_Node, ...]:
    """The nodes ``chain`` reads at its top rank: an open chain's last node is left out."""
    return chain.nodes[:-1] if chain.open else chain.nodes


class _Suite(NamedTuple):
    eps: float | None  # the eps it is stated at; None: the caller's
    max_eps: float  # the largest eps it accepts
    cap: int  # its rank cap
    note: str | None  # the note ``verify`` prints at nu = 0, eps = 1
    per_rank: bool  # reports each rank's first failure only, under its labels as written
    chains: tuple[_Chain, ...]
    lead: _Node | None  # a bound nu <= lead at rank 1, equality allowed, checked after the rows


def _suite(eps, max_eps, *, rows, cap=None, note=None, per_rank=False, lead=None) -> _Suite:
    """A ``_Suite``; its cap defaults to S_MAX_LIMIT less the largest rank offset its rows read."""
    chains = tuple(map(_parse, rows))
    cap = cap or S_MAX_LIMIT - max(n.offset for c in chains for n in _top_nodes(c))
    return _Suite(eps, max_eps, cap, note, per_rank, chains, lead and _parse(lead).nodes[0])  # a one-node row


#: Every interlacing inequality the package checks, one row per chain of
#: the paper, with the rules of its suite, in the order ``verify`` runs
#: them. A row holds at every rank s = 1..s_max for the orders v = nu and
#: v+e = nu + eps. "<=" marks a pair that is an exact identity at nu = 0,
#: eps = 1 and strict everywhere else. A row ending in "< ..." is an
#: interleaving that continues into rank s + 1; it stops at rank s_max and
#: never reads rank s_max + 1. A closed row with an s+1 node reads rank
#: s_max + 1. Theorem 1's lead is its leading bound nu <= j'_{nu,1}.
SUITES = {
    "theorem1": _suite(1.0, 1.0, cap=100, lead="jp(v,s)", rows=(
        "j(v,s) < j(v+e,s) < ...",
        "y(v,s) < y(v+e,s) < ...",
        "jp(v,s) < y(v,s) < yp(v,s) < j(v,s) < jp(v,s+1)",
        "jp(v,s) < jp(v+e,s) < ...",
        "yp(v,s) < yp(v+e,s) < ...",
    )),
    "proposition": _suite(1.0, 1.0, rows=("j(v+e,s) <= jp(v,s+1)", "y(v+e,s) <= yp(v,s)"),
                          note="j(1,s)=jp(0,s+1) and y(1,s)=yp(0,s) exactly; equalities exempt"),
    "derivative-chains": _suite(None, 1.0, rows=("jp(v,s) < jp(v+e,s) < ...", "yp(v,s) < yp(v+e,s) < ...")),
    "theorem2": _suite(None, math.inf, rows=("jp(v,s) < y(v,s) < y(v+e,s) <= yp(v,s) < j(v,s) < j(v+e,s) <= jp(v,s+1)",),
                       note="nu=0, eps=1 equality pairs exempt", per_rank=True),
}

[_SEVEN_NODE] = SUITES["theorem2"].chains

#: Labels of the seven chain nodes, in order. ``v`` is the base order,
#: ``v+e`` the incremented one.
CHAIN_LABELS = tuple(node.text for node in _SEVEN_NODE.nodes)

#: The search rows: the one ``find_breaking`` breaks, and the pairs ``counterexample_scan`` orders.
_BREAKING = _parse("y(v+e,s) < j(v,s)")
PAIRS = {
    "jp-vs-y": _parse("jp(v+e,s) < y(v,s)"),
    "yp-vs-j": _parse("yp(v+e,s) < j(v,s)"),
}


@dataclass(frozen=True)
class InterlaceChain:
    nu: float
    eps: float
    s: int
    nodes: tuple[float, float, float, float, float, float, float]


@dataclass(frozen=True)
class ChainReport:
    chain: InterlaceChain
    ok: bool
    first_failure: int | None
    margins: tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete ordering failure: claimed left < right, observed otherwise."""

    nu: float
    eps: float
    s: int
    left_label: str
    right_label: str
    left_value: float
    right_value: float


def _zval(node: _Node, nu: float, eps: float, s: int) -> float:
    return zeros_upto(node.kind, node.order(nu, eps), s + node.offset)[-1].value


def check_eps(eps: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Validate an increment eps in (lo, hi], returning it as float. Raises DomainError (DOMAIN_EPS)."""
    eps = float(eps)
    if not lo < eps <= hi:
        raise DomainError(f"eps must lie in ({lo!r}, {hi!r}], got {eps!r}", code="DOMAIN_EPS")
    return eps


def _check_eps_and_rank(suite: str, nu: float, eps: float, s: int) -> tuple[_Suite, float, float, int]:
    """``suite``'s entry, nu and eps as floats and s as int; rejects an unknown suite, a bad eps or order, or s past its cap."""
    if (rules := SUITES.get(suite)) is None:
        raise DomainError(f"suite must be one of {', '.join(map(repr, SUITES))}, got {suite!r}", code="DOMAIN_SUITE")
    eps = check_eps(eps, hi=rules.max_eps)
    return rules, ev.check_orders(nu, eps), eps, check_rank(s, rules.cap, of=f" of the {suite} chains")


def _failing(chain: _Chain, nu: float, eps: float, columns) -> list[tuple[int, int]]:
    """(rank, pair) of each failed columns[i] < columns[i + 1], ranks from 1, sorted.

    A pass needs a gap above max(1e-9, 1e-12 |right|), so NaN and inf fail;
    an identity pair at nu = 0, eps = 1 forgives |gap| <= EQ_TOL.
    """
    at_identity = nu == 0.0 and eps == 1.0
    failing = []
    for i, (lefts, rights) in enumerate(zip(columns, columns[1:])):
        exempt = at_identity and i in chain.identities
        failing += [
            (s, i)
            for s, (left, right) in enumerate(zip(lefts, rights), 1)
            if not ((gap := right - left) > 1e-9 and gap > 1e-12 * abs(right))
            and not (exempt and abs(gap) <= EQ_TOL)
        ]
    return sorted(failing)


def _columns(chains, nu: float, eps: float, s_max: int):
    """(chain, its node columns at ranks 1..s_max) for each of ``chains``."""
    # Each node family (kind, order), read once up to the highest rank a row needs.
    need: dict[tuple[ZeroKind, float], int] = {}
    for node in (n for c in chains for n in _top_nodes(c)):
        family = node.kind, node.order(nu, eps)
        need[family] = max(need.get(family, 0), s_max + node.offset)
    families = {family: zeros_upto(*family, n).value for family, n in need.items()}
    for chain in chains:
        columns = [families[n.kind, n.order(nu, eps)][n.offset : s_max + n.offset] for n in chain.nodes]
        if chain.open:
            columns[-1] = columns[-1][: s_max - 1]  # an interleaving stops at rank s_max
        yield chain, columns


def check_suite(suite: str, nu: float, eps: float, s_max: int) -> list[ViolationWitness]:
    """Violations of the rows of ``suite``, a key of ``SUITES``, at (nu, eps), ranks 1..s_max, in row,
    rank, pair order; a failed lead bound nu <= lead at rank 1 (equality allowed) comes first. A
    ``per_rank`` suite (theorem2) reports each rank's first failure, labelled as its row is written
    (``CHAIN_LABELS``); the others label each node at its rank."""
    rules, nu, eps, s_max = _check_eps_and_rank(suite, nu, eps, s_max)
    out = []
    for chain, columns in _columns(rules.chains, nu, eps, s_max):
        failing = _failing(chain, nu, eps, columns)
        if rules.per_rank:  # each rank's first failure only; reversed, the lowest pair is written last
            failing = sorted(dict(reversed(failing)).items())
        for s, i in failing:
            left, right = chain.nodes[i], chain.nodes[i + 1]
            labels = (left.text, right.text) if rules.per_rank else (left.label(s), right.label(s))
            out.append(ViolationWitness(nu, eps, s, *labels, columns[i][s - 1], columns[i + 1][s - 1]))
    if rules.lead and (lead := _zval(rules.lead, nu, eps, 1)) < nu - 1e-12 * max(1.0, nu):
        out.insert(0, ViolationWitness(nu, eps, 1, "nu", rules.lead.label(1), nu, lead))
    return out


def chain_reports(nu: float, eps: float, s_max: int) -> list[ChainReport]:
    """``check_chain``'s report at each rank 1..s_max, from one ``_failing`` pass over every rank."""
    _, nu, eps, s_max = _check_eps_and_rank("theorem2", nu, eps, s_max)
    [(_, columns)] = _columns((_SEVEN_NODE,), nu, eps, s_max)
    first = dict(reversed(_failing(_SEVEN_NODE, nu, eps, columns)))  # reversed, a rank's lowest pair comes last
    return [
        ChainReport(InterlaceChain(nu, eps, s, nodes), s not in first, first.get(s), tuple(b - a for a, b in zip(nodes, nodes[1:])))
        for s, nodes in enumerate(zip(*columns), 1)
    ]


def build_chain(nu: float, eps: float, s: int) -> InterlaceChain:
    """The seven chain nodes at rank s, through the zero finder."""
    _, nu, eps, s = _check_eps_and_rank("theorem2", nu, eps, s)
    return InterlaceChain(nu, eps, s, tuple(_zval(node, nu, eps, s) for node in _SEVEN_NODE.nodes))


def check_chain(chain: InterlaceChain) -> ChainReport:
    """Strict ordering of the seven nodes, with the nu=0, eps=1 exemption."""
    nodes = chain.nodes
    margins = tuple(b - a for a, b in zip(nodes, nodes[1:]))
    failing = _failing(_SEVEN_NODE, chain.nu, chain.eps, [(v,) for v in nodes])
    first_failure = failing[0][1] if failing else None
    return ChainReport(chain, first_failure is None, first_failure, margins)


# Kept while perfbench/spans.py spans it by name.
def check_theorem1(nu: float, s_max: int) -> list[ViolationWitness]:
    """The five classical interlacing chains at orders nu and nu+1, ranks s_max <= 100.

    Covers the two same-kind chains for J and Y, the mixed chain
    nu <= j'_{nu,1} < y_{nu,1} < y'_{nu,1} < j_{nu,1} < j'_{nu,2} < ...,
    and the two derivative-zero chains; ``check_suite`` checks the
    leading bound nu <= j'_{nu,1}. Returns every adjacent-pair
    violation; none of these pairs is an identity, so none is exempt.
    """
    return check_suite("theorem1", nu, 1.0, s_max)


# Kept while perfbench/spans.py spans it by name.
def check_proposition(nu: float, s_max: int) -> list[ViolationWitness]:
    """j_{nu+1,s} < j'_{nu,s+1} and y_{nu+1,s} < y'_{nu,s} for s <= s_max.

    At nu = 0 both are exact equalities (index-shift identities) and
    are exempt rather than reported. Violations of the first pair come
    before those of the second.
    """
    return check_suite("proposition", nu, 1.0, s_max)


# Kept while perfbench/spans.py spans it by name.
def check_derivative_chains(nu: float, eps: float, s_max: int) -> list[ViolationWitness]:
    """Interlacing of derivative zeros across the order increment:

    j'_{nu,s} < j'_{nu+eps,s} < j'_{nu,s+1} and the same for y'.
    Requires 0 < eps <= 1. No pair is an identity, so none is exempt.
    """
    return check_suite("derivative-chains", nu, eps, s_max)


def find_breaking(nu: float, eps: float, s_cap: int = 500) -> ViolationWitness:
    """Smallest rank s <= s_cap with y_{nu+eps,s} > j_{nu,s} (eps > 1).

    The chain is guaranteed to break somewhere for eps > 1; the
    asymptotic node gap tends to (eps-1)*pi/2 > 0, but the first
    violating rank grows as eps -> 1+, so a too-small cap raises
    SearchError (NOT_FOUND_WITHIN_CAP). Both sequences are read in
    chunks of _CHUNK ranks, never past s_cap, so a witness at rank s
    computes both up to the end of its chunk.
    """
    eps = check_eps(eps, 1.0, math.inf)
    s_cap = check_rank(s_cap)
    nu = ev.check_orders(nu, eps)
    left, right = _BREAKING.nodes
    for lo in range(0, s_cap, _CHUNK):
        hi = min(lo + _CHUNK, s_cap)
        lefts, rights = (zeros_upto(n.kind, n.order(nu, eps), hi).value[lo:] for n in (left, right))
        for s, (yv, jv) in enumerate(zip(lefts, rights), lo + 1):
            if yv > jv:
                return ViolationWitness(nu, eps, s, left.label(s), right.label(s), yv, jv)
    raise SearchError(
        f"no rank s <= {s_cap} with y_(nu+eps,s) > j_(nu,s) at nu={nu}, eps={eps}; raise s_cap",
        code="NOT_FOUND_WITHIN_CAP",
    )


def counterexample_scan(
    eps: float, nu_list: list[float], s: int, pair: str = "jp-vs-y"
) -> tuple[ViolationWitness, ViolationWitness]:
    """Witnesses that no uniform ordering exists for the unchained pairs.

    ``pair`` names a row of ``PAIRS``, e.g. "jp-vs-y": j'_{nu+eps,s}
    against y_{nu,s}. Returns (greater_witness, less_witness), one order
    each, drawn from ``nu_list``; raises SearchError (ONLY_ONE_ORDERING)
    if the list exhibits a single ordering only.
    """
    eps = check_eps(eps)
    if not nu_list:
        raise DomainError("nu_list must be nonempty", code="DOMAIN_NU")
    if pair not in PAIRS:
        raise DomainError(f"pair must be {' or '.join(map(repr, PAIRS))}, got {pair!r}", code="DOMAIN_PAIR")
    left, right = PAIRS[pair].nodes
    s = check_rank(s)

    greater = less = None
    for nu in nu_list:
        # Checked as the scan reaches each entry, so a list may run past
        # NU_MAX beyond the orders the scan needs; errors name the entry.
        nu = ev.check_orders(nu, eps, code="OVERFLOW_NU")
        lval, rval = _zval(left, nu, eps, s), _zval(right, nu, eps, s)
        witness = ViolationWitness(nu, eps, s, left.label(s), right.label(s), lval, rval)
        if lval > rval and greater is None:
            greater = witness
        elif lval < rval and less is None:
            less = witness
        if greater is not None and less is not None:
            return greater, less
    raise SearchError(
        f"only one ordering of {pair} at eps={eps}, s={s} across nu_list={list(nu_list)!r}",
        code="ONLY_ONE_ORDERING",
    )
