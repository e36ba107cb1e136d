"""Isoelastic welfare objectives, fairness metrics and welfare principles.

The welfare of a utility vector u with community sizes n_c is

    W_a(u) = sum_c n_c * g(max(u_c, eps))

with g(x) = x**a / a for a != 0 and g(x) = log(x) for a == 0 (the
``isoelastic`` helper, the only copy of the formula).  The floor eps
keeps the value finite when a community gets zero utility; by default
it is placed below the smallest achievable positive utility (1/n), so
comparisons between achievable positive utilities are never distorted.

Principles are exposed as comparators on pairs of utility vectors.  A
verdict says whether the principle's premises apply to the pair and,
if so, which vector it mandates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GraphFormatError, InfeasibleError
from .cascade import UtilityVector


@dataclass(frozen=True)
class WelfareParams:
    """Finite inequality aversion alpha < 1 and zero-utility floor epsilon.

    Leximin is the limit alpha -> -inf, not a value of alpha.
    """

    alpha: float
    epsilon: float

    def __post_init__(self):
        if not self.alpha < 1:
            raise GraphFormatError(f"alpha must be < 1, got {self.alpha}")
        if self.alpha == -math.inf:
            raise GraphFormatError(f"alpha must be finite, got {self.alpha}")
        if not (0 < self.epsilon < 1):
            raise GraphFormatError(f"epsilon must be in (0, 1), got {self.epsilon}")


def default_params(alpha: float, n: int) -> WelfareParams:
    """Params with the standard floor eps = 1/(2n) for an n-vertex graph."""
    return WelfareParams(alpha=alpha, epsilon=1.0 / (2 * n))


@dataclass(frozen=True)
class PrincipleVerdict:
    applicable: bool
    preferred: str | None = None  # "first" | "second" | None

    def __post_init__(self):
        if not self.applicable and self.preferred is not None:
            raise GraphFormatError("inapplicable verdict cannot prefer a vector")


NOT_APPLICABLE = PrincipleVerdict(applicable=False)


def isoelastic(x, alpha):
    """g(x) = log(x) at alpha = 0, else the power x^alpha divided by alpha.

    Elementwise on numpy arrays; exact on Fractions for integer alpha.
    """
    if alpha == 0:
        return np.log(x)
    return x**alpha / alpha


def welfare(u: UtilityVector, params: WelfareParams):
    """W_alpha of a utility vector, floored at params.epsilon.

    Exact Fraction arithmetic is used when all utilities are Fractions
    and alpha is a nonzero integer (needed for leximin-limit checks).
    """
    alpha = params.alpha
    exact = (
        all(isinstance(x, (Fraction, int)) for x in u.values)
        and float(alpha).is_integer()
        and alpha != 0
    )
    if exact:
        a = int(alpha)
        eps = Fraction(params.epsilon)
        return sum(
            n_c * isoelastic(max(Fraction(x), eps), a) for x, n_c in zip(u.values, u.sizes)
        )
    return sum(
        n_c * isoelastic(max(float(x), params.epsilon), alpha)
        for x, n_c in zip(u.values, u.sizes)
    )


def total_influence(u: UtilityVector):
    """Total expected spread sum_c n_c u_c."""
    return sum(n_c * x for x, n_c in zip(u.values, u.sizes))


def utility_gap(u: UtilityVector):
    """Delta(u) = max_c u_c - min_c u_c."""
    return max(u.values) - min(u.values)


def pof(fair_total: float, im_total: float) -> float:
    """Price of fairness 1 - fair/IM, clamped to [0, 1]."""
    if im_total <= 0:
        raise InfeasibleError("IM total spread must be positive for PoF")
    return min(1.0, max(0.0, 1.0 - float(fair_total) / float(im_total)))


def dp_satisfied(u: UtilityVector, delta: float) -> bool:
    """Demographic parity: all pairwise utility gaps at most delta."""
    if not (0 <= delta < 1):
        raise GraphFormatError(f"delta must be in [0, 1), got {delta}")
    return utility_gap(u) <= delta


def leximin_compare(u: UtilityVector, v: UtilityVector) -> int:
    """Lexicographic comparison of ascending-sorted utilities.

    Returns 1 if u is leximin-preferred, -1 if v is, 0 on equality.
    """
    if len(u.values) != len(v.values):
        raise GraphFormatError("leximin comparison needs equal community counts")
    su, sv = sorted(u.values), sorted(v.values)
    for a, b in zip(su, sv):
        if a > b:
            return 1
        if a < b:
            return -1
    return 0


def _check_pair(u: UtilityVector, v: UtilityVector, need_sizes: bool = True):
    if len(u.values) != len(v.values):
        raise GraphFormatError("utility vectors differ in community count")
    if need_sizes and u.sizes != v.sizes:
        raise GraphFormatError("utility vectors differ in community sizes")


def _joint_ascending_order(u, v):
    """A permutation ascending-sorting both vectors, or None.

    Ties are broken by community index for determinism.
    """
    order = sorted(range(len(u)), key=lambda c: (u[c], v[c], c))
    us = [u[c] for c in order]
    vs = [v[c] for c in order]
    if all(us[i] <= us[i + 1] for i in range(len(us) - 1)) and all(
        vs[i] <= vs[i + 1] for i in range(len(vs) - 1)
    ):
        return order
    return None


def _transfer_prefers(u, v, sizes, order) -> bool:
    """True if the influence transfer premise mandates v over u."""
    acc = 0
    strict = False
    for c in order:
        acc += sizes[c] * (v[c] - u[c])
        if acc < 0:
            return False
        strict = strict or v[c] > u[c]
    return strict


def check_influence_transfer(u: UtilityVector, v: UtilityVector) -> PrincipleVerdict:
    """Influence transfer principle on a pair of utility vectors.

    Applicable only when a single permutation ascending-sorts both
    vectors (the utility ordering is preserved across the pair); the
    preferred vector is the one whose prefix sums of size-weighted
    improvements are all non-negative with some strict gain.
    """
    _check_pair(u, v)
    order = _joint_ascending_order(u.values, v.values)
    if order is None:
        return NOT_APPLICABLE
    if _transfer_prefers(u.values, v.values, u.sizes, order):
        return PrincipleVerdict(applicable=True, preferred="second")
    if _transfer_prefers(v.values, u.values, u.sizes, order):
        return PrincipleVerdict(applicable=True, preferred="first")
    return NOT_APPLICABLE


def check_gap_reduction(u: UtilityVector, v: UtilityVector) -> PrincipleVerdict:
    """Utility gap reduction: prefer higher total with strictly smaller gap."""
    _check_pair(u, v)
    tu, tv = total_influence(u), total_influence(v)
    gu, gv = utility_gap(u), utility_gap(v)
    if tv >= tu and gu > gv:
        return PrincipleVerdict(applicable=True, preferred="second")
    if tu >= tv and gv > gu:
        return PrincipleVerdict(applicable=True, preferred="first")
    return NOT_APPLICABLE


def check_monotonicity_preference(u: UtilityVector, v: UtilityVector) -> PrincipleVerdict:
    """Pareto dominance: prefer an element-wise weakly greater vector."""
    _check_pair(u, v, need_sizes=False)
    v_dom = all(b >= a for a, b in zip(u.values, v.values)) and any(
        b > a for a, b in zip(u.values, v.values)
    )
    u_dom = all(a >= b for a, b in zip(u.values, v.values)) and any(
        a > b for a, b in zip(u.values, v.values)
    )
    if v_dom:
        return PrincipleVerdict(applicable=True, preferred="second")
    if u_dom:
        return PrincipleVerdict(applicable=True, preferred="first")
    return NOT_APPLICABLE
