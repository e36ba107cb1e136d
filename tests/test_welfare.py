"""Welfare function, fairness metric and principle comparator tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fairspread.cascade import UtilityVector
from fairspread.errors import GraphFormatError, InfeasibleError
from fairspread.welfare import (
    WelfareParams,
    check_gap_reduction,
    check_influence_transfer,
    check_monotonicity_preference,
    default_params,
    dp_satisfied,
    leximin_compare,
    pof,
    total_influence,
    utility_gap,
    welfare,
)


def _u(values, sizes=None):
    sizes = sizes or (10,) * len(values)
    return UtilityVector(values=tuple(values), sizes=tuple(sizes))


def test_params_validation():
    with pytest.raises(GraphFormatError):
        WelfareParams(alpha=1.0, epsilon=0.01)
    with pytest.raises(GraphFormatError):
        WelfareParams(alpha=0.5, epsilon=0.0)
    with pytest.raises(GraphFormatError, match="alpha must be finite, got -inf"):
        WelfareParams(alpha=float("-inf"), epsilon=0.01)
    with pytest.raises(GraphFormatError, match="alpha must be < 1, got nan"):
        WelfareParams(alpha=float("nan"), epsilon=0.01)
    assert default_params(-2.0, 100).epsilon == 1 / 200


def test_welfare_log_case():
    params = WelfareParams(alpha=0.0, epsilon=1e-3)
    got = welfare(_u((0.5, 0.25)), params)
    assert got == pytest.approx(10 * math.log(0.5) + 10 * math.log(0.25))


def test_welfare_power_case_and_floor():
    params = WelfareParams(alpha=-2.0, epsilon=0.1)
    # second community sits below the floor and is clamped to 0.1
    got = welfare(_u((0.5, 0.01)), params)
    assert got == pytest.approx(10 * 0.5**-2 / -2 + 10 * 0.1**-2 / -2)


def test_welfare_exact_fraction_path():
    params = WelfareParams(alpha=-3.0, epsilon=0.5**10)
    u = UtilityVector(values=(Fraction(1, 3), Fraction(1, 2)), sizes=(2, 4))
    got = welfare(u, params)
    assert isinstance(got, Fraction)
    assert got == 2 * Fraction(27, -3) + 4 * Fraction(8, -3)


def test_welfare_orders_by_inequality_aversion():
    # equal totals: negative alpha favors the flat vector, alpha near 1
    # is (weakly) indifferent
    flat, skew = _u((0.5, 0.5)), _u((0.2, 0.8))
    for alpha in (-5.0, -1.0, 0.0, 0.5):
        params = default_params(alpha, 20)
        assert welfare(flat, params) > welfare(skew, params)


def test_total_and_gap():
    u = _u((0.2, 0.8), sizes=(10, 30))
    assert total_influence(u) == pytest.approx(2 + 24)
    assert utility_gap(u) == pytest.approx(0.6)


def test_pof_clamping_and_errors():
    assert pof(90.0, 100.0) == pytest.approx(0.1)
    assert pof(110.0, 100.0) == 0.0  # sampling noise clamped
    with pytest.raises(InfeasibleError):
        pof(1.0, 0.0)


def test_dp_satisfied_inclusive():
    u = _u((0.25, 0.375))
    assert dp_satisfied(u, 0.125)  # boundary counts as satisfied
    assert not dp_satisfied(u, 0.1)
    with pytest.raises(GraphFormatError):
        dp_satisfied(u, 1.0)


def test_leximin_compare():
    a = _u((0.3, 0.5))
    b = _u((0.5, 0.2))
    assert leximin_compare(a, b) == 1
    assert leximin_compare(b, a) == -1
    assert leximin_compare(a, _u((0.5, 0.3))) == 0


def test_monotonicity_preference():
    u, v = _u((0.2, 0.3)), _u((0.2, 0.4))
    assert check_monotonicity_preference(u, v).preferred == "second"
    assert check_monotonicity_preference(v, u).preferred == "first"
    crossing = _u((0.3, 0.2))
    assert not check_monotonicity_preference(u, crossing).applicable


def test_influence_transfer_simple_transfer():
    # moving utility downward to the worse-off community is preferred
    u = _u((0.2, 0.6))
    v = _u((0.3, 0.5))
    verdict = check_influence_transfer(u, v)
    assert verdict.applicable and verdict.preferred == "second"
    assert check_influence_transfer(v, u).preferred == "first"


def test_influence_transfer_requires_shared_order():
    u = _u((0.2, 0.6))
    v = _u((0.7, 0.3))  # community order flips
    assert not check_influence_transfer(u, v).applicable


def test_influence_transfer_weighted_prefix():
    # sizes matter: the gain to the small community cannot outweigh a
    # bigger weighted loss further down the order
    u = _u((0.2, 0.6), sizes=(1, 10))
    v = _u((0.3, 0.5), sizes=(1, 10))
    verdict = check_influence_transfer(u, v)
    assert not (verdict.applicable and verdict.preferred == "second")


def test_influence_transfer_exact_on_fractions():
    # the exact prefix sums are 1/10 and 0; in floats the second reads
    # 0.3 - 0.2 + 0.7 - 0.8 < 0, which would make the pair incomparable
    u = UtilityVector(values=(Fraction(2, 10), Fraction(8, 10)), sizes=(1, 1))
    v = UtilityVector(values=(Fraction(3, 10), Fraction(7, 10)), sizes=(1, 1))
    verdict = check_influence_transfer(u, v)
    assert verdict.applicable and verdict.preferred == "second"
    verdict = check_influence_transfer(v, u)
    assert verdict.applicable and verdict.preferred == "first"


def test_gap_reduction():
    u = _u((0.4, 0.6))
    v = _u((0.45, 0.55))
    assert check_gap_reduction(u, v).preferred == "second"
    assert check_gap_reduction(v, u).preferred == "first"
    # lower total blocks the verdict
    w = _u((0.30, 0.40))
    assert not check_gap_reduction(u, w).applicable


def test_welfare_monotone_in_each_coordinate():
    rng = np.random.default_rng(0)
    for _ in range(100):
        vals = rng.uniform(0.05, 0.95, 3)
        c = int(rng.integers(0, 3))
        bumped = vals.copy()
        bumped[c] = min(1.0, bumped[c] + 0.03)
        alpha = float(rng.choice([-5.0, -1.0, 0.0, 0.5, 0.9]))
        params = default_params(alpha, 30)
        assert welfare(_u(bumped), params) > welfare(_u(vals), params)
