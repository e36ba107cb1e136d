"""Selector tests: greedy, SATURATE baselines and the exhaustive oracle."""

import math

import numpy as np
import pytest

from fairspread.cascade import UtilityVector, estimate_utilities, sample_sketches
from fairspread.errors import EnumerationLimitError, InfeasibleError
from fairspread.graph import (
    CommunityPartition,
    Graph,
    SbmSpec,
    SeedSet,
    generate_sbm,
)
from fairspread.optimize import (
    DcBounds,
    TotalObjective,
    _lazy_greedy,
    dc_objective,
    dc_lower_bounds,
    enumerate_seed_set_utilities,
    exhaustive_opt,
    greedy_utilitarian,
    greedy_welfare,
    naive_greedy,
    saturate_dc,
    saturate_maximin,
    truncated_objective,
    welfare_objective,
)
from fairspread.welfare import default_params, utility_gap, welfare


def _instance(seed=0, sizes=(25, 25), q=0.15, between=0.03, p=0.25):
    return generate_sbm(SbmSpec(sizes, (q,) * len(sizes), between), seed, p=p)


def test_budget_validation():
    g, part = _instance()
    sk = sample_sketches(g, 20, 0)
    with pytest.raises(InfeasibleError):
        greedy_utilitarian(sk, part, 0)
    with pytest.raises(InfeasibleError):
        greedy_utilitarian(sk, part, g.n + 1)


def test_lazy_greedy_equals_naive_greedy():
    # The last instance has 9 communities: from 8 on, numpy sums a
    # block row pairwise rather than left to right.
    instances = [(seed, _instance(seed)) for seed in range(4)]
    instances.append((4, _instance(4, sizes=(8,) * 9, q=0.3, between=0.02)))
    for seed, (g, part) in instances:
        sk = sample_sketches(g, 150, seed + 100)
        for alpha in (-5.0, 0.0, 0.5):
            obj = welfare_objective(part, sk.R, default_params(alpha, g.n))
            _, lazy_trace, _ = _lazy_greedy(sk, part, 6, obj)
            _, naive_trace = naive_greedy(sk, part, 6, obj)
            assert lazy_trace.chosen == naive_trace.chosen
            assert lazy_trace.objective_after_each == pytest.approx(
                naive_trace.objective_after_each
            )
            assert lazy_trace.evaluations <= naive_trace.evaluations


def test_greedy_trace_monotone_nondecreasing():
    g, part = _instance(3)
    sk = sample_sketches(g, 120, 5)
    for select in (
        lambda: greedy_utilitarian(sk, part, 8),
        lambda: greedy_welfare(sk, part, 8, default_params(-2.0, g.n)),
    ):
        _, trace = select()
        vals = trace.objective_after_each
        assert len(vals) == 8
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_greedy_deterministic_tie_break_lowest_id():
    # two identical isolated stars: the lower-id center must be picked first
    edges = tuple((0, v) for v in (1, 2)) + tuple((3, v) for v in (4, 5))
    g = Graph(n=6, edges=edges, p=1.0)
    part = CommunityPartition(labels=(0,) * 6)
    sk = sample_sketches(g, 10, 0)
    _, trace = greedy_utilitarian(sk, part, 2)
    assert trace.chosen == (0, 3)


def test_utilitarian_equal_spreads_tie_on_lowest_id():
    # Once the edge 0-1 in community 1 (size 5) is covered, every
    # isolated vertex adds one influenced vertex: vertex 2 in community 1,
    # vertex 3 in community 0 (size 2).  Summed per community in floats,
    # 5 * (3/5 - 2/5) = 0.9999999999999998 but 2 * (1/2 - 0/2) = 1.0, so
    # only a gain taken from the integer spread ties them on vertex 2.
    g = Graph(n=7, edges=((0, 1),), p=1.0)
    part = CommunityPartition(labels=(1, 1, 1, 0, 0, 1, 1))
    sk = sample_sketches(g, 4, 0)
    _, trace = greedy_utilitarian(sk, part, 2)
    assert trace.chosen == (0, 2)
    assert trace.objective_after_each == (2.0, 3.0)
    _, naive = naive_greedy(sk, part, 2, TotalObjective(sk.R))
    assert naive.chosen == trace.chosen


def test_utilitarian_picks_star_center():
    edges = tuple((0, v) for v in range(1, 8))
    g = Graph(n=10, edges=edges, p=0.5)
    part = CommunityPartition(labels=(0,) * 10)
    sk = sample_sketches(g, 300, 2)
    seeds, _ = greedy_utilitarian(sk, part, 1)
    assert seeds.sorted() == [0]


def test_welfare_low_alpha_covers_isolated_community():
    # community 1 is disconnected and tiny in spread terms; strong
    # inequality aversion must seed it, utilitarian must not
    edges = tuple((0, v) for v in range(1, 12))
    g = Graph(n=15, edges=edges, p=0.8)
    part = CommunityPartition(labels=(0,) * 14 + (1,))
    sk = sample_sketches(g, 200, 1)
    util_seeds, _ = greedy_utilitarian(sk, part, 2)
    fair_seeds, _ = greedy_welfare(sk, part, 2, default_params(-5.0, g.n))
    assert 14 not in util_seeds.vertices  # ties resolve to lower-id vertices
    assert 14 in fair_seeds.vertices


def test_objective_gain_consistent_with_value():
    g, part = _instance(7)
    sk = sample_sketches(g, 100, 7)
    rng = np.random.default_rng(1)
    for obj in (
        TotalObjective(sk.R),
        welfare_objective(part, sk.R, default_params(-2.0, g.n)),
        welfare_objective(part, sk.R, default_params(0.0, g.n)),
        truncated_objective(part, sk.R, 0.3),
        truncated_objective(part, sk.R, 1.0),
        dc_objective(part, sk.R, DcBounds(bounds=(0.4, 0.2), budgets=(1, 1), k=2)),
        dc_objective(part, sk.R, DcBounds(bounds=(0.0, 0.2), budgets=(0, 1), k=2)),
    ):
        state = sk.coverage_state(part)
        acc = 0.0
        for v in rng.permutation(g.n)[:8]:
            acc += obj.gain(state.counts, state.gain_counts(int(v)))
            state.add(int(v))
        assert acc == pytest.approx(obj.value(state.counts), rel=1e-9, abs=1e-9)


def _loop_gain(counts, d, R, sizes, f, weights, active):
    """Reference gain: a pure-Python sum over the active communities d adds to."""
    total = 0.0
    for c, n_c in enumerate(sizes):
        if d[c] > 0 and active[c]:
            u_before, u_after = counts[c] / (R * n_c), (counts[c] + d[c]) / (R * n_c)
            total += weights[c] * (f(c, u_after) - f(c, u_before))
    return total


def test_block_gains_match_per_community_loop():
    g, part = _instance(6, sizes=(20, 15, 10))
    sk = sample_sketches(g, 80, 6)
    R, sizes = sk.R, part.sizes
    state = sk.coverage_state(part)
    for v in (0, 21, 40):
        state.add(v)
    D = np.vstack([state.uncovered, [[0, 0, 0], [5, 0, 0], [0, 0, 7]]])
    bounds = DcBounds(bounds=(0.0, 0.3, 0.2), budgets=(0, 1, 1), k=3)
    ones, every = (1.0,) * 3, (True,) * 3
    cases = []
    for alpha in (-20.0, -2.0, 0.0, 0.9):
        params = default_params(alpha, g.n)

        def f(c, u, a=alpha, eps=params.epsilon):
            x = max(u, eps)
            return math.log(x) if a == 0 else x**a / a

        cases.append((welfare_objective(part, R, params), f, sizes, every))
    cases.append((truncated_objective(part, R, 0.3), lambda c, u: min(u, 0.3), ones, every))
    cases.append((dc_objective(part, R, bounds),
                  lambda c, u: min(u / bounds.bounds[c], 1.0), ones, (False, True, True)))
    for obj, f, weights, active in cases:
        got = obj.gains(state.counts, D)
        for d, gain in zip(D, got):
            expected = _loop_gain(state.counts, d, R, sizes, f, weights, active)
            assert gain == pytest.approx(expected, rel=1e-12, abs=0.0)
            if not any(x > 0 and a for x, a in zip(d, active)):
                assert gain == 0.0
        assert obj.gain(state.counts, D[1]) == got[1]
    total = TotalObjective(R).gains(state.counts, D)
    assert list(total) == [sum(int(x) for x in d) / R for d in D]
    assert total[-3] == 0.0


def test_welfare_objective_value_is_welfare_minus_floor():
    g, part = _instance(4, sizes=(25, 15, 10))
    sk = sample_sketches(g, 100, 4)
    floor = UtilityVector(values=(0.0,) * 3, sizes=part.sizes)
    rng = np.random.default_rng(3)
    for alpha in (-5.0, -2.0, 0.0, 0.5):
        params = default_params(alpha, g.n)
        obj = welfare_objective(part, sk.R, params)
        for size in (1, 3, 8):
            seeds = SeedSet(frozenset(int(v) for v in rng.permutation(g.n)[:size]), size)
            state = sk.coverage_state(part)
            for v in seeds.sorted():
                state.add(v)
            u = estimate_utilities(sk, seeds, part)
            expected = welfare(u, params) - welfare(floor, params)
            assert obj.value(state.counts) == pytest.approx(expected, rel=1e-9)


def test_saturate_maximin_beats_utilitarian_minimum():
    # two stars absorb both utilitarian seeds; maximin must lift the
    # small isolated community instead
    edges = tuple((0, v) for v in range(1, 20)) + tuple(
        (20, v) for v in range(21, 28)
    )
    g = Graph(n=32, edges=edges, p=0.6)
    part = CommunityPartition(labels=(0,) * 28 + (1,) * 4)
    sk = sample_sketches(g, 200, 3)
    util_seeds, _ = greedy_utilitarian(sk, part, 2)
    mm_seeds, gamma = saturate_maximin(sk, part, 2, tol=0.01)
    u_util = estimate_utilities(sk, util_seeds, part)
    u_mm = estimate_utilities(sk, mm_seeds, part)
    assert min(u_mm.values) > min(u_util.values)
    assert 0.0 <= gamma <= 1.0
    assert min(u_mm.values) >= gamma - 0.02


def test_dc_bounds_budgets_and_values():
    g, part = _instance(2, sizes=(30, 15))
    bounds = dc_lower_bounds(g, part, 6, R=200, master_seed=11)
    assert bounds.budgets == (4, 2)
    assert all(0 <= b <= 1 for b in bounds.bounds)
    # zero proportional budget yields a zero bound
    small = dc_lower_bounds(g, part, 1, R=50, master_seed=11)
    assert small.budgets == (0, 0)
    assert small.bounds == (0.0, 0.0)


def test_naive_greedy_and_saturate_dc_check_budget_like_select():
    g, part = _instance()
    sk = sample_sketches(g, 20, 0)
    too_many = f"budget {g.n + 1} exceeds vertex count {g.n}"
    for k, message in ((0, "budget must be >= 1"), (g.n + 1, too_many)):
        with pytest.raises(InfeasibleError, match=f"^{message}$"):
            naive_greedy(sk, part, k, TotalObjective(sk.R))
        bounds = DcBounds(bounds=(0.0, 0.0), budgets=(0, 0), k=k)
        with pytest.raises(InfeasibleError, match=f"^{message}$"):
            saturate_dc(sk, part, k, bounds)


def test_dc_bounds_deterministic():
    g, part = _instance(2, sizes=(30, 15))
    b1 = dc_lower_bounds(g, part, 6, R=100, master_seed=4)
    b2 = dc_lower_bounds(g, part, 6, R=100, master_seed=4)
    assert b1 == b2


def test_saturate_dc_feasible_on_easy_instance():
    g, part = _instance(5, sizes=(20, 20), q=0.2, between=0.05)
    sk = sample_sketches(g, 300, 5)
    bounds = dc_lower_bounds(g, part, 6, R=300, master_seed=5)
    seeds, feasible = saturate_dc(sk, part, 6, bounds, tol=0.02)
    assert len(seeds.vertices) == 6
    assert feasible
    u = estimate_utilities(sk, seeds, part)
    assert all(x >= b - 0.02 for x, b in zip(u.values, bounds.bounds))


def test_saturate_dc_rejects_mismatched_budget():
    g, part = _instance(5)
    sk = sample_sketches(g, 50, 5)
    bounds = dc_lower_bounds(g, part, 4, R=50, master_seed=5)
    with pytest.raises(InfeasibleError):
        saturate_dc(sk, part, 5, bounds)


def test_dc_bounds_reject_invalid():
    with pytest.raises(Exception):
        DcBounds(bounds=(1.5,), budgets=(1,), k=1)
    with pytest.raises(Exception):
        DcBounds(bounds=(0.5, 0.5), budgets=(2, 2), k=3)


def test_exhaustive_matches_manual_small_case():
    # p=1 components make optimal coverage obvious
    edges = ((0, 1), (1, 2), (3, 4))
    g = Graph(n=6, edges=edges, p=1.0)
    part = CommunityPartition(labels=(0,) * 6)
    seeds, value = exhaustive_opt(g, part, 2, "total")
    assert seeds.vertices == {0, 3}  # lexicographic tie-break among components
    assert value == pytest.approx(5.0)


def test_exhaustive_limit():
    g, part = _instance(0, sizes=(40, 40))
    with pytest.raises(EnumerationLimitError):
        exhaustive_opt(g, part, 12, "total", limit=1000)


def test_exhaustive_exact_mode_enforces_coin_limit():
    # 21 coins with p not in {0, 1}: the same limit and message as the oracle
    g = Graph(n=22, edges=tuple((0, v) for v in range(1, 22)), p=0.5)
    part = CommunityPartition(labels=(0,) * 22)
    with pytest.raises(EnumerationLimitError, match="enumeration limit 20 with p not in"):
        exhaustive_opt(g, part, 1, "total")


def test_exhaustive_on_sketches_upper_bounds_greedy():
    for seed in range(3):
        g, part = _instance(seed, sizes=(6, 6), q=0.4, between=0.1)
        sk = sample_sketches(g, 300, seed)
        params = default_params(-2.0, g.n)
        _, trace = greedy_welfare(sk, part, 2, params)
        _, best = exhaustive_opt(g, part, 2, "welfare", params, sketches=sk)
        assert trace.objective_after_each[-1] <= best + 1e-9
        assert trace.objective_after_each[-1] >= (1 - 1 / np.e) * best - 1e-9


def test_exhaustive_exact_mode_agrees_with_sketch_mode_ranking():
    g = Graph(n=6, edges=((0, 1), (1, 2), (2, 0), (3, 4)), p=0.5)
    part = CommunityPartition(labels=(0, 0, 0, 1, 1, 1))
    exact_best, _ = exhaustive_opt(g, part, 2, "maximin")
    sk = sample_sketches(g, 20000, 0)
    mc_best, _ = exhaustive_opt(g, part, 2, "maximin", sketches=sk)
    assert exact_best.vertices == mc_best.vertices


def test_enumerate_utilities_count():
    g, part = _instance(0, sizes=(4, 4), q=0.3, between=0.1)
    combos = list(enumerate_seed_set_utilities(g, part, 2))
    assert len(combos) == 28
    assert all(len(u.values) == 2 for _, u in combos)


def test_submodularity_spot_check():
    rng = np.random.default_rng(42)
    g, part = _instance(9, sizes=(20, 20))
    sk = sample_sketches(g, 100, 9)
    obj = welfare_objective(part, sk.R, default_params(-2.0, g.n))
    for _ in range(50):
        perm = rng.permutation(g.n)
        a_size = int(rng.integers(0, 4))
        b_extra = int(rng.integers(1, 4))
        v = int(perm[a_size + b_extra])
        state_a = sk.coverage_state(part)
        for w in perm[:a_size]:
            state_a.add(int(w))
        gain_a = obj.gain(state_a.counts, state_a.gain_counts(v))
        state_b = sk.coverage_state(part)
        for w in perm[: a_size + b_extra]:
            state_b.add(int(w))
        gain_b = obj.gain(state_b.counts, state_b.gain_counts(v))
        assert gain_a >= gain_b - 1e-9


def test_fair_selection_reduces_gap_on_average():
    gaps_util, gaps_fair = [], []
    for seed in range(5):
        g, part = generate_sbm(
            SbmSpec((60, 60, 60), (0.08, 0.04, 0.0), 0.004), seed, p=0.25
        )
        sk = sample_sketches(g, 300, seed)
        s_u, _ = greedy_utilitarian(sk, part, 18)
        s_f, _ = greedy_welfare(sk, part, 18, default_params(-2.0, g.n))
        gaps_util.append(utility_gap(estimate_utilities(sk, s_u, part)))
        gaps_fair.append(utility_gap(estimate_utilities(sk, s_f, part)))
    assert np.mean(gaps_fair) < np.mean(gaps_util)
