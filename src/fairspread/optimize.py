"""Seed selection: lazy greedy, SATURATE-style baselines and exact search.

All selectors work on a fixed SketchSet, so their objectives are
deterministic monotone submodular set functions and the classic greedy
(1 - 1/e) guarantee applies.  Every objective's value is reported
relative to the empty seed set (for welfare: the all-floored vector);
the shift keeps marginal gains free of catastrophic cancellation at
very negative alpha and makes approximation ratios meaningful.

Welfare, SATURATE's truncation and the DC saturation are one separable
form sum_c w_c (f(u_c) - f(0)); its marginal gains are computed per
community as f(u + d) - f(u), never as a difference of two full
objective values.  Total spread keeps an integer-sum gain.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cascade import (
    SketchSet,
    UtilityVector,
    _LiveEdgeSubsets,
    estimate_utilities,
    exact_utilities,
    sample_sketches,
)
from .errors import EnumerationLimitError, GraphFormatError, InfeasibleError
from .graph import (
    CommunityPartition,
    Graph,
    SeedSet,
    induced_within_community_subgraph,
)
from .welfare import WelfareParams, isoelastic, total_influence, welfare

EXHAUSTIVE_LIMIT = 2_000_000


@dataclass(frozen=True)
class SelectionTrace:
    """A greedy run: the picks, the objective after each, and the number
    of candidate gains computed (for block gains, the rows of vertices
    not yet chosen)."""

    chosen: tuple[int, ...]
    objective_after_each: tuple[float, ...]
    evaluations: int

    def __post_init__(self):
        if len(set(self.chosen)) != len(self.chosen):
            raise GraphFormatError("selection trace contains duplicate vertices")


@dataclass(frozen=True)
class DcBounds:
    """Per-community diversity-constraint lower bounds and budgets."""

    bounds: tuple[float, ...]
    budgets: tuple[int, ...]
    k: int

    def __post_init__(self):
        for b in self.bounds:
            if not (0 <= b <= 1):
                raise GraphFormatError(f"DC bound {b} outside [0, 1]")
        if sum(self.budgets) > self.k:
            raise GraphFormatError("proportional budgets exceed total budget")


# --- objectives on per-community influenced counts --------------------------


class TotalObjective:
    """Total expected spread sum_c n_c u_c on the sketches.

    Gains come from the integer spread, so equal spreads give equal
    floats and fall to the lowest-id tie rule.
    """

    def __init__(self, R: int):
        self.R = R

    def value(self, counts):
        return float(counts.sum()) / self.R

    def gains(self, counts, D):
        """Gains of the rows of the (m, C) block D of added counts."""
        return D.sum(axis=1).astype(np.float64) / self.R

    def gain(self, counts, delta):
        return float(self.gains(counts, delta[None])[0])


class _Objective:
    """Separable objective sum_c w_c (f(u_c) - f(0)) over active communities.

    u_c = counts_c / (R n_c) is community c's sketch utility; f acts
    elementwise.  Gains apply f, then the mask, then the weights, and
    sum each row over communities: CELF splits exact ties by float
    rounding, so this order is part of what the selectors pick.  Masked
    terms enter the sum as exact zeros (never as products with a 0/1
    mask, since inf - inf at very negative alpha would give nan), so a
    row sums the same floats in the same order as its active
    communities alone.  Below 8 communities numpy adds a row left to
    right, so the zeros change nothing; from 8 on its pairwise
    summation groups the terms by position, so the last bit of a gain
    can depend on where the masked zeros sit.
    """

    def __init__(self, part: CommunityPartition, R: int, f, weights=None, active=None):
        C = part.num_communities
        self.scale = R * np.array(part.sizes, dtype=np.float64)
        self.f = f
        self.weights = np.ones(C) if weights is None else weights
        self.active = np.ones(C, dtype=bool) if active is None else active
        self.base = f(np.zeros(C))

    def value(self, counts):
        terms = self.weights * (self.f(counts / self.scale) - self.base)
        return float(np.sum(terms[self.active]))

    def gains(self, counts, D):
        """Gains of the rows of the (m, C) block D of added counts."""
        mask = (D > 0) & self.active
        terms = self.f((counts + D) / self.scale) - self.f(counts / self.scale)
        return np.where(mask, self.weights * terms, 0.0).sum(axis=1)

    def gain(self, counts, delta):
        return float(self.gains(counts, delta[None])[0])


def welfare_objective(part: CommunityPartition, R: int, params: WelfareParams) -> _Objective:
    """Isoelastic welfare sum_c n_c g(max(u_c, eps)) on sketch utilities."""
    def f(u):
        return isoelastic(np.maximum(u, params.epsilon), params.alpha)

    return _Objective(part, R, f, weights=np.array(part.sizes, dtype=np.float64))


def truncated_objective(part: CommunityPartition, R: int, gamma: float) -> _Objective:
    """SATURATE inner objective sum_c min(u_c, gamma)."""
    return _Objective(part, R, lambda u: np.minimum(u, gamma))


def dc_objective(part: CommunityPartition, R: int, bounds: DcBounds) -> _Objective:
    """Normalized saturation sum_c min(u_c / U_c, 1) over the bounds U_c > 0."""
    U = np.array(bounds.bounds, dtype=np.float64)
    active = U > 0
    divisor = np.where(active, U, 1.0)
    return _Objective(part, R, lambda u: np.minimum(u / divisor, 1.0), active=active)


# --- greedy core ------------------------------------------------------------


def _greedy_run(state, budget, objective, chosen, trace_vals, early_stop=None):
    """CELF lazy greedy continuing from an existing coverage state.

    Every gain comes from one block: ``objective.gains`` over the
    state's ``uncovered`` rows, computed for the first heap and then
    once per later pick, at its first pop (every entry is stale by
    then).  Each stale entry is re-pushed with its fresh gain from
    that block, so the picks are those of the scalar CELF loop, which
    evaluated one candidate per stale pop.  Submodularity makes cached
    gains upper bounds, so an entry computed at the current step is
    safe to select; equal float gains break on lowest vertex id.
    Gains that tie exactly are split by float rounding, and a cached
    gain can round below its vertex's fresh gain, so on exact ties the
    sequence can differ from naive greedy's.  Returns the number of
    candidate gains computed: the block rows of unchosen vertices.
    """
    n = state.sk.graph.n
    taken = set(chosen)
    step = len(chosen)
    gains = objective.gains(state.counts, state.uncovered).tolist()
    heap = [(-g, v, step) for v, g in enumerate(gains) if v not in taken]
    evaluations = len(heap)
    heapq.heapify(heap)
    cur = trace_vals[-1] if trace_vals else 0.0
    fresh = None

    def stop():
        return early_stop is not None and objective.value(state.counts) >= early_stop

    done = stop()
    while not done and len(chosen) < budget and heap:
        neg_g, v, stamp = heapq.heappop(heap)
        if stamp != step:
            if fresh is None:
                fresh = objective.gains(state.counts, state.uncovered).tolist()
                evaluations += n - len(chosen)
            heapq.heappush(heap, (-fresh[v], v, step))
            continue
        state.add(v)
        chosen.append(v)
        cur += -neg_g
        trace_vals.append(cur)
        step += 1
        fresh = None
        done = stop()
    return evaluations


def check_budget(k: int, n: int) -> None:
    """Raise InfeasibleError unless 1 <= k <= n."""
    if k < 1:
        raise InfeasibleError("budget must be >= 1")
    if k > n:
        raise InfeasibleError(f"budget {k} exceeds vertex count {n}")


def _lazy_greedy(sk: SketchSet, part: CommunityPartition, k: int, objective):
    check_budget(k, sk.graph.n)
    state = sk.coverage_state(part)
    chosen: list[int] = []
    trace_vals: list[float] = []
    evals = _greedy_run(state, k, objective, chosen, trace_vals)
    seeds = SeedSet(vertices=frozenset(chosen), k=k)
    trace = SelectionTrace(
        chosen=tuple(chosen),
        objective_after_each=tuple(trace_vals),
        evaluations=evals,
    )
    return seeds, trace, state


def naive_greedy(sk: SketchSet, part: CommunityPartition, k: int, objective):
    """Reference greedy evaluating every candidate at every step."""
    check_budget(k, sk.graph.n)
    state = sk.coverage_state(part)
    chosen: list[int] = []
    vals: list[float] = []
    cur = 0.0
    evals = 0
    remaining = list(range(sk.graph.n))
    for _ in range(k):
        best_g, best_v = None, None
        for v in remaining:
            g = objective.gain(state.counts, state.gain_counts(v))
            evals += 1
            if best_g is None or g > best_g:
                best_g, best_v = g, v
        state.add(best_v)
        remaining.remove(best_v)
        chosen.append(best_v)
        cur += best_g
        vals.append(cur)
    seeds = SeedSet(vertices=frozenset(chosen), k=k)
    return seeds, SelectionTrace(tuple(chosen), tuple(vals), evals)


def greedy_welfare(
    sk: SketchSet, part: CommunityPartition, k: int, params: WelfareParams
) -> tuple[SeedSet, SelectionTrace]:
    """Lazy greedy maximizing W_alpha over sketch-estimated utilities."""
    obj = welfare_objective(part, sk.R, params)
    seeds, trace, _ = _lazy_greedy(sk, part, k, obj)
    return seeds, trace


def greedy_utilitarian(
    sk: SketchSet, part: CommunityPartition, k: int
) -> tuple[SeedSet, SelectionTrace]:
    """Lazy greedy maximizing total expected spread."""
    obj = TotalObjective(sk.R)
    seeds, trace, _ = _lazy_greedy(sk, part, k, obj)
    return seeds, trace


def saturate_maximin(
    sk: SketchSet, part: CommunityPartition, k: int, tol: float = 0.01
) -> tuple[SeedSet, float]:
    """Binary search on gamma with a truncated greedy inner loop.

    Returns the seed set for the largest gamma whose truncated
    objective reaches N_C * gamma within tol.
    """
    if tol <= 0:
        raise InfeasibleError("tolerance must be positive")
    C = part.num_communities
    lo, hi = 0.0, 1.0
    best: SeedSet | None = None
    for _ in range(64):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2
        obj = truncated_objective(part, sk.R, mid)
        seeds, _, state = _lazy_greedy(sk, part, k, obj)
        if obj.value(state.counts) >= C * mid - tol:
            lo = mid
            best = seeds
        else:
            hi = mid
    if best is None:
        best, _ = greedy_utilitarian(sk, part, k)
    return best, lo


def dc_lower_bounds(
    g: Graph,
    part: CommunityPartition,
    k: int,
    R: int,
    master_seed,
) -> DcBounds:
    """Diversity-constraint bounds U_c from within-community greedy runs.

    Each community optimizes total spread inside its induced subgraph
    with its proportional budget floor(k * n_c / n) and fresh sketches
    keyed by (master_seed, c).
    """
    if k > g.n:
        raise InfeasibleError(f"budget {k} exceeds vertex count {g.n}")
    n = g.n
    key = master_seed if isinstance(master_seed, (tuple, list)) else (master_seed,)
    bounds = []
    budgets = []
    for c in range(part.num_communities):
        budget = (k * part.sizes[c]) // n
        budgets.append(budget)
        if budget == 0:
            bounds.append(0.0)
            continue
        sub, _members = induced_within_community_subgraph(g, part, c)
        sub_part = CommunityPartition(labels=(0,) * sub.n)
        sk_c = sample_sketches(sub, R, (*key, c))
        seeds, _ = greedy_utilitarian(sk_c, sub_part, budget)
        u = estimate_utilities(sk_c, seeds, sub_part)
        bounds.append(float(u.values[0]))
    return DcBounds(bounds=tuple(bounds), budgets=tuple(budgets), k=k)


def saturate_dc(
    sk: SketchSet,
    part: CommunityPartition,
    k: int,
    bounds: DcBounds,
    tol: float = 0.01,
) -> tuple[SeedSet, bool]:
    """Greedy saturation of the DC lower bounds, then spend leftovers.

    Once every bound is saturated on the evaluation sketches, remaining
    budget goes to total influence.  The feasibility flag reports
    whether all u_c >= U_c - tol at the end.
    """
    if bounds.k != k:
        raise InfeasibleError("bounds were computed for a different budget")
    check_budget(k, sk.graph.n)
    sat_obj = dc_objective(part, sk.R, bounds)
    state = sk.coverage_state(part)
    chosen: list[int] = []
    trace_vals: list[float] = []
    all_met = int(sat_obj.active.sum()) - 1e-12  # every positive bound saturated
    _greedy_run(state, k, sat_obj, chosen, trace_vals, early_stop=all_met)
    if len(chosen) < k:
        total_obj = TotalObjective(sk.R)
        trace_vals2: list[float] = [0.0]
        _greedy_run(state, k, total_obj, chosen, trace_vals2)
    u = state.counts / (sk.R * np.array(part.sizes, dtype=np.float64))
    feasible = bool(np.all(u >= np.array(bounds.bounds) - tol))
    return SeedSet(vertices=frozenset(chosen), k=k), feasible


# --- exhaustive oracle ------------------------------------------------------


def enumerate_seed_set_utilities(
    g: Graph,
    part: CommunityPartition,
    k: int,
    sketches: SketchSet | None = None,
    limit: int = EXHAUSTIVE_LIMIT,
):
    """Yield (seed tuple, UtilityVector) over all budget-k seed sets.

    Utilities come from the given sketches, or from the exact oracle
    (rational values) when sketches is None.
    """
    if math.comb(g.n, k) > limit:
        raise EnumerationLimitError(
            f"C({g.n}, {k}) exceeds the exhaustive limit {limit}"
        )
    if sketches is not None:
        for combo in combinations(range(g.n), k):
            seeds = SeedSet(vertices=frozenset(combo), k=max(k, 1))
            yield combo, estimate_utilities(sketches, seeds, part)
        return

    if g.p in (0.0, 1.0):
        for combo in combinations(range(g.n), k):
            seeds = SeedSet(vertices=frozenset(combo), k=max(k, 1))
            yield combo, exact_utilities(g, seeds, part)
        return

    # Enumerate coin subsets once; the reach of a seed set is the union
    # of its members' singleton reaches.
    subsets = _LiveEdgeSubsets(g, part)
    singles = dict(zip(subsets.endpoints, subsets.reach([[v] for v in subsets.endpoints])))
    for combo in combinations(range(g.n), k):
        cover = np.zeros(subsets.num_subsets, dtype=np.uint64)
        for v in combo:
            if v in singles:
                cover |= singles[v]
        yield combo, subsets.utilities(cover, combo)


def exhaustive_opt(
    g: Graph,
    part: CommunityPartition,
    k: int,
    objective: str,
    params: WelfareParams | None = None,
    sketches: SketchSet | None = None,
    limit: int = EXHAUSTIVE_LIMIT,
) -> tuple[SeedSet, float]:
    """Brute-force optimal budget-k seed set; ties broken lexicographically.

    objective is one of "total", "welfare" (requires params) or
    "maximin".  Welfare values are baseline-shifted (see module doc);
    with exact utilities and integer alpha the argmax is decided in
    rational arithmetic.
    """
    if objective == "welfare" and params is None:
        raise InfeasibleError("welfare objective requires WelfareParams")
    if k == 0:
        u = UtilityVector(values=(0.0,) * part.num_communities, sizes=part.sizes)
        return SeedSet(vertices=frozenset(), k=0), float(
            _objective_value(u, objective, params)
        )
    best_combo = None
    best_val = None
    for combo, u in enumerate_seed_set_utilities(g, part, k, sketches, limit):
        val = _objective_value(u, objective, params)
        if best_val is None or val > best_val:
            best_val = val
            best_combo = combo
    return SeedSet(vertices=frozenset(best_combo), k=k), float(best_val)


def _objective_value(u: UtilityVector, objective: str, params: WelfareParams | None):
    if objective == "total":
        return total_influence(u)
    if objective == "maximin":
        return min(u.values)
    if objective == "welfare":
        # zeros of the utilities' own type keep Fraction utilities exact
        floor = UtilityVector(values=tuple(0 * x for x in u.values), sizes=u.sizes)
        return welfare(u, params) - welfare(floor, params)
    raise InfeasibleError(f"unknown objective '{objective}'")
