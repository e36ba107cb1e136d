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

import math
from dataclasses import dataclass
from itertools import combinations, tee

import numpy as np

from .cascade import (
    SketchSet,
    UtilityVector,
    _estimates,
    _LiveEdgeSubsets,
    counts_utilities,
    sample_sketches,
)
from .errors import EnumerationLimitError, GraphFormatError, InfeasibleError
from .graph import (
    CommunityPartition,
    Graph,
    SeedSet,
    induced_within_community_subgraph,
)
from .welfare import WelfareParams, default_params, isoelastic, total_influence, welfare

EXHAUSTIVE_LIMIT = 2_000_000
METHODS = ("welfare", "utilitarian", "maximin", "dc")


@dataclass(frozen=True)
class SelectionTrace:
    """A greedy run: the picks, the objective after each, the number of
    candidate gains computed (for block gains, the columns of vertices
    not yet chosen), and the per-community counts covered at its end."""

    chosen: tuple[int, ...]
    objective_after_each: tuple[float, ...]
    evaluations: int
    counts: tuple[int, ...]

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
        """Gains of the columns of the (C, m) block D of added counts."""
        return D.sum(axis=0) / self.R

    def gain(self, counts, delta):
        return float(self.gains(counts, delta[:, None])[0])


class _Objective:
    """Separable objective sum_c w_c (f(u_c) - f(0)) over active communities.

    u_c = counts_c / (R n_c) is community c's sketch utility; f acts
    elementwise on a (C, m) block, one community per row.  Gains apply
    f, then the mask, then the weights, and add the active communities'
    rows left to right: CELF splits exact ties by float rounding, so
    this order is part of what the selectors pick.  Masked terms enter
    the sum as exact zeros (never as products with a 0/1 mask, since
    inf - inf at very negative alpha would give nan), so a column sums
    the same floats in the same order as its active communities alone,
    and a block's column gains the same float as ``gain`` of that column.
    """

    def __init__(self, part: CommunityPartition, R: int, f, weights=None, active=None):
        C = part.num_communities
        self.scale = R * np.array(part.sizes, dtype=np.float64)[:, None]
        self.f = f
        self.weights = np.ones((C, 1)) if weights is None else weights[:, None]
        self.active = np.ones(C, dtype=bool) if active is None else active
        self.base = f(np.zeros((C, 1)))

    def value(self, counts):
        terms = self.weights * (self.f(counts[:, None] / self.scale) - self.base)
        return float(np.sum(terms[self.active, 0]))

    def gains(self, counts, D):
        """Gains of the columns of the (C, m) block D of added counts."""
        before = self.f(counts[:, None] / self.scale)
        after = self.f((counts[:, None] + D) / self.scale)
        terms = np.where(D > 0, self.weights * (after - before), 0.0)
        total = np.zeros(D.shape[1])
        for c in np.flatnonzero(self.active):
            total += terms[c]
        return total

    def gain(self, counts, delta):
        return float(self.gains(counts, delta[:, None])[0])


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
    divisor = np.where(active, U, 1.0)[:, None]
    return _Objective(part, R, lambda u: np.minimum(u / divisor, 1.0), active=active)


# --- greedy core ------------------------------------------------------------


class _GreedyRun:
    """CELF lazy greedy on an existing coverage state, resumable.

    Each pick scores one block of fresh gains, ``objective.gains`` over
    the ``uncovered`` columns; ``evaluations`` counts its columns of
    unchosen vertices, and ``vals`` the objective from the start of this
    run.  ``cached`` is each vertex's gain when CELF last evaluated it:
    +inf before then, -inf once chosen.  It persists between calls of
    ``extend``, so a paused run picks as one that never paused.

    Runs on one evaluator, such as SATURATE's runs at each gamma or a
    sweep's selectors on one sketch set, often make the same first
    picks.  ``state.add`` replays such an add when another state has
    made it before (``CoverageState.add``), bit for bit, so every gain
    is still scored and the picks, values and ``evaluations`` are those
    of a run that computed each add.

    This is CELF's heap loop in closed form.  The heap pops entries by
    (cached gain, lowest id) and refreshes each until a refreshed gain
    beats every cached gain left, so it picks v = argmax(min(cached,
    fresh)), lowest id on ties, and adds fresh[v]: a vertex never popped
    ranks below v by its cached gain, and a popped one by its fresh
    gain, or, if v's fresh gain beat v's cached gain, it waited with its
    fresh gain while v's cached gain was popped.  The refreshed entries
    are those whose (cached gain, id) ranks at or above (min(cached,
    fresh)[v], v).  Exact ties are split by float rounding, and a cached
    gain can round below its vertex's fresh gain, so the picks can
    differ from naive greedy's, a plain argmax of the fresh gains.
    """

    def __init__(self, state, objective):
        self.state, self.objective, self.start = state, objective, len(state.chosen)
        self.cached = np.full(state.ev.n, np.inf)
        self.cached[state.chosen] = -np.inf
        self.vals, self.evaluations = [], 0

    def extend(self, budget, stop_at=None, give_up=False) -> bool:
        """Pick until the state holds ``budget`` vertices or the objective
        reaches ``stop_at``; returns whether it reached ``stop_at``.

        With ``give_up``, also stop once the objective plus the sum of the
        ``budget - |S|`` largest fresh gains, which bounds the objective at
        ``budget`` picks (submodularity; Leskovec et al. 2007), is below
        ``stop_at`` by more than 1e-9 * max(1, |stop_at|), a margin far
        above the rounding of these float sums.
        """
        state, objective, cached = self.state, self.objective, self.cached
        while True:
            value = None if stop_at is None else objective.value(state.counts)
            if value is not None and value >= stop_at:
                return True
            left = budget - len(state.chosen)
            if left <= 0:
                return False
            fresh = objective.gains(state.counts, state.uncovered)
            self.evaluations += state.ev.n - len(state.chosen)
            if give_up:
                top = np.partition(fresh[cached > -np.inf], -left)[-left:].sum()
                if value + top < stop_at - 1e-9 * max(1.0, abs(stop_at)):
                    return False
            v = _celf_pick(cached, fresh)
            self.vals.append((self.vals[-1] if self.vals else 0.0) + float(fresh[v]))
            state.add(v)

    def trace(self) -> SelectionTrace:
        return SelectionTrace(tuple(self.state.chosen[self.start:]), tuple(self.vals),
                              self.evaluations, tuple(self.state.counts.tolist()))


def _celf_pick(cached, fresh) -> int:
    """CELF's pick v = argmax(min(cached, fresh)), lowest id on ties.

    Updates ``cached`` in place: the entries whose (cached gain, id)
    ranks at or above (min(cached, fresh)[v], v) take their fresh gains,
    and v's becomes -inf.
    """
    key = np.minimum(cached, fresh)
    v = int(np.argmax(key))
    refreshed = cached > key[v]
    refreshed[: v + 1] |= cached[: v + 1] == key[v]
    np.copyto(cached, fresh, where=refreshed)
    cached[v] = -np.inf
    return v


def _greedy_run(state, budget, objective, stop_at=None) -> SelectionTrace:
    """One CELF run (``_GreedyRun``) to ``budget`` picks or ``stop_at``."""
    run = _GreedyRun(state, objective)
    run.extend(budget, stop_at)
    return run.trace()


def check_budget(k: int, n: int) -> None:
    """Raise InfeasibleError unless 1 <= k <= n."""
    if k < 1:
        raise InfeasibleError("budget must be >= 1")
    if k > n:
        raise InfeasibleError(f"budget {k} exceeds vertex count {n}")


def _lazy_greedy(sk: SketchSet, part: CommunityPartition, k: int, objective):
    check_budget(k, sk.graph.n)
    trace = _greedy_run(sk.coverage_state(part), k, objective)
    return SeedSet(vertices=frozenset(trace.chosen), k=k), trace


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
    counts = tuple(state.counts.tolist())
    return seeds, SelectionTrace(tuple(chosen), tuple(vals), evals, counts)


def greedy_welfare(
    sk: SketchSet, part: CommunityPartition, k: int, params: WelfareParams
) -> tuple[SeedSet, SelectionTrace]:
    """Lazy greedy maximizing W_alpha over sketch-estimated utilities."""
    return _lazy_greedy(sk, part, k, welfare_objective(part, sk.R, params))


def greedy_utilitarian(
    sk: SketchSet, part: CommunityPartition, k: int
) -> tuple[SeedSet, SelectionTrace]:
    """Lazy greedy maximizing total expected spread."""
    return _lazy_greedy(sk, part, k, TotalObjective(sk.R))


def saturate_maximin(
    sk: SketchSet, part: CommunityPartition, k: int, tol: float = 0.01
) -> tuple[SeedSet, float, SelectionTrace]:
    """Binary search on gamma with a truncated greedy inner loop.

    Returns the seed set for the largest gamma whose truncated
    objective reaches N_C * gamma within tol, that gamma and its greedy
    trace, or the utilitarian seeds and trace with gamma 0.  A gamma's
    run fails once ``extend``'s bound shows that k picks cannot reach
    C * gamma - tol, and succeeds once the objective, which only grows
    with the counts, reaches it; the latest success is paused and
    finished to k picks at the end.
    """
    if tol <= 0:
        raise InfeasibleError("tolerance must be positive")
    check_budget(k, sk.graph.n)
    C = part.num_communities
    lo, hi = 0.0, 1.0
    best: _GreedyRun | None = None
    for _ in range(64):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2
        run = _GreedyRun(sk.coverage_state(part), truncated_objective(part, sk.R, mid))
        if run.extend(k, stop_at=C * mid - tol, give_up=True):
            lo, best = mid, run
        else:
            hi = mid
    if best is None:
        seeds, trace = greedy_utilitarian(sk, part, k)
        return seeds, lo, trace
    best.extend(k)
    return SeedSet(vertices=frozenset(best.state.chosen), k=k), lo, best.trace()


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
    keyed by (master_seed, c); U_c is the utility its greedy covered.
    """
    part.check_vertex_count(g.n)
    if k > g.n:
        raise InfeasibleError(f"budget {k} exceeds vertex count {g.n}")
    n = g.n
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
        sk_c = sample_sketches(sub, R, (master_seed, c))  # master_seed's words, then c
        _, trace = greedy_utilitarian(sk_c, sub_part, budget)
        bounds.append(counts_utilities(trace.counts, R, sub_part).values[0])
    return DcBounds(bounds=tuple(bounds), budgets=tuple(budgets), k=k)


def saturate_dc(
    sk: SketchSet,
    part: CommunityPartition,
    k: int,
    bounds: DcBounds,
    tol: float = 0.01,
) -> tuple[SeedSet, bool, SelectionTrace]:
    """Greedy saturation of the DC lower bounds, then spend leftovers.

    Once every bound is saturated on the evaluation sketches, remaining
    budget goes to total influence.  The feasibility flag reports
    whether all u_c >= U_c - tol at the end.  The trace joins both
    phases' picks and evaluations; its objective restarts from 0 with
    the total-spread phase.
    """
    if bounds.k != k:
        raise InfeasibleError("bounds were computed for a different budget")
    check_budget(k, sk.graph.n)
    sat_obj = dc_objective(part, sk.R, bounds)
    state = sk.coverage_state(part)
    all_met = int(sat_obj.active.sum()) - 1e-12  # every positive bound saturated
    sat = _greedy_run(state, k, sat_obj, stop_at=all_met)
    rest = _greedy_run(state, k, TotalObjective(sk.R))
    u = counts_utilities(rest.counts, sk.R, part).values
    feasible = all(x >= b - tol for x, b in zip(u, bounds.bounds))
    trace = SelectionTrace(tuple(state.chosen), sat.objective_after_each + rest.objective_after_each,
                           sat.evaluations + rest.evaluations, rest.counts)
    return SeedSet(vertices=frozenset(state.chosen), k=k), feasible, trace


def select_seeds(
    sk: SketchSet, part: CommunityPartition, k: int, method: str, alpha
) -> tuple[SeedSet, UtilityVector, dict]:
    """Budget-k seeds of one of METHODS, their utilities on sk (from the
    greedy's counts), and the extras their report carries.

    welfare uses alpha with the standard floor; maximin reports
    SATURATE's gamma; dc computes its bounds on R fresh sketches per
    community keyed by (sk.master_seed, 1) and reports them with their
    feasibility.
    """
    extra = {}
    if method == "welfare":
        seeds, trace = greedy_welfare(sk, part, k, default_params(alpha, sk.graph.n))
    elif method == "utilitarian":
        seeds, trace = greedy_utilitarian(sk, part, k)
    elif method == "maximin":
        seeds, extra["gamma"], trace = saturate_maximin(sk, part, k)
    elif method == "dc":
        bounds = dc_lower_bounds(sk.graph, part, k, sk.R, (sk.master_seed, 1))
        extra["dc_bounds"] = list(bounds.bounds)
        seeds, extra["dc_feasible"], trace = saturate_dc(sk, part, k, bounds)
    else:
        raise InfeasibleError(f"unknown method '{method}'")
    return seeds, counts_utilities(trace.counts, sk.R, part), extra


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
        if k and g.n > sketches.graph.n:
            raise GraphFormatError(f"invalid seed id {sketches.graph.n}")
        combos, batched = tee(combinations(range(g.n), k))
        yield from zip(combos, _estimates(sketches, batched, part))
        return

    # The reach table of a seed set is the union of its members' single-
    # row tables; the last, an empty start's, serves row -1.
    subsets = _LiveEdgeSubsets(g, part)
    rows = len(subsets.arc_bits.degree)
    singles = subsets.arc_bits.reach([[r] for r in range(rows)] + [[]])
    for combo in combinations(range(g.n), k):
        table = np.bitwise_or.reduce(singles[subsets.row[list(combo)]], axis=0)
        yield combo, subsets.utilities(table, combo)


def exhaustive_opt(
    g: Graph,
    part: CommunityPartition,
    k: int,
    objective: str,
    params: WelfareParams | None = None,
    sketches: SketchSet | None = None,
    limit: int = EXHAUSTIVE_LIMIT,
) -> tuple[SeedSet, float, UtilityVector]:
    """Brute-force optimal budget-k seed set, its objective value and its
    utilities from the enumeration; ties broken lexicographically.

    objective is one of "total", "welfare" (requires params) or
    "maximin".  Welfare values are baseline-shifted (see module doc);
    with exact utilities and integer alpha the argmax is decided in
    rational arithmetic.
    """
    if objective == "welfare" and params is None:
        raise InfeasibleError("welfare objective requires WelfareParams")
    if k < 0:
        raise InfeasibleError("budget must be >= 0")
    if k == 0:
        u = UtilityVector(values=(0.0,) * part.num_communities, sizes=part.sizes)
        return SeedSet(vertices=frozenset(), k=0), float(_objective_value(u, objective, params)), u
    check_budget(k, g.n)
    best = None
    for combo, u in enumerate_seed_set_utilities(g, part, k, sketches, limit):
        val = _objective_value(u, objective, params)
        if best is None or val > best[1]:
            best = combo, val, u
    combo, val, u = best
    return SeedSet(vertices=frozenset(combo), k=k), float(val), u


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
