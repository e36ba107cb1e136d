"""Hand-constructed counterexample instances with exact reference values.

Each fixture is a small graph, a community partition and a few named
seed sets, each with its exact utilities, that together witness a
failure mode of a fairness notion (e.g. a parity constraint preferring
a Pareto-dominated outcome).  Each instance is declared by its
``build_*`` function in one ``_fixture`` call; ``verify_fixture``
recomputes every utility with the exact oracle and checks the witnessed
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cascade import UtilityVector, exact_utilities
from .errors import GraphFormatError
from .graph import CommunityPartition, Graph, SeedSet
from .welfare import (
    check_gap_reduction,
    check_monotonicity_preference,
    default_params,
    dp_satisfied,
    leximin_compare,
    total_influence,
    utility_gap,
    welfare,
)


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    partition: CommunityPartition
    seed_sets: dict[str, SeedSet]
    params: dict
    description: str
    expected: dict[str, tuple[Fraction, ...]]


def _fixture(name, description, sizes, edges, p, seed_sets, directed=False, **params):
    """A fixture over consecutive communities of the given sizes.

    ``seed_sets`` maps each name to (vertices, exact utilities); every
    seed set has the budget ``params["k"]``.
    """
    labels = tuple(c for c, size in enumerate(sizes) for _ in range(size))
    return Fixture(
        name=name,
        graph=Graph(n=len(labels), edges=tuple(edges), directed=directed, p=p),
        partition=CommunityPartition(labels=labels),
        seed_sets={s: SeedSet(frozenset(v), params["k"]) for s, (v, _) in seed_sets.items()},
        params=params,
        description=description,
        expected={s: tuple(utils) for s, (_, utils) in seed_sets.items()},
    )


def _star(center: int, periphery) -> list[tuple[int, int]]:
    return [(center, v) for v in periphery]


def build_gap_reduction_conflict() -> Fixture:
    """Two equal-total solutions where every isoelastic welfare function
    prefers the one with the larger utility gap.

    Three communities of 100 (diamond, square, circle), p = 1, k = 4.
    Utilities are (0.3, 0.7, 0.8) for the all-single-community-star
    solution and (0.34, 0.6, 0.86) after swapping one seed to the
    mixed-community star center.
    """
    edges: list[tuple[int, int]] = []
    # diamond 0..99: star of 30, 4 mixed-star members (30..33), 66 isolated
    edges += _star(0, range(1, 30))
    # square 100..199: stars of 60 and 10, 30 isolated
    edges += _star(100, range(101, 160))
    edges += _star(160, range(161, 170))
    # circle 200..299: star of 80, mixed star (center 280, 5 circle + 4
    # diamond periphery), 14 isolated
    edges += _star(200, range(201, 280))
    edges += _star(280, list(range(281, 286)) + list(range(30, 34)))
    return _fixture(
        "gap_reduction_conflict",
        "Equal-total seed sets with utility gaps 0.50 and 0.52 where "
        "isoelastic welfare prefers the larger gap.",
        (100, 100, 100), edges, 1.0,
        {
            "small_gap": ({0, 100, 160, 200}, (Fraction(3, 10), Fraction(7, 10), Fraction(4, 5))),
            "large_gap": ({0, 100, 200, 280}, (Fraction(17, 50), Fraction(3, 5), Fraction(43, 50))),
        },
        k=4,
    )


def build_proportional_constraint_conflict() -> Fixture:
    """Diversity constraints rejecting the higher-total, smaller-gap
    solution.

    Black community: a 21-vertex star; white community: 7 isolated
    vertices; p = 0.5, k = 4.  The unconstrained optimum seeds the star
    center plus three whites; proportional budgets force 3 black seeds
    and 1 white.
    """
    return _fixture(
        "proportional_constraint_conflict",
        "Proportional-budget constraints prefer a solution with lower "
        "total spread and a larger utility gap.",
        (21, 7), _star(0, range(1, 21)), 0.5,
        {
            "unconstrained": ({0, 21, 22, 23}, (Fraction(11, 21), Fraction(3, 7))),
            "proportional": ({0, 1, 2, 21}, (Fraction(4, 7), Fraction(1, 7))),
        },
        k=4,
    )


def build_parity_nonmonotonic_directed(
    n_comm: int = 10, p: float = 0.35, delta: float = 0.235
) -> Fixture:
    """Approximate parity preferring a Pareto-dominated outcome.

    Directed; two communities of ``n_comm``: a circle star whose center
    reaches two squares through one-way arcs, everything else isolated.
    The construction needs delta < p < sqrt(delta) and
    n_comm > max(3p/(p - delta), 1/(delta - p^2)); the packaged default
    (10, 0.35, 0.235) keeps the instance within the exact oracle's coin
    limit.  The dominant solution violates the gap threshold while a
    degraded one satisfies it.  The expected utilities are the
    construction's closed form at the decimal ``p`` the oracle reads.
    """
    if not (delta < p < delta**0.5):
        raise GraphFormatError("requires delta < p < sqrt(delta)")
    if not n_comm > max(3 * p / (p - delta), 1 / (delta - p * p)):
        raise GraphFormatError("community size too small for the construction")
    arcs: list[tuple[int, int]] = []
    for v in range(1, n_comm):
        arcs += [(0, v), (v, 0)]  # undirected star edges as arc pairs
    # one-way spill into the square community
    arcs += [(0, n_comm), (0, n_comm + 1)]
    n, q = n_comm, Fraction(str(p))
    return _fixture(
        "parity_nonmonotonic_directed",
        "Approximate demographic parity admits only a solution whose "
        "utilities are element-wise worse.",
        (n, n), arcs, p,
        {
            "dominant": ({0, n + 2}, ((1 + (n - 1) * q) / n, (1 + 2 * q) / n)),
            "parity": ({1, n + 2}, ((1 + q + (n - 2) * q * q) / n, (1 + 2 * q * q) / n)),
        },
        directed=True, k=2, delta=delta,
    )


def build_parity_context_dependence() -> Fixture:
    """Parity preferences flipping with an unconcerned community.

    p = 1, k = 2, delta = 1/9, two communities of 18.  Holding the
    circle seed fixed, parity prefers the small square star in one
    context and the large one in the other.
    """
    edges: list[tuple[int, int]] = []
    # circle 0..17: stars of 3 (center 0) and 5 (center 3), 10 isolated
    edges += _star(0, (1, 2))
    edges += _star(3, range(4, 8))
    # square 18..35: stars of 2 (center 18) and 5 (center 20), 11 isolated
    edges += _star(18, (19,))
    edges += _star(20, range(21, 25))
    return _fixture(
        "parity_context_dependence",
        "Changing only one community's utility flips which value of "
        "the other community parity prefers.",
        (18, 18), edges, 1.0,
        {
            "small_small": ({0, 18}, (Fraction(3, 18), Fraction(2, 18))),
            "large_small": ({3, 18}, (Fraction(5, 18), Fraction(2, 18))),
            "small_large": ({0, 20}, (Fraction(3, 18), Fraction(5, 18))),
            "large_large": ({3, 20}, (Fraction(5, 18), Fraction(5, 18))),
        },
        k=2, delta=Fraction(1, 9),
    )


def build_exact_parity_dominated() -> Fixture:
    """Exact parity feasible only for a Pareto-dominated solution.

    p = 0.5, k = 2, two communities of 10: a circle star of 10 and a
    square star of 6 plus 4 isolated squares.  Seeding both centers
    dominates the parity-feasible periphery-plus-center choice.
    """
    edges: list[tuple[int, int]] = []
    edges += _star(0, range(1, 10))  # circle star
    edges += _star(10, range(11, 16))  # square star of 6; 16..19 isolated
    return _fixture(
        "exact_parity_dominated",
        "Exact demographic parity rejects a solution that raises one "
        "community's utility at no cost to the other.",
        (10, 10), edges, 0.5,
        {
            "parity": ({1, 10}, (Fraction(7, 20), Fraction(7, 20))),
            "dominant": ({0, 10}, (Fraction(11, 20), Fraction(7, 20))),
        },
        k=2, delta=0.0,
    )


def build_maximin_gap_increase() -> Fixture:
    """Maximin choosing a lower-total, larger-gap solution.

    Three communities (blue 11, black 11, white 28), p = 0.8, k = 1.
    A big star reaches more people overall; the small star's white
    center lifts the worst-off community above zero.
    """
    edges: list[tuple[int, int]] = []
    # big star: blue center 0, periphery blue 1..4 and black 11..14
    edges += _star(0, list(range(1, 5)) + list(range(11, 15)))
    # small star: white center 22, periphery blue 5..10 and black 15
    edges += _star(22, list(range(5, 11)) + [15])
    # black isolated 16..21; white isolated 23..49
    return _fixture(
        "maximin_gap_increase",
        "Maximin/leximin strictly prefer the solution with lower total "
        "spread and a larger utility gap.",
        (11, 11, 28), edges, 0.8,
        {
            "big_star": ({0}, (Fraction(21, 55), Fraction(16, 55), Fraction(0))),
            "small_star": ({22}, (Fraction(24, 55), Fraction(4, 55), Fraction(1, 28))),
        },
        k=1,
    )


def load_fixture(name: str) -> Fixture:
    """Build a bundled fixture by name."""
    if name not in _FIXTURES:
        raise GraphFormatError(f"unknown fixture '{name}'")
    return _FIXTURES[name][0]()


# --- verification -----------------------------------------------------------

# Alpha values over which the gap-reduction conflict must hold.
GAP_CONFLICT_ALPHAS = (-5.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 0.9)


def fixture_exact_utilities(fx: Fixture) -> dict[str, UtilityVector]:
    return {
        name: exact_utilities(fx.graph, seeds, fx.partition)
        for name, seeds in fx.seed_sets.items()
    }


def verify_fixture(name: str, fx: Fixture | None = None) -> list[str]:
    """Exact-oracle verification; returns a list of failure messages."""
    fx = fx or load_fixture(name)
    failures: list[str] = []
    utils = fixture_exact_utilities(fx)
    for sname, expected in fx.expected.items():
        got = utils[sname].values
        if tuple(got) != expected:
            failures.append(f"{name}/{sname}: utilities {got} != expected {expected}")
    failures.extend(_FIXTURES[name][1](fx, utils))
    return failures


def verify_all() -> dict[str, list[str]]:
    """Verify every fixture; maps fixture name to failure messages."""
    return {name: verify_fixture(name) for name in FIXTURE_NAMES}


def _check_gap_reduction_conflict(fx, utils):
    failures = []
    u, v = utils["small_gap"], utils["large_gap"]
    if total_influence(u) != 180 or total_influence(v) != 180:
        failures.append("totals are not both 180")
    if utility_gap(u) != Fraction(1, 2) or utility_gap(v) != Fraction(13, 25):
        failures.append("gaps are not 0.50 / 0.52")
    verdict = check_gap_reduction(u, v)
    if not (verdict.applicable and verdict.preferred == "first"):
        failures.append("gap reduction does not prefer the smaller-gap solution")
    for alpha in GAP_CONFLICT_ALPHAS:
        params = default_params(alpha, fx.graph.n)
        diff = welfare(u, params) - welfare(v, params)
        if not diff < 0:
            failures.append(f"welfare at alpha={alpha} does not prefer the larger gap")
    return failures


def _check_proportional_constraint_conflict(fx, utils):
    failures = []
    u, w = utils["unconstrained"], utils["proportional"]
    # Within-community optima: 3 seeds in the 21-star vs 1 isolated white.
    bound_black, bound_white = Fraction(4, 7), Fraction(1, 7)
    if not (w.values[0] >= bound_black and w.values[1] >= bound_white):
        failures.append("proportional solution misses its own lower bounds")
    if u.values[0] >= bound_black:
        failures.append("unconstrained solution unexpectedly meets the black bound")
    verdict = check_gap_reduction(u, w)
    if not (verdict.applicable and verdict.preferred == "first"):
        failures.append("gap reduction does not prefer the unconstrained solution")
    return failures


def _check_parity_nonmonotonic_directed(fx, utils):
    failures = []
    u, v = utils["dominant"], utils["parity"]
    delta = fx.params["delta"]
    verdict = check_monotonicity_preference(v, u)
    if not (verdict.applicable and verdict.preferred == "second"):
        failures.append("dominant solution does not Pareto-dominate")
    if dp_satisfied(u, delta):
        failures.append("dominant solution unexpectedly satisfies parity")
    if not dp_satisfied(v, delta):
        failures.append("degraded solution fails parity")
    return failures


def _check_parity_context_dependence(fx, utils):
    failures = []
    delta = fx.params["delta"]
    u, up = utils["small_small"], utils["large_small"]
    v, vp = utils["small_large"], utils["large_large"]
    if u.values[0] != v.values[0] or up.values[0] != vp.values[0]:
        failures.append("concerned community's utility changed between contexts")
    if not dp_satisfied(u, delta) or dp_satisfied(up, delta):
        failures.append("first context does not isolate the small-star choice")
    if not (dp_satisfied(v, delta) and dp_satisfied(vp, delta)):
        failures.append("second context is not parity-feasible for both")
    if not total_influence(vp) > total_influence(v):
        failures.append("second context does not favor the large-star choice")
    return failures


def _check_exact_parity_dominated(fx, utils):
    failures = []
    u, v = utils["parity"], utils["dominant"]
    verdict = check_monotonicity_preference(u, v)
    if not (verdict.applicable and verdict.preferred == "second"):
        failures.append("dominant solution does not Pareto-dominate")
    if not dp_satisfied(u, 0.0):
        failures.append("parity solution is not exactly parity-feasible")
    if dp_satisfied(v, 0.0):
        failures.append("dominant solution unexpectedly exactly parity-feasible")
    return failures


def _check_maximin_gap_increase(fx, utils):
    failures = []
    big, small = utils["big_star"], utils["small_star"]
    if leximin_compare(small, big) != 1:
        failures.append("leximin does not prefer the small-star solution")
    if not total_influence(big) > total_influence(small):
        failures.append("big-star solution does not have higher total spread")
    if not utility_gap(small) > utility_gap(big):
        failures.append("small-star solution does not have the larger gap")
    return failures


# Each fixture's builder and property check, in the order verify reports.
_FIXTURES = {
    "gap_reduction_conflict": (build_gap_reduction_conflict, _check_gap_reduction_conflict),
    "proportional_constraint_conflict": (
        build_proportional_constraint_conflict, _check_proportional_constraint_conflict),
    "parity_nonmonotonic_directed": (
        build_parity_nonmonotonic_directed, _check_parity_nonmonotonic_directed),
    "parity_context_dependence": (
        build_parity_context_dependence, _check_parity_context_dependence),
    "exact_parity_dominated": (build_exact_parity_dominated, _check_exact_parity_dominated),
    "maximin_gap_increase": (build_maximin_gap_increase, _check_maximin_gap_increase),
}

FIXTURE_NAMES = tuple(_FIXTURES)
