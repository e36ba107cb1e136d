"""Synthetic SBM experiments: alpha sweeps, connectedness and size studies.

Every experiment emits flat ResultRow records. PoF for a fair method is
always computed against the utilitarian selection on the identical
sketch set, so the numerator and denominator share the Monte Carlo
noise.  Rerunning with the same master seed reproduces tables bitwise:
instance graphs are keyed by (master_seed, level, replication) and
sketches by the same tuple.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from statistics import mean, pstdev

from .cascade import sample_sketches
from .errors import GraphFormatError
from .graph import CommunityPartition, Graph, SbmSpec, generate_sbm
from .graph import _is_int, _is_list_of, _is_number
from .optimize import check_budget, select_seeds
from .welfare import default_params, pof, total_influence, utility_gap

DEFAULT_ALPHAS = (-9.0, -5.0, -2.0, 0.0, 0.5, 0.9)
DEFAULT_BUDGETS = (30,)
BASELINES = ("utilitarian", "maximin", "dc")

# The fields' checks, not coercions: (field, check, the type the message names).
_FIELD_TYPES = (
    ("sbm", lambda x: x is None or isinstance(x, SbmSpec), "an SBM spec"),
    ("graph", lambda x: x is None or isinstance(x, Graph), "a graph"),
    ("partition", lambda x: x is None or isinstance(x, CommunityPartition), "a partition"),
    ("budgets", lambda x: x is None or _is_list_of(x, _is_int), "a list of integers"),
    ("alphas", lambda x: _is_list_of(x, _is_number), "a list of numbers"),
    ("baselines", lambda x: _is_list_of(x, lambda b: isinstance(b, str)), "a list of names"),
    ("replications", _is_int, "an integer"),
    ("master_seed", lambda x: _is_int(x) and x >= 0, "a non-negative integer"),
    ("R", _is_int, "an integer"),
    ("p", lambda x: x is None or _is_number(x), "a number"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the synthetic studies.

    Each knob's type is checked, not coerced, with the message that
    names it as a sweep config field; ``budgets`` and ``p`` may be None.
    """

    sbm: SbmSpec | None = None
    graph: Graph | None = None
    partition: CommunityPartition | None = None
    budgets: tuple[int, ...] | None = None  # None: the study's own, DEFAULT_BUDGETS but for size
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    baselines: tuple[str, ...] = ("utilitarian",)
    replications: int = 20
    master_seed: int = 0
    R: int = 1000
    p: float | None = None  # SBM graphs' propagation probability, 0.25 if None

    def __post_init__(self):
        for name, check, expected in _FIELD_TYPES:
            if not check(getattr(self, name)):
                raise GraphFormatError(f"sweep config field '{name}' must be {expected}")
        if self.replications < 1:
            raise GraphFormatError("replications must be >= 1")
        if (self.sbm is None) == (self.graph is None):
            raise GraphFormatError("exactly one of sbm or graph must be given")
        if self.graph is None:
            p = 0.25 if self.p is None else self.p
        elif self.partition is None:
            raise GraphFormatError("a fixed graph needs a community partition")
        elif self.p is not None and self.p != self.graph.p:
            raise GraphFormatError("p must not be given with a fixed graph, "
                                   "which carries its own p")
        else:
            # The p its sketches use, which the config records; a p equal
            # to it is accepted, so dataclasses.replace can copy a config.
            p = self.graph.p
        if not 0.0 <= p <= 1.0:
            raise GraphFormatError(f"propagation probability {p} outside [0, 1]")
        object.__setattr__(self, "p", p)
        for b in self.baselines:
            if b not in BASELINES:
                raise GraphFormatError(f"unknown baseline '{b}'")
        if self.R < 1:
            raise GraphFormatError("sketch count must be >= 1")
        if self.budgets == ():
            raise GraphFormatError("a sweep needs at least one budget")
        if not self.alphas and not self.baselines:
            raise GraphFormatError("a sweep needs at least one alpha or baseline")
        n = self.sbm.n if self.sbm is not None else self.graph.n
        for alpha in self.alphas:
            default_params(alpha, n)  # rejects alpha >= 1 before any work
        for k in self.budgets or ():
            check_budget(k, n)


@dataclass(frozen=True)
class ResultRow:
    instance: str
    replication: str  # index, or "mean"/"std" for aggregates
    method: str
    k: int
    alpha: float | None
    utilities: tuple[float, ...]
    total: float
    gap: float
    pof: float
    gamma: float | None = None  # maximin rows: SATURATE's final gamma
    dc_feasible: float | None = None  # dc rows: 1.0 if every DC bound was met, else 0.0


def _method_rows(sk, part, k, alphas, baselines, instance, replication):
    """All selections for one instance and budget on one sketch set.

    The utilitarian selection always runs: its total is every row's PoF
    denominator, and it is also the utilitarian row.
    """
    runs = [("utilitarian", None)] + [("welfare", alpha) for alpha in alphas]
    runs += [(b, None) for b in BASELINES[1:] if b in baselines]
    rows = []
    for method, alpha in runs:
        _, u, extra = select_seeds(sk, part, k, method, alpha)
        if method == "utilitarian":
            im_total = total_influence(u)
            if method not in baselines:
                continue
        rows.append(
            ResultRow(
                instance=instance,
                replication=replication,
                method=method,
                k=k,
                alpha=alpha,
                utilities=u.as_floats(),
                total=float(total_influence(u)),
                gap=float(utility_gap(u)),
                pof=pof(total_influence(u), im_total) if im_total > 0 else 0.0,
                gamma=extra.get("gamma"),
                dc_feasible=float(extra["dc_feasible"]) if "dc_feasible" in extra else None,
            )
        )
    return rows


def _run_level(cfg: ExperimentConfig, instance: str, level: int, sbm: SbmSpec | None,
               budgets: tuple[int, ...]):
    """All replications of one configuration level, each at every budget."""
    for k in budgets:  # checked before the level's first graph
        check_budget(k, sbm.n if sbm is not None else cfg.graph.n)
    rows: list[ResultRow] = []
    for rep in range(cfg.replications):
        seed_key = (cfg.master_seed, level, rep)
        if sbm is not None:
            g, part = generate_sbm(sbm, seed_key, p=cfg.p)
        else:
            g, part = cfg.graph, cfg.partition
        sk = sample_sketches(g, cfg.R, seed_key)
        for k in budgets:
            rows += _method_rows(sk, part, k, cfg.alphas, cfg.baselines, instance, str(rep))
    rows.extend(_aggregate(rows))
    return rows


def _aggregate(rows: list[ResultRow]) -> list[ResultRow]:
    """Mean and population-std rows per (instance, method, alpha, k).

    gamma and dc_feasible aggregate like the other columns where the
    method has them and stay empty where it does not.
    """
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        if not r.replication.isdigit():
            continue
        groups.setdefault((r.instance, r.method, r.alpha, r.k), []).append(r)
    out = []
    for (instance, method, alpha, k), members in groups.items():
        nc = len(members[0].utilities)
        for label, stat in (("mean", mean), ("std", pstdev)):
            out.append(
                ResultRow(
                    instance=instance,
                    replication=label,
                    method=method,
                    k=k,
                    alpha=alpha,
                    utilities=tuple(
                        stat([m.utilities[c] for m in members]) for c in range(nc)
                    ),
                    total=stat([m.total for m in members]),
                    gap=stat([m.gap for m in members]),
                    pof=stat([m.pof for m in members]),
                    gamma=_stat_or_none(stat, [m.gamma for m in members]),
                    dc_feasible=_stat_or_none(stat, [m.dc_feasible for m in members]),
                )
            )
    return out


def _stat_or_none(stat, values):
    return None if None in values else stat(values)


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Alpha/baseline sweep on one configuration (single level)."""
    return _run_level(cfg, "sweep", 0, cfg.sbm, cfg.budgets or DEFAULT_BUDGETS)


def _study_sbm(cfg: ExperimentConfig, study: str, communities: int) -> SbmSpec:
    """cfg.sbm, which a study varies level by level, with the study's community count."""
    if cfg.sbm is None or len(cfg.sbm.community_sizes) != communities:
        raise GraphFormatError(f"the {study} study needs an sbm with {communities} communities")
    return cfg.sbm


def relative_connectedness_experiment(
    cfg: ExperimentConfig,
    q3_levels: tuple[float, ...] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06),
) -> list[ResultRow]:
    """Vary the third community's internal connectedness q_3.

    The sizes and the other probabilities come from cfg.sbm.  The
    paper's study has three communities of 100 with within-probabilities
    (0.06, 0.03, q_3) and 0.005 between, k = 0.1 n.
    """
    base = _study_sbm(cfg, "connectedness", 3)
    rows: list[ResultRow] = []
    for level, q3 in enumerate(q3_levels):
        sbm = SbmSpec(
            base.community_sizes,
            (base.within_prob[0], base.within_prob[1], q3),
            base.between_prob,
        )
        rows.extend(_run_level(cfg, f"q3={q3:.2f}", level, sbm, cfg.budgets or DEFAULT_BUDGETS))
    return rows


def relative_size_experiment(
    cfg: ExperimentConfig,
    ratios: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
) -> list[ResultRow]:
    """Grow the second of two communities to each ratio times the first's size.

    The probabilities come from cfg.sbm, and each level has the one
    budget max(1, n // 10), so cfg must not set budgets.  The paper's
    study grows it from 100 to 900 vertices with q_c = 0.005 within both
    communities and 0.001 between.
    """
    base = _study_sbm(cfg, "size", 2)
    if cfg.budgets is not None:
        raise GraphFormatError("the size study sets each level's budget; remove budgets")
    rows: list[ResultRow] = []
    for level, ratio in enumerate(ratios):
        sizes = (base.community_sizes[0], base.community_sizes[0] * ratio)
        sbm = SbmSpec(sizes, base.within_prob, base.between_prob)
        rows.extend(_run_level(cfg, f"ratio={ratio}", level, sbm, (max(1, sbm.n // 10),)))
    return rows


# --- output -----------------------------------------------------------------


def csv_header(num_communities: int) -> list[str]:
    return (
        ["instance", "replication", "method", "k", "alpha", "gap", "pof", "total"]
        + [f"u_{c}" for c in range(num_communities)]
        + ["gamma", "dc_feasible"]
    )


def rows_to_csv(rows: list[ResultRow]) -> str:
    """The rows as CSV text, with csv.writer's CRLF line ends."""
    if not rows:
        raise GraphFormatError("no rows to write")
    nc = len(rows[0].utilities)
    if any(len(r.utilities) != nc for r in rows):
        raise GraphFormatError("rows differ in community count")
    fh = io.StringIO()
    w = csv.writer(fh)
    w.writerow(csv_header(nc))
    for r in rows:
        w.writerow(
            [
                r.instance,
                r.replication,
                r.method,
                r.k,
                "" if r.alpha is None else repr(r.alpha),
                repr(r.gap),
                repr(r.pof),
                repr(r.total),
            ]
            + [repr(u) for u in r.utilities]
            + ["" if x is None else repr(x) for x in (r.gamma, r.dc_feasible)]
        )
    return fh.getvalue()
