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
import json
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import mean, pstdev

from .cascade import estimate_utilities, sample_sketches
from .errors import GraphFormatError, InfeasibleError
from .graph import CommunityPartition, Graph, SbmSpec, generate_sbm
from .optimize import (
    dc_lower_bounds,
    greedy_utilitarian,
    greedy_welfare,
    saturate_dc,
    saturate_maximin,
)
from .welfare import default_params, pof, total_influence, utility_gap

DEFAULT_ALPHAS = (-9.0, -5.0, -2.0, 0.0, 0.5, 0.9)
BASELINES = ("utilitarian", "maximin", "dc")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the synthetic studies."""

    sbm: SbmSpec | None = None
    graph: Graph | None = None
    partition: CommunityPartition | None = None
    budgets: tuple[int, ...] = (30,)
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    baselines: tuple[str, ...] = ("utilitarian",)
    replications: int = 20
    master_seed: int = 0
    R: int = 1000
    p: float = 0.25

    def __post_init__(self):
        if self.replications < 1:
            raise GraphFormatError("replications must be >= 1")
        if (self.sbm is None) == (self.graph is None):
            raise GraphFormatError("exactly one of sbm or graph must be given")
        if self.graph is not None and self.partition is None:
            raise GraphFormatError("a fixed graph needs a community partition")
        for b in self.baselines:
            if b not in BASELINES:
                raise GraphFormatError(f"unknown baseline '{b}'")
        n = self.sbm.n if self.sbm is not None else self.graph.n
        if any(k > n for k in self.budgets):
            raise InfeasibleError("budget exceeds vertex count")


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


def _method_rows(g, part, sk, k, alphas, baselines, dc_seed, instance, replication):
    """All selections for one instance and budget on one sketch set."""
    rows = []
    util_seeds, _ = greedy_utilitarian(sk, part, k)
    u_util = estimate_utilities(sk, util_seeds, part)
    im_total = total_influence(u_util)

    def emit(method, alpha, u, gamma=None, dc_feasible=None):
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
                gamma=gamma,
                dc_feasible=dc_feasible,
            )
        )

    if "utilitarian" in baselines:
        emit("utilitarian", None, u_util)
    for alpha in alphas:
        seeds, _ = greedy_welfare(sk, part, k, default_params(alpha, g.n))
        emit("welfare", alpha, estimate_utilities(sk, seeds, part))
    if "maximin" in baselines:
        seeds, gamma = saturate_maximin(sk, part, k)
        emit("maximin", None, estimate_utilities(sk, seeds, part), gamma=gamma)
    if "dc" in baselines:
        bounds = dc_lower_bounds(g, part, k, sk.R, dc_seed)
        seeds, feasible = saturate_dc(sk, part, k, bounds)
        emit("dc", None, estimate_utilities(sk, seeds, part), dc_feasible=float(feasible))
    return rows


def _run_level(cfg: ExperimentConfig, instance: str, level: int, sbm: SbmSpec | None):
    """All replications of one configuration level."""
    rows: list[ResultRow] = []
    for rep in range(cfg.replications):
        seed_key = (cfg.master_seed, level, rep)
        if sbm is not None:
            g, part = generate_sbm(sbm, seed_key, p=cfg.p)
        else:
            g, part = cfg.graph, cfg.partition
        sk = sample_sketches(g, cfg.R, seed_key)
        for k in cfg.budgets:
            rows += _method_rows(g, part, sk, k, cfg.alphas, cfg.baselines, (*seed_key, 1),
                                 instance, str(rep))
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
    return _run_level(cfg, "sweep", 0, cfg.sbm)


def relative_connectedness_experiment(
    cfg: ExperimentConfig | None = None,
    q3_levels: tuple[float, ...] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06),
) -> list[ResultRow]:
    """Vary the third community's internal connectedness q_3.

    Three communities of 100 with within-probabilities
    (0.06, 0.03, q_3) and 0.005 between, k = 0.1 n.
    """
    if cfg is None:
        cfg = ExperimentConfig(
            sbm=SbmSpec((100, 100, 100), (0.06, 0.03, 0.0), 0.005),
            budgets=(30,),
            alphas=(-2.0,),
            baselines=("utilitarian",),
        )
    rows: list[ResultRow] = []
    for level, q3 in enumerate(q3_levels):
        base = cfg.sbm
        sbm = SbmSpec(
            base.community_sizes,
            (base.within_prob[0], base.within_prob[1], q3),
            base.between_prob,
        )
        rows.extend(_run_level(cfg, f"q3={q3:.2f}", level, sbm))
    return rows


def relative_size_experiment(
    cfg: ExperimentConfig | None = None,
    ratios: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
) -> list[ResultRow]:
    """Grow one of two communities from 100 to 900 vertices.

    q_c = 0.005 within both communities, 0.001 between, k = 0.1 n.
    """
    if cfg is None:
        cfg = ExperimentConfig(
            sbm=SbmSpec((100, 100), (0.005, 0.005), 0.001),
            budgets=(20,),
            alphas=(-2.0,),
            baselines=("utilitarian",),
        )
    rows: list[ResultRow] = []
    for level, ratio in enumerate(ratios):
        base = cfg.sbm
        sizes = (base.community_sizes[0], base.community_sizes[0] * ratio)
        sbm = SbmSpec(sizes, base.within_prob, base.between_prob)
        n = sbm.n
        level_cfg = replace(cfg, budgets=tuple(max(1, n // 10) for _ in cfg.budgets))
        rows.extend(_run_level(level_cfg, f"ratio={ratio}", level, sbm))
    return rows


# --- output -----------------------------------------------------------------


def csv_header(num_communities: int) -> list[str]:
    return (
        ["instance", "replication", "method", "k", "alpha", "gap", "pof", "total"]
        + [f"u_{c}" for c in range(num_communities)]
        + ["gamma", "dc_feasible"]
    )


def rows_to_csv(rows: list[ResultRow], path) -> None:
    if not rows:
        raise GraphFormatError("no rows to write")
    nc = len(rows[0].utilities)
    if any(len(r.utilities) != nc for r in rows):
        raise GraphFormatError("rows differ in community count")
    with open(path, "w", newline="") as fh:
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


def write_metadata(path, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    """Companion document recording every knob needed to reproduce a table."""
    from . import __version__

    doc = {
        "version": __version__,
        "master_seed": cfg.master_seed,
        "R": cfg.R,
        "p": cfg.p,
        "replications": cfg.replications,
        "budgets": list(cfg.budgets),
        "alphas": list(cfg.alphas),
        "baselines": list(cfg.baselines),
    }
    if cfg.sbm is not None:
        doc["sbm"] = {
            "community_sizes": list(cfg.sbm.community_sizes),
            "within_prob": list(cfg.sbm.within_prob),
            "between_prob": [list(row) for row in cfg.sbm.between_prob],
        }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
