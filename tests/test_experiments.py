"""Experiment harness tests (reduced scale; full scale in acceptance)."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from fairspread.errors import GraphFormatError, InfeasibleError
from fairspread.experiments import (
    DEFAULT_ALPHAS,
    ExperimentConfig,
    ResultRow,
    relative_connectedness_experiment,
    relative_size_experiment,
    rows_to_csv,
    run_sweep,
)
from fairspread.cli import main
from fairspread.graph import CommunityPartition, Graph, SbmSpec


def _small_cfg(**overrides):
    base = dict(
        sbm=SbmSpec((40, 40, 40), (0.06, 0.03, 0.0), 0.005),
        budgets=(12,),
        alphas=(-2.0,),
        baselines=("utilitarian",),
        replications=2,
        master_seed=17,
        R=200,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(GraphFormatError):
        ExperimentConfig(sbm=None, graph=None)
    with pytest.raises(GraphFormatError):
        _small_cfg(replications=0)
    with pytest.raises(GraphFormatError):
        _small_cfg(baselines=("nope",))
    with pytest.raises(InfeasibleError):
        _small_cfg(budgets=(1000,))


def test_fixed_graph_config_accepts_its_own_p():
    # __post_init__ records the graph's p, so copying a config with
    # dataclasses.replace passes that p back in; only a different p is
    # an error.
    g = Graph(n=4, edges=((0, 1), (2, 3)), p=0.4)
    cfg = ExperimentConfig(graph=g, partition=CommunityPartition(labels=(0, 0, 1, 1)),
                           budgets=(1,), R=20)
    assert cfg.p == 0.4
    copy = dataclasses.replace(cfg, R=10)
    assert (copy.R, copy.p) == (10, 0.4)
    assert ExperimentConfig(graph=g, partition=cfg.partition, budgets=(1,), p=0.4).p == 0.4
    with pytest.raises(GraphFormatError, match="p must not be given with a fixed graph"):
        dataclasses.replace(cfg, p=0.5)


def test_default_alpha_grid():
    assert DEFAULT_ALPHAS == (-9.0, -5.0, -2.0, 0.0, 0.5, 0.9)


def test_sweep_rows_and_aggregates():
    rows = run_sweep(_small_cfg())
    per_rep = [r for r in rows if r.replication.isdigit()]
    means = [r for r in rows if r.replication == "mean"]
    stds = [r for r in rows if r.replication == "std"]
    # 2 reps x 2 methods, plus one mean and one std row per method
    assert len(per_rep) == 4 and len(means) == 2 and len(stds) == 2
    for r in rows:
        assert 0.0 <= r.gap <= 1.0
        assert 0.0 <= r.pof <= 1.0
        assert all(0.0 <= u <= 1.0 for u in r.utilities)


def test_utilitarian_pof_is_zero_by_construction():
    rows = run_sweep(_small_cfg(alphas=()))
    assert all(r.method == "utilitarian" for r in rows)
    assert all(r.pof == 0.0 for r in rows)


def test_pof_recomputes_from_matched_utilitarian_row():
    rows = run_sweep(_small_cfg(alphas=(-2.0, 0.5)))
    util = {
        (r.instance, r.replication, r.k): r.total
        for r in rows
        if r.method == "utilitarian" and r.replication.isdigit()
    }
    for r in rows:
        if not r.replication.isdigit():
            continue
        im_total = util[(r.instance, r.replication, r.k)]
        assert r.pof == pytest.approx(max(0.0, 1.0 - r.total / im_total))


def test_sweep_bitwise_reproducible():
    cfg = _small_cfg(baselines=("utilitarian", "maximin", "dc"))
    assert run_sweep(cfg) == run_sweep(cfg)


def test_sweep_changes_with_master_seed():
    r1 = run_sweep(_small_cfg())
    r2 = run_sweep(_small_cfg(master_seed=18))
    assert r1 != r2


def test_connectedness_levels_and_symmetry():
    cfg = _small_cfg(sbm=SbmSpec((40, 40, 40), (0.06, 0.03, 0.0), 0.005),
                     replications=3)
    rows = relative_connectedness_experiment(cfg, q3_levels=(0.0, 0.06))
    instances = {r.instance for r in rows}
    assert instances == {"q3=0.00", "q3=0.06"}
    assert all(0.0 <= r.pof <= 1.0 for r in rows)
    # q3 = q1 makes communities 1 and 3 exchangeable under utilitarian
    sym = [
        r for r in rows
        if r.instance == "q3=0.06" and r.method == "utilitarian"
        and r.replication == "mean"
    ]
    assert abs(sym[0].utilities[0] - sym[0].utilities[2]) < 0.12


def test_size_experiment_budget_scales_with_n():
    cfg = ExperimentConfig(
        sbm=SbmSpec((30, 30), (0.05, 0.05), 0.01),
        alphas=(),
        baselines=("utilitarian",),
        replications=2,
        master_seed=3,
        R=100,
    )
    rows = relative_size_experiment(cfg, ratios=(1, 3))
    ks = {r.instance: r.k for r in rows}
    assert ks["ratio=1"] == 6  # n=60 -> k=n/10
    assert ks["ratio=3"] == 12  # n=120


def test_size_study_writes_each_replication_row_once(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "size",
        "sbm": {"community_sizes": [10, 10], "within_prob": 0.2, "between_prob": 0.05},
        "alphas": [], "replications": 2, "R": 20,
    }))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    header, *body = csv.reader(io.StringIO(out.read_text()))
    keys = [tuple(row[:3]) for row in body]  # (instance, replication, method)
    assert len(keys) == len(set(keys)) == 9 * (2 + 2)  # 9 ratios, 2 replications + mean + std
    ks = {row[0]: int(row[3]) for row in body}
    assert ks["ratio=1"] == 2 and ks["ratio=9"] == 10  # n // 10


def test_csv_round_trip():
    rows = run_sweep(_small_cfg())
    table = list(csv.reader(io.StringIO(rows_to_csv(rows))))
    assert table[0] == [
        "instance", "replication", "method", "k", "alpha", "gap", "pof",
        "total", "u_0", "u_1", "u_2", "gamma", "dc_feasible",
    ]
    assert len(table) == 1 + len(rows)
    # float round-trip through repr is lossless
    first = next(r for r in rows if r.replication == "0")
    data_row = table[1 + rows.index(first)]
    assert float(data_row[5]) == first.gap
    assert [float(x) for x in data_row[8:11]] == list(first.utilities)
    assert data_row[11:] == ["", ""]  # utilitarian rows have neither column


def test_sweep_keeps_gamma_and_dc_feasibility():
    rows = run_sweep(_small_cfg(baselines=("utilitarian", "maximin", "dc"), replications=1))
    header, *body = csv.reader(io.StringIO(rows_to_csv(rows)))
    table = [dict(zip(header, r)) for r in body]
    for r, cells in zip(rows, table):
        assert (cells["gamma"] != "") == (r.method == "maximin")
        assert (cells["dc_feasible"] != "") == (r.method == "dc")
        if r.method == "maximin":
            assert 0.0 <= float(cells["gamma"]) <= 1.0
        if r.method == "dc":
            assert cells["dc_feasible"] in ("1.0", "0.0")
    # one replication: the mean row repeats it and the std row is 0
    for method, column in (("maximin", "gamma"), ("dc", "dc_feasible")):
        by_rep = {c["replication"]: c[column] for c in table if c["method"] == method}
        assert by_rep["mean"] == by_rep["0"]
        assert float(by_rep["std"]) == 0.0


def test_csv_rejects_mixed_community_counts():
    r1 = run_sweep(_small_cfg())[0]
    r2 = ResultRow(
        instance="x", replication="0", method="utilitarian", k=1, alpha=None,
        utilities=(0.5,), total=1.0, gap=0.0, pof=0.0,
    )
    with pytest.raises(GraphFormatError):
        rows_to_csv([r1, r2])


def test_metadata_document(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "sbm": {"community_sizes": [40, 40, 40], "within_prob": [0.06, 0.03, 0.0],
                "between_prob": 0.005},
        "budgets": [12], "alphas": [-2.0], "replications": 1, "master_seed": 17, "R": 200,
    }))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "rows.csv.meta.json").read_text())
    assert doc["master_seed"] == 17
    assert doc["R"] == 200
    assert doc["p"] == 0.25  # defaults are echoed
    assert doc["baselines"] == ["utilitarian"]
    assert doc["sbm"]["community_sizes"] == [40, 40, 40]
    assert doc["experiment"] == "sweep"
    assert "time" not in " ".join(doc)


def test_fair_method_narrows_gap_on_disconnected_family():
    rows = run_sweep(_small_cfg(replications=4))
    mean = {
        r.method: r for r in rows if r.replication == "mean"
    }
    assert mean["welfare"].gap < mean["utilitarian"].gap
