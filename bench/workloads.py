"""The benchmark's workloads: inputs made from a seed, the CLI operations run
on them in a fixed order, and checks that hold for every seed.

Each workload has a full size, which the benchmark measures, and a tiny
size with the same operations, which the benchmark's own tests run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fairspread import cli, fixtures, graph

ALPHAS = (-9.0, -5.0, -2.0, 0.0, 0.5, 0.9)
BASELINES = ("utilitarian", "maximin", "dc")
Q3_LEVELS = 7  # relative_connectedness_experiment's default q3 grid


@dataclass(frozen=True)
class Op:
    label: str
    argv: list[str] | Callable[[], list[str]]  # a callable reads earlier outputs
    out: Path
    seeded: bool = True  # False when the output does not depend on the seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Path, bool], None]
    operations: Callable[[int, Path, Path, bool], list[Op]]
    check: Callable[[int, Path, dict, bool], dict[str, list[str]]]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fairspread {' '.join(argv)} exited with {rc}")


def _sizes(graph_doc: dict) -> list[int]:
    return np.bincount(graph_doc["communities"]).tolist()


def check_report(doc: dict, sizes: list[int], k: int | None = None) -> list[str]:
    """Invariants of a select/metrics/exact report on a graph with these community sizes."""
    problems = []
    seeds, u = doc["seeds"], doc["utilities"]
    n = sum(sizes)
    if seeds != sorted(set(seeds)) or not all(0 <= v < n for v in seeds):
        problems.append(f"seeds {seeds} are not distinct sorted vertex ids")
    if k is not None and len(seeds) != k:
        problems.append(f"{len(seeds)} seeds for budget {k}")
    if len(u) != len(sizes) or not all(0.0 <= x <= 1.0 for x in u):
        problems.append(f"utilities {u} are not {len(sizes)} values in [0, 1]")
        return problems
    if not math.isclose(doc["gap"], max(u) - min(u), rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"gap {doc['gap']} != max - min of {u}")
    total = sum(s * x for s, x in zip(sizes, u))
    if not math.isclose(doc["total"], total, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"total {doc['total']} != sum of n_c u_c = {total}")
    if "utilities_exact" in doc and [float(Fraction(q)) for q in doc["utilities_exact"]] != u:
        problems.append("utilities do not equal the floats of utilities_exact")
    return problems


# --- sweep: the connectedness study (7 SBM instances) -----------------------

# R=300 rather than the paper's 1000 keeps a pass near 7 s, so a run holds
# several passes; SATURATE and greedy dominate either way.
SWEEP = {"full": ((100, 100, 100), (0.06, 0.03, 0.0), 0.005, 30, 300),
         "tiny": ((20, 20, 20), (0.3, 0.15, 0.0), 0.02, 4, 50)}


def sweep_inputs(seed: int, d: Path, tiny: bool) -> None:
    sizes, within, between, k, R = SWEEP["tiny" if tiny else "full"]
    _write_json(d / "config.json", {
        "experiment": "connectedness",
        "sbm": {"community_sizes": list(sizes), "within_prob": list(within),
                "between_prob": between},
        "budgets": [k], "alphas": list(ALPHAS), "baselines": list(BASELINES),
        "replications": 1, "master_seed": seed, "R": R, "p": 0.25,
    })


def sweep_ops(seed: int, d: Path, out: Path, tiny: bool) -> list[Op]:
    csv_path = out / "sweep.csv"
    return [Op("sweep", ["sweep", "--config", str(d / "config.json"), "--out", str(csv_path)],
               csv_path)]


def sweep_check(seed: int, d: Path, outputs: dict, tiny: bool) -> dict[str, list[str]]:
    sizes = SWEEP["tiny" if tiny else "full"][0]
    doc = outputs["sweep"]
    rows = [dict(zip(doc["columns"], r)) for r in doc["rows"]]
    problems = []
    methods = len(BASELINES) + len(ALPHAS)
    if len(rows) != Q3_LEVELS * 3 * methods:
        problems.append(f"{len(rows)} rows, expected {Q3_LEVELS} levels x 3 x {methods} methods")
    by_key = {}
    for r in rows:
        u = [float(r[f"u_{c}"]) for c in range(len(sizes))]
        gap, total, pof = float(r["gap"]), float(r["total"]), float(r["pof"])
        where = f"{r['instance']}/{r['replication']}/{r['method']}/{r['alpha']}"
        if r["replication"] == "std":
            if any((gap, total, pof, *u)):
                problems.append(f"{where}: std of one replication is not 0")
            continue
        by_key.setdefault((r["instance"], r["method"], r["alpha"]), []).append(
            [r[c] for c in doc["columns"] if c != "replication"])
        if not all(0.0 <= x <= 1.0 for x in u) or not 0.0 <= pof <= 1.0:
            problems.append(f"{where}: utilities or pof outside [0, 1]")
        if not math.isclose(gap, max(u) - min(u), rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{where}: gap != max - min")
        if not math.isclose(total, sum(s * x for s, x in zip(sizes, u)), rel_tol=1e-9):
            problems.append(f"{where}: total != sum of n_c u_c")
        if r["method"] == "utilitarian" and pof != 0.0:
            problems.append(f"{where}: utilitarian pof is not 0")
    for key, members in by_key.items():
        if len(members) != 2 or members[0] != members[1]:
            problems.append(f"{key}: mean row differs from its single replication")
    return {"sweep": problems}


# --- select-large: one 3000-vertex SBM, three selectors, then metrics -------

LARGE = {"full": ((1000, 1000, 1000), (0.006, 0.003, 0.003), 0.0005, 30, 1000),
         "tiny": ((60, 60, 60), (0.1, 0.05, 0.05), 0.01, 4, 50)}
LARGE_METHODS = ("welfare", "utilitarian", "dc")


def large_inputs(seed: int, d: Path, tiny: bool) -> None:
    sizes, within, between, _, _ = LARGE["tiny" if tiny else "full"]
    spec = d / "spec.json"
    _write_json(spec, {"community_sizes": list(sizes), "within_prob": list(within),
                       "between_prob": between})
    _cli(["gen-sbm", "--spec", str(spec), "--seed", str(seed), "--out", str(d / "graph.json")])


def _seed_args(report: Path) -> list[str]:
    return [str(v) for v in json.loads(report.read_text())["seeds"]]


def _select(g: Path, out: Path, method: str, k: int, R: int, seed: int) -> list[str]:
    return ["select", "--graph", str(g), "--k", str(k), "--method", method, "--alpha", "-2",
            "--sketches", str(R), "--seed", str(seed), "--format", "json", "--out", str(out)]


def _metrics(g: Path, seeds_from: Path, out: Path, R: int, seed: int):
    return lambda: ["metrics", "--graph", str(g), *_seed_args(seeds_from), "--alpha", "-2",
                    "--sketches", str(R), "--seed", str(seed), "--format", "json",
                    "--out", str(out)]


def large_ops(seed: int, d: Path, out: Path, tiny: bool) -> list[Op]:
    k, R = LARGE["tiny" if tiny else "full"][3:]
    g = d / "graph.json"
    ops = [Op(f"select-{m}", _select(g, out / f"select-{m}.json", m, k, R, seed),
              out / f"select-{m}.json") for m in LARGE_METHODS]
    report = out / "metrics-welfare.json"
    ops.append(Op("metrics-welfare", _metrics(g, out / "select-welfare.json", report, R, seed),
                  report))
    return ops


def large_check(seed: int, d: Path, outputs: dict, tiny: bool) -> dict[str, list[str]]:
    k = LARGE["tiny" if tiny else "full"][3]
    sizes = _sizes(json.loads((d / "graph.json").read_text()))
    found = {label: check_report(doc, sizes, k) for label, doc in outputs.items()}
    # Same sketches and seeds: metrics must reproduce the selection's estimate exactly.
    sel, met = outputs.get("select-welfare"), outputs.get("metrics-welfare")
    if sel and met and (met["seeds"], met["utilities"]) != (sel["seeds"], sel["utilities"]):
        found["metrics-welfare"].append("utilities differ from select-welfare's on the same sketches")
    return found


# --- directed: a directed SBM through the (R, n, n) closure ------------------

# R=200 for select and 20000 for metrics keep a pass near 4 s, so a run
# holds several passes; the closure and the mask sampling still dominate.
DIRECTED = {"full": ((40, 40, 40), (0.12, 0.06, 0.03), 0.01, 12, 200, 20000),
            "tiny": ((10, 10, 10), (0.4, 0.2, 0.1), 0.05, 3, 30, 300)}


def directed_inputs(seed: int, d: Path, tiny: bool) -> None:
    sizes, within, between = DIRECTED["tiny" if tiny else "full"][:3]
    g, part = graph.generate_sbm(graph.SbmSpec(sizes, within, between), seed)
    rng = np.random.default_rng((seed, 1))
    arcs = []
    for u, v in g.edges:
        if rng.random() < 0.5:
            arcs += [[u, v], [v, u]]
        else:
            arcs.append([u, v] if rng.random() < 0.5 else [v, u])
    _write_json(d / "graph.json", {"n": g.n, "directed": True, "p": 0.25, "edges": arcs,
                                   "communities": list(part.labels)})


def directed_ops(seed: int, d: Path, out: Path, tiny: bool) -> list[Op]:
    k, R, R_metrics = DIRECTED["tiny" if tiny else "full"][3:]
    g = d / "graph.json"
    sel, met = out / "select-welfare.json", out / "metrics-welfare.json"
    return [Op("select-welfare", _select(g, sel, "welfare", k, R, seed), sel),
            Op("metrics-welfare", _metrics(g, sel, met, R_metrics, seed), met)]


def directed_check(seed: int, d: Path, outputs: dict, tiny: bool) -> dict[str, list[str]]:
    k = DIRECTED["tiny" if tiny else "full"][3]
    sizes = _sizes(json.loads((d / "graph.json").read_text()))
    return {label: check_report(doc, sizes, k) for label, doc in outputs.items()}


# --- exact: the rational oracle and the exhaustive optimum ------------------

# (vertices, coins) of the two generated instances; the fixtures' 20-coin
# instances take 40-55 s each, longer than a whole run.
EXACT = {"full": (12, 14), "tiny": (8, 8)}
EXACT_KINDS = (("undirected", False, 0.5), ("directed", True, 0.35))
# Fixtures whose exact utilities take under a second.
SMALL_FIXTURES = ("gap_reduction_conflict", "parity_context_dependence",
                  "exact_parity_dominated", "maximin_gap_increase")
MAXIMIN_FIXTURE = "exact_parity_dominated"


def _random_instance(seed: int, n: int, m: int, directed: bool, p: float):
    rng = np.random.default_rng((seed, 2, int(directed)))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = [list(pairs[i]) for i in sorted(rng.choice(len(pairs), size=m, replace=False))]
    touched = sorted({u for e in edges for u in e})
    seed_sets = [sorted(int(v) for v in rng.choice(touched, size=2, replace=False))
                 for _ in range(2)]
    doc = {"n": n, "directed": directed, "p": p, "edges": edges,
           "communities": [0] * (n // 2) + [1] * (n - n // 2)}
    return doc, seed_sets


def exact_inputs(seed: int, d: Path, tiny: bool) -> None:
    n, m = EXACT["tiny" if tiny else "full"]
    plan = []
    for kind, directed, p in EXACT_KINDS:
        doc, seed_sets = _random_instance(seed, n, m, directed, p)
        _write_json(d / f"{kind}.json", doc)
        plan += [{"label": f"exact-{kind}-{i}", "graph": f"{kind}.json", "seeds": s,
                  "seeded": True} for i, s in enumerate(seed_sets)]
    for name in SMALL_FIXTURES:
        fx = fixtures.load_fixture(name)
        graph.save_graph(fx.graph, fx.partition, d / f"{name}.json")
        plan += [{"label": f"fixture-{name}-{set_name}", "graph": f"{name}.json",
                  "seeds": sorted(s.vertices), "seeded": False}
                 for set_name, s in sorted(fx.seed_sets.items())]
    plan.append({"label": f"maximin-{MAXIMIN_FIXTURE}", "graph": f"{MAXIMIN_FIXTURE}.json",
                 "k": 2, "seeded": False})
    _write_json(d / "plan.json", plan)


def exact_ops(seed: int, d: Path, out: Path, tiny: bool) -> list[Op]:
    ops = []
    for step in json.loads((d / "plan.json").read_text()):
        report = out / f"{step['label']}.json"
        if "seeds" in step:
            args = [str(v) for v in step["seeds"]]
        else:
            args = ["--k", str(step["k"]), "--method", "maximin"]
        argv = ["exact", "--graph", str(d / step["graph"]), *args, "--format", "json",
                "--out", str(report)]
        ops.append(Op(step["label"], argv, report, step["seeded"]))
    return ops


def exact_by_enumeration(doc: dict, seeds: list[int]) -> list[Fraction]:
    """Exact utilities from a vectorised pass over all 2^m live-edge subsets.

    Independent of fairspread's oracle; ``p`` is read as its decimal
    literal, as the oracle documents.
    """
    edges, m = doc["edges"], len(doc["edges"])
    live = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    reach = np.zeros((1 << m, doc["n"]), dtype=bool)
    reach[:, seeds] = True
    while True:
        before = reach.copy()
        for a, (u, v) in enumerate(edges):
            reach[:, v] |= live[:, a] & reach[:, u]
            if not doc["directed"]:
                reach[:, u] |= live[:, a] & reach[:, v]
        if np.array_equal(before, reach):
            break
    coins = live.sum(axis=1)
    p = Fraction(str(doc["p"]))
    weight = [p**j * (1 - p) ** (m - j) for j in range(m + 1)]
    labels = np.asarray(doc["communities"])
    values = []
    for c, size in enumerate(np.bincount(labels)):
        by_coins = np.bincount(coins, weights=reach[:, labels == c].sum(axis=1), minlength=m + 1)
        values.append(sum(int(x) * w for x, w in zip(by_coins, weight)) / int(size))
    return values


def exact_check(seed: int, d: Path, outputs: dict, tiny: bool) -> dict[str, list[str]]:
    found = {}
    for step in json.loads((d / "plan.json").read_text()):
        doc = outputs.get(step["label"])
        if doc is None:
            continue
        g = json.loads((d / step["graph"]).read_text())
        problems = check_report(doc, _sizes(g), step.get("k"))
        if step["seeded"]:
            expected = [str(q) for q in exact_by_enumeration(g, step["seeds"])]
            if doc["utilities_exact"] != expected:
                problems.append(f"exact utilities {doc['utilities_exact']} != {expected}")
        if "k" in step and doc["objective_value"] != min(doc["utilities"]):
            problems.append("maximin objective is not the smallest utility")
        found[step["label"]] = problems
    return found


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "the paper's connectedness study: greedy, SATURATE and DC over "
                 "7 SBM-300 instances", sweep_inputs, sweep_ops, sweep_check),
        Workload("select-large", "one SBM-3000 with a small budget: sketch, component and "
                 "evaluator set-up per operation outweighs the picks",
                 large_inputs, large_ops, large_check),
        Workload("directed", "the only workload through DirectedSketchSet's dense (R, n, n) "
                 "closure and arc-wise propagation", directed_inputs, directed_ops,
                 directed_check),
        Workload("exact", "the exact rational oracle and the exhaustive optimum; no sketches, "
                 "no greedy", exact_inputs, exact_ops, exact_check),
    )
}
