"""Command-line interface.

Subcommands: gen-sbm, select, sweep, exact, verify, metrics.  Every run
echoes its fully resolved configuration (including defaults) to a
metadata document: ``<out>.meta.json`` when ``--out`` is given,
otherwise standard error.  Outputs contain no timestamps, so identical
invocations produce byte-identical files.

Exit codes: 0 success; 1 fixture verification failure; 2 usage error;
3 file/format error; 4 infeasible parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cascade import estimate_utilities, exact_utilities, sample_sketches
from .errors import EnumerationLimitError, GraphFormatError, InfeasibleError
from .experiments import (
    ExperimentConfig,
    relative_connectedness_experiment,
    relative_size_experiment,
    rows_to_csv,
    run_sweep,
    write_metadata,
)
from .fixtures import verify_all
from .graph import (
    SeedSet,
    _is_int,
    _is_list_of,
    _is_number,
    _read_document,
    generate_sbm,
    load_graph,
    load_sbm_spec,
    save_graph,
)
from .optimize import (
    check_budget,
    dc_lower_bounds,
    exhaustive_opt,
    greedy_utilitarian,
    greedy_welfare,
    saturate_dc,
    saturate_maximin,
)
from .welfare import (
    default_params,
    dp_satisfied,
    total_influence,
    utility_gap,
    welfare,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_INFEASIBLE = 4


def _emit_metadata(args, resolved: dict) -> None:
    doc = dict(sorted(resolved.items()))
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        Path(str(args.out) + ".meta.json").write_text(text)
    else:
        sys.stderr.write(text)


def _write_or_print(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _seed_token(tok: str) -> list[int]:
    """One seeds argument: vertex ids separated by commas."""
    try:
        return [int(piece) for piece in tok.split(",") if piece]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed token {tok!r}") from None


def _positive_int(text: str) -> int:
    """A count argument: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _parse_seeds(tokens: list[list[int]]) -> list[int]:
    return [v for tok in tokens for v in tok]


# Sweep config fields passed to ExperimentConfig: (key, check, expected type).
_SWEEP_FIELDS = (
    ("budgets", lambda x: _is_list_of(x, _is_int), "a list of integers"),
    ("alphas", lambda x: _is_list_of(x, _is_number), "a list of numbers"),
    ("baselines", lambda x: _is_list_of(x, lambda b: isinstance(b, str)), "a list of names"),
    ("replications", _is_int, "an integer"),
    ("master_seed", _is_int, "an integer"),
    ("R", _is_int, "an integer"),
    ("p", _is_number, "a number"),
)


def _csv_cell(value) -> str:
    """One CSV cell: lists space-joined; str of a float is its shortest repr."""
    if isinstance(value, list):
        return " ".join(_csv_cell(v) for v in value)
    return str(value)


def _selection_report(args, part, seeds, u, extra: dict | None = None) -> str:
    values = u.as_floats()
    gap = float(utility_gap(u))
    total = float(total_influence(u))
    doc = {
        "seeds": sorted(seeds),
        "utilities": list(values),
        "total": total,
        "gap": gap,
    }
    if extra:
        doc.update(extra)
    if args.format == "json":
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.format == "csv":
        extra = extra or {}
        header = ["seeds", "total", "gap"] + [f"u_{c}" for c in range(len(values))]
        row = [_csv_cell(sorted(seeds)), repr(total), repr(gap)] + [repr(v) for v in values]
        header += list(extra)
        row += [_csv_cell(v) for v in extra.values()]
        return ",".join(header) + "\n" + ",".join(row) + "\n"
    lines = [f"seeds: {sorted(seeds)}"]
    for key, val in doc.items():
        if key == "seeds":
            continue
        lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def _cmd_gen_sbm(args) -> int:
    spec = load_sbm_spec(args.spec)
    g, part = generate_sbm(spec, args.seed, p=args.p)
    meta = {
        "generator": "sbm",
        "seed": args.seed,
        "community_sizes": list(spec.community_sizes),
        "within_prob": list(spec.within_prob),
        "between_prob": [list(row) for row in spec.between_prob],
    }
    if args.out:
        save_graph(g, part, args.out, meta=meta)
    else:
        sys.stdout.write(json.dumps(meta | {"n": g.n, "edges": len(g.edges)}) + "\n")
    _emit_metadata(
        args,
        {"command": "gen-sbm", "spec": str(args.spec), "seed": args.seed, "p": args.p,
         "out": args.out, "version": __version__},
    )
    return EXIT_OK


def _select_seeds(g, part, sk, args):
    if args.method == "welfare":
        seeds, _ = greedy_welfare(sk, part, args.k, default_params(args.alpha, g.n))
        return seeds, {}
    if args.method == "utilitarian":
        seeds, _ = greedy_utilitarian(sk, part, args.k)
        return seeds, {}
    if args.method == "maximin":
        seeds, gamma = saturate_maximin(sk, part, args.k)
        return seeds, {"gamma": gamma}
    if args.method == "dc":
        bounds = dc_lower_bounds(g, part, args.k, args.sketches, (args.seed, 1))
        seeds, feasible = saturate_dc(sk, part, args.k, bounds)
        return seeds, {"dc_bounds": list(bounds.bounds), "dc_feasible": feasible}
    raise InfeasibleError(f"unknown method '{args.method}'")


def _cmd_select(args) -> int:
    g, part = load_graph(args.graph)
    if args.k == 0:
        from .cascade import UtilityVector

        seeds, extra = SeedSet(frozenset(), 0), {}
        u = UtilityVector((0.0,) * part.num_communities, part.sizes)
    else:
        check_budget(args.k, g.n)
        sk = sample_sketches(g, args.sketches, args.seed)
        seeds, extra = _select_seeds(g, part, sk, args)
        u = estimate_utilities(sk, seeds, part)
    _write_or_print(args, _selection_report(args, part, seeds.vertices, u, extra))
    _emit_metadata(
        args,
        {"command": "select", "graph": str(args.graph), "k": args.k,
         "method": args.method, "alpha": args.alpha, "sketches": args.sketches,
         "seed": args.seed, "format": args.format, "out": args.out,
         "version": __version__},
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = _read_document(args.config)
    kind = doc.get("experiment", "sweep")
    kwargs = {}
    if "sbm" in doc:
        kwargs["sbm"] = load_sbm_spec(doc["sbm"])
    if "graph" in doc:
        kwargs["graph"], kwargs["partition"] = load_graph(doc["graph"])
    for key, check, expected in _SWEEP_FIELDS:
        if key in doc:
            if not check(doc[key]):
                raise GraphFormatError(f"sweep config field '{key}' must be {expected}")
            kwargs[key] = tuple(doc[key]) if isinstance(doc[key], list) else doc[key]
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    if args.sketches is not None:
        kwargs["R"] = args.sketches
    cfg = ExperimentConfig(**kwargs)
    if kind == "sweep":
        rows = run_sweep(cfg)
    elif kind == "connectedness":
        rows = relative_connectedness_experiment(cfg)
    elif kind == "size":
        rows = relative_size_experiment(cfg)
    else:
        raise GraphFormatError(f"unknown experiment kind '{kind}'")
    if args.out:
        rows_to_csv(rows, args.out)
        write_metadata(
            str(args.out) + ".meta.json", cfg,
            extra={"command": "sweep", "experiment": kind, "config": str(args.config)},
        )
    else:
        for r in rows:
            sys.stdout.write(f"{r}\n")
    return EXIT_OK


def _cmd_exact(args) -> int:
    g, part = load_graph(args.graph)
    if args.seeds:
        vertices = _parse_seeds(args.seeds)
        seeds = SeedSet(frozenset(vertices), max(len(vertices), 1))
        u = exact_utilities(g, seeds, part)
        extra = {"utilities_exact": [str(x) for x in u.values]}
        text = _selection_report(args, part, seeds.vertices, u, extra)
    else:
        params = default_params(args.alpha, g.n) if args.method == "welfare" else None
        objective = {"welfare": "welfare", "utilitarian": "total", "maximin": "maximin"}.get(
            args.method
        )
        if objective is None:
            raise InfeasibleError(f"method '{args.method}' has no exact objective")
        seeds, value = exhaustive_opt(g, part, args.k, objective, params)
        u = exact_utilities(g, seeds, part)
        text = _selection_report(
            args, part, seeds.vertices, u, {"objective_value": value}
        )
    _write_or_print(args, text)
    _emit_metadata(
        args,
        {"command": "exact", "graph": str(args.graph), "k": args.k,
         "method": args.method, "alpha": args.alpha,
         "seeds": _parse_seeds(args.seeds) if args.seeds else None,
         "format": args.format, "out": args.out, "version": __version__},
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_all()
    lines = []
    ok = True
    for name, failures in report.items():
        if failures:
            ok = False
            lines.append(f"FAIL {name}")
            lines.extend(f"  {msg}" for msg in failures)
        else:
            lines.append(f"PASS {name}")
    _write_or_print(args, "\n".join(lines) + "\n")
    _emit_metadata(args, {"command": "verify", "out": args.out,
                          "version": __version__})
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_metrics(args) -> int:
    g, part = load_graph(args.graph)
    vertices = _parse_seeds(args.seeds)
    seeds = SeedSet(frozenset(vertices), max(len(vertices), 1))
    seeds.check_ids(g.n)
    sk = sample_sketches(g, args.sketches, args.seed)
    u = estimate_utilities(sk, seeds, part)
    params = default_params(args.alpha, g.n)
    extra = {
        "alpha": args.alpha,
        "welfare": float(welfare(u, params)),
    }
    if args.delta is not None:
        extra["delta"] = args.delta
        extra["dp_satisfied"] = dp_satisfied(u, args.delta)
    _write_or_print(args, _selection_report(args, part, seeds.vertices, u, extra))
    _emit_metadata(
        args,
        {"command": "metrics", "graph": str(args.graph),
         "seeds": vertices, "alpha": args.alpha, "delta": args.delta,
         "sketches": args.sketches, "seed": args.seed, "format": args.format,
         "out": args.out, "version": __version__},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairspread",
        description="Fair influence maximization with isoelastic welfare objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True, out=True, fmt=True):
        if graph:
            p.add_argument("--graph", required=True, help="graph document (JSON)")
        if out:
            p.add_argument("--out", default=None, help="output file (default: stdout)")
        if fmt:
            p.add_argument(
                "--format", choices=("text", "csv", "json"), default="text",
                help="output format (default: text)",
            )

    p = sub.add_parser("gen-sbm", help="sample a stochastic block model graph")
    p.add_argument("--spec", required=True, help="SBM spec document (JSON)")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--p", type=float, default=0.25,
                   help="propagation probability (default: 0.25)")
    common(p, graph=False, fmt=False)
    p.set_defaults(func=_cmd_gen_sbm)

    p = sub.add_parser("select", help="greedy seed selection on sketches")
    common(p)
    p.add_argument("--k", type=int, required=True, help="seed budget")
    p.add_argument(
        "--method", choices=("welfare", "utilitarian", "maximin", "dc"),
        default="welfare", help="selector (default: welfare)",
    )
    p.add_argument("--alpha", type=float, default=0.0,
                   help="inequality aversion for --method welfare (default: 0)")
    p.add_argument("--sketches", type=_positive_int, default=1000,
                   help="number of live-edge sketches (default: 1000)")
    p.add_argument("--seed", type=int, default=0, help="sketch seed (default: 0)")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("sweep", help="run a configured experiment sweep")
    p.add_argument("--config", required=True, help="experiment config document (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--sketches", type=_positive_int, default=None, help="override sketch count")
    common(p, graph=False, fmt=False)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "exact", help="exact utilities for given seeds, or brute-force optimum"
    )
    common(p)
    p.add_argument("seeds", nargs="*", type=_seed_token,
                   help="seed vertex ids (exact utilities mode)")
    p.add_argument("--k", type=int, default=1, help="budget for brute-force mode")
    p.add_argument(
        "--method", choices=("welfare", "utilitarian", "maximin"),
        default="welfare", help="brute-force objective (default: welfare)",
    )
    p.add_argument("--alpha", type=float, default=0.0,
                   help="inequality aversion for welfare (default: 0)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="verify the bundled counterexample fixtures")
    common(p, graph=False, fmt=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("metrics", help="fairness metrics for a given seed set")
    common(p)
    p.add_argument("seeds", nargs="+", type=_seed_token, help="seed vertex ids")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="welfare inequality aversion (default: 0)")
    p.add_argument("--delta", type=float, default=None,
                   help="parity threshold to check (default: none)")
    p.add_argument("--sketches", type=_positive_int, default=1000,
                   help="number of live-edge sketches (default: 1000)")
    p.add_argument("--seed", type=int, default=0, help="sketch seed (default: 0)")
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, GraphFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FILE
    except (InfeasibleError, EnumerationLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
