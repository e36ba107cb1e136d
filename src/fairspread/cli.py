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
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .cascade import UtilityVector, estimate_utilities, exact_utilities, sample_sketches
from .errors import EnumerationLimitError, GraphFormatError, InfeasibleError
from .experiments import (
    ExperimentConfig,
    relative_connectedness_experiment,
    relative_size_experiment,
    rows_to_csv,
    run_sweep,
)
from .fixtures import verify_all
from .graph import (
    Graph,
    SeedSet,
    _read_document,
    generate_sbm,
    load_graph,
    load_sbm_spec,
    save_graph,
)
from .optimize import METHODS, check_budget, exhaustive_opt, select_seeds
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
    """The resolved configuration and the version, beside --out or to stderr."""
    doc = {key: value for key, value in resolved.items() if key != "func"}
    text = json.dumps(doc | {"version": __version__}, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out + ".meta.json").write_text(text)
    else:
        sys.stderr.write(text)


def _write_or_print(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _seed_token(tok: str) -> list[int]:
    """One seeds argument: vertex ids separated by commas."""
    try:
        return [int(piece) for piece in tok.split(",") if piece]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed token {tok!r}") from None


def _int_at_least(low: int, kind: str):
    """An argparse type: an integer of at least low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not a {kind} integer")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")  # numpy rejects negative seeds


def _float_accepted_by(check):
    """An argparse type: a float that check accepts, else a usage error."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        try:
            check(value)
        except GraphFormatError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


_alpha = _float_accepted_by(lambda alpha: default_params(alpha, 1))
_delta = _float_accepted_by(lambda delta: dp_satisfied(UtilityVector((0.0,), (1,)), delta))
_p = _float_accepted_by(lambda p: Graph(n=0, edges=(), p=p))


class _FlattenSeeds(argparse.Action):
    """Seed tokens as one list of vertex ids; None when no token is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, [v for tok in values for v in tok] if values else None)


# The ExperimentConfig fields a sweep config sets as plain values.
_KNOBS = tuple(f.name for f in fields(ExperimentConfig)
               if f.name not in ("sbm", "graph", "partition"))


def _csv_cell(value) -> str:
    """One CSV cell: lists space-joined; str of a float is its shortest repr."""
    if isinstance(value, list):
        return " ".join(_csv_cell(v) for v in value)
    return str(value)


def _selection_report(args, seeds, u, extra: dict) -> str:
    """A select, exact or metrics report in args.format, extra keys last."""
    values = u.as_floats()
    doc = {"seeds": sorted(seeds), "utilities": list(values),
           "total": float(total_influence(u)), "gap": float(utility_gap(u))} | extra
    if args.format == "json":
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.format == "csv":
        cells = {key: doc[key] for key in ("seeds", "total", "gap")}
        cells |= {f"u_{c}": v for c, v in enumerate(values)} | extra
        return ",".join(cells) + "\n" + ",".join(map(_csv_cell, cells.values())) + "\n"
    return "".join(f"{key}: {val}\n" for key, val in doc.items())


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
    _emit_metadata(args, vars(args))
    return EXIT_OK


def _cmd_select(args) -> int:
    g, part = load_graph(args.graph)
    if args.k == 0:
        seeds, extra = SeedSet(frozenset(), 0), {}
        u = UtilityVector((0.0,) * part.num_communities, part.sizes)
    else:
        check_budget(args.k, g.n)
        sk = sample_sketches(g, args.sketches, args.seed)
        seeds, u, extra = select_seeds(sk, part, args.k, args.method, args.alpha)
    _write_or_print(args, _selection_report(args, seeds.vertices, u, extra))
    _emit_metadata(args, vars(args))
    return EXIT_OK


def _sweep_knobs(cfg: ExperimentConfig) -> dict:
    """The resolved sweep configuration; a fixed graph is known by its config file."""
    doc = {key: getattr(cfg, key) for key in _KNOBS}
    if cfg.sbm is not None:
        doc["sbm"] = asdict(cfg.sbm)
    return doc


def _cmd_sweep(args) -> int:
    doc = _read_document(args.config)
    for key in doc:
        if key not in ("experiment", "sbm", "graph", *_KNOBS):
            raise GraphFormatError(f"unknown sweep config field '{key}'")
    kind = doc.get("experiment", "sweep")
    kwargs = {}
    if "sbm" in doc:
        kwargs["sbm"] = load_sbm_spec(doc["sbm"])
    if "graph" in doc:
        kwargs["graph"], kwargs["partition"] = load_graph(doc["graph"])
    for key in _KNOBS:
        if key in doc:
            kwargs[key] = tuple(doc[key]) if isinstance(doc[key], list) else doc[key]
    cfg = ExperimentConfig(**kwargs)  # the document is checked as written
    flags = {"master_seed": args.seed, "R": args.sketches}
    cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})
    if kind == "sweep":
        rows = run_sweep(cfg)
    elif kind == "connectedness":
        rows = relative_connectedness_experiment(cfg)
    elif kind == "size":
        rows = relative_size_experiment(cfg)
    else:
        raise GraphFormatError(f"unknown experiment kind '{kind}'")
    _write_or_print(args, rows_to_csv(rows))
    _emit_metadata(
        args, _sweep_knobs(cfg) | {"command": "sweep", "experiment": kind, "config": args.config}
    )
    return EXIT_OK


def _cmd_exact(args) -> int:
    g, part = load_graph(args.graph)
    if args.seeds is not None:
        seeds = SeedSet(frozenset(args.seeds), max(len(args.seeds), 1))
        u = exact_utilities(g, seeds, part)
        extra = {"utilities_exact": [str(x) for x in u.values]}
        text = _selection_report(args, seeds.vertices, u, extra)
    else:
        params = default_params(args.alpha, g.n) if args.method == "welfare" else None
        objective = {"welfare": "welfare", "utilitarian": "total", "maximin": "maximin"}
        seeds, value, u = exhaustive_opt(g, part, args.k, objective[args.method], params)
        text = _selection_report(args, seeds.vertices, u, {"objective_value": value})
    _write_or_print(args, text)
    _emit_metadata(args, vars(args))
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
    _emit_metadata(args, vars(args))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_metrics(args) -> int:
    g, part = load_graph(args.graph)
    seeds = SeedSet(frozenset(args.seeds), max(len(args.seeds), 1))
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
    _write_or_print(args, _selection_report(args, seeds.vertices, u, extra))
    _emit_metadata(args, vars(args))
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
    p.add_argument("--seed", type=_nonnegative_int, required=True, help="generator seed")
    p.add_argument("--p", type=_p, default=0.25,
                   help="propagation probability (default: 0.25)")
    common(p, graph=False, fmt=False)
    p.set_defaults(func=_cmd_gen_sbm)

    p = sub.add_parser("select", help="greedy seed selection on sketches")
    common(p)
    p.add_argument("--k", type=int, required=True, help="seed budget")
    p.add_argument("--method", choices=METHODS, default="welfare",
                   help="selector (default: welfare)")
    p.add_argument("--alpha", type=_alpha, default=0.0,
                   help="inequality aversion for --method welfare (default: 0)")
    p.add_argument("--sketches", type=_positive_int, default=1000,
                   help="number of live-edge sketches (default: 1000)")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="sketch seed (default: 0)")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("sweep", help="run a configured experiment sweep")
    p.add_argument("--config", required=True, help="experiment config document (JSON)")
    p.add_argument("--seed", type=_nonnegative_int, default=None, help="override master seed")
    p.add_argument("--sketches", type=_positive_int, default=None, help="override sketch count")
    common(p, graph=False, fmt=False)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "exact", help="exact utilities for given seeds, or brute-force optimum"
    )
    common(p)
    p.add_argument("seeds", nargs="*", type=_seed_token, action=_FlattenSeeds,
                   help="seed vertex ids (exact utilities mode)")
    p.add_argument("--k", type=int, default=1, help="budget for brute-force mode")
    p.add_argument(
        "--method", choices=("welfare", "utilitarian", "maximin"),
        default="welfare", help="brute-force objective (default: welfare)",
    )
    p.add_argument("--alpha", type=_alpha, default=0.0,
                   help="inequality aversion for welfare (default: 0)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="verify the bundled counterexample fixtures")
    common(p, graph=False, fmt=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("metrics", help="fairness metrics for a given seed set")
    common(p)
    p.add_argument("seeds", nargs="+", type=_seed_token, action=_FlattenSeeds,
                   help="seed vertex ids")
    p.add_argument("--alpha", type=_alpha, default=0.0,
                   help="welfare inequality aversion (default: 0)")
    p.add_argument("--delta", type=_delta, default=None,
                   help="parity threshold to check (default: none)")
    p.add_argument("--sketches", type=_positive_int, default=1000,
                   help="number of live-edge sketches (default: 1000)")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="sketch seed (default: 0)")
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
