"""fairspread benchmark.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON line describing the run (seed, pass times raw and
normalised, raw set-up samples and their normalised median, quartiles
of the speed probe, problems, environment) and, as the last line, the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end-to-end metrics, with --trace 1 its
per-layer metrics.  Exits non-zero without a result when the checkout
holds no fairspread sources.
"""

import argparse
import json
import os
import statistics
import sys

import checkout


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "quartiles": values}
    return {"n": len(values), "quartiles": statistics.quantiles(values, n=4)}


def main() -> int:
    parser = argparse.ArgumentParser(description="fairspread benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    loadavg_before = os.getloadavg()
    import_s = checkout.prepare()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    trace = bool(args.trace)
    result = harness.run(args.workload, args.seed, args.seconds, trace, import_s=import_s)
    for problem in result.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "pass_walls": result.pass_walls,
        "pass_norms": result.pass_norms, "traced_walls": result.traced_walls,
        "setup_samples": result.setup_samples, "setup_norm": result.setup_norm,
        "probe_s": _quartiles(result.probe_s),
        "problems": len(result.problems), "env": harness.environment(loadavg_before),
    }
    print(json.dumps(record))
    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit in harness.declared_metrics(trace)}
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
