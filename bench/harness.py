"""Run one workload: timed set-ups, repeated passes over its operations, checks.

A pass calls ``fairspread.cli.main`` once per operation, in order, in
this process.  Untraced passes give the end-to-end metrics; a traced
run alternates untraced and traced passes and gives the per-layer
metrics.  Every pass's outputs are checked: exit code 0, equal to the
stored reference (when the seed has one) on the first pass and equal
to the first pass afterwards, and the workload's own invariants.
Untraced passes and set-ups are also timed against a ``SpeedProbe``
(see ``speed``), which gives the host-speed-normalised times.
"""

from __future__ import annotations

import csv
import gc
import importlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checkout import ROOT, THREAD_VARS
from speed import REFERENCE_PROBE_S, Sampler, SpeedProbe
from tracing import Tracer, self_times, traced_attributes
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
TMP = ROOT / ".bench_tmp"
REFERENCES = HERE / "references"
SETUP_REPEATS = 5
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
# Report fields compared with references; welfare values are left out because
# their scale is free (only their argmax is specified).
REFERENCE_KEYS = ("seeds", "utilities", "total", "gap", "utilities_exact",
                  "objective_value", "dc_bounds", "dc_feasible", "gamma")


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)  # untraced, probes excluded
    pass_norms: list[float] = field(default_factory=list)  # the same, normalised
    traced_walls: list[float] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    setup_norm: float = 0.0  # median sample at the reference probe speed
    probe_s: list[float] = field(default_factory=list)  # every probe of the run
    outputs: dict = field(default_factory=dict)  # first pass, by label
    ops: list[Op] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def load_references(workload: str, seed: int) -> dict:
    path = REFERENCES / f"{workload}.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    return {**refs.get("any", {}), **refs.get(str(seed), {})}


def reference_view(output: dict) -> dict:
    """The part of an output that a reference pins."""
    if "columns" in output:
        return output
    return {k: output[k] for k in REFERENCE_KEYS if k in output}


def _records(table: dict) -> list[dict]:
    return [dict(zip(table["columns"], row)) for row in table["rows"]]


def diff(ref, got, where: str = "") -> list[str]:
    """Mismatches of got against ref; keys or columns absent from ref are ignored."""
    if isinstance(ref, dict) and "columns" in ref and isinstance(got, dict) and "columns" in got:
        return diff(_records(ref), _records(got), where)
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: {got!r} is not a mapping"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}/{key}: missing")
            else:
                out += diff(value, got[key], f"{where}/{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {got!r} != {ref!r}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in diff(r, g, f"{where}[{i}]")]
    return [] if ref == got and type(ref) is type(got) else [f"{where}: {got!r} != {ref!r}"]


def read_output(path: Path):
    """A JSON report, or a CSV table as {"columns": [...], "rows": [[...], ...]}."""
    try:
        text = path.read_text()
        if path.suffix == ".csv":
            header, *rows = csv.reader(io.StringIO(text))
            return {"columns": header, "rows": rows}
        return json.loads(text)
    except (OSError, ValueError):
        return None


def _call(cli, op: Op):
    """Exit code of one operation; None if it raised."""
    try:
        return cli.main(op.argv() if callable(op.argv) else op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return None


def _run_ops(cli, ops: list[Op]) -> dict:
    codes = {}
    for op in ops:
        codes[op.label] = _call(cli, op)
        # Drop the operation's garbage cycles (sketch sets and their evaluators
        # refer to each other), as its own process's exit would: otherwise
        # when they die depends on collector timing, and so does the peak RSS.
        gc.collect()
    return codes


def run_pass(ops: list[Op], tracer: Tracer | None = None,
             probe: SpeedProbe | None = None) -> tuple[float, Sampler | None, dict]:
    """Seconds from the first operation's start to the last one's end, and exit codes.

    Untraced passes (``probe`` given) run under a ``Sampler``; their
    seconds exclude the probes, and the sampler gives the normalised time.
    """
    cli = importlib.import_module("fairspread.cli")
    if tracer:
        with tracer.span("harness.self_s"):
            codes = _run_ops(cli, ops)
        return tracer.spans[0].end - tracer.spans[0].start, None, codes
    with Sampler(probe) as sampler:
        codes = _run_ops(cli, ops)
    return sampler.program_s(), sampler, codes


def _inputs(d: Path) -> dict[str, bytes]:
    """Input files by name; metadata sidecars are skipped as they echo paths."""
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if not p.name.endswith(".meta.json")}


def timed_setups(workload: str, seed: int, scratch: Path, tiny: bool,
                 probe: SpeedProbe, result: RunResult) -> Path:
    """Make the inputs SETUP_REPEATS times, each in a fresh interpreter.

    Each sample is the child's whole life: interpreter start, importing
    fairspread and writing the inputs.  A probe runs before the first
    child and after each one.  Adds samples and problems to ``result``;
    returns the first set-up's inputs.
    """
    dirs, probes = [], [probe.run()]
    for i in range(SETUP_REPEATS):
        d = scratch / f"inputs{i}"
        d.mkdir()
        cmd = [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed), str(d)]
        start = time.perf_counter()
        # No timeout: with one, the wait polls and quantises the sample to 50 ms.
        subprocess.run(cmd + (["--tiny"] if tiny else []), check=True, stdout=subprocess.DEVNULL)
        result.setup_samples.append(time.perf_counter() - start)
        probes.append(probe.run())
        dirs.append(d)
    result.probe_s += probes
    result.setup_norm = (statistics.median(result.setup_samples)
                         * REFERENCE_PROBE_S / statistics.median(probes))
    first = _inputs(dirs[0])
    result.problems += [f"set-up {i} wrote different inputs"
                        for i, d in enumerate(dirs) if _inputs(d) != first]
    return dirs[0]


def _check_pass(work, seed, inputs, ops, codes, outputs, first, references, tiny):
    """Problems per label for one pass."""
    found = {op.label: [] for op in ops}
    for op in ops:
        if codes[op.label] != 0:
            found[op.label].append(f"exit code {codes[op.label]}")
        got = outputs.get(op.label)
        if got is None:
            found[op.label].append("no readable output")
        elif first is not None:
            if got != first.get(op.label):
                found[op.label].append("output differs from the first pass")
        elif op.label in references:
            found[op.label] += diff(references[op.label], got)
    if first is None:
        present = {label: doc for label, doc in outputs.items() if doc is not None}
        try:
            for label, problems in work.check(seed, inputs, present, tiny).items():
                found[label] += problems
        except (KeyError, TypeError, ValueError) as exc:  # outputs lack expected fields
            for label in found:
                found[label].append(f"check failed: {exc!r}")
    return found


def traced_setup(work, seed: int, inputs: Path, tiny: bool, tracer: Tracer) -> dict[str, float]:
    """Make the inputs once in this process under tracing; set-up layer self times."""
    inputs.mkdir()
    with tracer.installed(), tracer.span("setup"):
        work.make_inputs(seed, inputs, tiny)
    setup = self_times(tracer.spans)
    generate = float(setup["graph.generate_sbm_s"])
    return {"setup.generate_sbm_s": generate, "setup.self_s": sum(setup.values()) - generate}


def layer_metrics(result: RunResult, layers: Counter) -> dict[str, float]:
    """Per-layer metrics: self times and counts per traced pass, zero for untouched layers."""
    passes = len(result.traced_walls)
    metrics = {name: 0.0 for name, _ in declared_metrics(True)}
    metrics.update((name, value / passes) for name, value in layers.items())
    picks = metrics.pop("optimize.picks", 0)
    metrics["optimize.evals_per_pick"] = metrics["optimize.gain_evals"] / picks if picks else 0.0
    metrics["traced_wall_s"] = statistics.mean(result.traced_walls)
    metrics["tracing_overhead_s"] = metrics["traced_wall_s"] - statistics.mean(result.pass_walls)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        references: dict | None = None, import_s: float = 0.0) -> RunResult:
    """One benchmark run; passes repeat while the next is expected to end within ``seconds``.

    With ``trace`` the passes alternate untraced and traced, starting untraced.
    """
    work = WORKLOADS[workload]
    if references is None:
        references = {} if tiny else load_references(workload, seed)
    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP))
    result = RunResult(metrics={})
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    layers: Counter = Counter()
    try:
        if trace:
            inputs = scratch / "inputs"
            setup_metrics = traced_setup(work, seed, inputs, tiny, tracer)
        else:
            inputs = timed_setups(workload, seed, scratch, tiny, probe, result)
        out = scratch / "out"
        result.ops = ops = work.operations(seed, inputs, out, tiny)
        first = None
        durations = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            if trace and len(durations) % 2 == 1:
                tracer.reset()
                with tracer.installed():
                    wall, _, codes = run_pass(ops, tracer)
                result.traced_walls.append(wall)
                layers.update(self_times(tracer.spans))
                layers.update(tracer.counts)
            else:
                leftover = traced_attributes()
                if leftover:
                    raise RuntimeError(f"untraced pass sees tracing wrappers: {leftover}")
                wall, sampler, codes = run_pass(ops, probe=probe)
                result.pass_walls.append(wall)
                result.pass_norms.append(sampler.normalised_s())
                result.probe_s += sampler.probe_s()
            outputs = {op.label: read_output(op.out) for op in ops}
            found = _check_pass(work, seed, inputs, ops, codes, outputs, first, references, tiny)
            if first is None:
                first = result.outputs = outputs
                # Later passes reuse a fragmented heap and would tie the peak to the pass count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for label, problems in found.items():
                result.problems += [f"pass {len(durations)} {label}: {p}" for p in problems]
            result.attempted += len(ops)
            result.failed += sum(1 for problems in found.values() if problems)
            durations.append(time.perf_counter() - began)
            enough = len(durations) >= (2 if trace else 1)
            if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    if trace:
        result.metrics = {**layer_metrics(result, layers), **setup_metrics,
                          "setup.import_s": import_s}
    else:
        result.metrics = {
            "wall_norm_s": statistics.median(result.pass_norms),
            "setup_s": result.setup_norm,
            "peak_rss_mb": peak_rss_mb,
        }
    return result


def environment(loadavg_before: tuple[float, ...]) -> dict:
    import numpy
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_before": list(loadavg_before),
        "loadavg_after": list(os.getloadavg()),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
