"""The benchmark's own checks, on tiny sizes of every workload.

Run with: python3 -m pytest bench/tests
"""

import copy
import math
import time
from fractions import Fraction

import pytest

import harness
import speed
import tracing
import workloads
from fairspread import cli, fixtures

NAMES = sorted(workloads.WORKLOADS)


def _declared(trace):
    return {name for name, _ in harness.declared_metrics(trace)}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_pass_through_harness(name):
    result = harness.run(name, seed=0, seconds=0, trace=False, tiny=True)
    assert result.correct, result.problems
    assert result.attempted == len(result.ops) and result.failed == 0
    assert set(result.metrics) == _declared(False)
    assert all(v > 0 for v in result.metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_sum_to_traced_wall(name):
    result = harness.run(name, seed=0, seconds=0, trace=True, tiny=True)
    assert result.correct, result.problems
    assert set(result.metrics) == _declared(True)
    self_s = [v for k, v in result.metrics.items()
              if k.endswith("_s") and not k.startswith("setup.")
              and k not in ("traced_wall_s", "tracing_overhead_s")]
    assert math.isclose(sum(self_s), result.metrics["traced_wall_s"], rel_tol=1e-9)
    assert tracing.traced_attributes() == []


def test_untraced_passes_see_no_wrappers(monkeypatch):
    seen = []
    original = cli.main

    def spy(argv):
        seen.append(tracing.traced_attributes())
        return original(argv)

    monkeypatch.setattr(cli, "main", spy)
    result = harness.run("select-large", seed=0, seconds=0, trace=True, tiny=True)
    ops = len(result.ops)
    # The traced set-up's gen-sbm, then pass 0 (untraced) and pass 1 (traced).
    assert len(seen) == 1 + 2 * ops
    untraced, traced = seen[1:1 + ops], [seen[0], *seen[1 + ops:]]
    assert all(s == [] for s in untraced)
    assert all("cli.load_graph" in s and "DirectedSketchSet.closure" in s for s in traced)
    assert tracing.traced_attributes() == []


def test_perturbed_reference_counts_as_failed_operation():
    first = harness.run("select-large", seed=0, seconds=0, trace=False, tiny=True, references={})
    refs = {label: harness.reference_view(doc) for label, doc in first.outputs.items()}
    assert harness.run("select-large", 0, 0, False, tiny=True, references=refs).correct
    bad = copy.deepcopy(refs)
    bad["select-utilitarian"]["utilities"][0] += 1e-12
    result = harness.run("select-large", 0, 0, False, tiny=True, references=bad)
    assert not result.correct and result.failed == 1
    assert any("select-utilitarian" in p for p in result.problems)


def test_added_fields_are_not_failures():
    ref = {"columns": ["method", "gap"], "rows": [["dc", "0.1"]]}
    got = {"columns": ["method", "feasible", "gap"], "rows": [["dc", "True", "0.1"]]}
    assert harness.diff(ref, got) == []
    assert harness.diff({"seeds": [1, 2]}, {"seeds": [1, 2], "gamma": 0.3}) == []
    assert harness.diff({"seeds": [1, 2]}, {"seeds": [1, 3]}) != []
    assert harness.diff(ref, {"columns": ["method"], "rows": [["dc"]]}) != []


def test_independent_enumerator_matches_fixture_rationals():
    fx = fixtures.load_fixture("exact_parity_dominated")
    doc = {"n": fx.graph.n, "directed": fx.graph.directed, "p": fx.graph.p,
           "edges": [list(e) for e in fx.graph.edges], "communities": list(fx.partition.labels)}
    got = workloads.exact_by_enumeration(doc, sorted(fx.seed_sets["dominant"].vertices))
    assert got == [Fraction(11, 20), Fraction(7, 20)]


def test_self_times_subtract_children():
    spans = [tracing.Span("a", 0.0, 10.0, -1), tracing.Span("b", 1.0, 4.0, 0),
             tracing.Span("c", 2.0, 3.0, 1), tracing.Span("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_sampler_scales_program_time_by_probe_speed():
    class SlowProbe:  # a host at half the reference speed
        def run(self):
            time.sleep(2 * speed.REFERENCE_PROBE_S)

    with speed.Sampler(SlowProbe()) as sampler:
        time.sleep(0.6)  # the timer's probes interrupt the sleep, which resumes
    assert len(sampler.samples) >= 3
    assert math.isclose(sampler.program_s(), 0.6, rel_tol=0.1)
    assert math.isclose(sampler.normalised_s(), sampler.program_s() / 2, rel_tol=0.1)
