"""Bundled counterexample fixture tests."""

import dataclasses
from fractions import Fraction

import pytest

from fairspread.cascade import estimate_utilities, sample_sketches
from fairspread.errors import GraphFormatError
from fairspread.fixtures import (
    EXPECTED_UTILITIES,
    FIXTURE_NAMES,
    build_parity_nonmonotonic_directed,
    fixture_exact_utilities,
    load_fixture,
    verify_all,
    verify_fixture,
)
from fairspread.welfare import check_monotonicity_preference, dp_satisfied


def test_all_fixtures_verify_clean():
    report = verify_all()
    assert set(report) == set(FIXTURE_NAMES)
    for name, failures in report.items():
        assert failures == [], f"{name}: {failures}"


def test_load_fixture_unknown_name():
    with pytest.raises(GraphFormatError):
        load_fixture("no_such_fixture")


def test_fixture_documents_are_valid_graph_files():
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        assert fx.graph.n == len(fx.partition.labels)
        assert all(len(s.vertices) <= fx.params["k"] for s in fx.seed_sets.values())


def test_expected_tables_cover_every_seed_set():
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        assert set(EXPECTED_UTILITIES[name]) == set(fx.seed_sets)


def test_verify_fixture_detects_tampering():
    fx = load_fixture("exact_parity_dominated")
    # utilities no longer match the reference values
    bad = dataclasses.replace(fx, graph=dataclasses.replace(fx.graph, p=0.9))
    assert verify_fixture("exact_parity_dominated", bad) != []


def test_parity_builder_rejects_bad_parameters():
    with pytest.raises(GraphFormatError):
        build_parity_nonmonotonic_directed(n_comm=10, p=0.5, delta=0.235)
    with pytest.raises(GraphFormatError):
        build_parity_nonmonotonic_directed(n_comm=4, p=0.35, delta=0.235)


def test_parity_counterexample_scales_to_small_delta():
    # same construction at delta=0.05, p in (delta, sqrt(delta)), n per
    # the stated bound; too many arcs for enumeration, so check the
    # closed-form values by Monte Carlo
    fx = build_parity_nonmonotonic_directed(n_comm=26, p=0.1, delta=0.05)
    sk = sample_sketches(fx.graph, 40000, 0)
    u_dom = estimate_utilities(sk, fx.seed_sets["dominant"], fx.partition)
    u_par = estimate_utilities(sk, fx.seed_sets["parity"], fx.partition)
    n, p = 26, 0.1
    expected_dom = ((1 + (n - 1) * p) / n, (1 + 2 * p) / n)
    expected_par = ((1 + p + (n - 2) * p * p) / n, (1 + 2 * p * p) / n)
    for got, want in zip(u_dom.values + u_par.values, expected_dom + expected_par):
        assert got == pytest.approx(want, abs=0.01)
    verdict = check_monotonicity_preference(u_par, u_dom)
    assert verdict.applicable and verdict.preferred == "second"
    assert dp_satisfied(u_par, 0.05) and not dp_satisfied(u_dom, 0.05)


def test_gap_conflict_exact_values_are_rational():
    fx = load_fixture("gap_reduction_conflict")
    utils = fixture_exact_utilities(fx)
    assert utils["small_gap"].values == (
        Fraction(3, 10),
        Fraction(7, 10),
        Fraction(4, 5),
    )
    assert all(isinstance(x, Fraction) for x in utils["large_gap"].values)


def test_data_files_have_meta_description():
    # the description and seed sets once stored in each data file's meta block
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        assert fx.name == name
        assert fx.description
        assert fx.seed_sets
