"""Bundled counterexample fixture tests."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from fairspread.cascade import estimate_utilities, sample_sketches
from fairspread.cli import main
from fairspread.errors import GraphFormatError
from fairspread.fixtures import (
    FIXTURE_NAMES,
    build_parity_nonmonotonic_directed,
    fixture_exact_utilities,
    load_fixture,
    verify_all,
    verify_fixture,
)
from fairspread.graph import save_graph
from fairspread.welfare import check_monotonicity_preference, dp_satisfied

# sha256 of each fixture's graph document, seed sets, params, description
# and exact utilities (see _fixture_digest).  verify checks the utilities
# and one property per fixture; these catch any other change to an instance.
FIXTURE_DIGESTS = {
    "gap_reduction_conflict":
        "2187bba4e4b2b408d05a4e06c1d233db38c03888bd78ba5af53f1a7698e59f50",
    "proportional_constraint_conflict":
        "8414e85f23300e582df0a3932d180dd38fe51603693edecf00a56b7405d4bb90",
    "parity_nonmonotonic_directed":
        "de113e80f6eb498956d3ac690fd59ce895aef2eb53b5bfa72416a856bc13c83c",
    "parity_context_dependence":
        "2c92f84a9a03ca2a76298f032aadf02f0f13a00e9690adeac8ec78af15cd20c0",
    "exact_parity_dominated":
        "672361e8b72f15d29ac2aab89548d0081b728290c85cbc8b1385a9518432f23b",
    "maximin_gap_increase":
        "dfcea5490a0e7d32b980e4cec3a51240d9865234b5ff17fc718888f17b4de7fb",
}


def _fixture_digest(fx, path) -> str:
    save_graph(fx.graph, fx.partition, path)
    rest = {
        "seed_sets": [[s, sorted(v.vertices), v.k] for s, v in fx.seed_sets.items()],
        "params": {key: repr(value) for key, value in fx.params.items()},
        "description": fx.description,
        "expected": {s: [repr(x) for x in utils] for s, utils in fx.expected.items()},
    }
    return hashlib.sha256(path.read_bytes() + json.dumps(rest).encode()).hexdigest()


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
        assert set(fx.expected) == set(fx.seed_sets)


def test_fixtures_match_pinned_digests(tmp_path, capsys):
    digests = {name: _fixture_digest(load_fixture(name), tmp_path / f"{name}.json")
               for name in FIXTURE_NAMES}
    assert digests == FIXTURE_DIGESTS
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == "".join(f"PASS {name}\n" for name in FIXTURE_NAMES)


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


def test_parity_closed_form_matches_the_default_values():
    fx = build_parity_nonmonotonic_directed()
    assert fx.expected == {
        "dominant": (Fraction(83, 200), Fraction(17, 100)),
        "parity": (Fraction(233, 1000), Fraction(249, 2000)),
    }


def test_parity_closed_form_verifies_off_the_default():
    # 20 coins, within the exact oracle's limit
    fx = build_parity_nonmonotonic_directed(10, 0.3, 0.2)
    assert fx.expected["dominant"] == (Fraction(37, 100), Fraction(16, 100))
    assert verify_fixture("parity_nonmonotonic_directed", fx) == []


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
