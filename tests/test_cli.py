"""CLI surface tests via the in-process entry point."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairspread import __version__, cascade, cli, experiments
from fairspread.cli import main


@pytest.fixture()
def graph_file(tmp_path):
    doc = {
        "n": 10,
        "directed": False,
        "p": 0.5,
        "edges": [[0, 1], [0, 2], [0, 3], [4, 5], [6, 7]],
        "communities": [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"community_sizes": [20, 20], "within_prob": 0.1, "between_prob": 0.02}
        )
    )
    return path


def test_gen_sbm_writes_graph_and_metadata(tmp_path, spec_file):
    out = tmp_path / "sbm.json"
    rc = main(["gen-sbm", "--spec", str(spec_file), "--seed", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 40
    assert doc["meta"]["seed"] == 3
    meta = json.loads((tmp_path / "sbm.json.meta.json").read_text())
    assert meta["command"] == "gen-sbm"
    assert meta["p"] == 0.25  # defaults are echoed


def test_gen_sbm_byte_identical_reruns(tmp_path, spec_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["gen-sbm", "--spec", str(spec_file), "--seed", "5", "--out", str(out1)])
    main(["gen-sbm", "--spec", str(spec_file), "--seed", "5", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_select_text_output(graph_file, capsys):
    rc = main(
        ["select", "--graph", str(graph_file), "--k", "2", "--alpha", "-2",
         "--sketches", "200", "--seed", "7"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("seeds: [")
    assert "gap:" in out and "total:" in out


def test_select_zero_budget(graph_file, capsys):
    rc = main(["select", "--graph", str(graph_file), "--k", "0", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seeds"] == []
    assert doc["utilities"] == [0.0, 0.0]


def test_select_every_method(graph_file, capsys):
    for method in ("welfare", "utilitarian", "maximin", "dc"):
        rc = main(
            ["select", "--graph", str(graph_file), "--k", "2", "--method", method,
             "--sketches", "100", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["seeds"]) == 2


def test_select_deterministic_output_files(graph_file, tmp_path):
    args = ["select", "--graph", str(graph_file), "--k", "3", "--sketches", "150",
            "--seed", "9", "--format", "csv"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_select_csv_keeps_method_outputs(graph_file, capsys):
    expected = {"maximin": ["gamma"], "dc": ["dc_bounds", "dc_feasible"]}
    for method, keys in expected.items():
        argv = ["select", "--graph", str(graph_file), "--k", "2", "--method", method,
                "--sketches", "100", "--seed", "3"]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
        cells = dict(zip(header, row))
        assert header[-len(keys):] == keys
        assert cells["seeds"] == " ".join(map(str, doc["seeds"]))
        for key in keys:
            value = doc[key]
            if isinstance(value, list):
                assert [float(x) for x in cells[key].split(" ")] == value
            else:
                assert cells[key] == str(value)


def test_exact_seed_utilities(graph_file, capsys):
    rc = main(["exact", "--graph", str(graph_file), "4", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["utilities_exact"][1] == "1/4"  # (1 + 1/2) / 6


def test_exact_bruteforce_mode(graph_file, capsys):
    rc = main(
        ["exact", "--graph", str(graph_file), "--k", "1", "--method", "utilitarian",
         "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seeds"] == [0]  # star center maximizes total spread


def test_exact_bruteforce_mode_enumerates_once(graph_file, capsys, monkeypatch):
    # The winner's utilities come from the enumeration that chose it: one
    # build of the live-edge subsets, and the exact utilities of its seeds.
    builds = []
    init = cascade._LiveEdgeSubsets.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(cascade._LiveEdgeSubsets, "__init__", counted)
    argv = ["exact", "--graph", str(graph_file), "--format", "json"]
    assert main([*argv, "--k", "2", "--method", "maximin"]) == 0
    assert len(builds) == 1
    doc = json.loads(capsys.readouterr().out)
    assert main([*argv, *map(str, doc["seeds"])]) == 0
    assert json.loads(capsys.readouterr().out)["utilities"] == doc["utilities"]


@pytest.mark.parametrize(
    "k, message", [("-1", "budget must be >= 0"), ("11", "budget 11 exceeds vertex count 10")]
)
def test_exact_rejects_infeasible_budget(graph_file, capsys, k, message):
    rc = main(["exact", "--graph", str(graph_file), "--k", k, "--method", "maximin"])
    assert rc == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_metrics_with_delta(graph_file, capsys):
    rc = main(
        ["metrics", "--graph", str(graph_file), "0", "4", "--alpha", "0",
         "--delta", "0.5", "--sketches", "200"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "welfare:" in out
    assert "dp_satisfied:" in out


def test_sweep_writes_csv_and_metadata(tmp_path, capsys):
    cfg = {
        "experiment": "sweep",
        "sbm": {"community_sizes": [20, 20], "within_prob": [0.1, 0.05],
                "between_prob": 0.02},
        "budgets": [4],
        "alphas": [-2.0],
        "baselines": ["utilitarian"],
        "replications": 2,
        "master_seed": 1,
        "R": 100,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,replication,method,k,alpha,gap,pof,total,u_0")
    assert len(lines) > 1
    meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
    assert meta["master_seed"] == 1 and meta["experiment"] == "sweep"
    assert "threads" not in meta


def _meta_text(doc: dict) -> str:
    return json.dumps(doc | {"version": __version__}, indent=1, sort_keys=True) + "\n"


def test_metadata_echoes_every_option(graph_file, spec_file, tmp_path, capsys):
    g = str(graph_file)
    report = {"alpha": 0.0, "format": "text", "graph": g}
    select = report | {"command": "select", "k": 2, "sketches": 30, "seed": 0}
    exact = report | {"command": "exact", "k": 1, "method": "welfare"}
    runs = [
        (["gen-sbm", "--spec", str(spec_file), "--seed", "3"],
         {"command": "gen-sbm", "p": 0.25, "seed": 3, "spec": str(spec_file)}),
        *((["select", "--graph", g, "--k", "2", "--method", method, "--sketches", "30"],
           select | {"method": method}) for method in ("welfare", "utilitarian", "maximin", "dc")),
        (["exact", "--graph", g, "0,4", "6"], exact | {"seeds": [0, 4, 6]}),
        (["exact", "--graph", g, "--method", "welfare"], exact | {"seeds": None}),
        (["metrics", "--graph", g, "0", "4", "--delta", "0.5", "--sketches", "30"],
         report | {"command": "metrics", "delta": 0.5, "seed": 0, "seeds": [0, 4],
                   "sketches": 30}),
        (["verify"], {"command": "verify"}),
    ]
    for i, (argv, doc) in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 0
        meta = tmp_path / f"out{i}.meta.json"
        assert meta.read_text() == _meta_text(doc | {"out": str(out)})
        assert main(argv) == 0  # without --out the same document goes to stderr
        assert capsys.readouterr().err == _meta_text(doc | {"out": None})


def test_sweep_without_out_prints_csv_and_metadata(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**_SWEEP_CONFIG, "baselines": ["maximin", "dc"]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    meta = (tmp_path / "rows.csv.meta.json").read_text()
    assert meta == _meta_text({
        "R": 20, "alphas": [-2.0], "baselines": ["maximin", "dc"], "budgets": [2],
        "command": "sweep", "config": str(config), "experiment": "sweep", "master_seed": 0,
        "p": 0.25, "replications": 1,
        "sbm": {"between_prob": [[0.2, 0.05], [0.05, 0.2]], "community_sizes": [8, 8],
                "within_prob": [0.2, 0.2]},
    })
    capsys.readouterr()
    assert main(["sweep", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_bytes().decode()
    assert "\r\n" in captured.out  # csv.writer's line ends, as in the file
    assert captured.err == meta


def test_verify_passes_on_bundled_fixtures(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_missing_file_exit_code(capsys):
    rc = main(["select", "--graph", "nope.json", "--k", "1"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_infeasible_exit_code(graph_file, capsys):
    rc = main(["select", "--graph", str(graph_file), "--k", "99"])
    assert rc == 4


def test_enumeration_limit_exit_code(tmp_path, capsys):
    doc = {
        "n": 30,
        "directed": False,
        "p": 0.5,
        "edges": [[0, v] for v in range(1, 30)],
        "communities": [0] * 30,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    rc = main(["exact", "--graph", str(path), "0"])
    assert rc == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["select", "--bogus"])
    assert exc.value.code == 2


def test_threads_option_removed(graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--graph", str(graph_file), "--k", "1", "--threads", "2"])
    assert exc.value.code == 2


def test_coerced_graph_field_exit_code(tmp_path, capsys):
    doc = {"n": 2, "directed": "false", "p": 0.5, "edges": [[0, 1]], "communities": [0, 0]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    rc = main(["exact", "--graph", str(path), "0"])
    assert rc == 3
    assert "directed" in capsys.readouterr().err


def test_malformed_sbm_spec_exit_code(tmp_path, capsys):
    path = tmp_path / "spec.json"
    for sizes in ([3.7, 4], []):
        path.write_text(json.dumps(
            {"community_sizes": sizes, "within_prob": 0.5, "between_prob": 0.1}
        ))
        rc = main(["gen-sbm", "--spec", str(path), "--seed", "0"])
        assert rc == 3
        assert "'community_sizes'" in capsys.readouterr().err


_SWEEP_CONFIG = {
    "experiment": "sweep",
    "sbm": {"community_sizes": [8, 8], "within_prob": 0.2, "between_prob": 0.05},
    "budgets": [2],
    "alphas": [-2.0],
    "replications": 1,
    "R": 20,
}

# A path, a triangle and an isolated vertex over two communities.
_SWEEP_GRAPH = {"n": 7, "directed": False, "p": 0.4,
                "edges": [[0, 1], [1, 2], [3, 4], [4, 5], [3, 5]],
                "communities": [0, 0, 0, 1, 1, 1, 1]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"budgets": 2}, "'budgets'"),
        ({"budgets": [2.5]}, "'budgets'"),
        ({"alphas": ["-2"]}, "'alphas'"),
        ({"baselines": "utilitarian"}, "'baselines'"),
        ({"replications": "1"}, "'replications'"),
        ({"master_seed": [1, 2]}, "'master_seed'"),
        ({"R": 2.5}, "'R'"),
        ({"p": "0.3"}, "'p'"),
        ({"sbm": {"community_sizes": [8, 8], "within_prob": True, "between_prob": 0.05}},
         "'within_prob'"),
        ({"sbm": 5}, "expected a document"),
        ({"graph": {"n": 2, "directed": False, "p": 0.5, "edges": [], "communities": [0, 0]}},
         "exactly one of sbm or graph"),
        ({"master_seed": -3}, "'master_seed'"),
        ({"alphas": [-2.0, 1.5]}, "alpha must be < 1, got 1.5"),
        ({"budgets": [2, 0]}, "budget must be >= 1"),
        ({"R": 0}, "sketch count must be >= 1"),
        ({"budgets": []}, "at least one budget"),
        ({"alphas": [], "baselines": []}, "at least one alpha or baseline"),
        ({"p": 1.5}, "propagation probability 1.5 outside [0, 1]"),
        ({"p": -0.25}, "propagation probability -0.25 outside [0, 1]"),
        # A None value removes the key: a fixed graph runs at its own p.
        ({"sbm": None, "p": 0.9, "graph": _SWEEP_GRAPH}, "p must not be given with a fixed"),
        # Each study varies an SBM with a fixed community count.
        ({"experiment": "connectedness", "sbm": None, "graph": _SWEEP_GRAPH},
         "the connectedness study needs an sbm with 3 communities"),
        ({"experiment": "size", "sbm": None, "graph": _SWEEP_GRAPH},
         "the size study needs an sbm with 2 communities"),
        ({"experiment": "connectedness",
          "sbm": {"community_sizes": [8], "within_prob": 0.2, "between_prob": 0.05}},
         "the connectedness study needs an sbm with 3 communities"),
        ({"experiment": "connectedness",
          "sbm": {"community_sizes": [4] * 4, "within_prob": 0.2, "between_prob": 0.05}},
         "the connectedness study needs an sbm with 3 communities"),
        ({"experiment": "size",
          "sbm": {"community_sizes": [5] * 3, "within_prob": 0.2, "between_prob": 0.05}},
         "the size study needs an sbm with 2 communities"),
        # The size study sets each level's budget itself.
        ({"experiment": "size"}, "the size study sets each level's budget"),
        ({"experiment": "connectedness", "budgets": None,
          "sbm": {"community_sizes": [5] * 3, "within_prob": 0.2, "between_prob": 0.05}},
         "budget 30 exceeds vertex count 15"),
        # A misspelt field is refused, not left at its default.
        ({"replication": 1}, "unknown sweep config field 'replication'"),
        ({"partition": [0] * 16}, "unknown sweep config field 'partition'"),
        # An SBM needs at least one community.
        ({"sbm": {"community_sizes": [], "within_prob": 0.2, "between_prob": 0.05}},
         "'community_sizes' must list at least one community"),
        # -inf is the leximin limit, not an alpha.
        ({"alphas": [float("-inf"), -2.0]}, "alpha must be finite, got -inf"),
    ],
)
def test_malformed_sweep_config_exit_code(tmp_path, capsys, monkeypatch, change, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SWEEP_CONFIG))
    assert main(["sweep", "--config", str(path)]) == 0  # the unmodified config is valid
    doc = {key: value for key, value in {**_SWEEP_CONFIG, **change}.items() if value is not None}
    path.write_text(json.dumps(doc))
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("a graph was generated or sketched before the config was checked")

    monkeypatch.setattr(experiments, "generate_sbm", no_work)
    monkeypatch.setattr(experiments, "sample_sketches", no_work)
    # An infeasible budget exits 4, as it does for select; any other fault is a format error.
    assert main(["sweep", "--config", str(path)]) == (4 if message.startswith("budget") else 3)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, key, value", [("--sketches", "R", 2.5),
                                              ("--seed", "master_seed", -3)])
def test_sweep_flags_do_not_hide_a_malformed_config_field(tmp_path, capsys, flag, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_SWEEP_CONFIG, key: value}))
    assert main(["sweep", "--config", str(path), flag, "10"]) == 3
    assert f"sweep config field '{key}'" in capsys.readouterr().err


def test_size_study_on_a_small_sbm_needs_no_budgets(tmp_path):
    # Budgets default to 30, above n = 20, but the size study never runs them.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "size",
        "sbm": {"community_sizes": [10, 10], "within_prob": 0.2, "between_prob": 0.05},
        "alphas": [], "replications": 1, "R": 10,
    }))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert "ratio=9,0,utilitarian,10," in out.read_text()


def test_fixed_graph_sweep_records_the_graphs_p(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    doc = {key: value for key, value in _SWEEP_CONFIG.items() if key != "sbm"}
    config.write_text(json.dumps(doc | {"graph": _SWEEP_GRAPH}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
    assert meta["p"] == 0.4 and "sbm" not in meta
    # The sketches use the graph's p: a graph at p = 0 covers only the seeds.
    config.write_text(json.dumps(doc | {"graph": _SWEEP_GRAPH | {"p": 0.0}}))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((tmp_path / "rows.csv.meta.json").read_text())["p"] == 0.0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {float(r["total"]) for r in rows if r["replication"] == "0"} == {2.0}


def test_sweep_config_root_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([_SWEEP_CONFIG]))
    assert main(["sweep", "--config", str(path)]) == 3
    assert "root must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "x"],
        ["exact", "0,x"],
        ["exact", "0", "1.5"],
        ["metrics", "x"],
        ["metrics", "0,,y"],
    ],
)
def test_bad_seed_token_is_usage_error(graph_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--graph", str(graph_file), *argv[1:]])
    assert exc.value.code == 2
    assert "invalid seed token" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "metrics", "sweep"])
@pytest.mark.parametrize("count", ["0", "-3", "x"])
def test_sketch_count_must_be_positive(capsys, command, count):
    # The input does not exist, so a count checked only after reading it
    # would exit 3; a parse-time check exits 2 first.
    argv = {
        "select": ["select", "--graph", "missing.json", "--k", "1"],
        "metrics": ["metrics", "--graph", "missing.json", "0"],
        "sweep": ["sweep", "--config", "missing.json"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--sketches", count])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--sketches" in err
    assert ("invalid int value" if count == "x" else "is not a positive integer") in err


_BAD_VALUES = {"--alpha": ("1", "1.5", "nan", "-inf", "x"), "--delta": ("-0.5", "1", "nan", "x"),
               "--p": ("-0.25", "1.5", "nan", "x")}
_BAD_VALUE_MESSAGES = {"--alpha": "alpha must be", "--delta": "delta must be",
                       "--p": "propagation probability"}


@pytest.mark.parametrize(
    "command, flag, value",
    [(command, flag, value)
     for command, flag in (("select", "--alpha"), ("exact", "--alpha"),
                           ("metrics", "--alpha"), ("metrics", "--delta"),
                           ("gen-sbm", "--p"))
     for value in _BAD_VALUES[flag]],
)
def test_alpha_and_delta_are_checked_at_parse_time(capsys, command, flag, value):
    # As for --sketches: the input does not exist, so a value checked only
    # after reading it would exit 3; a parse-time check exits 2 first.
    argv = {
        "select": ["select", "--graph", "missing.json", "--k", "1"],
        "exact": ["exact", "--graph", "missing.json"],
        "metrics": ["metrics", "--graph", "missing.json", "0"],
        "gen-sbm": ["gen-sbm", "--spec", "missing.json", "--seed", "0"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}={value}"])  # "--alpha -inf" would read -inf as an option
    assert exc.value.code == 2
    err = capsys.readouterr().err
    expected = "invalid float value" if value == "x" else _BAD_VALUE_MESSAGES[flag]
    assert flag in err and expected in err


@pytest.mark.parametrize("command", ["gen-sbm", "select", "metrics", "sweep"])
def test_negative_seed_is_usage_error(capsys, command):
    # As for --sketches: the input does not exist, so only a parse-time
    # check exits 2.
    argv = {
        "gen-sbm": ["gen-sbm", "--spec", "missing.json"],
        "select": ["select", "--graph", "missing.json", "--k", "1"],
        "metrics": ["metrics", "--graph", "missing.json", "0"],
        "sweep": ["sweep", "--config", "missing.json"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "-1 is not a non-negative integer" in err


def test_seeds_of_any_size_run(graph_file, spec_file, tmp_path, capsys):
    big = "99999999999999999999999"  # three uint32 words
    assert main(["gen-sbm", "--spec", str(spec_file), "--seed", big,
                 "--out", str(tmp_path / "big.json")]) == 0
    for argv in (["select", "--graph", str(graph_file), "--k", "2"],
                 ["metrics", "--graph", str(graph_file), "0"]):
        assert main(argv + ["--sketches", "20", "--seed", big, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["seeds"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_SWEEP_CONFIG, "master_seed": int(big)}))
    assert main(["sweep", "--config", str(path)]) == 0


@pytest.mark.parametrize("method", ["welfare", "utilitarian", "maximin", "dc"])
@pytest.mark.parametrize(
    "k, message", [("-1", "budget must be >= 1"), ("11", "budget 11 exceeds vertex count 10")]
)
def test_select_checks_budget_before_sampling(graph_file, capsys, monkeypatch, method, k, message):
    def no_sketches(*args):
        raise AssertionError("sketches sampled before the budget was checked")

    monkeypatch.setattr(cli, "sample_sketches", no_sketches)
    rc = main(["select", "--graph", str(graph_file), "--k", k, "--method", method])
    assert rc == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_metrics_checks_seed_ids_before_sampling(graph_file, capsys, monkeypatch):
    def no_sketches(*args):
        raise AssertionError("sketches sampled before the seed ids were checked")

    monkeypatch.setattr(cli, "sample_sketches", no_sketches)
    rc = main(["metrics", "--graph", str(graph_file), "0", "10"])
    assert rc == 3
    assert capsys.readouterr().err == "error: invalid seed id 10\n"


def test_seed_tokens_split_on_commas(graph_file, capsys):
    assert main(["exact", "--graph", str(graph_file), "0,4", ",", "6,", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seeds"] == [0, 4, 6]


def test_help_available_per_subcommand(capsys):
    for cmd in ("gen-sbm", "select", "sweep", "exact", "verify", "metrics"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


# Runs each command in turn in one fresh interpreter and names the first
# after which scipy.sparse is loaded.  Importing the CLI loads no
# numpy.random either: only drawing a graph or sketches needs it.
_SCIPY_GUARD = """
import sys

def check(step):
    if "scipy.sparse" in sys.modules:
        sys.exit(f"scipy.sparse loaded by {step}")

import fairspread
check("import fairspread")
from fairspread.cli import main
if "numpy.random" in sys.modules:
    sys.exit("numpy.random loaded by import fairspread.cli")
graph, spec, out, directed = sys.argv[1:]
for argv in (["gen-sbm", "--spec", spec, "--seed", "3", "--out", out],
             ["exact", "--graph", graph, "0", "4"],
             ["exact", "--graph", graph, "--k", "2", "--method", "maximin"],
             ["verify"],
             ["metrics", "--graph", directed, "0", "4", "--sketches", "20"],
             ["metrics", "--graph", graph, "0", "4", "--sketches", "20"]):
    assert main(argv) == 0, argv
    check(argv[0])
# Estimates propagate over the keep-masks and label no items.
from fairspread.cascade import estimate_utilities, sample_sketches
from fairspread.graph import SeedSet, load_graph
for path in (directed, graph):
    g, part = load_graph(path)
    sk = sample_sketches(g, 20, 0)
    estimate_utilities(sk, SeedSet(frozenset({0, 4}), 2), part)
    assert "items" not in vars(sk)
    check(f"an estimate on {path}")
try:
    code = main(["select", "--graph", graph, "--k", "1", "--sketches", "0"])
except SystemExit as exc:
    code = exc.code
assert code == 2, code
check("select --sketches 0")
"""


def _fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)


def test_commands_without_sketches_do_not_load_scipy(graph_file, spec_file, tmp_path):
    directed = tmp_path / "directed.json"
    directed.write_text(json.dumps({
        "n": 8, "directed": True, "p": 0.5,
        "edges": [[0, 1], [1, 2], [2, 0], [2, 3], [4, 5], [5, 4], [5, 6], [7, 6]],
        "communities": [0, 0, 0, 0, 1, 1, 1, 1],
    }))
    done = _fresh(_SCIPY_GUARD, graph_file, spec_file, tmp_path / "sbm.json", directed)
    assert done.returncode == 0, done.stderr
    # The guard can fail: a select that draws sketches loads scipy.sparse.
    select = ("import sys; from fairspread.cli import main; "
              "main(['select', '--graph', sys.argv[1], '--k', '1', '--sketches', '20']); "
              "sys.exit('scipy.sparse' not in sys.modules)")
    done = _fresh(select, graph_file)
    assert done.returncode == 0, done.stderr
