"""Graph container, SBM generator and file format tests."""

import json
import re

import numpy as np
import pytest

from fairspread import graph
from fairspread.cli import main
from fairspread.errors import GraphFormatError
from fairspread.experiments import ExperimentConfig
from fairspread.graph import (
    CommunityPartition,
    Graph,
    SbmSpec,
    SeedSet,
    generate_sbm,
    induced_within_community_subgraph,
    load_graph,
    load_sbm_spec,
    save_graph,
)


def test_graph_basic_properties():
    g = Graph(n=4, edges=((0, 1), (1, 2)), directed=False, p=0.5)
    assert g.edges == ((0, 1), (1, 2))
    assert g.out_neighbors() == [[1], [0, 2], [1], []]
    assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]


def test_graph_holds_int_pairs_of_any_integer_input():
    want = ((0, 1), (2, 1))
    for edges in ([[0, 1], [2, 1]], np.array(want, dtype=np.uint8), ((np.int64(0), 1), (2, 1))):
        g = Graph(n=3, edges=edges)
        assert g.edges == want and all(type(x) is int for e in g.edges for x in e)
        assert g == Graph(n=3, edges=want) and hash(g) == hash(Graph(n=3, edges=want))
    assert Graph(n=3, edges=()).edge_array.shape == (0, 2)


@pytest.mark.parametrize("edges, bad", [
    (((0.5, 0.7),), "(0.5, 0.7)"),  # int() would make it the self-loop (0, 0)
    (((0.5, 1.7), (True, 2)), "(0.5, 1.7)"),
    (np.array([[0.0, 1.0], [1.0, 2.0]]), "(0.0, 1.0)"),
    (((0, 1), (True, 2)), "(True, 2)"),  # numpy reads this as an int array
    (((0, 1), (np.True_, 2)), "(True, 2)"),
    (np.array([[True, False]]), "(True, False)"),
    (((0, 1), (1, 2.0), (2, 2)), "(1, 2.0)"),  # before the later self-loop
])
def test_graph_rejects_non_integer_endpoints(edges, bad):
    with pytest.raises(GraphFormatError) as info:
        Graph(n=3, edges=edges)
    assert str(info.value) == f"non-integer vertex id in edge {bad}"


def test_graph_rejects_out_of_range_vertex():
    with pytest.raises(GraphFormatError, match="vertex id out of range"):
        Graph(n=3, edges=((0, 3),))


def test_graph_rejects_endpoint_beyond_int64(tmp_path, capsys):
    message = f"vertex id out of range in edge (0, {2**70})"
    with pytest.raises(GraphFormatError) as info:
        Graph(n=3, edges=((0, 1), (0, 2**70)))
    assert str(info.value) == message
    doc = {"n": 3, "directed": False, "p": 0.5, "edges": [[0, 1], [0, 2**70]],
           "communities": [0, 0, 1]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["exact", "--graph", str(path), "0"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edges", [((0, 1, 2),), ((0, 1, 2, 0),), ((0, 1), (2,)),
                                   ((0, 1), (1, 2, 0))])
def test_graph_rejects_entries_that_are_not_pairs(edges):
    with pytest.raises(GraphFormatError) as info:
        Graph(n=3, edges=edges)
    assert str(info.value) == _first_fault(edges, 3, False)


def _first_fault(edges, n, directed):
    """The message of the first entry that is not a pair, or edge out of range,
    self-loop or repeat, in edge order."""
    seen = set()
    for e in edges:
        if len(e) != 2:
            return f"malformed edge entry {e!r} (expected an integer pair)"
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            return f"vertex id out of range in edge ({u}, {v})"
        if u == v:
            return f"self-loop at vertex {u}"
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(key)
    return None


def test_graph_reports_the_first_offending_edge():
    rng = np.random.default_rng(4)
    faults = set()
    for trial in range(400):
        n, m, directed = int(rng.integers(2, 9)), int(rng.integers(1, 12)), trial % 2 == 1
        edges = tuple(map(tuple, rng.integers(-1, n + 1, (m, 2)).tolist()))
        want = _first_fault(edges, n, directed)
        if want is None:
            g = Graph(n=n, edges=edges, directed=directed)
            assert g.edges == edges and g.edge_array.tolist() == list(map(list, edges))
            continue
        faults.add(want.split()[0])
        with pytest.raises(GraphFormatError) as info:
            Graph(n=n, edges=edges, directed=directed)
        assert str(info.value) == want
    assert faults == {"vertex", "self-loop", "duplicate"}


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph(n=3, edges=((1, 1),))
    with pytest.raises(GraphFormatError, match="duplicate"):
        Graph(n=3, edges=((0, 1), (1, 0)))  # same undirected edge
    # ... but opposite arcs are distinct in a directed graph
    g = Graph(n=3, edges=((0, 1), (1, 0)), directed=True)
    assert g.edges == ((0, 1), (1, 0))


def test_graph_rejects_bad_probability():
    with pytest.raises(GraphFormatError):
        Graph(n=2, edges=(), p=1.5)


def _config(**change):
    return ExperimentConfig(**{"sbm": SbmSpec((8, 8), 0.2, 0.05), "budgets": (2,), **change})


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: CommunityPartition(labels=(0, 1.9, 0)),
                 "community label 1.9 is not an integer", id="label-float"),
    pytest.param(lambda: CommunityPartition(labels=(False, True)),
                 "community label False is not an integer", id="label-bool"),
    pytest.param(lambda: SeedSet(frozenset({1.5}), 1), "seed id 1.5 is not an integer",
                 id="seed-float"),
    pytest.param(lambda: SeedSet(frozenset({1}), 1.5), "budget 1.5 is not an integer",
                 id="seed-budget-float"),
    pytest.param(lambda: SeedSet(frozenset({1}), True), "budget True is not an integer",
                 id="seed-budget-bool"),
    pytest.param(lambda: SbmSpec((3.7, 4), 0.5, 0.1),
                 "'community_sizes' must be a list of integers", id="sizes-float"),
    pytest.param(lambda: SbmSpec((), (), 0.1),
                 "'community_sizes' must list at least one community", id="sizes-empty"),
    pytest.param(lambda: SbmSpec((3, 4), True, 0.1),
                 "'within_prob' must be a number or a list of numbers", id="within-bool"),
    pytest.param(lambda: SbmSpec((3, 4), "0.5", 0.1),
                 "'within_prob' must be a number or a list of numbers", id="within-str"),
    pytest.param(lambda: SbmSpec((3, 4), 0.5, "0.1"),
                 "'between_prob' must be a number or a matrix of numbers", id="between-str"),
    pytest.param(lambda: Graph(n=True, edges=()), "'n' must be an integer", id="n-bool"),
    pytest.param(lambda: Graph(n=2, edges=(), directed=1), "'directed' must be true or false",
                 id="directed-int"),
    pytest.param(lambda: Graph(n=2, edges=(), p="0.5"), "'p' must be a number", id="p-str"),
    pytest.param(lambda: _config(R=2.5), "sweep config field 'R' must be an integer",
                 id="config-R-float"),
    pytest.param(lambda: _config(replications=2.0),
                 "sweep config field 'replications' must be an integer", id="config-reps-float"),
    pytest.param(lambda: _config(p=True), "sweep config field 'p' must be a number",
                 id="config-p-bool"),
    pytest.param(lambda: _config(sbm=5), "sweep config field 'sbm' must be an SBM spec",
                 id="config-sbm-int"),
    pytest.param(lambda: _config(sbm=None, graph="g.json", partition=None),
                 "sweep config field 'graph' must be a graph", id="config-graph-path"),
    pytest.param(lambda: _config(partition=(0, 1)),
                 "sweep config field 'partition' must be a partition", id="config-partition-tuple"),
])
def test_constructors_reject_what_documents_reject(build, message):
    with pytest.raises(GraphFormatError) as info:
        build()
    assert str(info.value) == message


def test_constructors_store_python_values():
    g = Graph(n=np.int64(3), edges=((0, 1),), p=1)
    assert type(g.n) is int and type(g.p) is float
    assert Graph(n=2, edges=(), p=np.float32(0.5)).p == 0.5
    assert SbmSpec((np.int64(2),), np.float32(0.5), 0.1).within_prob == (0.5,)
    assert CommunityPartition(labels=(np.int64(0), 1)).labels == (0, 1)
    assert all(type(c) is int for c in CommunityPartition(labels=np.arange(3)).labels)
    assert all(type(v) is int for v in SeedSet(frozenset({np.int32(2)}), 1).vertices)


def test_partition_sizes_and_members():
    part = CommunityPartition(labels=(0, 1, 0, 2, 1))
    assert part.sizes == (2, 2, 1)
    assert part.num_communities == 3
    assert part.members(1) == [1, 4]


def test_partition_requires_dense_labels():
    with pytest.raises(GraphFormatError, match="dense"):
        CommunityPartition(labels=(0, 2))


def test_seed_set_budget():
    s = SeedSet(frozenset({3, 1}), k=2)
    assert s.sorted() == [1, 3]
    with pytest.raises(GraphFormatError):
        SeedSet(frozenset({0, 1, 2}), k=2)


def test_sbm_spec_scalar_between_normalized():
    spec = SbmSpec((10, 20), (0.3, 0.2), 0.05)
    assert spec.n == 30
    assert spec.pair_prob(0, 0) == 0.3
    assert spec.pair_prob(0, 1) == 0.05
    assert spec.between_prob[1][0] == 0.05


def test_sbm_spec_matrix_diagonal_is_within_prob():
    spec = SbmSpec((5, 5), (0.1, 0.1), ((7.0, 0.02), (0.02, -3.0)))
    assert spec.between_prob == ((0.1, 0.02), (0.02, 0.1))
    assert spec == SbmSpec((5, 5), (0.1, 0.1), 0.02)
    assert spec.pair_prob(1, 1) == 0.1


def test_sbm_spec_rejects_asymmetric_matrix():
    with pytest.raises(GraphFormatError, match="symmetric"):
        SbmSpec((5, 5), (0.1, 0.1), ((0.1, 0.02), (0.03, 0.1)))


def test_generate_sbm_deterministic_and_labeled():
    spec = SbmSpec((30, 40), (0.2, 0.1), 0.02)
    g1, part1 = generate_sbm(spec, rng_seed=11)
    g2, part2 = generate_sbm(spec, rng_seed=11)
    g3, _ = generate_sbm(spec, rng_seed=12)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    assert part1.labels == (0,) * 30 + (1,) * 40
    assert g1.n == 70 and not g1.directed


def test_generate_sbm_edge_density_tracks_probability():
    spec = SbmSpec((60, 60), (0.3, 0.3), 0.0)
    rng_counts = []
    for seed in range(5):
        g, _ = generate_sbm(spec, rng_seed=seed)
        rng_counts.append(len(g.edges))
        # no between-community edges at q=0
        assert all((u < 60) == (v < 60) for u, v in g.edges)
    expected = 0.3 * 2 * (60 * 59 / 2)
    assert abs(np.mean(rng_counts) - expected) < 0.15 * expected


def _grid_generate_sbm(spec, rng_seed, p=0.25):
    """generate_sbm as it drew through index grids, frozen as the reference:
    the same uniforms must give the same edges, in the same order."""
    rng = np.random.default_rng(rng_seed)
    sizes = spec.community_sizes
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    edges = []
    k = len(sizes)
    for c1 in range(k):
        for c2 in range(c1, k):
            q = spec.within_prob[c1] if c1 == c2 else spec.between_prob[c1][c2]
            if c1 == c2:
                ii, jj = np.triu_indices(sizes[c1], k=1)
                ii = ii + offsets[c1]
                jj = jj + offsets[c1]
            else:
                ii, jj = np.meshgrid(
                    np.arange(sizes[c1]) + offsets[c1],
                    np.arange(sizes[c2]) + offsets[c2],
                    indexing="ij",
                )
                ii = ii.ravel()
                jj = jj.ravel()
            mask = rng.random(len(ii)) < q
            edges.extend(zip(ii[mask].tolist(), jj[mask].tolist()))
    g = Graph(n=int(offsets[-1]), edges=tuple(edges), directed=False, p=p)
    part = CommunityPartition(labels=tuple(labels.tolist()))
    return g, part


@pytest.mark.parametrize("spec", [
    *[pytest.param(SbmSpec((100,) * 3, (0.06, 0.03, q3), 0.005), id=f"sweep-q3={q3}")
      for q3 in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06)],
    pytest.param(SbmSpec((1000,) * 3, (0.006, 0.003, 0.003), 0.0005), id="select-large"),
    pytest.param(SbmSpec((40,) * 3, (0.12, 0.06, 0.03), 0.01), id="directed"),
    pytest.param(SbmSpec((1,), 0.5, 0.5), id="one-vertex"),
    pytest.param(SbmSpec((3, 1, 4), 0.5, 0.5), id="a-community-of-one"),
    pytest.param(SbmSpec((1, 2, 3), 1.0, 1.0), id="q=1"),
    pytest.param(SbmSpec((5, 5), 0.0, 0.0), id="q=0"),
    pytest.param(SbmSpec((372,) * 16, 0.01, 0.0005), id="16x372"),
    pytest.param(SbmSpec((10, 20, 30), (0.3, 0.2, 0.1),
                         ((0.3, 0.05, 0.01), (0.05, 0.2, 0.02), (0.01, 0.02, 0.1))),
                 id="matrix"),
])
def test_generate_sbm_equals_the_grid_draw(spec):
    for key in (0, 1, (7, 3, 0)):
        g, part = generate_sbm(spec, key, p=0.3)
        want_g, want_part = _grid_generate_sbm(spec, key, p=0.3)
        assert g == want_g and g.edges == want_g.edges and part == want_part
        assert np.array_equal(g.edge_array, want_g.edge_array)


def test_induced_subgraph_remaps_ids():
    g = Graph(n=5, edges=((0, 2), (2, 4), (1, 3)), p=0.4)
    part = CommunityPartition(labels=(0, 1, 0, 1, 0))
    sub, members = induced_within_community_subgraph(g, part, 0)
    assert members == [0, 2, 4]
    assert sub.n == 3
    assert set(sub.edges) == {(0, 1), (1, 2)}
    assert sub.p == 0.4


def test_graph_round_trip(tmp_path):
    g = Graph(n=4, edges=((0, 1), (2, 3)), directed=True, p=0.3)
    part = CommunityPartition(labels=(0, 0, 1, 1))
    path = tmp_path / "g.json"
    save_graph(g, part, path, meta={"note": "kept"})
    g2, part2 = load_graph(path)
    assert g2 == g
    assert part2 == part
    assert json.loads(path.read_text())["meta"] == {"note": "kept"}


def test_load_graph_checks_edges_as_one_array_or_entry_by_entry(monkeypatch):
    # load_graph hands a document's edge list to Graph, which checks it as
    # one array; the per-edge checks, forced here, must build the same graph.
    g, part = generate_sbm(SbmSpec((40, 40), (0.2, 0.1), 0.02), 5)
    doc = {"n": g.n, "directed": False, "p": 0.3, "edges": [list(e) for e in g.edges],
           "communities": list(part.labels)}
    edges = tuple(map(tuple, doc["edges"]))
    loaded, loaded_part = load_graph(doc)
    assert loaded_part == part
    built = Graph(n=g.n, edges=edges, p=0.3)
    monkeypatch.setattr(graph, "_simple_edge_array", lambda edges, n, directed: None)
    looped = Graph(n=g.n, edges=edges, p=0.3)
    for h in (built, looped):
        assert h == loaded and hash(h) == hash(loaded)
        assert h.edges == loaded.edges == edges
        assert all(type(x) is int for e in h.edges for x in e)
        assert np.array_equal(h.edge_array, loaded.edge_array)
    assert np.array_equal(loaded.edge_array, g.edge_array)


@pytest.mark.parametrize("entry", [[3, True], [True, 3], [3, 4.0], [3, 4, 5], [3], []])
def test_load_graph_names_the_first_malformed_edge_entry(entry):
    edges = [[u, v] for u in range(50) for v in range(u + 1, 50)][:1000]
    doc = {"n": 50, "directed": False, "p": 0.5, "communities": [0] * 50,
           "edges": [*edges, entry, [0, 2.5]]}
    if len(entry) == 2:  # a pair is an edge, whose endpoints are checked
        message = f"non-integer vertex id in edge ({entry[0]}, {entry[1]})"
    else:
        message = f"malformed edge entry {entry!r} (expected an integer pair)"
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        load_graph(doc)


def test_load_graph_names_the_first_fault_in_edge_order():
    doc = {"n": 3, "directed": False, "p": 0.5, "communities": [0, 0, 1],
           "edges": [[0, 1], [0, 5], [1, True], [2, 1, 0]]}
    with pytest.raises(GraphFormatError) as info:
        load_graph(doc)
    assert str(info.value) == "vertex id out of range in edge (0, 5)"


def test_load_graph_reports_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "directed": False, "p": 0.1, "edges": []}))
    with pytest.raises(GraphFormatError, match="communities"):
        load_graph(path)


def test_load_graph_label_count_mismatch():
    doc = {"n": 3, "directed": False, "p": 0.1, "edges": [], "communities": [0, 0]}
    with pytest.raises(GraphFormatError, match="^2 community labels for 3 vertices$"):
        load_graph(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("directed", "false", "'directed'"),
        ("directed", 0, "'directed'"),
        ("p", "0.5", "'p'"),
        ("p", True, "'p'"),
        ("n", True, "'n'"),
        ("edges", 5, "'edges'"),
        ("edges", [[0, 1.7]], "non-integer vertex id"),
        ("edges", [[True, 2]], "non-integer vertex id"),
        ("edges", [["0", 1]], "non-integer vertex id"),
        ("communities", 5, "'communities'"),
        ("communities", [0, 1.9, 0], "community label"),
        ("communities", [0, True, 0], "community label"),
    ],
)
def test_load_graph_rejects_coerced_values(field, value, message):
    doc = {"n": 3, "directed": False, "p": 0.5, "edges": [[0, 1]], "communities": [0, 1, 0]}
    load_graph(doc)  # the unmodified document is valid
    with pytest.raises(GraphFormatError, match=message):
        load_graph({**doc, field: value})


def test_load_sbm_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"community_sizes": [5, 5], "within_prob": 0.2, "between_prob": 0.01}
        )
    )
    spec = load_sbm_spec(path)
    assert spec.community_sizes == (5, 5)
    assert spec.within_prob == (0.2, 0.2)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("community_sizes", [3.7, 4], "'community_sizes'"),
        ("community_sizes", [True, 4], "'community_sizes'"),
        ("community_sizes", 7, "'community_sizes'"),
        ("within_prob", True, "'within_prob'"),
        ("within_prob", ["0.5", "0.5"], "'within_prob'"),
        ("within_prob", "0.5", "'within_prob'"),
        ("between_prob", "0.1", "'between_prob'"),
        ("between_prob", [0.1, 0.1], "'between_prob'"),
        ("between_prob", [[0.2, 0.1], [0.1, False]], "'between_prob'"),
        ("community_sizes", [], "'community_sizes' must list at least one community"),
    ],
)
def test_load_sbm_spec_rejects_coerced_values(field, value, message):
    doc = {"community_sizes": [3, 4], "within_prob": [0.5, 0.4], "between_prob": 0.1}
    load_sbm_spec(doc)  # the unmodified document is valid
    with pytest.raises(GraphFormatError, match=message):
        load_sbm_spec({**doc, field: value})
