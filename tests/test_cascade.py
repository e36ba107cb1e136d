"""Diffusion, sketch estimation and exact oracle tests."""

import dataclasses
import gc
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from fairspread import cascade
from fairspread.cascade import (
    DirectedSketchSet,
    UndirectedSketchSet,
    UtilityVector,
    estimate_utilities,
    exact_utilities,
    sample_sketches,
    simulate_once,
)
from fairspread.errors import EnumerationLimitError, GraphFormatError
from fairspread.graph import CommunityPartition, Graph, SbmSpec, SeedSet, generate_sbm
from fairspread.optimize import enumerate_seed_set_utilities, greedy_utilitarian


def _one_comm(n):
    return CommunityPartition(labels=(0,) * n)


def test_utility_vector_validation():
    with pytest.raises(GraphFormatError):
        UtilityVector(values=(1.2,), sizes=(3,))
    with pytest.raises(GraphFormatError):
        UtilityVector(values=(0.5, 0.5), sizes=(3,))


def test_simulate_once_extremes():
    g = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), p=1.0)
    rng = np.random.default_rng(0)
    assert simulate_once(g, SeedSet(frozenset({0}), 1), rng) == {0, 1, 2, 3}
    g0 = Graph(n=4, edges=g.edges, p=0.0)
    assert simulate_once(g0, SeedSet(frozenset({0}), 1), rng) == {0}


def test_sketches_deterministic_in_master_seed():
    g, part = generate_sbm(SbmSpec((20, 20), (0.2, 0.2), 0.05), rng_seed=4)
    s1 = sample_sketches(g, 50, 9)
    s2 = sample_sketches(g, 50, 9)
    s3 = sample_sketches(g, 50, 10)
    assert np.array_equal(s1.edge_masks, s2.edge_masks)
    assert not np.array_equal(s1.edge_masks, s3.edge_masks)


def test_sketch_prefix_stability():
    # sketch i depends only on (master_seed, i), so a larger R extends
    # the same sequence
    g, _ = generate_sbm(SbmSpec((15, 15), (0.2, 0.2), 0.05), rng_seed=4)
    small = sample_sketches(g, 20, 3)
    big = sample_sketches(g, 60, 3)
    assert np.array_equal(big.edge_masks[:20], small.edge_masks)


def _default_rng_masks(g, R, key):
    """The per-sketch reference: one default_rng per sketch."""
    key = key if isinstance(key, tuple) else (key,)
    masks = np.empty((R, len(g.edges)), dtype=bool)
    for i in range(R):
        masks[i] = np.random.default_rng((*key, i)).random(len(g.edges)) < g.p
    return masks


@pytest.mark.parametrize(
    "key",
    # ints of 1, 2 and 3 uint32 words; tuples of 1 to 5 elements, whose
    # longer entropy runs past SeedSequence's pool of 4 words
    [0, 2**32 - 1, 2**32, 2**64 + 3, (9,), (9, 2**32), (1, 2, 3), (4, 0, 2**40, 7),
     (1, 2, 3, 4, 5)],
)
def test_sketch_masks_match_default_rng(key):
    g, _ = generate_sbm(SbmSpec((10, 10), (0.3, 0.3), 0.1), rng_seed=2)
    R = cascade._SEED_CHUNK + 2  # across a chunk boundary
    assert np.array_equal(sample_sketches(g, R, key).edge_masks, _default_rng_masks(g, R, key))
    arcs = g.edges + tuple((v, u) for u, v in g.edges[::3])
    for h in (Graph(n=4, edges=(), p=0.5), Graph(n=g.n, edges=g.edges, p=0.0),
              Graph(n=g.n, edges=g.edges, p=1.0), Graph(n=g.n, edges=arcs, directed=True, p=0.4)):
        assert np.array_equal(sample_sketches(h, 3, key).edge_masks, _default_rng_masks(h, 3, key))


@pytest.mark.parametrize("m", [40, 6000])
def test_sketch_masks_match_default_rng_across_blocks(m):
    # Rows are drawn and thresholded in blocks of at most _SEED_CHUNK rows
    # and about _CHUNK_BYTES of draws: 256 rows at m = 40, 21 at m = 6000.
    # R is a multiple of neither, so both leave a partial last block.
    R = 2 * cascade._SEED_CHUNK + 3
    assert R % 21 and R % cascade._SEED_CHUNK
    key = (5, 2**33)
    want = np.array([np.random.default_rng((*key, i)).random(m) < 0.3 for i in range(R)])
    assert np.array_equal(cascade._sketch_masks(m, 0.3, R, key), want)


def test_dispatch_by_directedness():
    gu = Graph(n=3, edges=((0, 1),), directed=False, p=0.5)
    gd = Graph(n=3, edges=((0, 1),), directed=True, p=0.5)
    assert isinstance(sample_sketches(gu, 5, 0), UndirectedSketchSet)
    assert isinstance(sample_sketches(gd, 5, 0), DirectedSketchSet)


def test_estimate_matches_by_hand_component_counts():
    # single edge kept with p=0.5; seeding vertex 0 covers vertex 1 in
    # exactly the sketches that keep the edge
    g = Graph(n=2, edges=((0, 1),), p=0.5)
    sk = sample_sketches(g, 400, 0)
    kept = int(sk.edge_masks.sum())
    u = estimate_utilities(sk, SeedSet(frozenset({0}), 1), _one_comm(2))
    assert u.values[0] == (400 + kept) / 800


def test_coverage_state_agrees_with_batch_counts():
    g, part = generate_sbm(SbmSpec((25, 25), (0.15, 0.15), 0.03), rng_seed=2)
    sk = sample_sketches(g, 100, 7)
    state = sk.coverage_state(part)
    for v in (3, 30, 11):
        state.add(v)
    u_inc = state.counts
    u_batch = sk.evaluator(part).coverage_counts({3, 30, 11})
    assert np.array_equal(u_inc, u_batch)


def test_evaluator_shared_by_equal_partitions():
    g, part = generate_sbm(SbmSpec((10, 10), (0.3, 0.3), 0.05), rng_seed=1)
    sk = sample_sketches(g, 5, 0)
    twin = CommunityPartition(labels=tuple(part.labels))
    assert twin is not part
    assert sk.evaluator(twin) is sk.evaluator(part)
    assert sk.evaluator(_one_comm(g.n)) is not sk.evaluator(part)


def test_gain_counts_match_add_delta():
    g, part = generate_sbm(SbmSpec((20, 20), (0.2, 0.2), 0.05), rng_seed=8)
    reversed_half = tuple((v, u) for u, v in g.edges[::2])
    dg = Graph(n=g.n, edges=g.edges + reversed_half, directed=True, p=g.p)
    for sk in (sample_sketches(g, 60, 1), sample_sketches(dg, 60, 1)):
        state = sk.coverage_state(part)
        rng = np.random.default_rng(0)
        for v in rng.permutation(g.n)[:10]:
            predicted = state.gain_counts(int(v))
            delta = state.add(int(v))
            assert np.array_equal(predicted, delta)


def _uncovered_instance():
    """SBM-40 at p = 0.25, with singleton and multi-vertex undirected
    components, and its directed twin with half its edges reversed."""
    g, part = generate_sbm(SbmSpec((15, 15, 10), (0.2, 0.2, 0.3), 0.04), rng_seed=3)
    reversed_half = tuple((v, u) for u, v in g.edges[::2])
    dg = Graph(n=g.n, edges=g.edges + reversed_half, directed=True, p=g.p)
    return g, dg, part


def _check_uncovered_rows(sk, part, picks):
    state = sk.coverage_state(part)
    chosen = []
    for v in [None, *picks]:
        if v is not None:
            state.add(int(v))
            chosen.append(int(v))
        for u in range(sk.graph.n):
            assert np.array_equal(state.uncovered[u], state.gain_counts(u)), (v, u)
        assert not state.uncovered[chosen].any()


def test_uncovered_rows_track_gain_counts():
    # p = 0.25 leaves both singleton and multi-vertex components in the
    # undirected sketches; the directed graph adds reversed arcs.
    g, dg, part = _uncovered_instance()
    undirected = sample_sketches(g, 40, 2)
    sizes = np.bincount(undirected.comp.ravel())
    assert (sizes == 1).any() and (sizes >= 2).any()
    for sk in (undirected, sample_sketches(dg, 40, 2)):
        _check_uncovered_rows(sk, part, np.random.default_rng(5).permutation(g.n)[:12])


def _one_shot_components(g, edge_masks):
    """scipy's labels of one block-diagonal graph of every sketch's live arcs."""
    R, n = len(edge_masks), g.n
    src, dst = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    r, a = np.nonzero(edge_masks)
    big = sp.csr_matrix((np.ones(len(a)), (r * n + src[a], r * n + dst[a])), shape=(R * n, R * n))
    count, labels = connected_components(big, directed=g.directed, connection="strong")
    return count, labels.reshape(R, n)


def _shuffled_edge_lists(g, dg):
    """g and dg with their edge lists permuted, g's edges in random orientations."""
    rng = np.random.default_rng(8)
    flipped = [(v, u) if flip else (u, v)
               for (u, v), flip in zip(g.edges, rng.integers(0, 2, len(g.edges)))]
    return (Graph(n=g.n, edges=tuple(flipped[i] for i in rng.permutation(len(flipped))), p=g.p),
            Graph(n=dg.n, edges=tuple(dg.edges[i] for i in rng.permutation(len(dg.edges))),
                  directed=True, p=dg.p))


def test_chunked_labels_and_counts_match_one_shot(monkeypatch):
    # Each chunk's block is built in (tail, head) order from one sort of
    # the edge list, so shuffled edge lists must give the same labels.
    g, dg, part = _uncovered_instance()
    R = 40
    # Three sketches per chunk, so the last chunk holds one.
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
    assert R % cascade._sketch_step(g.n) != 0
    for graph in (g, dg, *_shuffled_edge_lists(g, dg)):
        sk = sample_sketches(graph, R, 2)
        count, labels = _one_shot_components(graph, sk.edge_masks)
        assert sk.items.count == count and np.array_equal(sk.items.comp, labels)
        if graph.directed:  # the arcs between SCCs, from every live arc at once
            src, dst = np.array(graph.edges).T
            r, a = np.nonzero(sk.edge_masks)
            tail, head = labels[r, src[a]], labels[r, dst[a]]
            cross = tail != head
            want = sp.csr_matrix((np.ones(np.count_nonzero(cross), dtype=bool),
                                  (head[cross], tail[cross])), shape=(count, count))
            assert (sk.items.arcs != want).nnz == 0
        ev = sk.evaluator(part)
        want = np.zeros((count, part.num_communities), dtype=np.int64)
        np.add.at(want, (labels.ravel(), np.tile(part.labels, R)), 1)
        assert ev.comp_comm.dtype == np.int32 and np.array_equal(ev.comp_comm, want)


def test_uncovered_rows_track_gain_counts_across_chunks(monkeypatch):
    # The first pick covers the most member rows, several of add's row chunks.
    g, dg, part = _uncovered_instance()
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
    per_chunk = cascade._CHUNK_BYTES // 8
    for graph in (g, dg):
        sk = sample_sketches(graph, 40, 2)
        row_sizes = np.diff(sk.items.members.indptr)
        rows = [row_sizes[sk.items.reached[v]].sum() for v in range(g.n)]
        first = int(np.argmax(rows))
        assert rows[first] > 2 * per_chunk
        picks = [first, *np.random.default_rng(5).permutation(g.n)[:11]]
        _check_uncovered_rows(sk, part, picks)


def test_sketch_sets_die_without_the_cycle_collector():
    # Neither an evaluator nor a coverage state refers back to its
    # sketch set, so reference counting alone frees the set.
    g, dg, part = _uncovered_instance()
    gc.disable()
    try:
        for graph in (g, dg):
            sk = sample_sketches(graph, 10, 0)
            ev = sk.evaluator(part)
            state = sk.coverage_state(part)
            state.add(0)
            alive = weakref.ref(sk)
            del sk, ev, state
            assert alive() is None, graph.directed
    finally:
        gc.enable()


def test_sketch_pipeline_peak_bytes_per_pair():
    # Sampling, the evaluator, the member index and five picks on an
    # SBM-1500 with R = 600.  Labelling and counting in sketch chunks and
    # decrementing in row chunks hold the traced peak near 23 bytes per
    # (sketch, vertex) pair; one-shot labelling, an (R, n) int64 count key
    # and one-shot decrements peaked near 30.
    g, part = generate_sbm(SbmSpec((500, 500, 500), (0.012, 0.006, 0.006), 0.001), rng_seed=7)
    R = 600
    tracemalloc.start()
    try:
        sk = sample_sketches(g, R, 0)
        state = sk.coverage_state(part)
        for v in np.argsort(-state.uncovered.sum(axis=1), kind="stable")[:5]:
            state.add(int(v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * R * g.n, peak / (R * g.n)


def test_member_index_build_peak_stays_near_its_bytes(monkeypatch):
    # The index's row pointers are filled in its own index dtype, so the
    # build holds little beyond the index and one chunk's temporaries
    # (ten sketches here: 4% of the index); an int64 indptr copied to
    # int32 added about half of the index's bytes.
    g, _ = generate_sbm(SbmSpec((500, 500, 500), (0.012, 0.006, 0.006), 0.001), rng_seed=7)
    sk = sample_sketches(g, 600, 0)
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 10)
    tracemalloc.start()
    try:
        members = sk.items.members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = members.data.nbytes + members.indices.nbytes + members.indptr.nbytes
    assert peak - held < held / 4, (peak, held)


def _live_components(g, keep):
    """Vertex sets of the components of undirected g over the edges keep marks live."""
    adj = [[] for _ in range(g.n)]
    for (u, v), live in zip(g.edges, keep):
        if live:
            adj[u].append(v)
            adj[v].append(u)
    comps, seen = set(), set()
    for v in range(g.n):
        if v not in seen:
            comp = frozenset(_dfs(adj, [v]))
            comps.add(comp)
            seen |= comp
    return comps


def _random_undirected(rng, n, m, p, span=None):
    """n vertices, m distinct random edges among the first span vertices."""
    span = n if span is None else span
    pairs = [(u, v) for u in range(span) for v in range(u + 1, span)]
    edges = tuple(pairs[i] for i in rng.choice(len(pairs), size=m, replace=False))
    return Graph(n=n, edges=edges, p=p)


def test_sketch_components_match_per_sketch_search(monkeypatch):
    rng = np.random.default_rng(23)
    graphs = [
        _random_undirected(rng, 40, 50, 0.3),
        _random_undirected(rng, 30, 60, 0.0),  # no multi-vertex component
        _random_undirected(rng, 30, 45, 1.0),
        Graph(n=12, edges=(), p=0.5),
        _random_undirected(rng, 50, 40, 0.6, span=20),  # 30 isolated vertices
    ]
    R = 10
    for g in graphs:
        # Three sketches per member chunk, the last chunk partial.
        monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
        labels = tuple(int(c) for c in rng.integers(0, 3, g.n - 3)) + (0, 1, 2)
        part = CommunityPartition(labels=labels)
        sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
        ev = sk.evaluator(part)
        members = sk.items.members
        # Every vertex is the member of its own component alone.
        assert members.shape == (sk.num_comps, g.n) and members.nnz == R * g.n
        assert np.unique(sk.comp).tolist() == list(range(sk.num_comps))
        # No label spans two sketches.
        assert sum(len(np.unique(row)) for row in sk.comp) == sk.num_comps
        for r in range(R):
            found = {}
            for v, label in enumerate(sk.comp[r]):
                found.setdefault(int(label), set()).add(v)
            assert {frozenset(c) for c in found.values()} == _live_components(g, sk.edge_masks[r])
            for label, comp in found.items():
                got = members.indices[members.indptr[label] : members.indptr[label + 1]]
                assert sorted(got.tolist()) == sorted(comp), (r, label)
        want = np.zeros((sk.num_comps, part.num_communities), dtype=np.int64)
        np.add.at(want, (sk.comp.ravel(), np.tile(labels, R)), 1)
        assert np.array_equal(ev.comp_comm, want)


def test_sketch_build_allocates_in_live_edges():
    # Bytes: the (R, m) keep-masks, plus a few words per live edge and per
    # (sketch, vertex) pair.  An (R, m) int64 temporary alone is 8 * R * m,
    # about 32 bytes per live edge at p = 0.25, so two of them alone exceed the
    # bound on this instance (live edges about R * n).
    g, _ = generate_sbm(SbmSpec((250, 250), (0.03, 0.03), 0.002), rng_seed=4)
    R = 200
    tracemalloc.start()
    try:
        sk = sample_sketches(g, R, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    live = int(sk.edge_masks.sum())
    bound = R * len(g.edges) + 32 * live + 16 * R * g.n
    assert peak < bound, (peak, bound)


def test_directed_state_matches_bruteforce_reachability():
    g = Graph(
        n=5, edges=((0, 1), (1, 2), (3, 2), (2, 4)), directed=True, p=0.6
    )
    part = CommunityPartition(labels=(0, 0, 1, 1, 1))
    sk = sample_sketches(g, 200, 5)
    u = estimate_utilities(sk, SeedSet(frozenset({0, 3}), 2), part)
    # brute force on the same sketches
    totals = np.zeros(2)
    for i in range(200):
        for v in _dfs(_live_adjacency(g, sk.edge_masks[i]), {0, 3}):
            totals[part.labels[v]] += 1
    assert u.values[0] == totals[0] / (200 * 2)
    assert u.values[1] == totals[1] / (200 * 3)


def _live_adjacency(g, keep):
    """Out-neighbour lists of the arcs of directed g that keep marks live."""
    adj = [[] for _ in range(g.n)]
    for (u, v), live in zip(g.edges, keep):
        if live:
            adj[u].append(v)
    return adj


def _dfs(adj, sources):
    reached = set(sources)
    stack = list(sources)
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return reached


def test_directed_closure_and_gains_match_bruteforce():
    rng = np.random.default_rng(31)
    # (n, tails, arcs, p, R): arcs leave only vertices below tails.  The
    # last is dense: 256 tails form a core in which most pairs are joined
    # through all 256 of them (a count that wraps to 0 in uint8), plus 44
    # sinks.
    for n, tails, m, p, R in ((30, 30, 90, 0.5, 12), (120, 120, 400, 0.35, 6),
                              (300, 256, 2700, 0.9, 2)):
        pairs = [(u, v) for u in range(tails) for v in range(n) if u != v]
        edges = tuple(pairs[i] for i in rng.choice(len(pairs), size=m, replace=False))
        g = Graph(n=n, edges=edges, directed=True, p=p)
        labels = tuple(int(x) for x in rng.integers(0, 3, n - 3)) + (0, 1, 2)
        part = CommunityPartition(labels=labels)
        sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
        reach = []  # reach[r][v]: vertices v reaches in sketch r
        for r in range(R):
            adj = _live_adjacency(g, sk.edge_masks[r])
            reach.append([_dfs(adj, [v]) for v in range(n)])
            expected = np.zeros((n, n), dtype=bool)
            for v, reached in enumerate(reach[r]):
                expected[v, sorted(reached)] = True
            assert np.array_equal(sk.closure[r], expected), (n, r)
        state = sk.coverage_state(part)
        seeds = [int(v) for v in rng.choice(n, size=3, replace=False)]
        for s in seeds:
            state.add(s)
        covered = [set().union(*(reach[r][s] for s in seeds)) for r in range(R)]
        for v in range(n):
            want = np.zeros(part.num_communities, dtype=np.int64)
            for r in range(R):
                for w in reach[r][v] - covered[r]:
                    want[part.labels[w]] += 1
            assert np.array_equal(state.gain_counts(v), want), (n, v)


def test_directed_greedy_peak_stays_below_closure_bytes():
    # The member index of this instance is far smaller than the R * n * n
    # bytes of a dense reachability closure, so building it, the coverage
    # state and five picks must never hold that many bytes at once.
    g, part = generate_sbm(SbmSpec((75, 75), (0.03, 0.03), 0.005), rng_seed=6)
    reversed_half = tuple((v, u) for u, v in g.edges[::2])
    dg = Graph(n=g.n, edges=g.edges + reversed_half, directed=True, p=0.3)
    R = 40
    closure_bytes = R * dg.n * dg.n
    tracemalloc.start()
    try:
        sk = sample_sketches(dg, R, 0)
        state = sk.coverage_state(part)
        for v in (0, 40, 80, 120, 149):
            state.add(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < closure_bytes, (peak, closure_bytes)
    members = sk.items.members
    assert 10 * (members.data.nbytes + members.indices.nbytes) < closure_bytes


def test_directed_closure_counts_beyond_255_paths():
    # 0 -> each of 1..256 -> 257: 256 paths from 0 to 257, which wraps a uint8 path count
    n = 258
    edges = tuple((0, w) for w in range(1, 257)) + tuple((w, 257) for w in range(1, 257))
    g = Graph(n=n, edges=edges, directed=True, p=1.0)
    part = _one_comm(n)
    sk = sample_sketches(g, 2, 0)
    assert sk.closure[:, 0, 257].all()
    assert sk.coverage_state(part).gain_counts(0).tolist() == [2 * n]
    _, trace = greedy_utilitarian(sk, part, 1)
    assert trace.objective_after_each == (float(n),)


def _cycles_feeding_dag(rng, cycles, tail, p):
    """Directed cycles, each with a chord, whose vertices feed a DAG of tail
    vertices (arcs from lower to higher ids only)."""
    edges, v = set(), 0
    for size in cycles:
        ring = list(range(v, v + size))
        edges |= {(ring[i], ring[(i + 1) % size]) for i in range(size)}
        edges.add((ring[0], ring[size // 2]))
        v += size
    for w in range(v, v + tail):
        for u in rng.choice(w, size=2, replace=False):
            edges.add((int(u), w))
    return Graph(n=v + tail, edges=tuple(sorted(edges)), directed=True, p=p)


def test_directed_items_are_strongly_connected_components():
    rng = np.random.default_rng(47)
    for cycles, tail, p, R in (((2, 3, 5), 20, 0.8, 6), ((4, 6, 8), 30, 0.6, 5),
                               ((2, 2, 12), 15, 0.9, 4)):
        g = _cycles_feeding_dag(rng, cycles, tail, p)
        sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
        items = sk.items
        comp = items.comp
        sizes = np.bincount(comp.ravel())
        assert (sizes == 1).any() and (sizes >= 3).any()
        first, reaches = 0, []
        for r in range(R):
            reach = [_dfs(_live_adjacency(g, sk.edge_masks[r]), [v]) for v in range(g.n)]
            reaches.append(reach)
            for v in range(g.n):
                for w in range(g.n):
                    mutual = w in reach[v] and v in reach[w]
                    assert (comp[r, v] == comp[r, w]) == mutual, (r, v, w)
            # One contiguous range per sketch, after the previous sketch's.
            found = np.unique(comp[r]).tolist()
            assert found == list(range(first, first + len(found))), r
            first += len(found)
        assert first == items.count
        coverers = [set() for _ in range(items.count)]
        for v in range(g.n):
            got = items.reached[v].tolist()
            want = {int(comp[r, w]) for r in range(R) for w in reaches[r][v]}
            assert len(got) == len(want) and set(got) == want, v
            for i in want:
                coverers[i].add(v)
        members = items.members
        assert members.shape == (items.count, g.n)
        for i, want in enumerate(coverers):
            got = members.indices[members.indptr[i] : members.indptr[i + 1]].tolist()
            assert len(got) == len(want) and set(got) == want, i


def test_exact_path_graph():
    g = Graph(n=3, edges=((0, 1), (1, 2)), p=0.5)
    u = exact_utilities(g, SeedSet(frozenset({0}), 1), _one_comm(3))
    assert u.values[0] == Fraction(7, 12)


def test_exact_decimal_probability_is_rational():
    g = Graph(n=2, edges=((0, 1),), p=0.3)
    u = exact_utilities(g, SeedSet(frozenset({0}), 1), _one_comm(2))
    assert u.values[0] == Fraction(13, 20)  # (1 + 3/10) / 2


def test_exact_directed_vs_undirected_differ():
    gu = Graph(n=2, edges=((1, 0),), directed=False, p=0.5)
    gd = Graph(n=2, edges=((1, 0),), directed=True, p=0.5)
    part = _one_comm(2)
    seeds = SeedSet(frozenset({0}), 1)
    assert exact_utilities(gu, seeds, part).values[0] == Fraction(3, 4)
    assert exact_utilities(gd, seeds, part).values[0] == Fraction(1, 2)


def test_exact_p_one_any_size():
    # p=1 bypasses enumeration, so large edge counts are fine
    edges = tuple((0, v) for v in range(1, 40))
    g = Graph(n=40, edges=edges, p=1.0)
    u = exact_utilities(g, SeedSet(frozenset({0}), 1), _one_comm(40))
    assert u.values[0] == 1


def test_exact_limit_enforced():
    edges = tuple((0, v) for v in range(1, 23))
    g = Graph(n=23, edges=edges, p=0.5)
    with pytest.raises(EnumerationLimitError):
        exact_utilities(g, SeedSet(frozenset({0}), 1), _one_comm(23))


def test_exact_vs_monte_carlo_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(4):
        n = int(rng.integers(4, 8))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        idx = rng.permutation(len(possible))[: min(8, len(possible))]
        edges = tuple(possible[i] for i in idx)
        g = Graph(n=n, edges=edges, p=0.25)
        part = CommunityPartition(
            labels=tuple(int(x) for x in rng.integers(0, 2, n - 2)) + (0, 1)
        )
        seeds = SeedSet(frozenset({0}), 1)
        exact = exact_utilities(g, seeds, part)
        sk = sample_sketches(g, 20000, int(rng.integers(0, 1000)))
        mc = estimate_utilities(sk, seeds, part)
        for a, b in zip(exact.values, mc.values):
            assert abs(float(a) - float(b)) < 0.02


def _exact_by_loop(g, seeds, part):
    """Reference oracle: one reachability search per live-edge subset."""
    m = len(g.edges)
    p = Fraction(str(g.p))
    totals = [Fraction(0)] * part.num_communities
    for s in range(1 << m):
        live = [e for a, e in enumerate(g.edges) if (s >> a) & 1]
        adj = [[] for _ in range(g.n)]
        for u, v in live:
            adj[u].append(v)
            if not g.directed:
                adj[v].append(u)
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        weight = p ** len(live) * (1 - p) ** (m - len(live))
        for v in reached:
            totals[part.labels[v]] += weight
    return tuple(t / n_c for t, n_c in zip(totals, part.sizes))


def _random_exact_instance(rng, directed, n, m):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    idx = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    edges = tuple(pairs[i] for i in sorted(idx))
    p = (0.5, 0.3, 0.35, 0.7, 0.15)[int(rng.integers(0, 5))]
    labels = tuple(int(x) for x in rng.integers(0, 3, n - 3)) + (0, 1, 2)
    return Graph(n=n, edges=edges, directed=directed, p=p), CommunityPartition(labels=labels)


def test_exact_oracle_and_exhaustive_table_match_loop_reference():
    rng = np.random.default_rng(2024)
    for i in range(24):
        g, part = _random_exact_instance(
            rng, directed=bool(i % 2), n=int(rng.integers(4, 9)), m=int(rng.integers(0, 11))
        )
        if i >= 20:  # one live-edge subset: no edge live, or every edge
            g = dataclasses.replace(g, p=(0.0, 1.0)[i // 2 % 2])
        for size in (1, 2, 3):
            vs = frozenset(int(v) for v in rng.choice(g.n, size=size, replace=False))
            got = exact_utilities(g, SeedSet(vs, size), part).values
            assert got == _exact_by_loop(g, vs, part), (i, g, vs)
            assert all(isinstance(x, Fraction) for x in got)
        k = 1 + i % 2
        for combo, u in enumerate_seed_set_utilities(g, part, k):
            assert u.values == _exact_by_loop(g, combo, part), (i, g, combo)
            assert all(isinstance(x, Fraction) for x in u.values)
    # p literals with large reduced denominators (100, 1000, 1000) and
    # numerators far from the denominator's half, drawn separately so
    # the instances above keep their draws.
    rng = np.random.default_rng(2025)
    for i, p in enumerate((0.07, 0.123, 0.999) * 2):
        g, part = _random_exact_instance(rng, directed=bool(i % 2), n=6, m=8)
        g = dataclasses.replace(g, p=p)
        for size in (1, 2):
            vs = frozenset(int(v) for v in rng.choice(g.n, size=size, replace=False))
            got = exact_utilities(g, SeedSet(vs, size), part).values
            assert got == _exact_by_loop(g, vs, part), (p, g, vs)
        for combo, u in enumerate_seed_set_utilities(g, part, 2):
            assert u.values == _exact_by_loop(g, combo, part), (p, g, combo)


def _dfs_utilities(g, seeds, part):
    """Reference utilities at p = 1 (every edge live) and p = 0 (none)."""
    adj = g.out_neighbors() if g.p == 1 else [[] for _ in range(g.n)]
    reached, stack = set(seeds), list(seeds)
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    counts = [0] * part.num_communities
    for v in reached:
        counts[part.labels[v]] += 1
    return tuple(Fraction(c, n_c) for c, n_c in zip(counts, part.sizes))


def test_exact_oracle_on_long_paths_in_any_edge_order():
    # Sweeping the arcs in list order until nothing changes takes one
    # sweep per step along a path whose edges come in reverse order; the
    # worklist follows an arc again only when its tail's row has grown.
    n = 1000
    rng = np.random.default_rng(17)
    part = CommunityPartition(labels=tuple(v % 3 for v in range(n)))
    path = [(v, v + 1) for v in range(n - 1)]
    shuffled = [path[i] for i in rng.permutation(n - 1)]
    for directed in (False, True):
        for edges in (path[::-1], shuffled):
            for p in (1.0, 0.0):
                g = Graph(n=n, edges=tuple(edges), directed=directed, p=p)
                t0 = time.perf_counter()
                one = exact_utilities(g, SeedSet(frozenset({0}), 1), part).values
                singles = list(enumerate_seed_set_utilities(g, part, 1))
                elapsed = time.perf_counter() - t0
                assert elapsed < 2.0, (directed, p, elapsed)
                assert one == _dfs_utilities(g, {0}, part)
                assert len(singles) == n
                for combo, u in singles:
                    assert u.values == _dfs_utilities(g, combo, part), combo


def test_exact_oracle_with_isolated_seeds_beyond_64_vertices():
    # edges only among vertices 70..79; 66 of the 67 seeds touch no edge
    rng = np.random.default_rng(5)
    for directed in (False, True):
        sub, _ = _random_exact_instance(rng, directed, n=10, m=8)
        edges = tuple((70 + u, 70 + v) for u, v in sub.edges)
        g = Graph(n=90, edges=edges, directed=directed, p=sub.p)
        part = CommunityPartition(labels=tuple(v % 3 for v in range(90)))
        seeds = frozenset(range(66)) | {edges[0][0]}
        got = exact_utilities(g, SeedSet(seeds, len(seeds)), part).values
        assert got == _exact_by_loop(g, seeds, part)
        for combo, u in enumerate_seed_set_utilities(g, part, 1):
            assert u.values == _exact_by_loop(g, combo, part), combo
