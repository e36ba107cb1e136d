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
    counts_utilities,
    estimate_utilities,
    exact_utilities,
    sample_sketches,
    simulate_once,
)
from fairspread.errors import EnumerationLimitError, GraphFormatError
from fairspread.graph import CommunityPartition, Graph, SbmSpec, SeedSet, generate_sbm
from fairspread.optimize import enumerate_seed_set_utilities, greedy_utilitarian, greedy_welfare
from fairspread.welfare import default_params


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
    R = cascade._CHUNK_BYTES // (8 * len(g.edges)) + 2  # across a block boundary
    assert np.array_equal(sample_sketches(g, R, key).edge_masks, _default_rng_masks(g, R, key))
    arcs = g.edges + tuple((v, u) for u, v in g.edges[::3])
    for h in (Graph(n=4, edges=(), p=0.5), Graph(n=g.n, edges=g.edges, p=0.0),
              Graph(n=g.n, edges=g.edges, p=1.0), Graph(n=g.n, edges=arcs, directed=True, p=0.4)):
        assert np.array_equal(sample_sketches(h, 3, key).edge_masks, _default_rng_masks(h, 3, key))


@pytest.mark.parametrize("m", [40, 6000])
def test_sketch_masks_match_default_rng_across_blocks(m):
    # Rows are drawn and thresholded in blocks of about _CHUNK_BYTES of
    # draws: 3,276 rows at m = 40, 21 at m = 6000.  R crosses two block
    # boundaries and leaves a partial last block.
    rows = cascade._CHUNK_BYTES // (8 * m)
    R = 2 * rows + 3
    key = (5, 2**33)
    want = np.array([np.random.default_rng((*key, i)).random(m) < 0.3 for i in range(R)])
    assert np.array_equal(cascade._sketch_masks(m, 0.3, R, key), want)


def test_sketch_seed_serves_only_pcg64():
    # The factory builds the type, so no earlier draw is needed.
    seed_type = cascade._sketch_seed_type()
    assert issubclass(seed_type, np.random.bit_generator.ISeedSequence)
    seed = seed_type(cascade._seed_states([1], 1)[0])
    for dtype in (np.uint64, np.dtype("uint64"), "uint64"):
        assert seed.generate_state(4, dtype) is seed.state
    for n_words, dtype in ((4, np.uint32), (4, "u4"), (8, np.uint64)):
        with pytest.raises(ValueError, match="four uint64 words"):
            seed.generate_state(n_words, dtype)


def _packbits_worlds(bits):
    """The reference packing: np.packbits along the rows of bits.T,
    zero-padded to whole uint64 words."""
    worlds, rows = bits.shape
    packed = np.zeros((rows, 8 * -(-worlds // 64)), dtype=np.uint8)
    packed[:, : -(-worlds // 8)] = np.packbits(bits.T, axis=1, bitorder="little")
    return packed.view(np.uint64)


@pytest.mark.parametrize("worlds", [1, 7, 8, 9, 63, 64, 65, 200])
@pytest.mark.parametrize("rows", [0, 1, 3, 271])
def test_pack_worlds_matches_packbits(worlds, rows):
    bits = np.random.default_rng(worlds * 1000 + rows).random((worlds, rows)) < 0.4
    packed = cascade._pack_worlds(bits)
    assert packed.dtype == np.uint64 and packed.shape == (rows, -(-worlds // 64))
    assert np.array_equal(packed, _packbits_worlds(bits))


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
    u_batch = estimate_utilities(sk, SeedSet(frozenset({3, 30, 11}), 3), part)
    assert counts_utilities(state.counts, sk.R, part) == u_batch


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
    # p = 0.25 leaves both lone pairs, which no live edge touches, and
    # multi-vertex components in the undirected sketches; the directed
    # graph adds reversed arcs.  Picks with lone pairs check that a
    # chosen row drops its lone counts as well as its items'.
    g, dg, part = _uncovered_instance()
    picks = np.random.default_rng(5).permutation(g.n)[:12]
    undirected = sample_sketches(g, 40, 2)
    assert (np.diff(undirected.items.own.indptr) >= 2).all()
    for sk in (undirected, sample_sketches(dg, 40, 2)):
        assert sk.items.lone[picks].all()
        _check_uncovered_rows(sk, part, picks)


def _touched(g, edge_masks):
    """(R, n) flags of the (sketch, vertex) pairs that a live arc touches."""
    src, dst = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    r, a = np.nonzero(edge_masks)
    touched = np.zeros((len(edge_masks), g.n), dtype=bool)
    touched[r, src[a]] = touched[r, dst[a]] = True
    return touched


def _item_labels(items, touched):
    """(R, n) item labels read from the items' own rows, -1 at lone pairs.

    Items come sketch by sketch, and sketch r's own rows partition the
    vertices that a live arc touches in it, ``touched[r]``, so sketch r
    takes the next rows until they cover them; each row must be non-empty,
    ascending, and hold only touched vertices not yet taken."""
    own = items.own
    labels = np.full(touched.shape, -1)
    i = 0
    for r, want in enumerate(touched):
        while np.count_nonzero(labels[r] >= 0) < np.count_nonzero(want):
            row = own.indices[own.indptr[i] : own.indptr[i + 1]]
            assert len(row) and (np.diff(row) > 0).all(), i
            assert want[row].all() and (labels[r, row] < 0).all(), (r, i)
            labels[r, row] = i
            i += 1
    assert i == items.count == own.shape[0]
    return labels


def _one_shot_components(g, edge_masks):
    """scipy's labels of one block-diagonal graph of every sketch's live
    arcs, with -1 at the pairs no live arc touches and the others
    renumbered densely in the order of their labels."""
    R, n = len(edge_masks), g.n
    src, dst = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    r, a = np.nonzero(edge_masks)
    big = sp.csr_matrix((np.ones(len(a)), (r * n + src[a], r * n + dst[a])), shape=(R * n, R * n))
    _, labels = connected_components(big, directed=g.directed, connection="strong")
    touched = _touched(g, edge_masks)
    found, dense = np.unique(labels.reshape(R, n)[touched], return_inverse=True)
    comp = np.full((R, n), -1)
    comp[touched] = dense
    return len(found), comp


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
    # the edge list, and its touched pairs are numbered in order, so
    # shuffled edge lists must give the same items as one labelling of
    # every sketch at once, restricted to the touched pairs: own row i
    # holds the vertices of label i, ascending.
    g, dg, part = _uncovered_instance()
    R = 40
    # Three sketches per chunk, so the last chunk holds one.
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
    assert R % cascade._sketch_step(g.n) != 0
    for graph in (g, dg, *_shuffled_edge_lists(g, dg)):
        sk = sample_sketches(graph, R, 2)
        count, labels = _one_shot_components(graph, sk.edge_masks)
        items = sk.items
        at = np.flatnonzero(labels >= 0)
        want = sp.csr_matrix((np.ones(len(at), dtype=bool), (labels.ravel()[at], at % graph.n)),
                             shape=(count, graph.n))
        assert items.count == count and items.own.shape == want.shape
        assert np.array_equal(items.own.indptr, want.indptr)
        assert np.array_equal(items.own.indices, want.indices)
        assert np.array_equal(_item_labels(items, labels >= 0), labels)
        assert np.array_equal(items.lone, (labels < 0).sum(axis=0))
        if graph.directed:  # the arcs between SCCs, from every live arc at once
            src, dst = np.array(graph.edges).T
            r, a = np.nonzero(sk.edge_masks)
            tail, head = labels[r, src[a]], labels[r, dst[a]]
            cross = tail != head
            want = sp.csr_matrix((np.ones(np.count_nonzero(cross), dtype=bool),
                                  (head[cross], tail[cross])), shape=(count, count))
            assert (items.arcs != want).nnz == 0
        ev = sk.evaluator(part)
        want = np.zeros((count, part.num_communities), dtype=np.int64)
        touched = labels >= 0
        np.add.at(want, (labels[touched], np.tile(part.labels, (R, 1))[touched]), 1)
        assert ev.comp_comm.dtype == np.int32 and np.array_equal(ev.comp_comm, want)


def test_items_scan_the_keep_masks_once(monkeypatch):
    # A directed set reads the arcs between its SCCs from each chunk's
    # block while it labels the chunk, so building its items walks the
    # live arcs once; an undirected set has no such arcs.
    g, dg, _ = _uncovered_instance()
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
    scans = []
    live_arcs = cascade._live_arcs

    def counted(graph, edge_masks):
        scans.append(graph.directed)
        yield from live_arcs(graph, edge_masks)

    monkeypatch.setattr(cascade, "_live_arcs", counted)
    sk = sample_sketches(dg, 40, 2)
    assert scans == []  # labelled on first use
    assert sk.items.arcs is not None and scans == [True]
    assert sample_sketches(g, 40, 2).items.arcs is None and scans == [True, False]


def test_uncovered_rows_track_gain_counts_across_chunks(monkeypatch):
    # The first pick covers the most member rows, several of add's row chunks.
    g, dg, part = _uncovered_instance()
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
    per_chunk = cascade._CHUNK_BYTES // 8
    for graph in (g, dg):
        sk = sample_sketches(graph, 40, 2)
        rows = sk.items.reached @ np.diff(sk.items.members.indptr)
        first = int(np.argmax(rows))
        assert rows[first] > 2 * per_chunk
        picks = [first, *np.random.default_rng(5).permutation(g.n)[:11]]
        _check_uncovered_rows(sk, part, picks)
        # reach_counts sums the index over several blocks of item rows.
        ev = sk.evaluator(part)
        assert sk.items.members.nnz > 2 * per_chunk
        one_shot = sk.items.members.T @ ev.comp_comm.astype(np.int64) + ev.lone_comm
        assert np.array_equal(ev.reach_counts, one_shot)


def _spy_decrements(monkeypatch):
    """Record the number of items in each ``CoverageState._decrement`` call."""
    calls = []
    decrement = cascade.CoverageState._decrement

    def spy(self, stops, sizes, ends, weights):
        calls.append(len(sizes))
        decrement(self, stops, sizes, ends, weights)

    monkeypatch.setattr(cascade.CoverageState, "_decrement", spy)
    return calls


def test_add_takes_rows_that_fit_one_chunk_in_one_decrement(monkeypatch):
    # An add whose member rows hold exactly _CHUNK_BYTES // 8 entries makes
    # one _decrement call; one entry more, a one-vertex row that starts at
    # that bound, makes two.  A directed set has such rows: an SCC that no
    # other vertex reaches.
    g, dg, part = _uncovered_instance()
    calls = _spy_decrements(monkeypatch)
    splits = []
    for graph in (g, dg):
        sk = sample_sketches(graph, 40, 2)
        sizes = np.diff(sk.items.members.indptr)
        reached = sk.items.reached
        for v in range(graph.n):
            new = reached.indices[reached.indptr[v] : reached.indptr[v + 1]]
            if not len(new):
                continue
            entries = int(sizes[new].sum())
            cases = [(entries, [len(new)])]
            if sizes[new[-1]] == 1:
                cases.append((entries - 1, [len(new) - 1, 1]))
                splits.append(graph.directed)
            for per_chunk, want in cases:
                monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * per_chunk)
                calls.clear()
                state = sk.coverage_state(part)
                state.add(v)
                assert calls == want, (v, per_chunk)
                assert state.uncovered.dtype == np.int64
                for u in range(graph.n):
                    assert np.array_equal(state.uncovered[u], state.gain_counts(u)), (v, u)
                assert not state.uncovered[v].any()
    assert splits and all(splits)  # only the directed set has one-vertex rows


def test_add_of_a_chosen_or_covered_vertex_changes_nothing(monkeypatch):
    # On a p = 1 path every sketch is one component that every vertex
    # reaches, so after one pick no other vertex gains anything.
    g = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), p=1.0)
    part = CommunityPartition(labels=(0, 0, 1, 1))
    calls = _spy_decrements(monkeypatch)
    state = sample_sketches(g, 5, 1).coverage_state(part)
    assert state.add(1).tolist() == [10, 10] and calls == [5]
    for v in (1, 2):  # chosen, then covered but not chosen
        counts, uncovered = state.counts.copy(), state.uncovered.copy()
        assert state.add(v).tolist() == [0, 0]
        assert np.array_equal(state.counts, counts)
        assert state.uncovered.dtype == np.int64 and np.array_equal(state.uncovered, uncovered)
    assert not state.uncovered.any() and calls == [5] and state.chosen == [1, 1, 2]


def test_reach_counts_with_rows_longer_than_a_block(monkeypatch):
    # Blocks are cut at item rows, so a row longer than a block leaves
    # empty blocks between its cuts.
    g, dg, part = _uncovered_instance()
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * 5)
    for graph in (g, dg):
        sk = sample_sketches(graph, 40, 2)
        members = sk.items.members
        assert np.diff(members.indptr).max() > 2 * 5
        ev = sk.evaluator(part)
        one_shot = members.T @ ev.comp_comm.astype(np.int64) + ev.lone_comm
        assert np.array_equal(ev.reach_counts, one_shot)


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
    # The labelling writes each chunk's own rows into one int32 buffer
    # of R * n entries, shrunk in place at the end, so the build holds
    # little beyond the index, that buffer's 4 * R * n bytes (traced
    # whole, though only the entries written are committed) and one
    # chunk's temporaries (ten sketches here: 4% of the index).
    g, _ = generate_sbm(SbmSpec((500, 500, 500), (0.012, 0.006, 0.006), 0.001), rng_seed=7)
    R = 600
    sk = sample_sketches(g, R, 0)
    monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 10)
    tracemalloc.start()
    try:
        members = sk.items.members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = members.data.nbytes + members.indices.nbytes + members.indptr.nbytes
    assert peak - held < held / 4 + 4 * R * g.n, (peak, held)


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
        # Three sketches per labelling chunk, the last chunk partial.
        monkeypatch.setattr(cascade, "_CHUNK_BYTES", 8 * g.n * 3)
        labels = tuple(int(c) for c in rng.integers(0, 3, g.n - 3)) + (0, 1, 2)
        part = CommunityPartition(labels=labels)
        sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
        ev = sk.evaluator(part)
        items = sk.items
        # Every touched vertex is the member of its own component alone.
        assert items.members is items.own and items.own.shape == (items.count, g.n)
        comp = _item_labels(items, _touched(g, sk.edge_masks))
        assert items.own.nnz == np.count_nonzero(comp >= 0) == R * g.n - items.lone.sum()
        want = np.zeros((items.count, part.num_communities), dtype=np.int64)
        for r in range(R):
            found, lone = {}, set()
            for v, label in enumerate(comp[r]):
                if label < 0:
                    lone.add(v)
                else:
                    found.setdefault(int(label), set()).add(v)
                    want[label, labels[v]] += 1
            # Items are the components with a live edge; the rest are single vertices.
            components = _live_components(g, sk.edge_masks[r])
            assert {frozenset(c) for c in found.values()} == {c for c in components if len(c) > 1}
            assert {frozenset({v}) for v in lone} == {c for c in components if len(c) == 1}
        assert np.array_equal(items.lone, (comp < 0).sum(axis=0))
        assert np.array_equal(ev.comp_comm, want)


def _reach(g, keep):
    """reach[v]: the vertices v reaches over the live arcs that keep marks
    (both directions of an undirected edge)."""
    adj = _live_adjacency(g, keep)
    if not g.directed:
        for (u, v), live in zip(g.edges, keep):
            if live:
                adj[v].append(u)
    return [_dfs(adj, [v]) for v in range(g.n)]


def test_arc_bits_reach_matches_per_sketch_search(monkeypatch):
    # R = 100 sketches fill two words per row, the start sets share rows,
    # one lists a row twice and one is empty, and a shrunk _CHUNK_BYTES
    # lets a batch hold two (start, row) pairs, so one call takes many.
    g, dg, _ = _uncovered_instance()
    R = 100
    starts = [[0, 5, 17], [5, 17, 30], [22, 3, 22], [], [39]]
    for graph in (g, dg):
        sk = sample_sketches(graph, R, 6)
        bits = sk.arc_bits
        W = len(bits.full)
        monkeypatch.setattr(cascade, "_CHUNK_BYTES", 2 * 8 * W * int(bits.degree.max()))
        table = bits.reach(starts)
        assert table.shape == (len(starts), graph.n, W) == (5, 40, 2)
        reached = np.unpackbits(table.view(np.uint8), axis=2, bitorder="little")
        assert not reached[:, :, R:].any()
        want = np.zeros((len(starts), graph.n, R), dtype=np.uint8)
        for r, keep in enumerate(sk.edge_masks):
            reach = _reach(graph, keep)
            for i, start in enumerate(starts):
                for v in start:
                    want[i, list(reach[v]), r] = 1
        assert np.array_equal(reached[:, :, :R], want)


def test_arc_bits_words_match_packbits_construction():
    # The keep and full words of both kinds of set, and of an edgeless
    # graph, equal an _ArcBits built from np.packbits words.
    g, dg, _ = _uncovered_instance()
    for graph in (g, dg, Graph(n=4, edges=(), p=0.5)):
        for R in (1, 65, 200):
            sk = sample_sketches(graph, R, 8)
            full = np.packbits(np.arange(64 * -(-R // 64)) < R, bitorder="little").view(np.uint64)
            want = cascade._ArcBits(graph.n, graph.edge_array, _packbits_worlds(sk.edge_masks),
                                    full, graph.directed)
            bits = sk.arc_bits
            assert bits.keep.dtype == bits.full.dtype == np.uint64
            assert np.array_equal(bits.keep, want.keep)
            assert np.array_equal(bits.full, want.full)


def _community_counts(vertex_sets, part):
    counts = np.zeros(part.num_communities, dtype=np.int64)
    for vertices in vertex_sets:
        for w in vertices:
            counts[part.labels[w]] += 1
    return counts


def test_items_hold_only_touched_pairs_and_counts_match_search():
    # Random graphs of both kinds whose last five vertices join no edge,
    # at p = 0 (every pair lone), 0.3 and 1 (every edge live).
    rng = np.random.default_rng(59)
    R = 9
    for directed in (False, True):
        pairs = [(u, v) for u in range(20) for v in range(20) if u != v and (directed or u < v)]
        for p in (0.0, 0.3, 1.0):
            edges = tuple(pairs[i] for i in rng.choice(len(pairs), size=30, replace=False))
            g = Graph(n=25, edges=edges, directed=directed, p=p)
            part = CommunityPartition(labels=tuple(int(c) for c in rng.integers(0, 3, g.n - 3))
                                      + (0, 1, 2))
            sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
            items = sk.items
            # Every stored item holds an end of a live arc, and every such end is in an item.
            comp = _item_labels(items, _touched(g, sk.edge_masks))
            src, dst = np.array(g.edges).T
            r, a = np.nonzero(sk.edge_masks)
            ends = np.r_[comp[r, src[a]], comp[r, dst[a]]]
            assert np.unique(ends).tolist() == list(range(items.count)), (directed, p)
            lone = [sum(not any(live and v in edge for edge, live in zip(g.edges, keep))
                        for keep in sk.edge_masks) for v in range(g.n)]
            assert items.lone.tolist() == lone and min(lone[20:]) == R
            reach = [_reach(g, keep) for keep in sk.edge_masks]
            ev = sk.evaluator(part)
            want = [_community_counts([reach[r][v] for r in range(R)], part) for v in range(g.n)]
            assert np.array_equal(ev.reach_counts, want), (directed, p)
            for seeds in ({0}, {3, 21}, {1, 5, 9, 24}):
                covered = [set().union(*(reach[r][s] for s in seeds)) for r in range(R)]
                want = counts_utilities(_community_counts(covered, part), R, part)
                state = sk.coverage_state(part)
                for v in seeds:
                    state.add(v)
                assert counts_utilities(state.counts, R, part) == want, (directed, p, seeds)
                u = estimate_utilities(sk, SeedSet(frozenset(seeds), len(seeds)), part)
                assert u == want, (directed, p, seeds)
            state = sk.coverage_state(part)
            covered = [set() for _ in range(R)]
            for v in (4, 22, 4, 11):  # 4 twice: a repeated pick adds nothing
                delta = state.add(v)
                new = [reach[r][v] - covered[r] for r in range(R)]
                assert np.array_equal(delta, _community_counts(new, part)), (directed, p, v)
                covered = [c | reach[r][v] for r, c in enumerate(covered)]
                for u in range(g.n):
                    gain = _community_counts([reach[r][u] - covered[r] for r in range(R)], part)
                    assert np.array_equal(state.uncovered[u], gain), (directed, p, v, u)
                    assert np.array_equal(state.gain_counts(u), gain), (directed, p, v, u)
            assert np.array_equal(state.counts, _community_counts(covered, part))


def test_case_study_shape_peak_bytes_per_pair():
    # The paper's case-study shape: 16 communities of 372, within 0.01,
    # between 0.0005, here with R = 200.  Sampling plus a welfare greedy
    # held about 36 bytes per (sketch, vertex) pair while each lone pair
    # was an item with a 16-count row; about 19 with lone counts per vertex.
    g, part = generate_sbm(SbmSpec((372,) * 16, (0.01,) * 16, 0.0005), rng_seed=1)
    R = 200
    tracemalloc.start()
    try:
        sk = sample_sketches(g, R, 0)
        greedy_welfare(sk, part, 30, default_params(-2.0, g.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26 * R * g.n, peak / (R * g.n)


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
    # (n, tails, heads, arcs, p, R): arcs leave only vertices below tails
    # and enter only vertices below heads.  The third is dense: 256 tails
    # form a core in which most pairs are joined through all 256 of them
    # (a count that wraps to 0 in uint8), plus 44 sinks.  The fourth has
    # R = 65 sketches, one bit past a whole uint64 word of the estimate's
    # one bit per sketch.  The last has ten isolated vertices, lone in
    # every sketch, which must still reach themselves.
    # The closure is also rebuilt from the member index: v reaches w iff
    # v is a member of w's item, or w is lone and v is w.
    for n, tails, heads, m, p, R in ((30, 30, 30, 90, 0.5, 12), (120, 120, 120, 400, 0.35, 6),
                                     (300, 256, 300, 2700, 0.9, 2), (30, 30, 30, 90, 0.5, 65),
                                     (40, 30, 30, 60, 0.4, 12)):
        pairs = [(u, v) for u in range(tails) for v in range(heads) if u != v]
        edges = tuple(pairs[i] for i in rng.choice(len(pairs), size=m, replace=False))
        g = Graph(n=n, edges=edges, directed=True, p=p)
        labels = tuple(int(x) for x in rng.integers(0, 3, n - 3)) + (0, 1, 2)
        part = CommunityPartition(labels=labels)
        sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
        closure = sk.closure
        assert closure.shape == (R, n, n)
        comp = _item_labels(sk.items, _touched(g, sk.edge_masks))
        members = sk.items.members.toarray()
        reach = []  # reach[r][v]: vertices v reaches in sketch r
        for r in range(R):
            adj = _live_adjacency(g, sk.edge_masks[r])
            reach.append([_dfs(adj, [v]) for v in range(n)])
            expected = np.zeros((n, n), dtype=bool)
            for v, reached in enumerate(reach[r]):
                expected[v, sorted(reached)] = True
            rebuilt = np.eye(n, dtype=bool)
            touched = comp[r] >= 0
            rebuilt[:, touched] = members[comp[r, touched]].T
            assert np.array_equal(rebuilt, expected), (n, r)
            assert np.array_equal(closure[r], expected), (n, r)
        state = sk.coverage_state(part)
        seeds = [int(v) for v in rng.choice(n, size=3, replace=False)]
        for s in seeds:
            state.add(s)
        covered = [set().union(*(reach[r][s] for s in seeds)) for r in range(R)]
        counts = np.zeros(part.num_communities, dtype=np.int64)
        for r in range(R):
            for w in covered[r]:
                counts[part.labels[w]] += 1
        u = estimate_utilities(sk, SeedSet(frozenset(seeds), 3), part)
        want = tuple(int(c) / (R * n_c) for c, n_c in zip(counts, part.sizes))
        assert u.values == want, (n, R)
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
        touched = _touched(g, sk.edge_masks)
        comp = _item_labels(items, touched)
        sizes = np.diff(items.own.indptr)
        assert (sizes == 1).any() and (sizes >= 3).any()
        reaches = []
        for r in range(R):
            reach = [_dfs(_live_adjacency(g, sk.edge_masks[r]), [v]) for v in range(g.n)]
            reaches.append(reach)
            for v in range(g.n):
                if not touched[r, v]:  # lone: no arc in or out
                    assert reach[v] == {v} and not any(v in reach[w] for w in range(g.n) if w != v)
                    continue
                for w in np.flatnonzero(touched[r]):
                    mutual = w in reach[v] and v in reach[w]
                    assert (comp[r, v] == comp[r, w]) == mutual, (r, v, w)
        assert np.array_equal(items.lone, R - touched.sum(axis=0))
        coverers = [set() for _ in range(items.count)]
        reached = items.reached
        for v in range(g.n):
            got = reached.indices[reached.indptr[v] : reached.indptr[v + 1]].tolist()
            want = {int(comp[r, w]) for r in range(R) for w in reaches[r][v] if touched[r, w]}
            assert len(got) == len(want) and set(got) == want, v
            for i in want:
                coverers[i].add(v)
        members = items.members
        assert members.shape == (items.count, g.n) and reached.shape == (g.n, items.count)
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
    # Directed estimates run the same worklist with one bit per sketch.
    n = 1000
    rng = np.random.default_rng(17)
    part = CommunityPartition(labels=tuple(v % 3 for v in range(n)))
    path = [(v, v + 1) for v in range(n - 1)]
    shuffled = [path[i] for i in rng.permutation(n - 1)]
    for directed in (False, True):
        for edges in (path[::-1], shuffled) + ((path,) if directed else ()):
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
                if not directed:
                    continue
                t0 = time.perf_counter()
                sk = sample_sketches(g, 100, 0)
                got = [estimate_utilities(sk, SeedSet(frozenset({s}), 1), part).values
                       for s in (0, n // 3)]
                elapsed = time.perf_counter() - t0
                assert elapsed < 0.25, (edges[0], p, elapsed)
                for s, values in zip((0, n // 3), got):
                    assert values == tuple(map(float, _dfs_utilities(g, {s}, part))), s


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
