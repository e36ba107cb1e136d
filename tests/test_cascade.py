"""Diffusion, sketch estimation and exact oracle tests."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

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


def test_uncovered_rows_track_gain_counts():
    # p = 0.25 leaves both singleton and multi-vertex components in the
    # undirected sketches; the directed graph adds reversed arcs.
    g, part = generate_sbm(SbmSpec((15, 15, 10), (0.2, 0.2, 0.3), 0.04), rng_seed=3)
    reversed_half = tuple((v, u) for u, v in g.edges[::2])
    dg = Graph(n=g.n, edges=g.edges + reversed_half, directed=True, p=g.p)
    undirected = sample_sketches(g, 40, 2)
    sizes = np.bincount(undirected.comp.ravel())
    assert (sizes == 1).any() and (sizes >= 2).any()
    for sk in (undirected, sample_sketches(dg, 40, 2)):
        state = sk.coverage_state(part)
        chosen = []
        for v in [None, *np.random.default_rng(5).permutation(g.n)[:12]]:
            if v is not None:
                state.add(int(v))
                chosen.append(int(v))
            for u in range(g.n):
                if u not in chosen:
                    assert np.array_equal(state.uncovered[u], state.gain_counts(u)), (v, u)


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
        starts, members = ev.members
        assert len(starts) == sk.num_comps + 1 and starts[0] == 0
        assert starts[-1] == len(members)
        if g.p == 0.0 or not g.edges:
            assert len(members) == 0
        assert np.unique(sk.comp).tolist() == list(range(sk.num_comps))
        # No label spans two sketches.
        assert sum(len(np.unique(row)) for row in sk.comp) == sk.num_comps
        for r in range(R):
            found = {}
            for v, label in enumerate(sk.comp[r]):
                found.setdefault(int(label), set()).add(v)
            assert {frozenset(c) for c in found.values()} == _live_components(g, sk.edge_masks[r])
            for label, comp in found.items():
                got = members[starts[label] : starts[label + 1]].tolist()
                if len(comp) == 1:
                    assert got == [], (r, label)
                else:
                    assert sorted(got) == sorted(comp), (r, label)
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
        labels = tuple(int(x) for x in rng.integers(0, 2, g.n - 2)) + (0, 1)
        part = CommunityPartition(labels=labels)
        sk = sample_sketches(g, R, int(rng.integers(0, 1000)))
        items = sk.items
        comp = items.comp
        sizes = np.bincount(comp.ravel())
        assert (sizes == 1).any() and (sizes >= 3).any()
        first = 0
        for r in range(R):
            reach = [_dfs(_live_adjacency(g, sk.edge_masks[r]), [v]) for v in range(g.n)]
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
            want = set().union(*(comp[r, sk.closure[r, v]].tolist() for r in range(R)))
            assert len(got) == len(want) and set(got) == want, v
            for i in got:
                coverers[i].add(v)
        starts, members = sk.evaluator(part).members
        assert len(starts) == items.count + 1 and starts[-1] == len(members)
        for i, want in enumerate(coverers):
            got = members[starts[i] : starts[i + 1]].tolist()
            assert sorted(got) == (sorted(want) if len(want) >= 2 else []), i


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
    for i in range(20):
        g, part = _random_exact_instance(
            rng, directed=bool(i % 2), n=int(rng.integers(4, 9)), m=int(rng.integers(0, 11))
        )
        for size in (1, 2, 3):
            vs = frozenset(int(v) for v in rng.choice(g.n, size=size, replace=False))
            got = exact_utilities(g, SeedSet(vs, size), part).values
            assert got == _exact_by_loop(g, vs, part), (i, g, vs)
            assert all(isinstance(x, Fraction) for x in got)
        k = 1 + i % 2
        for combo, u in enumerate_seed_set_utilities(g, part, k):
            assert u.values == _exact_by_loop(g, combo, part), (i, g, combo)
            assert all(isinstance(x, Fraction) for x in u.values)


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
