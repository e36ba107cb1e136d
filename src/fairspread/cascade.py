"""Independent-cascade diffusion and live-edge sketch estimation.

Utilities are always per-community expected influenced fractions.  The
Monte Carlo estimator works on a fixed set of live-edge sketches so
that every objective built on top of it is a deterministic monotone
submodular set function.  For undirected graphs a sketch keeps each
edge with probability p and influence equals component membership; for
directed graphs each arc is kept independently.  (For a fixed seed set
both conventions have identical activation marginals, since the
cascade can traverse an edge in at most one consequential direction.)

An exact oracle enumerates live-edge realizations for small graphs and
returns rational utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import EnumerationLimitError, GraphFormatError
from .graph import CommunityPartition, Graph, SeedSet

# Bytes per temporary when the greedy tables are summed in chunks.
_CHUNK_BYTES = 1 << 20

# Reach masks of the exact oracle hold one bit per edge endpoint in a
# uint64, so 2 * EXACT_COIN_LIMIT <= 64 must hold.
EXACT_COIN_LIMIT = 20


@dataclass(frozen=True)
class UtilityVector:
    """Per-community utilities u_c in [0, 1] with community sizes."""

    values: tuple
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.sizes):
            raise GraphFormatError("utility/size length mismatch")
        for u in self.values:
            if not (0 <= u <= 1):
                raise GraphFormatError(f"utility {u} outside [0, 1]")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(u) for u in self.values)


def simulate_once(g: Graph, seeds: SeedSet, rng: np.random.Generator) -> set[int]:
    """One IC realization; returns the activated vertex set."""
    seeds.check_ids(g.n)
    adj = g.out_neighbors()
    active = set(seeds.vertices)
    frontier = sorted(active)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in active and rng.random() < g.p:
                    active.add(v)
                    nxt.append(v)
        frontier = sorted(set(nxt))
    return active


def _sketch_masks(m: int, p: float, R: int, master_seed) -> np.ndarray:
    """(R, m) keep-masks; sketch i is keyed by (master_seed, i)."""
    key = master_seed if isinstance(master_seed, (tuple, list)) else (master_seed,)
    masks = np.empty((R, m), dtype=bool)
    for i in range(R):
        rng = np.random.default_rng((*key, i))
        masks[i] = rng.random(m) < p
    return masks


def _live_components(graph: Graph, edge_masks: np.ndarray) -> tuple[int, np.ndarray]:
    """Strongly connected components of every sketch's live arcs.

    Sketch r's vertex v is vertex r * n + v of one block-diagonal graph
    of the live arcs; an undirected graph's strongly connected
    components are its components.  Returns their number and their
    (R, n) labels, which are unique across sketches: each sketch's
    labels form one range, which precedes the next sketch's.
    """
    R, n = len(edge_masks), graph.n
    index = np.int32 if R * n < 2**31 else np.int64
    # float64 weights, connected_components' dtype, spare it a copy.
    src, dst = np.array(graph.edges, dtype=index).reshape(-1, 2).T
    r, a = np.nonzero(edge_masks)
    r = r.astype(index) * n
    rows = r + src[a]
    r += dst[a]
    del a
    big = sp.csr_matrix((np.ones(len(rows)), (rows, r)), shape=(R * n, R * n))
    del rows, r
    count, labels = connected_components(big, directed=graph.directed, connection="strong")
    return int(count), labels.reshape(R, n)


class _Items:
    """The coverage items of a sketch set: the strongly connected
    components of each sketch's live arcs.

    ``comp[r, v]`` is the item holding vertex v in sketch r, labelled as
    by ``_live_components``.  A vertex covers every item it reaches, and
    ``reached[v]`` lists them: row v of ``table``, an (n, count) CSR
    matrix.  Without a table a vertex reaches only its own item in each
    sketch: the undirected case, with no arcs between items.
    """

    def __init__(self, count: int, comp: np.ndarray, table: sp.csr_matrix | None = None):
        self.count = count
        self.comp = comp
        self.table = table
        self.reached = comp.T if table is None else np.split(table.indices, table.indptr[1:-1])

    def blocks(self):
        """Yield (lo, B) over consecutive label ranges: row i of the CSR
        matrix B lists the vertices that reach item lo + i."""
        if self.table is not None:
            yield 0, self.table.T.tocsr()
            return
        # scipy numbers components by smallest vertex, so a chunk of
        # sketches holds one label range, which starts at its vertex 0's.
        n = self.comp.shape[1]
        step = max(1, _CHUNK_BYTES // (8 * n))
        vertex = np.broadcast_to(np.arange(n, dtype=np.int32), (step, n))
        for r in range(0, len(self.comp), step):
            labels = self.comp[r : r + step]
            lo, hi = labels[0, 0], labels[-1].max() + 1
            pairs = (labels.ravel() - lo, vertex[: len(labels)].ravel())
            yield lo, sp.csr_matrix((np.ones(labels.size, dtype=np.int8), pairs),
                                    shape=(hi - lo, n))


class _SketchSet:
    """R live-edge sketches of a graph; sketch i is keyed by (master_seed, i)."""

    def __init__(self, graph: Graph, R: int, master_seed):
        if R < 1:
            raise GraphFormatError("sketch count must be >= 1")
        self.graph = graph
        self.R = R
        self.master_seed = master_seed
        self.edge_masks = _sketch_masks(len(graph.edges), graph.p, R, master_seed)
        self._evaluators: dict[CommunityPartition, "_Evaluator"] = {}

    def evaluator(self, part: CommunityPartition) -> "_Evaluator":
        """Evaluator for part, shared by every partition equal to it."""
        if part not in self._evaluators:
            self._evaluators[part] = _Evaluator(self, part)
        return self._evaluators[part]

    def coverage_state(self, part: CommunityPartition) -> "CoverageState":
        return CoverageState(self.evaluator(part))


class UndirectedSketchSet(_SketchSet):
    """Live-edge sketches of an undirected graph, whose components,
    labelled when the set is built, are its coverage items."""

    def __init__(self, graph: Graph, R: int, master_seed):
        super().__init__(graph, R, master_seed)
        self.num_comps, self.comp = _live_components(graph, self.edge_masks)
        self.items = _Items(self.num_comps, self.comp)

    # The class's own attribute, which bench/tracing.py times.
    evaluator = _SketchSet.evaluator


class DirectedSketchSet(_SketchSet):
    """Live-edge sketches of a directed graph with cached reachability."""

    def __init__(self, graph: Graph, R: int, master_seed):
        super().__init__(graph, R, master_seed)
        self._closure = None

    @property
    def closure(self) -> np.ndarray:
        """(R, n, n) boolean reachability per sketch (v reaches w).

        Built from the backward reach of every singleton {w}, whose
        storage is vertex-major in v, so that the coverage row
        closure[:, v, :] is one contiguous (R, n) block.
        """
        if self._closure is None:
            singletons = [[w] for w in range(self.graph.n)]
            self._closure = _live_reach(self, singletons, backward=True).transpose(0, 2, 1)
        return self._closure

    @cached_property
    def items(self) -> _Items:
        """The strongly connected components (SCCs) of each sketch and
        the SCCs each vertex reaches.

        Built from the closure by the first evaluator: a vertex reaches
        an SCC iff it reaches the SCC's first vertex.  Estimates need
        neither (see estimate_utilities).
        """
        count, comp = _live_components(self.graph, self.edge_masks)
        first = np.zeros(comp.size, dtype=bool)
        first[np.unique(comp, return_index=True)[1]] = True
        first = first.reshape(comp.shape)
        reached = [comp[row & first] for row in self.closure.transpose(1, 0, 2)]
        indptr = np.cumsum([0] + [len(items) for items in reached])
        table = sp.csr_matrix((np.ones(indptr[-1], dtype=np.int8), np.concatenate(reached), indptr),
                              shape=(self.graph.n, count))
        return _Items(count, comp, table)


class _Evaluator:
    """Community counts of the coverage items of one sketch set under one partition.

    ``comp_comm[i, c]`` counts community c's vertices in item i.  The
    greedy tables (``reach_counts`` and the member index) are built on
    first use, so an evaluator that only estimates utilities never pays
    for them.
    """

    def __init__(self, sk: _SketchSet, part: CommunityPartition):
        if len(part.labels) != sk.graph.n:
            raise GraphFormatError("community partition does not match sketch graph")
        self.sk = sk
        self.part = part
        self.items = sk.items
        C = part.num_communities
        key = np.multiply(self.items.comp, C, dtype=np.int64)
        key += np.asarray(part.labels, dtype=np.int64)
        self.comp_comm = np.bincount(key.ravel(), minlength=self.items.count * C).reshape(-1, C)

    @cached_property
    def reach_counts(self) -> np.ndarray:
        """(n, C) counts G[v]: comp_comm summed over the items v reaches."""
        G = np.zeros((self.sk.graph.n, self.part.num_communities), dtype=np.int64)
        for lo, block in self.items.blocks():
            G += block.T @ self.comp_comm[lo : lo + block.shape[0]]
        return G

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, members): the vertices that reach item i are
        ``members[starts[i]:starts[i + 1]]`` if two or more do; else the
        range is empty."""
        starts = np.zeros(self.items.count + 1, dtype=np.int64)
        found = []
        for lo, block in self.items.blocks():
            size = np.diff(block.indptr)
            multi = size >= 2
            starts[lo + 1 : lo + 1 + len(size)] = np.where(multi, size, 0)
            found.append(block.indices[np.repeat(multi, size)])
        np.cumsum(starts, out=starts)
        return starts, np.concatenate(found)

    def coverage_counts(self, seeds) -> np.ndarray:
        """Influenced counts per community summed over all sketches."""
        if not seeds:
            return np.zeros(self.part.num_communities, dtype=np.int64)
        flags = np.zeros(self.items.count, dtype=bool)
        flags[np.concatenate([self.items.reached[v] for v in seeds])] = True
        return self.comp_comm[flags].sum(axis=0)


class CoverageState:
    """Incrementally tracked coverage of a growing seed set.

    ``uncovered[u]`` counts, per community, the (sketch, vertex) pairs
    that u would newly cover: ``gain_counts(u)`` for every vertex not
    yet added.  ``add`` keeps it current by subtracting each newly
    covered item's counts from the rows of the vertices that reach it.
    An item that one vertex alone reaches is covered only by that
    vertex, which is never a candidate again, so rows of added vertices
    may go stale.
    """

    def __init__(self, ev: _Evaluator):
        self.sk = ev.sk
        self.ev = ev
        self.covered = np.zeros(ev.items.count, dtype=bool)
        self.counts = np.zeros(ev.part.num_communities, dtype=np.int64)
        self.uncovered = ev.reach_counts.copy()

    def gain_counts(self, v: int) -> np.ndarray:
        """Counts v would add, recomputed from the covered flags."""
        cols = self.ev.items.reached[v]
        new = cols[~self.covered[cols]]
        return self.ev.comp_comm[new].sum(axis=0)

    def add(self, v: int) -> np.ndarray:
        cols = self.ev.items.reached[v]
        new = cols[~self.covered[cols]]
        delta = self.ev.comp_comm[new].sum(axis=0)
        self.covered[cols] = True
        self.counts += delta
        starts, members = self.ev.members
        multi = new[starts[new + 1] > starts[new]]
        if len(multi):
            lo, sizes = starts[multi], starts[multi + 1] - starts[multi]
            first = np.cumsum(sizes) - sizes  # where each item's members begin in rows
            rows = members[np.arange(first[-1] + sizes[-1]) + np.repeat(lo - first, sizes)]
            # Float sums of counts of at most R * n < 2**53 are exact.
            for c, counts in enumerate(self.ev.comp_comm[multi].T.astype(np.float64)):
                dec = np.bincount(rows, np.repeat(counts, sizes), minlength=len(self.uncovered))
                self.uncovered[:, c] -= dec.astype(np.int64)
        return delta


SketchSet = UndirectedSketchSet | DirectedSketchSet


def sample_sketches(g: Graph, R: int, master_seed) -> SketchSet:
    """Draw R live-edge sketches keyed by (master_seed, sketch index)."""
    if g.directed:
        return DirectedSketchSet(g, R, master_seed)
    return UndirectedSketchSet(g, R, master_seed)


def _live_reach(sk: DirectedSketchSet, starts, backward: bool = False) -> np.ndarray:
    """(R, len(starts), n) table: start set s reaches w over sketch r's live arcs.

    With backward=True arcs are followed in reverse, so entry [r, s, w]
    says that w reaches start set s.  The table is a view of
    vertex-major (n, R, len(starts)) storage: a sweep over the arcs ORs
    one contiguous (R, len(starts)) block into another per arc, and
    sweeps repeat until nothing changes.
    """
    reach = np.zeros((sk.graph.n, sk.R, len(starts)), dtype=bool)
    for s, start in enumerate(starts):
        reach[sorted(start), :, s] = True
    live = np.ascontiguousarray(sk.edge_masks.T)[:, :, None]  # (m, R, 1)
    arcs = [(a, v, u) if backward else (a, u, v) for a, (u, v) in enumerate(sk.graph.edges)]
    step = np.empty(reach.shape[1:], dtype=bool)
    before, count = -1, np.count_nonzero(reach)
    while count != before:
        for a, u, v in arcs:
            np.logical_and(reach[u], live[a], out=step)
            reach[v] |= step
        before, count = count, np.count_nonzero(reach)
    return reach.transpose(1, 2, 0)


def estimate_utilities(sk: SketchSet, seeds: SeedSet, part: CommunityPartition) -> UtilityVector:
    """Sketch-averaged utilities; pure function of (sketches, seeds, part)."""
    seeds.check_ids(sk.graph.n)
    if isinstance(sk, UndirectedSketchSet):
        counts = sk.evaluator(part).coverage_counts(seeds.vertices)
    else:
        if len(part.labels) != sk.graph.n:
            raise GraphFormatError("community partition does not match sketch graph")
        active = _live_reach(sk, [seeds.vertices])[:, 0, :]
        labels = np.asarray(part.labels, dtype=np.int64)
        counts = np.array(
            [int(active[:, labels == c].sum()) for c in range(part.num_communities)],
            dtype=np.int64,
        )
    values = tuple(
        int(c) / (sk.R * n_c) for c, n_c in zip(counts, part.sizes)
    )
    return UtilityVector(values=values, sizes=part.sizes)


# --- exact oracle -----------------------------------------------------------


def _reachable(adj: list[list[int]], seeds) -> set[int]:
    active = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in active:
                active.add(v)
                stack.append(v)
    return active


def _coin_weights(p: float, m: int) -> list[Fraction]:
    """Probability of one live-edge subset with j of its m coins live, j = 0..m.

    p originates from a decimal literal and is read exactly as such
    (Fraction(0.35) would be the binary float's rational, not 7/20).
    """
    q = Fraction(str(p))
    return [q**j * (1 - q) ** (m - j) for j in range(m + 1)]


class _LiveEdgeSubsets:
    """All 2^m live-edge subsets of a graph with at most EXACT_COIN_LIMIT coins.

    Each undirected edge is a single coin (both directions), each
    directed arc its own coin; subset s keeps coin a iff bit a of s is
    set.  A reach mask has bit i set iff the i-th smallest edge endpoint
    is reached.  A vertex touching no edge reaches only itself in every
    subset, so it has no bit and adds a constant 1 to its community.
    """

    def __init__(self, g: Graph, part: CommunityPartition):
        m = len(g.edges)
        if m > EXACT_COIN_LIMIT:
            raise EnumerationLimitError(
                f"{m} coins exceed the enumeration limit {EXACT_COIN_LIMIT} "
                "with p not in {0, 1}"
            )
        self.part = part
        self.endpoints = sorted({u for e in g.edges for u in e})
        self.bit = {v: i for i, v in enumerate(self.endpoints)}
        self.arcs = [(a, self.bit[u], self.bit[v]) for a, (u, v) in enumerate(g.edges)]
        if not g.directed:
            self.arcs += [(a, v, u) for a, u, v in self.arcs]
        comm_masks = [0] * part.num_communities
        for v, i in self.bit.items():
            comm_masks[part.labels[v]] |= 1 << i
        self.comm_masks = np.array(comm_masks, dtype=np.uint64)
        self.num_subsets = 1 << m
        # Subsets ordered by their number of live coins; group j starts
        # at by_coins[j] (every group is non-empty).
        coins = np.bitwise_count(np.arange(self.num_subsets, dtype=np.uint64))
        self.order = np.argsort(coins, kind="stable")
        self.by_coins = np.searchsorted(coins[self.order], np.arange(m + 1))
        self.weights = _coin_weights(g.p, m)

    def reach(self, starts) -> np.ndarray:
        """(len(starts), 2^m) reach masks of each start vertex set in every subset."""
        reach = np.zeros((len(starts), self.num_subsets), dtype=np.uint64)
        for row, start in zip(reach, starts):
            row[:] = sum(1 << self.bit[v] for v in start if v in self.bit)
            while True:
                before = row.copy()
                for a, u, v in self.arcs:
                    live = row.reshape(-1, 2, 1 << a)[:, 1, :]  # subsets keeping coin a
                    live |= ((live >> u) & 1) << v
                if np.array_equal(row, before):
                    break
        return reach

    def utilities(self, cover: np.ndarray, seeds) -> UtilityVector:
        """Exact utilities of a seed set whose reach masks are ``cover``."""
        hits = np.bitwise_count(cover[self.order, None] & self.comm_masks)
        counts = np.add.reduceat(hits, self.by_coins, axis=0, dtype=np.int64)
        isolated = [0] * self.part.num_communities
        for v in seeds:
            if v not in self.bit:
                isolated[self.part.labels[v]] += 1
        values = tuple(
            Fraction(sum(int(n) * w for n, w in zip(counts[:, c], self.weights)) + iso, n_c)
            for c, (iso, n_c) in enumerate(zip(isolated, self.part.sizes))
        )
        return UtilityVector(values=values, sizes=self.part.sizes)


def exact_utilities(g: Graph, seeds: SeedSet, part: CommunityPartition) -> UtilityVector:
    """Exact rational utilities by live-edge enumeration.

    Each undirected edge is a single coin (both directions), each
    directed arc its own coin.  Requires at most EXACT_COIN_LIMIT coins
    unless p is 0 or 1, in which case plain reachability applies at any
    size.
    """
    seeds.check_ids(g.n)
    if len(part.labels) != g.n:
        raise GraphFormatError("community partition does not match graph")
    sizes = part.sizes
    if g.p == 0.0 or g.p == 1.0:
        adj = g.out_neighbors() if g.p == 1.0 else [[] for _ in range(g.n)]
        active = _reachable(adj, seeds.vertices)
        counts = [0] * part.num_communities
        for v in active:
            counts[part.labels[v]] += 1
        values = tuple(Fraction(c, n_c) for c, n_c in zip(counts, sizes))
        return UtilityVector(values=values, sizes=sizes)
    subsets = _LiveEdgeSubsets(g, part)
    return subsets.utilities(subsets.reach([seeds.vertices])[0], seeds.vertices)
