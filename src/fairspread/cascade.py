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

scipy.sparse is imported only by the functions that build a sketch
set's sparse matrices or label its components, so a command that draws
no sketches never loads it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import EnumerationLimitError, GraphFormatError
from .graph import CommunityPartition, Graph, SeedSet

# Bytes per temporary when the member index is filled or summed in chunks.
_CHUNK_BYTES = 1 << 20

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

# Most keep-mask rows drawn per block.  A block's states are held as
# Python ints; an R-long list of them would pin heap pages during large
# sketch builds.
_SEED_CHUNK = 256

# Most coins the exact oracle enumerates: a reach table row then holds
# 2**20 subset bits (128 KiB).
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


def _key_words(key) -> list[int]:
    """The uint32 words numpy's SeedSequence reads from an integer or a
    nested sequence of integers: each integer little-endian, 0 as one word."""
    if isinstance(key, (tuple, list)):
        return [w for part in key for w in _key_words(part)]
    value = operator.index(key)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_states(key: list[int], count: int) -> np.ndarray:
    """(count, 4) uint64: ``SeedSequence((*key, i)).generate_state(4, np.uint64)``
    for i = 0, ..., count - 1, with key given as its words.

    numpy's SeedSequence mixing (pool of four uint32 words, no spawn key)
    on uint32 lanes, one lane per sketch; i < 2**32 is one entropy word.
    """
    entropy = np.zeros((max(len(key) + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[: len(key)] = np.array(key, dtype=np.uint32)[:, None]
    entropy[len(key)] = np.arange(count)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], _INIT_B
    for j in range(8):
        value = pool[j % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])], axis=1)


def _sketch_masks(m: int, p: float, R: int, master_seed) -> np.ndarray:
    """(R, m) keep-masks; sketch i is keyed by (master_seed, i).

    Row i is ``np.random.default_rng((*key, i)).random(m) < p``, bit for
    bit.  Instead of a Generator per sketch, the SeedSequence states of
    all R sketches are hashed at once, and each is loaded into one reused
    PCG64 as PCG's srandom_r would seed it.  A block of rows is drawn
    into one buffer of about ``_CHUNK_BYTES``, at most ``_SEED_CHUNK``
    rows, and thresholded by one comparison; the block's states become
    Python ints only while it is drawn.
    """
    states = _seed_states(_key_words(master_seed), R)
    masks = np.empty((R, m), dtype=bool)
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    rows = max(1, min(_SEED_CHUNK, _CHUNK_BYTES // (8 * max(m, 1))))
    draws = np.empty((rows, m))
    for lo in range(0, R, rows):
        block = states[lo : lo + rows].tolist()
        for row, (state_hi, state_lo, seq_hi, seq_lo) in zip(draws, block):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            rng.random(out=row)
        np.less(draws[: len(block)], p, out=masks[lo : lo + len(block)])
    return masks


def _sketch_step(n: int) -> int:
    """Sketches per chunk when an (R, n) table is processed in chunks."""
    return max(1, _CHUNK_BYTES // (8 * n))


def _vertex_dtype(R: int, n: int):
    """Index dtype of the R * n sketch vertices: int32 while it fits."""
    return np.int32 if R * n < 2**31 else np.int64


def _live_arcs(graph: Graph, edge_masks: np.ndarray):
    """The live arcs of one chunk of ``_sketch_step(n)`` sketches at a time.

    Yields (first, last, tail, head): the chunk's sketches [first, last)
    and its live arcs as vertices of one block-diagonal graph, where
    sketch first + r's vertex v is vertex r * n + v.  The edge list is
    sorted once by (tail, head), so the arcs come out ordered by tail
    and, for one tail, by head: the order of a canonical CSR matrix.
    """
    R, n = len(edge_masks), graph.n
    index = _vertex_dtype(R, n)
    edges = np.array(graph.edges, dtype=index).reshape(-1, 2)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    src, dst = edges[order].T
    step = _sketch_step(n)
    for lo in range(0, R, step):
        chunk = edge_masks[lo : lo + step]
        # Yielded without a name, so the consumer alone holds the arcs.
        yield lo, lo + len(chunk), *_block_arcs(chunk, order, src, dst, n)


def _block_arcs(chunk, order, src, dst, n):
    """(tail, head) of the live arcs of a chunk of keep-masks whose
    columns, taken in ``order``, are the arcs (src, dst)."""
    # Flat positions stay int64: a chunk may hold more than 2**31 of them.
    r, a = np.divmod(np.flatnonzero(chunk[:, order]), len(order))
    r = r.astype(src.dtype)
    r *= n
    tail, head = src[a], dst[a]
    del a
    tail += r
    head += r
    return tail, head


def _live_components(graph: Graph, edge_masks: np.ndarray) -> tuple[int, np.ndarray]:
    """Strongly connected components of every sketch's live arcs.

    Returns their number and their (R, n) labels, which are unique across
    sketches: each sketch's labels form one range, which precedes the
    next sketch's.  Each chunk of ``_live_arcs`` is labelled as one
    graph, and its labels are offset by the count of the chunks before
    it.  Its arcs are already in CSR order, so the block is built as a
    CSR matrix directly, its row pointers counted from the tails: the
    canonical matrix, with no sort.  An undirected graph's strongly
    connected components are its components.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    R, n = len(edge_masks), graph.n
    comp = np.empty((R, n), dtype=_vertex_dtype(R, n))
    count = 0
    for lo, hi, tail, head in _live_arcs(graph, edge_masks):
        size = (hi - lo) * n
        indptr = np.zeros(size + 1, dtype=comp.dtype)
        np.cumsum(np.bincount(tail, minlength=size), out=indptr[1:])
        # float64 weights, connected_components' dtype, spare it a copy.
        block = sp.csr_matrix((np.ones(len(head)), head, indptr), shape=(size, size))
        del tail, head
        found, labels = connected_components(block, directed=graph.directed,
                                             connection="strong")
        comp[lo:hi] = labels.reshape(-1, n)
        comp[lo:hi] += count
        count += int(found)
    return count, comp


class _Items:
    """The coverage items of a sketch set: the strongly connected
    components (SCCs) of each sketch's live arcs.

    ``comp[r, v]`` is the item holding vertex v in sketch r, labelled as
    by ``_live_components``.  ``arcs``, a (count, count) boolean CSR
    matrix, has entry [i, j] if a live arc leads from item j into item
    i; an undirected set has none.  A vertex covers every item it
    reaches: ``members`` lists them by item and ``reached`` by vertex.
    """

    def __init__(self, count: int, comp: np.ndarray, arcs=None):
        self.count = count
        self.comp = comp
        self.arcs = arcs if arcs is not None and arcs.nnz else None

    def sketch_chunks(self):
        """(first sketch, labels, lo, hi) per chunk of ``_sketch_step``
        sketches: ``labels`` is the chunk's rows of ``comp``, which hold
        the item range [lo, hi)."""
        R, n = self.comp.shape
        step = _sketch_step(n)
        lo = 0
        for r in range(0, R, step):
            labels = self.comp[r : r + step]
            hi = int(labels.max()) + 1
            yield r, labels, lo, hi
            lo = hi

    @cached_property
    def members(self):
        """(count, n) boolean CSR matrix: row i lists every vertex that reaches item i.

        It starts as each item's own vertices, filled in place from
        ``comp`` one chunk of sketches at a time.  Then, level by level,
        each item gains the vertices that the items with arcs into it
        gained at the level before, until no item gains any.
        """
        import scipy.sparse as sp

        R, n = self.comp.shape
        indices = np.empty(R * n, dtype=np.int32)
        indptr = np.zeros(self.count + 1, dtype=self.comp.dtype)
        vertex = np.broadcast_to(np.arange(n, dtype=np.int32), (_sketch_step(n), n))
        for r, labels, lo, hi in self.sketch_chunks():
            pairs = (labels.ravel() - lo, vertex[: len(labels)].ravel())
            block = sp.csr_matrix((np.ones(labels.size, dtype=bool), pairs), shape=(hi - lo, n))
            indices[r * n : r * n + labels.size] = block.indices
            indptr[lo + 1 : hi + 1] = block.indptr[1:] + r * n
        members = frontier = sp.csr_matrix((np.ones(R * n, dtype=bool), indices, indptr),
                                           shape=(self.count, n))
        while self.arcs is not None and frontier.nnz:
            gained = self.arcs @ frontier  # boolean, so no count of paths can wrap
            frontier = gained > members  # the entries not yet in members
            members = members + frontier
        return members

    @cached_property
    def reached(self):
        """reached[v] lists the items vertex v reaches."""
        if self.arcs is None:
            return self.comp.T
        by_vertex = self.members.T.tocsr()
        return np.split(by_vertex.indices, by_vertex.indptr[1:-1])


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
    """Live-edge sketches of a directed graph, whose strongly connected
    components are labelled when a greedy first needs them."""

    @property
    def closure(self) -> np.ndarray:
        """(R, n, n) boolean reachability per sketch (v reaches w), read
        from the member index: v reaches w iff it reaches w's SCC."""
        R, n = self.R, self.graph.n
        rows = self.items.members[self.items.comp.ravel()]
        return rows.toarray().reshape(R, n, n).transpose(0, 2, 1)

    @cached_property
    def items(self) -> _Items:
        """The strongly connected components (SCCs) of each sketch and
        the live arcs between them.  Estimates need neither (see
        estimate_utilities)."""
        import scipy.sparse as sp

        count, comp = _live_components(self.graph, self.edge_masks)
        labels, n = comp.ravel(), self.graph.n
        heads, tails = [], []
        for lo, _, tail, head in _live_arcs(self.graph, self.edge_masks):
            first = lo * n  # the chunk's first entry of labels
            tail, head = labels[first + tail], labels[first + head]
            cross = tail != head
            heads.append(head[cross])
            tails.append(tail[cross])
        head, tail = np.concatenate(heads), np.concatenate(tails)
        arcs = sp.csr_matrix((np.ones(len(head), dtype=bool), (head, tail)),
                             shape=(count, count))
        return _Items(count, comp, arcs)


class _Evaluator:
    """Community counts of the coverage items of one sketch set under one partition.

    ``comp_comm[i, c]`` counts community c's vertices in item i.  An item
    holds at most n vertices, so the counts are int32; every sum over
    items (``reach_counts``, ``coverage_counts``, a state's ``counts``)
    is int64.  ``reach_counts`` is built from the member index on first
    use, so an evaluator that only estimates utilities never builds the
    index.  The evaluator keeps the sketch set's items, not the set, so
    that the set's evaluator cache forms no reference cycle.
    """

    def __init__(self, sk: _SketchSet, part: CommunityPartition):
        n = sk.graph.n
        if len(part.labels) != n:
            raise GraphFormatError("community partition does not match sketch graph")
        self.n = n
        self.part = part
        self.items = sk.items
        C = part.num_communities
        community = np.asarray(part.labels, dtype=np.int64)
        self.comp_comm = np.empty((self.items.count, C), dtype=np.int32)
        for _, labels, lo, hi in self.items.sketch_chunks():
            key = np.multiply(labels - lo, C, dtype=np.int64)
            key += community
            counts = np.bincount(key.ravel(), minlength=(hi - lo) * C)
            self.comp_comm[lo:hi] = counts.reshape(-1, C)

    @cached_property
    def reach_counts(self) -> np.ndarray:
        """(n, C) counts G[v]: comp_comm summed over the items v reaches.

        Summed in int64 over chunks of item rows, since the sparse product
        multiplies a copy of the index's data, one chunk of it at a time.
        """
        members = self.items.members
        G = np.zeros((self.n, self.part.num_communities), dtype=np.int64)
        per_chunk = _CHUNK_BYTES // 8
        cuts = np.searchsorted(members.indptr, np.arange(per_chunk, members.nnz, per_chunk))
        for lo, hi in zip([0, *cuts], [*cuts, self.items.count]):
            G += members[lo:hi].T @ self.comp_comm[lo:hi].astype(np.int64)
        return G

    def coverage_counts(self, seeds) -> np.ndarray:
        """Influenced counts per community summed over all sketches."""
        if not seeds:
            return np.zeros(self.part.num_communities, dtype=np.int64)
        flags = np.zeros(self.items.count, dtype=bool)
        flags[np.concatenate([self.items.reached[v] for v in seeds])] = True
        return self.comp_comm[flags].sum(axis=0, dtype=np.int64)


class CoverageState:
    """Incrementally tracked coverage of a growing seed set.

    ``uncovered[u]`` counts, per community, the (sketch, vertex) pairs
    that u would newly cover: ``gain_counts(u)`` for every vertex.
    ``add`` keeps it current by subtracting each newly covered item's
    counts from the rows of every vertex that reaches it.
    """

    def __init__(self, ev: _Evaluator):
        self.ev = ev
        self.covered = np.zeros(ev.items.count, dtype=bool)
        self.counts = np.zeros(ev.part.num_communities, dtype=np.int64)
        self.uncovered = ev.reach_counts.copy()

    def gain_counts(self, v: int) -> np.ndarray:
        """Counts v would add, recomputed from the covered flags."""
        cols = self.ev.items.reached[v]
        new = cols[~self.covered[cols]]
        return self.ev.comp_comm[new].sum(axis=0, dtype=np.int64)

    def add(self, v: int) -> np.ndarray:
        """Cover what v reaches; returns the counts it added.

        The newly covered items' member rows are decremented in chunks:
        the items whose first row falls in one run of ``_CHUNK_BYTES // 8``
        rows, so a first pick that covers millions of rows holds the
        transients of about that many rows at a time.  The usual small
        add is one chunk.
        """
        cols = self.ev.items.reached[v]
        new = cols[~self.covered[cols]]
        counts = self.ev.comp_comm[new]
        delta = counts.sum(axis=0, dtype=np.int64)
        self.covered[cols] = True
        self.counts += delta
        indptr = self.ev.items.members.indptr
        starts = indptr[new]
        sizes = indptr[new + 1] - starts
        # Float sums of counts of at most R * n < 2**53 are exact.
        weights = counts.T.astype(np.float64)
        per_chunk = _CHUNK_BYTES // 8
        if sizes.sum() <= per_chunk:
            self._decrement(starts, sizes, weights)
            return delta
        first = (np.cumsum(sizes) - sizes) // per_chunk
        cuts = np.flatnonzero(first[1:] != first[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(new)]):
            self._decrement(starts[lo:hi], sizes[lo:hi], weights[:, lo:hi])
        return delta

    def _decrement(self, starts, sizes, weights) -> None:
        """Subtract each item's weights from its member rows of ``uncovered``.

        The rows are gathered with numpy: a sparse matrix's per-call
        overhead would dominate a greedy's many small adds.
        """
        members = self.ev.items.members
        at = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        at += np.arange(len(at))  # the index entries of the items' rows
        rows = members.indices[at]
        del at
        for c, w in enumerate(weights):
            dec = np.bincount(rows, np.repeat(w, sizes), minlength=len(self.uncovered))
            self.uncovered[:, c] -= dec.astype(np.int64)


SketchSet = UndirectedSketchSet | DirectedSketchSet


def sample_sketches(g: Graph, R: int, master_seed) -> SketchSet:
    """Draw R live-edge sketches keyed by (master_seed, sketch index)."""
    if g.directed:
        return DirectedSketchSet(g, R, master_seed)
    return UndirectedSketchSet(g, R, master_seed)


def _live_reach(sk: DirectedSketchSet, seeds) -> np.ndarray:
    """(R, n) table: the seed set reaches w over sketch r's live arcs.

    The table is a view of vertex-major (n, R) storage: a sweep over the
    arcs ORs one contiguous row into another per arc, and sweeps repeat
    until nothing changes.
    """
    reach = np.zeros((sk.graph.n, sk.R), dtype=bool)
    reach[sorted(seeds)] = True
    live = np.ascontiguousarray(sk.edge_masks.T)  # (m, R)
    step = np.empty(sk.R, dtype=bool)
    before, count = -1, np.count_nonzero(reach)
    while count != before:
        for a, (u, v) in enumerate(sk.graph.edges):
            np.logical_and(reach[u], live[a], out=step)
            reach[v] |= step
        before, count = count, np.count_nonzero(reach)
    return reach.T


def estimate_utilities(sk: SketchSet, seeds: SeedSet, part: CommunityPartition) -> UtilityVector:
    """Sketch-averaged utilities; pure function of (sketches, seeds, part)."""
    seeds.check_ids(sk.graph.n)
    if isinstance(sk, UndirectedSketchSet):
        counts = sk.evaluator(part).coverage_counts(seeds.vertices)
    else:
        if len(part.labels) != sk.graph.n:
            raise GraphFormatError("community partition does not match sketch graph")
        active = _live_reach(sk, seeds.vertices)
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


class _LiveEdgeSubsets:
    """All live-edge subsets of a graph, and reach tables over them.

    When 0 < p < 1 each edge is a coin and subset s keeps coin a iff bit
    a of s is set; at p = 1 every edge is live and at p = 0 none is, in
    the one subset there is.  A reach table has one row per endpoint of
    a live edge and one bit per subset in uint64 words.  The subsets are
    grouped by their number of live coins, each group starting on a
    word, so a row's reach count per group is one ``np.bitwise_count``
    and one ``np.add.reduceat``.  A vertex on no live edge (``row`` -1)
    reaches only itself in every subset: a constant 1 for its community.
    """

    def __init__(self, g: Graph, part: CommunityPartition):
        if len(part.labels) != g.n:
            raise GraphFormatError("community partition does not match graph")
        live = g.edges if g.p > 0 else ()
        coins = len(live) if g.p < 1 else 0
        if coins > EXACT_COIN_LIMIT:
            raise EnumerationLimitError(
                f"{coins} coins exceed the enumeration limit {EXACT_COIN_LIMIT} "
                "with p not in {0, 1}"
            )
        self.part = part
        ends = np.array(live, dtype=np.int64).reshape(-1, 2)
        self.endpoints = np.unique(ends)
        self.row = np.full(g.n, -1)
        self.row[self.endpoints] = np.arange(len(self.endpoints))
        labels = np.asarray(part.labels)[self.endpoints]
        self.onehot = np.equal.outer(np.arange(part.num_communities), labels).astype(np.int64)
        # Group j holds the C(coins, j) subsets with j live coins, padded
        # to whole words; subset[b] is the subset at bit b, 2^coins in padding.
        group = np.bitwise_count(np.arange(1 << coins, dtype=np.uint32))
        sizes = np.bincount(group)
        words = -(-sizes // 64)
        self.offsets = np.cumsum(words) - words
        padding = np.repeat(np.arange(coins + 1, dtype=group.dtype), 64 * words - sizes)
        subset = np.r_[np.arange(1 << coins), np.full(len(padding), 1 << coins)].astype(np.uint32)
        subset = subset[np.argsort(np.r_[group, padding], kind="stable")]
        self.full = np.packbits(subset < 1 << coins).view(np.uint64)  # reached in every subset
        keep = np.full((len(live), len(self.full)), np.iinfo(np.uint64).max, dtype=np.uint64)
        for a in range(coins):
            keep[a] = np.packbits((subset >> a) & 1 != 0).view(np.uint64)
        # A subset with j of its coins live has probability
        # q^j (1-q)^(coins-j) = numerators[j] / denominator, where q = a/b
        # is p's decimal literal read exactly (Fraction(0.35) would be the
        # binary float's rational, not 7/20).
        a, b = Fraction(str(g.p)).as_integer_ratio()
        self.sizes = sizes
        self.numerators = [a**j * (b - a) ** (coins - j) for j in range(coins + 1)]
        self.denominator = b**coins
        if not g.directed:  # both directions of an edge share its coin
            ends, keep = np.r_[ends, ends[:, ::-1]], np.r_[keep, keep]
        # The arcs by tail row: row u's out-arcs are [first[u], first[u] + degree[u]).
        tail, head = self.row[ends].T
        by_tail = np.argsort(tail, kind="stable")
        self.head, self.arc_keep = head[by_tail], keep[by_tail]
        self.degree = np.bincount(tail, minlength=len(self.endpoints))
        self.first = np.cumsum(self.degree) - self.degree

    def reach(self, starts) -> np.ndarray:
        """(len(starts), rows, words) reach tables of each start vertex set.

        All start sets propagate together from one queue of the (start,
        row) pairs whose bits changed.  A batch of pairs, whose arcs fill
        about ``_CHUNK_BYTES`` of rows, ANDs each row with the keep-masks of
        its out-arcs and ORs the results into the heads' rows; the rows
        that grew join the queue, so an arc is followed again only after
        its tail has gained subsets.
        """
        E, W = len(self.endpoints), len(self.full)
        table = np.zeros((len(starts) * E, W), dtype=np.uint64)
        queue = np.array([i * E + self.row[v] for i, start in enumerate(starts) for v in start
                          if self.row[v] >= 0], dtype=np.int64)
        table[queue] = self.full
        batch = max(1, _CHUNK_BYTES // (8 * W * self.degree.max(initial=1)))
        while len(queue):
            pairs, queue = queue[:batch], queue[batch:]
            tail = pairs % E
            degree = self.degree[tail]
            ends = degree.cumsum()
            arc = np.arange(ends[-1]) + (self.first[tail] - ends + degree).repeat(degree)
            dst = (pairs - tail).repeat(degree) + self.head[arc]
            by_head = dst.argsort()
            rows, cut = np.unique(dst[by_head], return_index=True)
            old = table[rows]
            new = table[pairs.repeat(degree)[by_head]] & self.arc_keep[arc[by_head]]
            new = np.bitwise_or.reduceat(new, cut, axis=0) | old
            grew = (new != old).any(axis=1)
            table[rows[grew]] = new[grew]
            queue = np.concatenate([queue, rows[grew]])
        return table.reshape(len(starts), E, W)

    def utilities(self, table: np.ndarray, seeds) -> UtilityVector:
        """Exact utilities of a seed set whose reach table is ``table``.

        Each community's counts are summed against the integer numerators
        in one int, which makes one Fraction over ``denominator * n_c``.
        """
        reached = np.add.reduceat(np.bitwise_count(table), self.offsets, axis=1, dtype=np.int64)
        alone = [self.part.labels[v] for v in seeds if self.row[v] < 0]
        isolated = np.bincount(alone, minlength=self.part.num_communities)
        # (C, groups) reached (subset, vertex) pairs; a seed with no row counts in all
        counts = self.onehot @ reached + np.outer(isolated, self.sizes)
        values = tuple(Fraction(sum(int(n) * w for n, w in zip(row, self.numerators)),
                                self.denominator * n_c)
                       for row, n_c in zip(counts, self.part.sizes))
        return UtilityVector(values=values, sizes=self.part.sizes)


def exact_utilities(g: Graph, seeds: SeedSet, part: CommunityPartition) -> UtilityVector:
    """Exact rational utilities by live-edge enumeration.

    Each undirected edge is a single coin (both directions), each
    directed arc its own coin.  Requires at most EXACT_COIN_LIMIT coins
    unless p is 0 or 1, where no edge is a coin.
    """
    seeds.check_ids(g.n)
    subsets = _LiveEdgeSubsets(g, part)
    return subsets.utilities(subsets.reach([seeds.vertices])[0], seeds.vertices)
