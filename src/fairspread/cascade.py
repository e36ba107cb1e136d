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

Both estimators propagate seeds over one live-arc kernel, ``_ArcBits``.
Only a greedy labels a sketch set's coverage items, and scipy.sparse is
imported only to label them or build their sparse matrices, so a
command that only estimates never loads it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice

import numpy as np

from .errors import EnumerationLimitError, GraphFormatError
from .graph import CommunityPartition, Graph, SeedSet

# Bytes per temporary when sketches are drawn, labelled, propagated or summed in chunks.
_CHUNK_BYTES = 1 << 20

# numpy's SeedSequence hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1

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


@cache
def _sketch_seed_type():
    """The class that hands PCG64 one sketch's seed words: its row of
    ``_seed_states``, a C-contiguous uint64 array, since PCG64 reads the
    row's raw data.  It subclasses numpy's ``ISeedSequence``, so it is
    made on the first draw: subclassing at import would load
    ``numpy.random`` on every import of this module."""

    class SketchSeed(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes the np.uint64 type itself: the identity test
            # skips building a dtype on every sketch.
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("a sketch seed holds only PCG64's four uint64 words")
            return self.state

    return SketchSeed


def _sketch_masks(m: int, p: float, R: int, master_seed) -> np.ndarray:
    """(R, m) keep-masks; sketch i is keyed by (master_seed, i).

    Row i is ``np.random.default_rng((*key, i)).random(m) < p``, bit for
    bit: the seed states of all R sketches are hashed at once, and each
    seeds its own PCG64.  Rows are drawn in blocks of about ``_CHUNK_BYTES``
    (at most R rows), and each block is thresholded by one comparison.
    """
    seed_type, generator, pcg64 = _sketch_seed_type(), np.random.Generator, np.random.PCG64
    states = _seed_states(_key_words(master_seed), R)
    masks = np.empty((R, m), dtype=bool)
    draws = np.empty((max(1, min(R, _CHUNK_BYTES // (8 * max(m, 1)))), m))
    for lo in range(0, R, len(draws)):
        block = draws[: R - lo]
        for row, state in zip(block, states[lo:]):
            generator(pcg64(seed_type(state))).random(out=row)
        np.less(block, p, out=masks[lo : lo + len(block)])
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
    edges = graph.edge_array.astype(index)
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


def _pack_worlds(bits: np.ndarray) -> np.ndarray:
    """(rows, words) uint64 of a (worlds, rows) boolean array: bit b of
    row r is ``bits[b, r]``, little-endian, and bits past the last world
    are 0.

    ``np.packbits`` along the strided worlds axis costs about 4 ns a bit.
    Here the booleans are read as uint8, and lane b (worlds b, b + 8,
    ...) is folded into the packed bytes, highest lane first, by one
    in-place shift and OR of contiguous rows; a lane that stops short of
    the last byte leaves its bit there 0.  The (bytes, rows) result is
    transposed once into the zeroed rows.  No copy of ``bits`` and no
    shifted temporary is made.
    """
    worlds, rows = bits.shape
    flat = bits.view(np.uint8)
    packed = np.zeros((-(-worlds // 8), rows), dtype=np.uint8)
    for b in range(7, -1, -1):
        packed <<= 1
        lane = flat[b::8]
        packed[: len(lane)] |= lane
    out = np.zeros((rows, 8 * -(-worlds // 64)), dtype=np.uint8)
    out[:, : len(packed)] = packed.T
    return out.view(np.uint64)


class _ArcBits:
    """Reach over arcs whose liveness is one bit per world, in uint64 words.

    A world is one coin subset in the exact oracle and one sketch in
    estimates.  Rows are the vertices that edges join; bit b of
    ``keep[a]`` is set iff edge a (``ends[a]``) is live in world b, and
    ``full`` has a bit for every world, the bits a start row holds.  A
    directed edge is one arc, tail to head; an undirected one is two,
    which share its bits.
    """

    def __init__(self, rows: int, ends, keep, full, directed: bool):
        if not directed:  # both directions of an edge share its bits
            ends, keep = np.r_[ends, ends[:, ::-1]], np.r_[keep, keep]
        # The arcs by tail row: row u's out-arcs are [first[u], first[u] + degree[u]).
        by_tail = np.argsort(ends[:, 0], kind="stable")
        self.head, self.keep, self.full = ends[by_tail, 1], keep[by_tail], full
        self.degree = np.bincount(ends[:, 0], minlength=rows)
        self.first = np.cumsum(self.degree) - self.degree

    def reach(self, starts) -> np.ndarray:
        """(len(starts), rows, words) reach tables of each set of start rows.

        All start sets propagate together from one queue of the (start,
        row) pairs whose bits changed.  A batch of pairs, whose arcs fill
        about ``_CHUNK_BYTES`` of rows, ANDs each row with the keep-words of
        its out-arcs and ORs the results into the heads' rows; the rows
        that grew join the queue, so an arc is followed again only after
        its tail has gained worlds.  A pair waits in the queue at most
        once: one that grows while it waits is read when it is popped,
        with every world it gained, and joins again only after that.
        """
        E, W = len(self.degree), len(self.full)
        table = np.zeros((len(starts) * E, W), dtype=np.uint64)
        pairs = [i * E + row for i, start in enumerate(starts) for row in start]
        queue = np.unique(np.array(pairs, dtype=np.int64))
        table[queue] = self.full
        queued = np.zeros(len(table), dtype=bool)
        queued[queue] = True
        batch = max(1, _CHUNK_BYTES // (8 * W * self.degree.max(initial=1)))
        while len(queue):
            pairs, queue = queue[:batch], queue[batch:]
            queued[pairs] = False
            tail = pairs % E
            degree = self.degree[tail]
            ends = degree.cumsum()
            arc = np.arange(ends[-1]) + (self.first[tail] - ends + degree).repeat(degree)
            dst = (pairs - tail).repeat(degree) + self.head[arc]
            by_head = dst.argsort()
            rows, cut = np.unique(dst[by_head], return_index=True)
            old = table[rows]
            new = table[pairs.repeat(degree)[by_head]] & self.keep[arc[by_head]]
            new = np.bitwise_or.reduceat(new, cut, axis=0) | old
            grew = (new != old).any(axis=1)
            rows = rows[grew]
            table[rows] = new[grew]
            rows = rows[~queued[rows]]
            queued[rows] = True
            queue = np.concatenate([queue, rows])
        return table.reshape(len(starts), E, W)


class _Items:
    """The coverage items of a sketch set: the strongly connected
    components (SCCs) of each sketch's live arcs that a live arc touches.

    One pass over the chunks of ``_live_arcs`` labels them.  Each chunk
    is one graph of the (sketch, vertex) pairs that its live arcs touch,
    numbered in order, and its labels are offset by the count of the
    chunks before it.  The numbering keeps the arcs in CSR order, so
    the block is built as a CSR matrix directly, its row pointers
    counted from the tails: the canonical matrix, with no sort.  An
    undirected graph's SCCs are its components.

    ``own``, a (count, n) boolean CSR matrix, lists each item's own
    vertices, ascending, with the items numbered sketch by sketch; the
    pass writes each chunk's rows into it as it labels the chunk.  A
    (sketch, vertex) pair that no live arc touches is lone: only v
    reaches it and it reaches only v, so it is no item, and ``lone[v]``
    counts v's lone pairs.  ``arcs``, a (count, count) boolean CSR
    matrix, has entry [i, j] if a live arc leads from item j into item
    i; a directed set reads them from each chunk's block while it labels
    it, and an undirected set, or a directed one whose arcs all lie
    within SCCs, has None.  A vertex covers every item it reaches:
    ``members`` lists them by item and ``reached`` by vertex.
    """

    def __init__(self, graph: Graph, edge_masks: np.ndarray):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        R, n = len(edge_masks), graph.n
        index = _vertex_dtype(R, n)
        # Room for every pair; pages are committed only as rows are written.
        indices = np.empty(R * n, dtype=np.int32)
        lone = np.zeros(n, dtype=np.int64)
        count, end, row_ends, heads, tails = 0, 0, [], [], []
        for lo, hi, tail, head in _live_arcs(graph, edge_masks):
            touched = np.zeros((hi - lo) * n, dtype=bool)
            touched[tail] = True
            touched[head] = True
            number = np.cumsum(touched, dtype=index)
            size = int(number[-1])
            number -= 1
            # One at a time, so that three arc arrays are held at once, not four.
            tail = number[tail]
            head = number[head]
            del number
            indptr = np.zeros(size + 1, dtype=index)
            np.cumsum(np.bincount(tail, minlength=size), out=indptr[1:])
            # float64 weights, connected_components' dtype, spare it a copy.
            block = sp.csr_matrix((np.ones(len(head)), head, indptr), shape=(size, size))
            del tail, head, indptr
            found, labels = connected_components(block, directed=graph.directed,
                                                 connection="strong")
            if graph.directed:  # the block's arcs as (tail, head) labels
                tail = np.repeat(labels, np.diff(block.indptr))
                head = labels[block.indices]
                cross = tail != head
                tails.append(tail[cross] + count)
                heads.append(head[cross] + count)
                del tail, head, cross
            del block  # freed before the rows below allocate their pairs
            # Grouped by label, each item's vertices stay in pair order: ascending.
            vertex = np.flatnonzero(touched).astype(np.int32)
            vertex %= n
            rows = sp.csr_matrix((np.ones(size, dtype=bool), (labels, vertex)), shape=(found, n))
            del labels, vertex
            indices[end : end + size] = rows.indices
            row_ends.append(np.add(rows.indptr[1:], end, dtype=index))
            end += size
            lone += hi - lo
            lone -= touched.reshape(-1, n).sum(axis=0)
            count += int(found)
        indices.resize(end, refcheck=False)
        indptr = np.zeros(count + 1, dtype=index)
        np.concatenate(row_ends, out=indptr[1:])
        del row_ends
        self.own = sp.csr_matrix((np.ones(end, dtype=bool), indices, indptr), shape=(count, n))
        self.count, self.lone = count, lone
        self.arcs = None
        if heads and len(head := np.concatenate(heads)):
            tail = np.concatenate(tails)
            self.arcs = sp.csr_matrix((np.ones(len(head), dtype=bool), (head, tail)),
                                      shape=(count, count))

    @cached_property
    def members(self):
        """(count, n) boolean CSR matrix: row i lists every vertex that reaches item i.

        It starts as ``own``, which it is for an undirected set.  Then,
        level by level, each item gains the vertices that the items with
        arcs into it gained at the level before, until no item gains any.
        """
        members = frontier = self.own
        while self.arcs is not None and frontier.nnz:
            gained = self.arcs @ frontier  # boolean, so no count of paths can wrap
            frontier = gained > members  # the entries not yet in members
            members = members + frontier
        return members

    @cached_property
    def reached(self):
        """(n, count) boolean CSR matrix: row v lists every item
        vertex v reaches, the transpose of ``members``."""
        return self.members.T.tocsr()


def _row_blocks(matrix):
    """(lo, hi, block) per run of rows [lo, hi) of a CSR matrix that holds
    about ``_CHUNK_BYTES // 8`` entries.

    A sparse product multiplies a copy of a matrix's data, so a product
    taken one block at a time copies one block's.  Each block is a CSR
    matrix over views of the matrix's ``indices`` and ``data``, which
    slicing the matrix would copy.  A row longer than a block leaves
    empty blocks between its cuts.
    """
    import scipy.sparse as sp

    indptr = matrix.indptr
    per_chunk = _CHUNK_BYTES // 8
    cuts = np.searchsorted(indptr, np.arange(per_chunk, matrix.nnz, per_chunk))
    for lo, hi in zip([0, *cuts], [*cuts, matrix.shape[0]]):
        first, last = indptr[lo], indptr[hi]
        yield lo, hi, sp.csr_matrix((matrix.data[first:last], matrix.indices[first:last],
                                     indptr[lo : hi + 1] - first), shape=(hi - lo, matrix.shape[1]))


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

    @cached_property
    def items(self) -> _Items:
        """The coverage items of the sketches, labelled on first use."""
        return _Items(self.graph, self.edge_masks)

    @cached_property
    def arc_bits(self) -> _ArcBits:
        """The edges with one bit per sketch, which estimates propagate over."""
        keep = _pack_worlds(self.edge_masks)
        full = _pack_worlds(np.ones((self.R, 1), dtype=bool))[0]
        return _ArcBits(self.graph.n, self.graph.edge_array, keep, full, self.graph.directed)

    def evaluator(self, part: CommunityPartition) -> "_Evaluator":
        """Evaluator for part, shared by every partition equal to it."""
        if part not in self._evaluators:
            self._evaluators[part] = _Evaluator(self, part)
        return self._evaluators[part]

    def coverage_state(self, part: CommunityPartition) -> "CoverageState":
        return CoverageState(self.evaluator(part))


class UndirectedSketchSet(_SketchSet):
    """Live-edge sketches of an undirected graph, whose components are its coverage items."""

    # The class's own attribute, which bench/tracing.py times.
    evaluator = _SketchSet.evaluator


class DirectedSketchSet(_SketchSet):
    """Live-edge sketches of a directed graph, whose strongly connected
    components are its coverage items."""

    @property
    def closure(self) -> np.ndarray:
        """(R, n, n) boolean reachability per sketch (v reaches w): the
        ``arc_bits`` reach tables of the n single vertices, one bit per sketch."""
        table = self.arc_bits.reach([[v] for v in range(self.graph.n)])
        bits = np.unpackbits(table.view(np.uint8), axis=2, bitorder="little")
        return bits[:, :, : self.R].view(bool).transpose(2, 0, 1)


class _Evaluator:
    """Community counts of the coverage items of one sketch set under one partition.

    ``comp_comm[i, c]`` counts community c's vertices in item i: the
    items' own rows times a one-hot (n, C) matrix, one block of rows at
    a time.  An item holds at most n vertices, so the counts are int32;
    every sum over items (``reach_counts``, a state's ``counts``) is
    int64.  ``lone_comm[v]`` counts v's lone pairs in v's community:
    what v alone covers outside the items.  Only coverage states use an
    evaluator, so building one labels the items; estimates build none.
    The evaluator keeps the sketch set's items, not the set, so that the
    set's evaluator cache forms no reference cycle.
    """

    def __init__(self, sk: _SketchSet, part: CommunityPartition):
        n = sk.graph.n
        part.check_vertex_count(n)
        self.n = n
        self.part = part
        self.items = sk.items
        C = part.num_communities
        onehot = np.equal.outer(part.labels, np.arange(C)).astype(np.int32)
        self.comp_comm = np.zeros((self.items.count, C), dtype=np.int32)
        for lo, hi, block in _row_blocks(self.items.own):
            self.comp_comm[lo:hi] = block @ onehot
        self.lone_comm = np.zeros((n, C), dtype=np.int64)
        self.lone_comm[np.arange(n), part.labels] = self.items.lone

    @cached_property
    def reach_counts(self) -> np.ndarray:
        """(n, C) counts G[v]: comp_comm summed in int64 over the items v
        reaches, one block of member rows at a time, plus ``lone_comm[v]``."""
        G = self.lone_comm.copy()
        for lo, hi, block in _row_blocks(self.items.members):
            G += block.T @ self.comp_comm[lo:hi].astype(np.int64)
        return G


class CoverageState:
    """Incrementally tracked coverage of a growing seed set.

    ``uncovered[u]`` counts, per community, the (sketch, vertex) pairs
    that u would newly cover: ``gain_counts(u)`` for every vertex.
    ``add`` keeps it current by subtracting each newly covered item's
    counts from the rows of every vertex that reaches it, and the
    vertex's lone counts from its own row, and appends the vertex to
    ``chosen``.
    """

    def __init__(self, ev: _Evaluator):
        self.ev = ev
        self.covered = np.zeros(ev.items.count, dtype=bool)
        self.counts = np.zeros(ev.part.num_communities, dtype=np.int64)
        self.uncovered = ev.reach_counts.copy()
        self.chosen: list[int] = []

    def _new_items(self, v: int) -> np.ndarray:
        """The items v reaches that are not yet covered."""
        reached = self.ev.items.reached
        items = reached.indices[reached.indptr[v] : reached.indptr[v + 1]]
        return items[~self.covered[items]]

    def gain_counts(self, v: int) -> np.ndarray:
        """Counts v would add, recomputed from the covered flags."""
        new = self._new_items(v)
        counts = self.ev.comp_comm[new].sum(axis=0, dtype=np.int64)
        return counts if v in self.chosen else counts + self.ev.lone_comm[v]

    def add(self, v: int) -> np.ndarray:
        """Cover what v reaches; returns the counts it added.

        The newly covered items' weights, their community counts as
        floats, are drawn once; ``delta`` is their sum, exact because
        every sum of counts is at most R * n < 2**53.  One ``cumsum`` of
        the items' member row sizes gives both the entry offsets and the
        chunk test: when the rows hold at most ``_CHUNK_BYTES // 8``
        entries, the usual case, one ``_decrement`` call takes them all.
        A larger add, such as a first pick that covers millions of rows,
        is decremented in chunks, the items whose first row falls in one
        run of that many entries, so it holds the transients of about
        that many rows at a time.
        """
        lone = 0 if v in self.chosen else self.ev.lone_comm[v]
        self.chosen.append(v)
        new = self._new_items(v)
        weights = self.ev.comp_comm[new].T.astype(np.float64)
        delta = weights.sum(axis=1).astype(np.int64) + lone
        self.counts += delta
        self.uncovered[v] -= lone
        if not len(new):
            return delta
        self.covered[new] = True
        indptr = self.ev.items.members.indptr
        stops = indptr[new + 1]
        sizes = stops - indptr[new]
        ends = np.cumsum(sizes)
        per_chunk = _CHUNK_BYTES // 8
        if ends[-1] <= per_chunk:
            self._decrement(stops, sizes, ends, weights)
            return delta
        first = (ends - sizes) // per_chunk
        cuts = np.flatnonzero(first[1:] != first[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(new)]):
            self._decrement(stops[lo:hi], sizes[lo:hi], ends[lo:hi] - (ends[lo] - sizes[lo]),
                            weights[:, lo:hi])
        return delta

    def _decrement(self, stops, sizes, ends, weights) -> None:
        """Subtract each item's weights from its member rows of ``uncovered``.

        ``stops`` and ``sizes`` are the items' row ends in the member
        index and their lengths, and ``ends`` the running sum of
        ``sizes``.  The rows are gathered with numpy: a sparse matrix's
        per-call overhead would dominate a greedy's many small adds.
        Each community's float ``bincount`` holds exact integers, and is
        subtracted from its int64 column in place, cast back unsafely.
        """
        at = np.repeat(stops - ends, sizes)
        at += np.arange(len(at))  # the index entries of the items' rows
        rows = self.ev.items.members.indices[at]
        del at
        n = len(self.uncovered)
        for c, w in enumerate(weights):
            column = self.uncovered[:, c]
            dec = np.bincount(rows, np.repeat(w, sizes), minlength=n)
            np.subtract(column, dec, out=column, casting="unsafe")


SketchSet = UndirectedSketchSet | DirectedSketchSet


def sample_sketches(g: Graph, R: int, master_seed) -> SketchSet:
    """Draw R live-edge sketches keyed by (master_seed, sketch index)."""
    if g.directed:
        return DirectedSketchSet(g, R, master_seed)
    return UndirectedSketchSet(g, R, master_seed)


def estimate_utilities(sk: SketchSet, seeds: SeedSet, part: CommunityPartition) -> UtilityVector:
    """Sketch-averaged utilities; pure function of (sketches, seeds, part)."""
    seeds.check_ids(sk.graph.n)
    return next(_estimates(sk, iter([list(seeds.vertices)]), part))


def _estimates(sk: SketchSet, seed_lists, part: CommunityPartition):
    """Yield the sketch-averaged utilities of each list of seeds that the
    iterator ``seed_lists`` yields, in turn.

    The lists go to ``arc_bits.reach`` in batches whose (lists, n, words)
    table holds about ``_CHUNK_BYTES``; a vertex counts once for each
    sketch in which it is reached.
    """
    part.check_vertex_count(sk.graph.n)
    onehot = np.equal.outer(part.labels, np.arange(part.num_communities)).astype(np.int64)
    size = max(1, _CHUNK_BYTES // (8 * sk.graph.n * len(sk.arc_bits.full)))
    while batch := list(islice(seed_lists, size)):
        reached = np.bitwise_count(sk.arc_bits.reach(batch)).sum(axis=2, dtype=np.int64)
        for counts in reached @ onehot:
            yield counts_utilities(counts, sk.R, part)


def counts_utilities(counts, R: int, part: CommunityPartition) -> UtilityVector:
    """Utilities u_c = counts_c / (R n_c) of per-community counts summed over R sketches."""
    return UtilityVector(tuple(int(c) / (R * n_c) for c, n_c in zip(counts, part.sizes)), part.sizes)


# --- exact oracle -----------------------------------------------------------


class _LiveEdgeSubsets:
    """All live-edge subsets of a graph, and the utilities of reach tables over them.

    When 0 < p < 1 each edge is a coin and subset s keeps coin a iff bit
    a of s is set; at p = 1 every edge is live and at p = 0 none is, in
    the one subset there is.  ``arc_bits`` has one row per endpoint of
    a live edge (``row`` maps a vertex to it) and one bit per subset.
    The subsets are grouped by their number of live coins, each group
    starting on a word, so a row's reach count per group is one
    ``np.bitwise_count`` and one ``np.add.reduceat``.  A vertex on no live edge (``row`` -1)
    reaches only itself in every subset: a constant 1 for its community.
    """

    def __init__(self, g: Graph, part: CommunityPartition):
        part.check_vertex_count(g.n)
        ends = g.edge_array if g.p > 0 else g.edge_array[:0]
        coins = len(ends) if g.p < 1 else 0
        if coins > EXACT_COIN_LIMIT:
            raise EnumerationLimitError(
                f"{coins} coins exceed the enumeration limit {EXACT_COIN_LIMIT} "
                "with p not in {0, 1}"
            )
        self.part = part
        endpoints = np.unique(ends)
        self.row = np.full(g.n, -1)
        self.row[endpoints] = np.arange(len(endpoints))
        labels = np.asarray(part.labels)[endpoints]
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
        full = np.packbits(subset < 1 << coins).view(np.uint64)  # reached in every subset
        keep = np.full((len(ends), len(full)), np.iinfo(np.uint64).max, dtype=np.uint64)
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
        self.arc_bits = _ArcBits(len(endpoints), self.row[ends], keep, full, g.directed)

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
    rows = [subsets.row[v] for v in seeds.vertices if subsets.row[v] >= 0]
    return subsets.utilities(subsets.arc_bits.reach([rows])[0], seeds.vertices)
