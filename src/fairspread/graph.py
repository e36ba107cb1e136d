"""Graph representation, community partitions, SBM generation and file I/O.

The on-disk graph format is a JSON document with top-level fields
``n`` (int), ``directed`` (bool), ``p`` (float), ``edges`` (list of
[u, v] pairs) and ``communities`` (list of n integer labels).  Unknown
extra keys (e.g. a ``meta`` block on fixture files) are ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import GraphFormatError


@dataclass(frozen=True)
class Graph:
    """A simple graph with a uniform propagation probability.

    Undirected edges are stored once and expanded to two arcs at
    simulation time.  ``edges`` is a tuple of int pairs; ``edge_array``
    holds the same pairs as a read-only (m, 2) int64 array, which the
    sketch and oracle code reads.  Values are checked, not coerced:
    ``n`` and the endpoints must be integers, ``directed`` a bool and
    ``p`` a number; ``n`` is stored as an int and ``p`` as a float.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False
    p: float = 0.25
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_int(self.n):
            raise GraphFormatError("'n' must be an integer")
        if not isinstance(self.directed, bool):
            raise GraphFormatError("'directed' must be true or false")
        if not _is_number(self.p):
            raise GraphFormatError("'p' must be a number")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", float(self.p))
        if self.n < 0:
            raise GraphFormatError("vertex count must be non-negative")
        if not (0.0 <= self.p <= 1.0):
            raise GraphFormatError(f"propagation probability {self.p} outside [0, 1]")
        ends = _simple_edge_array(self.edges, self.n, self.directed)
        if ends is None:
            ends = np.array(_checked_edges(self.edges, self.n, self.directed),
                            dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        object.__setattr__(self, "edges", tuple(zip(*ends.T.tolist())))
        object.__setattr__(self, "edge_array", ends)

    def out_neighbors(self) -> list[list[int]]:
        """Adjacency lists in spread direction (both ways if undirected)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            if not self.directed:
                adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj


def _simple_edge_array(edges, n: int, directed: bool) -> np.ndarray | None:
    """edges as an (m, 2) int64 array if they are integer pairs that form a
    simple graph on n vertices, else None.

    numpy checks ranges, self-loops and repeats at once.  Input it cannot
    hold as integer pairs (Python ints beyond int64, floats, bools,
    entries that are not pairs) and input that fails a check return
    None, for ``_checked_edges`` to report.
    """
    try:
        ends = np.array(edges) if len(edges) else np.empty((0, 2), dtype=np.int64)
    except (TypeError, ValueError):  # no length, or entries of unequal lengths
        return None
    if ends.dtype.kind not in "iu" or ends.shape != (len(edges), 2):
        return None
    # numpy reads bools among ints as ints; only the entries' types tell.
    types = () if isinstance(edges, np.ndarray) else set(map(type, chain.from_iterable(edges)))
    if bool in types or np.bool_ in types:
        return None
    if ((ends < 0) | (ends >= n)).any():
        return None
    ends = ends.astype(np.int64, copy=False)
    keys = ends if directed else np.sort(ends, axis=1)
    # Equal keys give equal codes even where the product wraps; a wrapped
    # collision of unequal keys only sends the edges to _checked_edges.
    codes = keys[:, 0] * (int(ends.max(initial=0)) + 1) + keys[:, 1]
    codes.sort()
    if (ends[:, 0] == ends[:, 1]).any() or (codes[1:] == codes[:-1]).any():
        return None
    return ends


def _checked_edges(edges, n: int, directed: bool) -> list[tuple[int, int]]:
    """edges as int pairs, checked one at a time: raises GraphFormatError at
    the first entry that is not a pair, or edge with a non-integer
    endpoint, out of range, self-loop or repeat, in edge order."""
    seen, pairs = set(), []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):  # not iterable, or not two values
            raise GraphFormatError(f"malformed edge entry {e!r} (expected an integer pair)")
        if not (_is_int(u) and _is_int(v)):
            raise GraphFormatError(f"non-integer vertex id in edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        pairs.append((int(u), int(v)))
    return pairs


@dataclass(frozen=True)
class CommunityPartition:
    """Disjoint community labels covering all vertices.

    The labels must be integers (not bools) numbering the communities
    densely from 0; they are stored as a tuple of ints.
    """

    labels: tuple[int, ...]
    sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise GraphFormatError("empty community labeling")
        counts = [0] * n  # a label of n or more leaves one of 0..n-1 empty
        for c in self.labels:
            if type(c) is not int and not _is_int(c):  # a Python int skips the call
                raise GraphFormatError(f"community label {c!r} is not an integer")
            if c < 0:
                raise GraphFormatError(f"negative community label {c}")
            if c < n:
                counts[c] += 1
        labels = tuple(map(int, self.labels))
        object.__setattr__(self, "labels", labels)
        counts = counts[: max(labels) + 1]
        if 0 in counts:
            raise GraphFormatError("community ids must be dense (every community non-empty)")
        object.__setattr__(self, "sizes", tuple(counts))

    @property
    def num_communities(self) -> int:
        return len(self.sizes)

    def members(self, c: int) -> list[int]:
        return [v for v, lab in enumerate(self.labels) if lab == c]

    def check_vertex_count(self, n: int) -> None:
        """Raise GraphFormatError unless there is one label per vertex of an n-vertex graph."""
        if len(self.labels) != n:
            raise GraphFormatError(f"{len(self.labels)} community labels for {n} vertices")


@dataclass(frozen=True)
class SeedSet:
    """A budget-feasible set of influencer vertices; the ids and the budget
    ``k`` must be integers (not bools)."""

    vertices: frozenset[int]
    k: int

    def __post_init__(self):
        if not _is_int(self.k):
            raise GraphFormatError(f"budget {self.k!r} is not an integer")
        object.__setattr__(self, "k", int(self.k))
        for v in self.vertices:
            if not _is_int(v):
                raise GraphFormatError(f"seed id {v!r} is not an integer")
        object.__setattr__(self, "vertices", frozenset(map(int, self.vertices)))
        if len(self.vertices) > self.k:
            raise GraphFormatError(f"{len(self.vertices)} seeds exceed budget {self.k}")
        if any(v < 0 for v in self.vertices):
            raise GraphFormatError("negative seed id")

    def sorted(self) -> list[int]:
        return sorted(self.vertices)

    def check_ids(self, n: int) -> None:
        """Raise GraphFormatError unless every seed is a vertex of an n-vertex graph."""
        for v in self.vertices:
            if not (0 <= v < n):
                raise GraphFormatError(f"invalid seed id {v}")


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model parameters.

    ``community_sizes`` must be a non-empty list of integers,
    ``within_prob`` a number or a list of numbers and ``between_prob`` a
    number (shared by all community pairs) or a full symmetric matrix of
    numbers; bools are not numbers.  ``between_prob`` is stored as a
    matrix whose diagonal is ``within_prob``: a given matrix's diagonal
    is replaced.
    """

    community_sizes: tuple[int, ...]
    within_prob: tuple[float, ...]
    between_prob: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        sizes, within, between = self.community_sizes, self.within_prob, self.between_prob
        if not _is_list_of(sizes, _is_int):
            raise GraphFormatError("'community_sizes' must be a list of integers")
        if not sizes:
            raise GraphFormatError("'community_sizes' must list at least one community")
        if not (_is_number(within) or _is_list_of(within, _is_number)):
            raise GraphFormatError("'within_prob' must be a number or a list of numbers")
        matrix = _is_list_of(between, lambda row: _is_list_of(row, _is_number))
        if not (_is_number(between) or matrix):
            raise GraphFormatError("'between_prob' must be a number or a matrix of numbers")
        sizes = tuple(map(int, sizes))
        object.__setattr__(self, "community_sizes", sizes)
        if any(s < 1 for s in sizes):
            raise GraphFormatError("community sizes must be >= 1")
        k = len(sizes)
        if _is_number(within):
            within = (float(within),) * k
        within = tuple(float(q) for q in within)
        if len(within) != k:
            raise GraphFormatError("within_prob length must match community count")
        if _is_number(between):
            between = ((between,) * k,) * k
        if len(between) != k or any(len(row) != k for row in between):
            raise GraphFormatError("between_prob matrix must be k x k")
        between = tuple(tuple(within[i] if i == j else float(x) for j, x in enumerate(row))
                        for i, row in enumerate(between))
        for i, row in enumerate(between):
            for j, q in enumerate(row):
                if not (0.0 <= q <= 1.0):
                    raise GraphFormatError(f"edge probability {q} outside [0, 1]")
                if abs(q - between[j][i]) > 1e-12:
                    raise GraphFormatError("between_prob matrix must be symmetric")
        object.__setattr__(self, "within_prob", within)
        object.__setattr__(self, "between_prob", between)

    @property
    def n(self) -> int:
        return sum(self.community_sizes)

    def pair_prob(self, c1: int, c2: int) -> float:
        return self.between_prob[c1][c2]


def generate_sbm(spec: SbmSpec, rng_seed: int, p: float = 0.25) -> tuple[Graph, CommunityPartition]:
    """Sample an undirected simple SBM graph, deterministic in rng_seed.

    Vertices are numbered consecutively by community.  Each
    within-community pair is edged independently with q_c, each
    between-community pair with q_cc'.  Block by block, one uniform is
    drawn per pair (i, j), row by row in i, with i < j within a
    community, and a hit is mapped back to its row by the index of each
    row's first pair, so only the hits take index memory.
    """
    rng = np.random.default_rng(rng_seed)
    sizes = spec.community_sizes
    part = CommunityPartition(labels=tuple(np.repeat(np.arange(len(sizes)), sizes).tolist()))
    starts = np.cumsum((0, *sizes))
    blocks = []
    for c1 in range(len(sizes)):
        for c2 in range(c1, len(sizes)):
            i = np.arange(starts[c1], starts[c1 + 1])
            first = i + 1 if c1 == c2 else np.full_like(i, starts[c2])  # each row's first j
            lengths = starts[c2 + 1] - first
            offsets = np.cumsum(lengths) - lengths  # the index of each row's first pair
            hits = np.flatnonzero(rng.random(offsets[-1] + lengths[-1]) < spec.pair_prob(c1, c2))
            row = np.searchsorted(offsets, hits, side="right") - 1
            blocks.append(np.column_stack((i[row], first[row] + hits - offsets[row])))
    g = Graph(n=int(starts[-1]), edges=np.concatenate(blocks), directed=False, p=p)
    return g, part


def induced_within_community_subgraph(
    g: Graph, part: CommunityPartition, c: int
) -> tuple[Graph, list[int]]:
    """Subgraph on community c's vertices with dense re-numbered ids.

    Returns the subgraph and the list mapping new ids back to original
    vertex ids.
    """
    part.check_vertex_count(g.n)
    if not (0 <= c < part.num_communities):
        raise GraphFormatError(f"community id {c} out of range")
    members = part.members(c)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[members] = np.arange(len(members))
    ends = remap[g.edge_array]
    sub = Graph(n=len(members), edges=ends[(ends >= 0).all(axis=1)], directed=g.directed, p=g.p)
    return sub, members


def load_graph(source) -> tuple[Graph, CommunityPartition]:
    """Parse a graph document (path or already-parsed dict).

    The reader checks that every field is present and that ``edges`` and
    ``communities`` are lists; ``Graph`` and ``CommunityPartition`` check
    the values, and that there is one label per vertex.
    """
    doc = _read_document(source)
    for key in ("n", "directed", "p", "edges", "communities"):
        if key not in doc:
            raise GraphFormatError(f"missing field '{key}'")
    for key in ("edges", "communities"):
        if not isinstance(doc[key], (list, tuple)):
            raise GraphFormatError(f"'{key}' must be a list")
    g = Graph(n=doc["n"], edges=doc["edges"], directed=doc["directed"], p=doc["p"])
    part = CommunityPartition(labels=doc["communities"])
    part.check_vertex_count(g.n)
    return g, part


def save_graph(g: Graph, part: CommunityPartition, path, meta: dict | None = None) -> None:
    """Write a graph document; ``meta`` is carried as an extra block."""
    doc = {
        "n": g.n,
        "directed": g.directed,
        "p": g.p,
        "edges": g.edge_array.tolist(),
        "communities": list(part.labels),
    }
    if meta is not None:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_sbm_spec(source) -> SbmSpec:
    """Parse an SBM spec document (path or already-parsed dict).

    The reader checks that every field is present; ``SbmSpec`` checks
    the values' types.
    """
    doc = _read_document(source)
    for key in ("community_sizes", "within_prob", "between_prob"):
        if key not in doc:
            raise GraphFormatError(f"missing field '{key}' in SBM spec")
    return SbmSpec(doc["community_sizes"], doc["within_prob"], doc["between_prob"])


def _read_document(source) -> dict:
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise GraphFormatError(f"expected a document or a path, got {source!r}")
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise GraphFormatError(f"cannot read document: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("document root must be an object")
    return doc


def _is_int(x) -> bool:
    """Python and numpy integers are integers; bools are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, (float, np.floating))


def _is_list_of(x, check) -> bool:
    return isinstance(x, (list, tuple)) and all(map(check, x))
