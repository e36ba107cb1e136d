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
from pathlib import Path

import numpy as np

from .errors import GraphFormatError


@dataclass(frozen=True)
class Graph:
    """A simple graph with a uniform propagation probability.

    Undirected edges are stored once and expanded to two arcs at
    simulation time.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False
    p: float = 0.25

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError("vertex count must be non-negative")
        if not (0.0 <= self.p <= 1.0):
            raise GraphFormatError(f"propagation probability {self.p} outside [0, 1]")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))

    @property
    def num_arcs(self) -> int:
        return len(self.edges) * (1 if self.directed else 2)

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


@dataclass(frozen=True)
class CommunityPartition:
    """Disjoint community labels covering all vertices."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.labels) == 0:
            raise GraphFormatError("empty community labeling")
        labels = tuple(int(c) for c in self.labels)
        object.__setattr__(self, "labels", labels)
        num = max(labels) + 1
        counts = [0] * num
        for c in labels:
            if c < 0:
                raise GraphFormatError(f"negative community label {c}")
            counts[c] += 1
        if any(s == 0 for s in counts):
            raise GraphFormatError("community ids must be dense (every community non-empty)")
        object.__setattr__(self, "sizes", tuple(counts))

    @property
    def num_communities(self) -> int:
        return len(self.sizes)

    def members(self, c: int) -> list[int]:
        return [v for v, lab in enumerate(self.labels) if lab == c]


@dataclass(frozen=True)
class SeedSet:
    """A budget-feasible set of influencer vertices."""

    vertices: frozenset[int]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(int(v) for v in self.vertices))
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

    ``between_prob`` may be a single float (shared by all community
    pairs) or a full symmetric matrix; it is normalized to a matrix
    whose diagonal repeats ``within_prob``.
    """

    community_sizes: tuple[int, ...]
    within_prob: tuple[float, ...]
    between_prob: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.community_sizes)
        object.__setattr__(self, "community_sizes", sizes)
        if any(s < 1 for s in sizes):
            raise GraphFormatError("community sizes must be >= 1")
        k = len(sizes)
        within = self.within_prob
        if isinstance(within, (int, float)):
            within = (float(within),) * k
        within = tuple(float(q) for q in within)
        if len(within) != k:
            raise GraphFormatError("within_prob length must match community count")
        between = self.between_prob
        if isinstance(between, (int, float)):
            between = tuple(
                tuple(float(between) if i != j else within[i] for j in range(k))
                for i in range(k)
            )
        else:
            between = tuple(tuple(float(x) for x in row) for row in between)
            if len(between) != k or any(len(row) != k for row in between):
                raise GraphFormatError("between_prob matrix must be k x k")
        for i in range(k):
            for j in range(k):
                q = within[i] if i == j else between[i][j]
                if not (0.0 <= q <= 1.0):
                    raise GraphFormatError(f"edge probability {q} outside [0, 1]")
                if i != j and abs(between[i][j] - between[j][i]) > 1e-12:
                    raise GraphFormatError("between_prob matrix must be symmetric")
        object.__setattr__(self, "within_prob", within)
        object.__setattr__(self, "between_prob", between)

    @property
    def n(self) -> int:
        return sum(self.community_sizes)

    def pair_prob(self, c1: int, c2: int) -> float:
        return self.within_prob[c1] if c1 == c2 else self.between_prob[c1][c2]


def generate_sbm(spec: SbmSpec, rng_seed: int, p: float = 0.25) -> tuple[Graph, CommunityPartition]:
    """Sample an undirected simple SBM graph, deterministic in rng_seed.

    Vertices are numbered consecutively by community.  Each
    within-community pair is edged independently with q_c, each
    between-community pair with q_cc'.
    """
    rng = np.random.default_rng(rng_seed)
    sizes = spec.community_sizes
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    edges: list[tuple[int, int]] = []
    k = len(sizes)
    for c1 in range(k):
        for c2 in range(c1, k):
            q = spec.pair_prob(c1, c2)
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


def induced_within_community_subgraph(
    g: Graph, part: CommunityPartition, c: int
) -> tuple[Graph, list[int]]:
    """Subgraph on community c's vertices with dense re-numbered ids.

    Returns the subgraph and the list mapping new ids back to original
    vertex ids.
    """
    if not (0 <= c < part.num_communities):
        raise GraphFormatError(f"community id {c} out of range")
    members = part.members(c)
    remap = {orig: new for new, orig in enumerate(members)}
    sub_edges = tuple(
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    )
    sub = Graph(n=len(members), edges=sub_edges, directed=g.directed, p=g.p)
    return sub, members


def load_graph(source) -> tuple[Graph, CommunityPartition]:
    """Parse a graph document (path or already-parsed dict).

    Field types are checked, not coerced: ``directed`` must be a
    boolean, ``p`` a number, ``edges`` and ``communities`` lists, and
    ``n``, edge endpoints and community labels integers (booleans are
    rejected for all of these).
    """
    doc = _read_document(source)
    for key in ("n", "directed", "p", "edges", "communities"):
        if key not in doc:
            raise GraphFormatError(f"missing field '{key}'")
    n = doc["n"]
    if not _is_int(n):
        raise GraphFormatError("'n' must be an integer")
    if not isinstance(doc["directed"], bool):
        raise GraphFormatError("'directed' must be true or false")
    p = doc["p"]
    if not _is_number(p):
        raise GraphFormatError("'p' must be a number")
    for key in ("edges", "communities"):
        if not isinstance(doc[key], (list, tuple)):
            raise GraphFormatError(f"'{key}' must be a list")
    edges = []
    for e in doc["edges"]:
        if not (_is_list_of(e, _is_int) and len(e) == 2):
            raise GraphFormatError(f"malformed edge entry {e!r} (expected an integer pair)")
        edges.append((e[0], e[1]))
    labels = doc["communities"]
    if len(labels) != n:
        raise GraphFormatError(
            f"{len(labels)} community labels for {n} vertices (vertex without community label)"
        )
    for c in labels:
        if not _is_int(c):
            raise GraphFormatError(f"community label {c!r} is not an integer")
    g = Graph(n=n, edges=tuple(edges), directed=doc["directed"], p=float(p))
    part = CommunityPartition(labels=tuple(labels))
    return g, part


def save_graph(g: Graph, part: CommunityPartition, path, meta: dict | None = None) -> None:
    """Write a graph document; ``meta`` is carried as an extra block."""
    doc = {
        "n": g.n,
        "directed": g.directed,
        "p": g.p,
        "edges": [[u, v] for u, v in g.edges],
        "communities": list(part.labels),
    }
    if meta is not None:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_sbm_spec(source) -> SbmSpec:
    """Parse an SBM spec document (path or already-parsed dict).

    Field types are checked, not coerced: ``community_sizes`` must be a
    list of integers, ``within_prob`` a number or a list of numbers and
    ``between_prob`` a number or a list of rows of numbers.
    """
    doc = _read_document(source)
    for key in ("community_sizes", "within_prob", "between_prob"):
        if key not in doc:
            raise GraphFormatError(f"missing field '{key}' in SBM spec")
    sizes, within, between = doc["community_sizes"], doc["within_prob"], doc["between_prob"]
    if not _is_list_of(sizes, _is_int):
        raise GraphFormatError("'community_sizes' must be a list of integers")
    if not (_is_number(within) or _is_list_of(within, _is_number)):
        raise GraphFormatError("'within_prob' must be a number or a list of numbers")
    matrix = _is_list_of(between, lambda row: _is_list_of(row, _is_number))
    if not (_is_number(between) or matrix):
        raise GraphFormatError("'between_prob' must be a number or a matrix of numbers")
    return SbmSpec(community_sizes=tuple(sizes), within_prob=within, between_prob=between)


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
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_list_of(x, check) -> bool:
    return isinstance(x, (list, tuple)) and all(map(check, x))
