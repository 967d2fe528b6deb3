"""Immutable undirected simple-graph container, edge-list I/O, summary stats,
and the degree-preserving rewiring null model."""
from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphStats",
    "ParseError",
    "parse_edge_list",
    "load_edge_list",
    "write_edge_list",
    "graph_stats",
    "check_swaps_per_edge",
    "null_model_rewire",
]

COMMENT_PREFIXES = ("#", "%")


class ParseError(ValueError):
    """Raised for malformed or empty edge-list input."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, unweighted simple graph in CSR form.

    ``edges`` holds each edge once as a (u, v) row with u < v, lexsorted.
    ``indptr``/``indices`` are the usual CSR neighbor arrays; every neighbor
    list is strictly ascending. ``edge_ids[p]`` is the row of ``edges``
    stored at CSR position p, so ``values[edge_ids]`` spreads one value per
    edge onto both of its positions. ``edge_keys[r]`` is the int64 key
    ``u * node_count + v`` of row r of ``edges``, so the keys are sorted and
    edge membership is one ``searchsorted``. ``labels[i]`` is the external
    identifier the node carried in its source file (None for synthetic
    graphs).

    Instances are immutable (arrays are write-protected) and safe to share
    across threads.
    """

    node_count: int
    edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    edge_keys: np.ndarray
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a Graph from (u, v) pairs; dedups, drops self-loops, symmetrizes.

        The one place edges are deduplicated: pairs may repeat, in either
        orientation. Endpoints must be whole numbers in [0, node_count).
        Labels, if given, are distinct non-empty strs without whitespace or
        commas, so that an edge list can carry them; ValueError otherwise.
        """
        raw = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise ValueError("edge endpoints must be whole numbers")
        arr = raw.astype(np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (E, 2) int pairs")
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        if arr.size and (arr.min() < 0 or arr.max() >= node_count):
            raise ValueError("edge endpoint out of range")
        lab = tuple(labels) if labels is not None else None
        if lab is not None and len(lab) != node_count:
            raise ValueError("labels length must equal node_count")
        seen: set[str] = set()
        for label in lab or ():
            # what one token of an edge-list line can carry
            if not isinstance(label, str) or "," in label or label.split() != [label]:
                raise ValueError(f"label {label!r} is not a non-empty str free of "
                                 "whitespace and commas")
            if label in seen:
                raise ValueError(f"label {label!r} repeats")
            seen.add(label)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        # one int64 key per pair, ordered as the pairs (lo, hi) lexsort
        return cls._from_keys(node_count, np.unique((lo * node_count + hi)[lo != hi]), lab)

    @classmethod
    def _from_keys(cls, node_count: int, keys: np.ndarray, labels: tuple | None) -> "Graph":
        """The Graph whose ``edge_keys`` are ``keys``: sorted, unique int64
        keys ``u * node_count + v`` with u < v < node_count. ``labels`` are
        ones ``from_edges`` accepted. Neither is checked again, so a graph
        derived from another one's keys and labels skips the re-validation."""
        canon = np.stack(np.divmod(keys, node_count), axis=1)
        # CSR of [reversed edges; edges]: canon is sorted, so one stable sort
        # by source lists each row's smaller neighbours, then its larger
        # ones, each ascending
        src = np.concatenate([canon[:, 1], canon[:, 0]])
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
        indices = np.concatenate([canon[:, 0], canon[:, 1]])[order]
        edge_ids = order % canon.shape[0]
        for a in (canon, indptr, indices, edge_ids, keys):
            a.setflags(write=False)
        return cls(node_count, canon, indptr, indices, edge_ids, keys, labels)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node`` (read-only view)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < row.size and row[pos] == v

    def label_of(self, node: int) -> str:
        return self.labels[node] if self.labels is not None else str(node)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.node_count == other.node_count
            and np.array_equal(self.edges, other.edges)
            and self.labels == other.labels
        )

    def __hash__(self) -> int:  # frozen dataclass with custom __eq__
        return hash((self.node_count, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.node_count}, |E|={self.edge_count})"


@dataclass(frozen=True)
class GraphStats:
    """Five summary statistics of a graph."""

    num_nodes: int
    num_edges: int
    max_degree: int
    avg_degree: float
    density: float


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse a plain-text edge list, given as text or as an iterable of lines
    (an open text file is one), into a Graph.

    Any run of commas and whitespace is one delimiter, and delimiters before
    the first token are dropped, so "a,,b" and ",a b" both read as the edge
    a-b. A line whose first non-blank character is '#' or '%' is a comment
    (",#a b" is not). Duplicate undirected edges collapse, self-loops
    are dropped, and node ids are remapped to dense 0-based integers in order
    of first appearance (original tokens kept as labels).

    Raises ParseError on a line with fewer than two tokens or when no edges
    survive.
    """
    lines = text.splitlines() if isinstance(text, str) else text

    ids: dict[str, int] = {}
    ends: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected at least 2 tokens, got {len(tokens)}")
        a, b = tokens[0], tokens[1]
        if a == b:
            continue  # self-loop: dropped, ids not registered
        ends.append(ids.setdefault(a, len(ids)))
        ends.append(ids.setdefault(b, len(ids)))
    if not ends:
        raise ParseError("no edges")
    return Graph.from_edges(len(ids), np.array(ends, dtype=np.int64).reshape(-1, 2), list(ids))


def load_edge_list(path: str | Path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def write_edge_list(g: Graph, path_or_buf: str | Path | io.TextIOBase) -> None:
    """Serialize a graph as label pairs, one edge per line.

    Edges are ordered so that node labels are introduced in id order; parsing
    the output therefore reproduces a parsed Graph bit-for-bit (same dense
    ids, same labels). A line whose first label starts a comment ('#' or
    '%') is written with a leading comma, which the parser drops as a
    delimiter. Raises ValueError on isolated nodes, which no edge list can
    carry.
    """
    if np.any(g.degrees == 0):
        raise ValueError("edge lists cannot represent isolated nodes")
    # node k > 0 is introduced by the edge to its smallest neighbour first[k],
    # unless a node h in [1, k) has first[h] == k and so introduced k already;
    # such a k has first[k] <= h < k, so skipping it skips no later node
    first = g.indices[g.indptr[:-1]]
    seen = np.zeros(g.node_count, dtype=bool)
    seen[first[1:][first[1:] > np.arange(1, g.node_count)]] = True
    intro = g.edge_ids[g.indptr[1:-1][~seen[1:]]]
    order = np.concatenate([intro, np.setdiff1d(np.arange(g.edge_count), intro)])

    def _dump(fh) -> None:
        for u, v in g.edges[order].tolist():
            head = g.label_of(u)
            escape = "," if head.startswith(COMMENT_PREFIXES) else ""
            fh.write(f"{escape}{head} {g.label_of(v)}\n")

    if isinstance(path_or_buf, (str, Path)):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            _dump(fh)
    else:
        _dump(path_or_buf)


def graph_stats(g: Graph) -> GraphStats:
    """Node/edge counts, max and average degree, and density."""
    n, m = g.node_count, g.edge_count
    degs = g.degrees
    density = 2.0 * m / (n * (n - 1)) if n > 1 else 0.0
    return GraphStats(
        num_nodes=n,
        num_edges=m,
        max_degree=int(degs.max()) if n else 0,
        avg_degree=2.0 * m / n,
        density=density,
    )


def check_swaps_per_edge(swaps_per_edge: int) -> None:
    """Raise ValueError unless the rewiring attempts at least 1 swap per edge."""
    if swaps_per_edge < 1:
        raise ValueError(f"swaps_per_edge must be >= 1, got {swaps_per_edge!r}")


def null_model_rewire(g: Graph, swaps_per_edge: int, seed: int) -> Graph:
    """Degree-preserving randomization by attempted double-edge swaps.

    Attempts ``swaps_per_edge * |E|`` swaps (u,v)+(x,y) -> (u,x)+(v,y), each
    skipped if it would create a self-loop or a duplicate edge. The degree
    multiset is preserved exactly; output is deterministic per seed. Graphs
    admitting no legal swap come back unchanged.
    """
    if g.edge_count < 2:
        raise ValueError("need at least 2 edges to rewire")
    check_swaps_per_edge(swaps_per_edge)
    rng = np.random.default_rng(seed)
    n, m = g.node_count, g.edge_count
    attempts = swaps_per_edge * m
    picks = rng.integers(0, m, size=(attempts, 2))
    flips = rng.random(attempts) < 0.5

    # each edge is its Graph.edge_keys integer u * n + v, u < v
    keys = g.edge_keys.tolist()
    present = set(keys)
    for i, j, flip in zip(picks[:, 0].tolist(), picks[:, 1].tolist(), flips.tolist()):
        if i == j:
            continue
        u, v = keys[i] // n, keys[i] % n
        x, y = keys[j] // n, keys[j] % n
        if flip:
            x, y = y, x
        if u == x or v == y:
            continue
        e1 = u * n + x if u < x else x * n + u
        e2 = v * n + y if v < y else y * n + v
        if e1 == e2 or e1 in present or e2 in present:
            continue
        present.discard(keys[i])
        present.discard(keys[j])
        present.add(e1)
        present.add(e2)
        keys[i] = e1
        keys[j] = e2
    return Graph._from_keys(n, np.sort(keys), g.labels)
