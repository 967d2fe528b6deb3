"""Reference edge canonicalization, CSR layout, edge-list parser and writer,
and rewiring: pairs deduplicated as rows of a 2-D array and as tuples in a
Python set, the CSR from a lexsort of every (source, target) pair, and the
writer's line order picked node by node. ``Graph.from_edges``,
``parse_edge_list``, ``write_edge_list`` and ``null_model_rewire`` must
reproduce them exactly."""
from __future__ import annotations

import numpy as np

from motifemb import Graph


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sorted unique (u < v) rows of an (E, 2) int array, self-loops dropped."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0) if arr.size else arr


def csr(node_count: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, edge_ids) of canonical edges: every (source, target)
    pair of both orientations, lexsorted."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, dst[order], order % edges.shape[0]


def parse_edge_list(text: str) -> tuple[int, np.ndarray, tuple[str, ...]]:
    """(node count, canonical edges, labels) of an edge-list text, or
    ValueError with the parser's message."""
    ids: dict[str, int] = {}
    edge_seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected at least 2 tokens, got {len(tokens)}")
        a, b = tokens[0], tokens[1]
        if a == b:
            continue
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        edge_seen.add((u, v) if u < v else (v, u))
    if not edge_seen:
        raise ValueError("no edges")
    edges = np.array(sorted(edge_seen), dtype=np.int64).reshape(-1, 2)
    return len(ids), edges, tuple(ids)


def write_edge_list(g: Graph) -> str:
    """The text ``motifemb.write_edge_list`` writes for a graph whose labels
    start no comment: for k = 1, 2, ... in turn, a node k that no earlier
    line introduced gets the line of the edge to its smallest neighbour, and
    the remaining edges follow in row order."""
    row_of = {(u, v): r for r, (u, v) in enumerate(g.edges.tolist())}
    intro: list[int] = []
    seen = {0}
    for k in range(1, g.node_count):
        if k not in seen:
            first = int(g.neighbors(k)[0])
            intro.append(row_of[(min(k, first), max(k, first))])
            seen.add(first)
    rest = sorted(set(range(g.edge_count)) - set(intro))
    return "".join(f"{g.label_of(u)} {g.label_of(v)}\n"
                   for u, v in g.edges[intro + rest].tolist())


def null_model_rewire(g: Graph, swaps_per_edge: int, seed: int) -> Graph:
    """The double-edge swaps of ``motifemb.null_model_rewire``, from the same
    generator draws, over numpy rows of the picks and a set of (u, v) tuples."""
    rng = np.random.default_rng(seed)
    m = g.edge_count
    attempts = swaps_per_edge * m
    picks = rng.integers(0, m, size=(attempts, 2))
    flips = rng.random(attempts) < 0.5

    edges = [(int(u), int(v)) for u, v in g.edges]
    present = set(edges)
    for (i, j), flip in zip(picks, flips):
        if i == j:
            continue
        u, v = edges[i]
        x, y = edges[j]
        if flip:
            x, y = y, x
        if u == x or v == y:
            continue
        e1 = (u, x) if u < x else (x, u)
        e2 = (v, y) if v < y else (y, v)
        if e1 == e2 or e1 in present or e2 in present:
            continue
        present.discard(edges[i])
        present.discard(edges[j])
        present.add(e1)
        present.add(e2)
        edges[i] = e1
        edges[j] = e2
    return Graph.from_edges(g.node_count, np.asarray(edges, dtype=np.int64), g.labels)
