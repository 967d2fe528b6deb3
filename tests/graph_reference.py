"""Reference edge canonicalization and edge-list parser: pairs deduplicated
as rows of a 2-D array and as tuples in a Python set. ``Graph.from_edges``
and ``parse_edge_list`` must reproduce them exactly."""
from __future__ import annotations

import numpy as np


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sorted unique (u < v) rows of an (E, 2) int array, self-loops dropped."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0) if arr.size else arr


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
