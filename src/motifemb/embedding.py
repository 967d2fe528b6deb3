"""Embedding matrix container plus text and binary serialization.

Text format: optional '#'-prefixed provenance comments, a "n d" header line,
then one row per node: "<label> <v1> ... <vd>". Comments come only before the
header: after it every non-blank line is a row, whatever its label starts
with. Binary format: two little endian uint32 (n, d) followed by row-major
float32 values.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "EmbeddingMatrix",
    "save_embedding_text",
    "load_embedding_text",
    "save_embedding_binary",
    "load_embedding_binary",
]


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """A read-only float64 (node_count, dim) matrix and its provenance.

    A writeable input is copied before it is write-protected, so the
    caller's array stays writeable and cannot change the embedding. A
    read-only float64 array is taken as it is: the trainers and loaders
    write-protect the arrays they build, which no one else holds, so
    nothing is copied."""

    vectors: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("embedding contains non-finite values")
        if v.flags.writeable:
            v = v.copy()
            v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def node_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _labels_for(emb: EmbeddingMatrix, labels) -> list[str]:
    if labels is None:
        return [str(i) for i in range(emb.node_count)]
    if len(labels) != emb.node_count:
        raise ValueError("label count does not match embedding rows")
    out = [str(x) for x in labels]
    for label in out:
        # a row is read back as whitespace-split fields, label first
        if label.split() != [label]:
            raise ValueError(f"label {label!r} is empty or holds whitespace, "
                             "so its row would not load back")
    return out


def save_embedding_text(emb: EmbeddingMatrix, path, labels=None) -> None:
    lines = []
    for key, value in emb.provenance.items():
        lines.append(f"# {key}={value}")
    lines.append(f"{emb.node_count} {emb.dim}")
    for label, row in zip(_labels_for(emb, labels), emb.vectors):
        lines.append(label + " " + " ".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


def load_embedding_text(path) -> tuple[EmbeddingMatrix, list[str]]:
    """Returns the matrix and the node labels in row order.

    Provenance comments are parsed back into the matrix's provenance dict
    (values as strings).
    """
    provenance: dict = {}
    header = None
    rows: list[np.ndarray] = []
    labels: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if header is None:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    provenance[key.strip()] = value.strip()
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad header line: {line!r}")
            header = (int(parts[0]), int(parts[1]))
            continue
        parts = line.split()
        if len(parts) != header[1] + 1:
            raise ValueError(f"expected {header[1]} values for node {parts[0]!r}")
        labels.append(parts[0])
        rows.append(np.array([float(x) for x in parts[1:]], dtype=np.float64))
    if header is None:
        raise ValueError("missing 'n d' header line")
    if len(rows) != header[0]:
        raise ValueError(f"header declares {header[0]} rows, found {len(rows)}")
    vectors = np.vstack(rows) if rows else np.zeros((0, header[1]))
    vectors.setflags(write=False)
    return EmbeddingMatrix(vectors, provenance), labels


def save_embedding_binary(emb: EmbeddingMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", emb.node_count, emb.dim))
        fh.write(np.ascontiguousarray(emb.vectors, dtype="<f4").tobytes())


def load_embedding_binary(path) -> EmbeddingMatrix:
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise ValueError("truncated binary embedding: missing header")
    n, d = struct.unpack("<II", data[:8])
    expected = 8 + 4 * n * d
    if len(data) != expected:
        raise ValueError(f"expected {expected} bytes for {n}x{d}, got {len(data)}")
    vectors = np.frombuffer(data[8:], dtype="<f4").reshape(n, d).astype(np.float64)
    vectors.setflags(write=False)
    return EmbeddingMatrix(vectors)
