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


def save_embedding_text(emb: EmbeddingMatrix, path, labels=None) -> None:
    lines = [f"# {key}={value}" for key, value in emb.provenance.items()]
    lines.append(f"{emb.node_count} {emb.dim}")
    if labels is None:
        labels = range(emb.node_count)
    elif len(labels) != emb.node_count:
        raise ValueError("label count does not match embedding rows")
    for label, row in zip([str(x) for x in labels], emb.vectors):
        # a row is read back as whitespace-split fields, label first
        if label.split() != [label]:
            raise ValueError(f"label {label!r} is empty or holds whitespace, "
                             "so its row would not load back")
        lines.append(label + " " + " ".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


def load_embedding_text(path) -> tuple[EmbeddingMatrix, list[str]]:
    """Returns the matrix and the node labels in row order.

    Of the stripped, non-blank lines, those before the first one that does
    not start with '#' are provenance comments; each ``key=value`` one is
    parsed back into the matrix's provenance dict (values as strings). That
    line is the "n d" header, and every later line is a row, read in file
    order: the first row with the wrong width or an unreadable value raises.
    """
    lines = [line for line in map(str.strip, Path(path).read_text().splitlines()) if line]
    start = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if start == len(lines):
        raise ValueError("missing 'n d' header line")
    provenance = {}
    for comment in lines[:start]:
        key, eq, value = comment[1:].partition("=")
        if eq:
            provenance[key.strip()] = value.strip()
    fields = lines[start].split()
    if len(fields) != 2:
        raise ValueError(f"bad header line: {lines[start]!r}")
    n, d = map(int, fields)
    labels: list[str] = []
    values: list[float] = []
    for line in lines[start + 1:]:
        label, *row = line.split()
        if len(row) != d:
            raise ValueError(f"expected {d} values for node {label!r}")
        labels.append(label)
        values.extend(map(float, row))
    if len(labels) != n:
        raise ValueError(f"header declares {n} rows, found {len(labels)}")
    # np.empty refuses a negative d, which reshape would read as "infer"
    vectors = np.empty((n, d))
    vectors.flat = values
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
