"""EmbeddingMatrix invariants plus text/binary serialization round trips."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifemb import (
    EmbeddingMatrix,
    load_embedding_binary,
    load_embedding_text,
    save_embedding_binary,
    save_embedding_text,
)


def random_embedding(seed: int, n: int, d: int) -> EmbeddingMatrix:
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rng.normal(size=(n, d)), {"seed": seed, "trainer": "test"})


class TestMatrixInvariants:
    def test_rows_are_write_protected(self):
        emb = random_embedding(0, 4, 3)
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 1.0

    def test_caller_array_stays_writeable(self):
        m = np.zeros((3, 2))
        emb = EmbeddingMatrix(m)
        m[0, 0] = 1.0
        assert emb.vectors[0, 0] == 0.0

    def test_read_only_float64_input_is_not_copied(self):
        m = np.zeros((3, 2))
        m.setflags(write=False)
        assert EmbeddingMatrix(m).vectors is m

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingMatrix(bad)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            EmbeddingMatrix(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.zeros(5))

    def test_shape_properties(self):
        emb = random_embedding(1, 5, 2)
        assert emb.node_count == 5 and emb.dim == 2


class TestTextFormat:
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        n=st.integers(min_value=1, max_value=15),
        d=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_exact(self, seed, n, d, tmp_path_factory):
        path = tmp_path_factory.mktemp("emb") / "e.txt"
        emb = random_embedding(seed, n, d)
        save_embedding_text(emb, path)
        back, labels = load_embedding_text(path)
        # repr round-trips float64 exactly
        assert np.array_equal(back.vectors, emb.vectors)
        assert labels == [str(i) for i in range(n)]

    def test_header_and_provenance_lines(self, tmp_path):
        path = tmp_path / "e.txt"
        emb = EmbeddingMatrix(np.ones((2, 3)), {"trainer": "sgns", "dim": 3})
        save_embedding_text(emb, path, labels=["alpha", "beta"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# trainer=sgns"
        assert lines[1] == "# dim=3"
        assert lines[2] == "2 3"
        assert lines[3].split()[0] == "alpha"
        back, labels = load_embedding_text(path)
        assert back.provenance == {"trainer": "sgns", "dim": "3"}
        assert labels == ["alpha", "beta"]

    def test_comment_prefixed_labels_round_trip(self, tmp_path):
        # '#' and '%' start a comment only before the "n d" header; after
        # it every line is a row, so such labels stay rows
        path = tmp_path / "e.txt"
        emb = EmbeddingMatrix(np.arange(8.0).reshape(4, 2), {"trainer": "sgns"})
        names = ["#x", "%y", "#", "a=b"]
        save_embedding_text(emb, path, labels=names)
        back, labels = load_embedding_text(path)
        assert labels == names
        assert np.array_equal(back.vectors, emb.vectors)
        assert back.provenance == {"trainer": "sgns"}

    @pytest.mark.parametrize("bad", ["a b", ""])
    def test_unreadable_label_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "e.txt"
        emb = EmbeddingMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match=f"label {bad!r}"):
            save_embedding_text(emb, path, labels=[bad, "c", "d"])
        assert not path.exists()

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ValueError, match="declares 3"):
            load_embedding_text(path)

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 3\na 1.0 2.0\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_embedding_text(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# only=comments\n")
        with pytest.raises(ValueError, match="header"):
            load_embedding_text(path)


class TestBinaryFormat:
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        n=st.integers(min_value=1, max_value=15),
        d=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_at_float32(self, seed, n, d, tmp_path_factory):
        path = tmp_path_factory.mktemp("emb") / "e.bin"
        emb = random_embedding(seed, n, d)
        save_embedding_binary(emb, path)
        back = load_embedding_binary(path)
        assert back.vectors.shape == (n, d)
        # storage is 32-bit, so equality holds at float32 resolution
        assert np.array_equal(
            back.vectors.astype(np.float32), emb.vectors.astype(np.float32)
        )

    def test_layout_is_little_endian_row_major(self, tmp_path):
        path = tmp_path / "e.bin"
        emb = EmbeddingMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        save_embedding_binary(emb, path)
        raw = path.read_bytes()
        assert struct.unpack("<II", raw[:8]) == (2, 2)
        assert struct.unpack("<4f", raw[8:]) == (1.0, 2.0, 3.0, 4.0)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(ValueError, match="expected"):
            load_embedding_binary(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="header"):
            load_embedding_binary(path)
