"""The planted-partition generator: byte identity with the full-array
reference at any draw chunk, the generator stream included, and rejection
of parameters that would otherwise be guessed at."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference as ref
from motifemb import planted_partition, synth


def assert_same_graph(kwargs: dict) -> None:
    g, labels = planted_partition(**kwargs)
    want, want_labels = ref.planted_partition(**kwargs)
    assert g.node_count == want.node_count
    assert g.edges.dtype == want.edges.dtype
    assert g.edges.tobytes() == want.edges.tobytes()
    assert labels.dtype == want_labels.dtype
    assert labels.tobytes() == want_labels.tobytes()


class TestMatchesReference:
    @pytest.mark.parametrize("kwargs", [dict(seed=5), dict(seed=0, nodes_per_block=40,
                                                           triangles_per_block=0)],
                             ids=["acceptance-instance", "no-triangles"])
    def test_fixed_instances(self, kwargs):
        assert_same_graph(kwargs)

    @pytest.mark.parametrize("chunk", [1, 7, synth._DRAW_CHUNK])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        blocks=st.integers(min_value=2, max_value=5),
        nodes_per_block=st.integers(min_value=3, max_value=60),
        triangles_per_block=st.integers(min_value=0, max_value=40),
        # degree as a fraction of the one that makes p = 1, to past the clamp
        intra=st.floats(min_value=0.0, max_value=1.5),
        inter=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_byte_identical_at_any_chunk(self, chunk, seed, blocks, nodes_per_block,
                                         triangles_per_block, intra, inter):
        kwargs = dict(seed=seed, nodes_per_block=nodes_per_block, blocks=blocks,
                      triangles_per_block=triangles_per_block,
                      er_intra_degree=intra * (nodes_per_block - 1),
                      inter_degree=inter * (blocks - 1) * nodes_per_block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth, "_DRAW_CHUNK", chunk)
            assert_same_graph(kwargs)

    def test_clamped_degrees_give_complete_blocks(self):
        g, labels = planted_partition(nodes_per_block=5, blocks=2, triangles_per_block=0,
                                      er_intra_degree=4.0, inter_degree=0.0)
        assert g.edge_count == 2 * 10
        assert np.all(labels[g.edges[:, 0]] == labels[g.edges[:, 1]])


class TestRejectsBadInput:
    @pytest.mark.parametrize("kwargs", [
        dict(triangles_per_block=-1),
        dict(er_intra_degree=math.nan),
        dict(er_intra_degree=-0.5),
        dict(er_intra_degree=math.inf),
        dict(inter_degree=math.nan),
        dict(inter_degree=-0.5),
        dict(inter_degree=math.inf),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            planted_partition(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(blocks=1), dict(nodes_per_block=2)])
    def test_too_small(self, kwargs):
        with pytest.raises(ValueError, match="at least 2 blocks"):
            planted_partition(**kwargs)
