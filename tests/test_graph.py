"""Parsing, graph invariants, summary stats, and the rewiring null model."""
from __future__ import annotations

import io
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motifemb import (
    Graph,
    ParseError,
    graph_stats,
    make_split,
    null_model_rewire,
    parse_edge_list,
    write_edge_list,
)

import graph_reference
from conftest import er_graph


def random_graph_strategy():
    return st.builds(
        er_graph,
        n=st.integers(min_value=2, max_value=30),
        p=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
    )


@st.composite
def messy_pairs(draw):
    """(node count, (E, 2) pairs) with self-loops, repeats, reversed repeats
    and 0-3 isolated nodes past the last endpoint."""
    n = draw(st.integers(min_value=1, max_value=25))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=20))
        pairs += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
        pairs = draw(st.permutations(pairs))
    isolated = draw(st.integers(min_value=0, max_value=3))
    return n + isolated, np.array(pairs, dtype=np.int64).reshape(-1, 2)


@st.composite
def messy_edge_text(draw):
    """Edge-list text with comments, blank lines, commas, tabs, extra
    columns, self-loops, repeated and reversed edges, labels that would start
    a comment, lines led by delimiters, and rarely a line with one token."""
    token = st.sampled_from(["a", "b", "c", "7", "07", "x-1", "n3", "é"])
    label = st.sampled_from(["a", "b", "c", "7", "07", "x-1", "n3", "é", "#e", "%f", "#g"])
    sep = st.sampled_from([" ", ",", "\t", " , ", "  "])
    lead = st.sampled_from(["", " ", ",", " , "])
    lines = []
    for kind in draw(st.lists(st.integers(min_value=0, max_value=59), max_size=40)):
        if kind == 0:
            lines.append(draw(token))
        elif kind <= 2:
            lines.append(draw(st.sampled_from(["", "   ", "# note", "  % a b", "#1 2"])))
        else:
            # a line led by "#e" or "%f" is a comment unless a delimiter comes first
            cols = [draw(label), draw(label)] + draw(st.lists(
                st.sampled_from(["1", "0.5", "w", "a"]), max_size=2))
            line = cols[0]
            for col in cols[1:]:
                line += draw(sep) + col
            lines.append(draw(lead) + line)
    return "\n".join(lines)


@st.composite
def writable_graphs(draw, comment_like=True):
    """A graph with no isolated node, unlabelled or with distinct labels that
    hold no delimiter; with ``comment_like`` a label may start with '#' or
    '%'."""
    n = draw(st.integers(min_value=2, max_value=30))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    touched = {v for u, w in pairs if u != w for v in (u, w)}
    for v in sorted(set(range(n)) - touched):
        other = draw(st.integers(min_value=0, max_value=n - 2))
        pairs.append((v, other + (other >= v)))
    label = st.text(alphabet="ab7é-#%", min_size=1, max_size=3)
    if not comment_like:
        label = label.filter(lambda s: not s.startswith(("#", "%")))
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n, unique=True))
    return Graph.from_edges(n, pairs, labels)


def label_edges(g: Graph) -> set[frozenset[str]]:
    return {frozenset((g.label_of(u), g.label_of(v))) for u, v in g.edges.tolist()}


class TestLayout:
    @given(messy_pairs())
    @settings(max_examples=150, deadline=None)
    def test_position_map(self, case):
        n, pairs = case
        g = Graph.from_edges(n, pairs)
        assert np.array_equal(g.edges, graph_reference.canonical_edges(pairs))
        assert Graph.from_edges(n, [tuple(e) for e in pairs.tolist()]) == g
        # edge_ids[p] is the sorted (row, neighbor) pair at CSR position p
        rows = np.repeat(np.arange(n), g.degrees)
        want = np.stack([np.minimum(rows, g.indices), np.maximum(rows, g.indices)], axis=1)
        assert np.array_equal(g.edges[g.edge_ids], want)
        assert not g.edge_ids.flags.writeable
        for got, ref in zip((g.indptr, g.indices, g.edge_ids), graph_reference.csr(n, g.edges)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        # edge_keys[r] is the sorted int64 key of edges[r]
        assert g.edge_keys.dtype == np.int64 and not g.edge_keys.flags.writeable
        assert np.array_equal(g.edge_keys, g.edges[:, 0] * n + g.edges[:, 1])
        assert np.all(np.diff(g.edge_keys) > 0)

    @given(messy_pairs(), st.booleans(), st.integers(min_value=0, max_value=999),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_derived_graphs_equal_a_rebuild(self, case, labelled, seed, protect):
        # a train graph and a rewired graph, each against from_edges of its
        # own edges and the parent's labels: every array, dtype and flag
        n, pairs = case
        g = Graph.from_edges(n, pairs, [f"v{i}" for i in range(n)] if labelled else None)
        assume(g.edge_count >= 2)
        derived = [null_model_rewire(g, 2, seed)]
        try:
            derived.append(make_split(g, 0.3, seed, protect_connectivity=protect).train_graph)
        except ValueError:  # no edge to hold out, or no non-edge to match it
            pass
        for out in derived:
            want = Graph.from_edges(n, out.edges, g.labels)
            assert out.node_count == n and out.labels == g.labels
            for name in ("edges", "indptr", "indices", "edge_ids", "edge_keys"):
                got, ref = getattr(out, name), getattr(want, name)
                assert (got.dtype, got.shape, got.flags.writeable, got.flags.c_contiguous) == \
                    (ref.dtype, ref.shape, ref.flags.writeable, ref.flags.c_contiguous)
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bad", [[[0.9, 1.7], [1.2, 2.9]], [[0.0, np.nan]], [[0.0, np.inf]]])
    def test_fractional_endpoints_rejected(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            Graph.from_edges(3, np.array(bad))

    def test_whole_float_endpoints_accepted(self):
        assert Graph.from_edges(3, np.array([[2.0, 1.0]])) == Graph.from_edges(3, [(1, 2)])


class TestParse:
    @given(messy_edge_text())
    @settings(max_examples=150, deadline=None)
    def test_matches_set_parser(self, text):
        try:
            n, edges, labels = graph_reference.parse_edge_list(text)
        except ValueError as exc:
            with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
                parse_edge_list(text)
            return
        g = parse_edge_list(text)
        assert (g.node_count, g.labels) == (n, labels)
        assert np.array_equal(g.edges, edges)

    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        assert g.node_count == 3
        assert g.edge_count == 3
        assert g.labels == ("0", "1", "2")

    def test_dedup_and_self_loop(self):
        g = parse_edge_list("a b\nb a\na a\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.labels == ("a", "b")

    def test_first_appearance_ids(self):
        g = parse_edge_list("x y\nz x\n")
        assert g.labels == ("x", "y", "z")
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_comma_delimiter_and_comments(self):
        g = parse_edge_list("# header\n% other comment\n1,2\n2 3\n")
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_third_token_ignored(self):
        g = parse_edge_list("0 1 0.5\n1 2 7\n")
        assert g.edge_count == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\nbroken\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no edges"):
            parse_edge_list("")

    def test_only_comments_and_loops(self):
        with pytest.raises(ParseError, match="no edges"):
            parse_edge_list("# nothing\n5 5\n")


class TestGraphInvariants:
    def test_neighbor_lists_sorted_and_symmetric(self, petersen):
        for v in range(petersen.node_count):
            nbrs = petersen.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)
            for u in nbrs:
                assert v in petersen.neighbors(int(u))

    def test_no_self_loops_or_duplicates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
        assert g.edge_count == 2
        assert np.all(g.edges[:, 0] < g.edges[:, 1])

    def test_arrays_write_protected(self, k4):
        with pytest.raises(ValueError):
            k4.edges[0, 0] = 9

    @given(random_graph_strategy())
    @settings(max_examples=40, deadline=None)
    def test_csr_consistency(self, g):
        assert g.indptr[-1] == 2 * g.edge_count
        degs = g.degrees
        assert degs.sum() == 2 * g.edge_count
        for v in range(g.node_count):
            assert np.all(np.diff(g.neighbors(v)) > 0)


class TestStats:
    def test_k3(self, k3):
        s = graph_stats(k3)
        assert (s.num_nodes, s.num_edges, s.max_degree) == (3, 3, 2)
        assert s.avg_degree == 2.0
        assert s.density == 1.0

    @given(random_graph_strategy())
    @settings(max_examples=30, deadline=None)
    def test_identities(self, g):
        s = graph_stats(g)
        assert s.avg_degree == 2 * s.num_edges / s.num_nodes
        assert 0 < s.density <= 1


class TestRoundTrip:
    @given(writable_graphs())
    @settings(max_examples=150, deadline=None)
    def test_write_then_parse_is_identity(self, g):
        # a graph that was not parsed may come back with other ids, never
        # other labelled edges (str(id) labels when it has none); once
        # parsed, the round trip is bit-identical
        buf = io.StringIO()
        write_edge_list(g, buf)
        back = parse_edge_list(buf.getvalue())
        assert label_edges(back) == label_edges(g)
        buf2 = io.StringIO()
        write_edge_list(back, buf2)
        assert parse_edge_list(buf2.getvalue()) == back

    @given(messy_edge_text())
    @settings(max_examples=150, deadline=None)
    def test_parse_write_parse_is_identity(self, text):
        try:
            g = parse_edge_list(text)
        except ParseError:
            return
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert parse_edge_list(buf.getvalue()) == g

    def test_comment_like_label_is_not_written_first(self):
        g = parse_edge_list("a #b\nc #b\nc a\n")
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert not any(line.startswith(("#", "%")) for line in buf.getvalue().splitlines())
        assert parse_edge_list(buf.getvalue()) == g

    @pytest.mark.parametrize("text,written", [
        ("a b\n,#x #y\nb #x\n", "a b\nb #x\n,#x #y\n"),
        (",#x y\n", ",#x y\n"),
    ], ids=["two-comment-labels", "leading-comma"])
    def test_comment_like_first_label_is_escaped(self, text, written, tmp_path):
        g = parse_edge_list(text)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == written
        assert parse_edge_list(written) == g
        # a path gets the text a buffer gets
        write_edge_list(g, tmp_path / "g.edges")
        assert (tmp_path / "g.edges").read_text(encoding="utf-8") == written

    @pytest.mark.parametrize("labels,edges", [
        (("#x", "y"), [(0, 1)]),  # the line introduces both, so "#x" comes first
        (("x", "#y", "%z"), [(0, 1), (1, 2)]),  # both labels of edge 1-2 start a comment
    ])
    def test_edge_no_order_could_write_round_trips(self, labels, edges):
        g = Graph.from_edges(len(labels), edges, labels)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert parse_edge_list(buf.getvalue()) == g

    @given(writable_graphs(comment_like=False))
    @settings(max_examples=150, deadline=None)
    def test_write_matches_reference_loop(self, g):
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == graph_reference.write_edge_list(g)

    @pytest.mark.parametrize("labels,message", [
        (["a b", "c"], "whitespace"),  # would write "a b c", the edge a-b
        (["a", "a"], "repeats"),  # would write "a a", a self-loop
        (["", "c"], "non-empty"),  # would write " c", one token
        (["a,b", "c"], "commas"),  # would write "a,b c", the edge a-b
        ([0, "c"], "str"),
    ], ids=["whitespace", "repeat", "empty", "comma", "not-str"])
    def test_label_no_edge_list_can_carry_is_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(2, [(0, 1)], labels)

    def test_labels_preserved(self, tmp_path):
        g = parse_edge_list("alpha beta\nbeta gamma\n")
        write_edge_list(g, tmp_path / "g.edges")
        back = parse_edge_list((tmp_path / "g.edges").read_text())
        assert back.labels == ("alpha", "beta", "gamma")
        assert back == g

    def test_isolated_nodes_rejected(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1)])  # node 2 never appears on disk
        with pytest.raises(ValueError, match="isolated"):
            write_edge_list(g, tmp_path / "g.edges")


class TestNullModel:
    def test_k3_unchanged(self, k3):
        for seed in range(5):
            assert null_model_rewire(k3, 10, seed=seed) == k3

    def test_chorded_cycle_degrees_preserved(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        r = null_model_rewire(g, 10, seed=3)
        assert sorted(r.degrees.tolist()) == sorted(g.degrees.tolist())

    @given(random_graph_strategy(), st.integers(min_value=0, max_value=999))
    @settings(max_examples=30, deadline=None)
    def test_degree_multiset_invariant(self, g, seed):
        assume(g.edge_count >= 2)  # rewiring rejects single-edge graphs
        r = null_model_rewire(g, 5, seed=seed)
        assert np.array_equal(np.sort(r.degrees), np.sort(g.degrees))
        assert r.edge_count == g.edge_count

    @given(n=st.integers(min_value=2, max_value=30),
           p=st.floats(min_value=0.05, max_value=1.0),
           seed=st.integers(min_value=0, max_value=10_000),
           kind=st.sampled_from(["er", "star", "er+star"]),
           swaps_per_edge=st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_tuple_loop(self, n, p, seed, kind, swaps_per_edge):
        # complete graphs (p = 1) and stars admit no legal swap
        star = np.array([(0, i) for i in range(1, n)])
        er = er_graph(n, p, seed).edges
        edges = {"er": er, "star": star, "er+star": np.concatenate([er, star])}[kind]
        g = Graph.from_edges(n, edges, labels=[f"v{i}" for i in range(n)])
        assume(g.edge_count >= 2)
        got = null_model_rewire(g, swaps_per_edge, seed)
        assert got == graph_reference.null_model_rewire(g, swaps_per_edge, seed)

    @pytest.mark.parametrize("swaps_per_edge", [1, 2, 10])
    def test_matches_tuple_loop_on_a_skewed_graph(self, swaps_per_edge):
        # a hub with a few hundred leaves, a clique and a sparse rest
        rng = np.random.default_rng(5)
        n = 400
        edges = np.concatenate([[(0, i) for i in range(1, 300)],
                                [(i, j) for i in range(300, 320) for j in range(i + 1, 320)],
                                rng.integers(1, n, size=(600, 2))])
        g = Graph.from_edges(n, edges)
        for seed in range(4):
            got = null_model_rewire(g, swaps_per_edge, seed)
            assert got == graph_reference.null_model_rewire(g, swaps_per_edge, seed)
            assert got != g

    def test_seed_determinism(self, petersen):
        a = null_model_rewire(petersen, 10, seed=42)
        b = null_model_rewire(petersen, 10, seed=42)
        assert a == b
        assert np.array_equal(a.edges, b.edges)
