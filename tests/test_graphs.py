import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaa import graphs
from gaa.exceptions import ConfigError, DomainError, ParseError
from gaa.featgraph import SPARSE_MIN_NODES, EdgeList, sym_normalize
from gaa.graphs import (
    DomainPair,
    EpochLosses,
    Graph,
    RunMetrics,
    _seed_with_tag,
    gen_attribute_shift,
    gen_sbm,
    load_graph,
    save_graph,
    save_metrics,
)
from gaa.train import TrainConfig, run_repeated, train_gaa

from helpers import (
    csr_sym_normalize,
    dense_adjacency,
    edges_of_dense,
    load_metrics,
    loop_edge_lines,
    loop_load_adjacency,
)


class TestLoadGraph:
    def write(self, tmp_path, edges, feats, labels=None):
        e = tmp_path / "g.edges"
        f = tmp_path / "g.csv"
        e.write_text(edges)
        f.write_text(feats)
        lp = None
        if labels is not None:
            lp = tmp_path / "g.labels"
            lp.write_text(labels)
        return e, f, lp

    def test_symmetrization(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0 1\n", "1.0,2.0\n3.0,4.0\n")
        g = load_graph(e, f)
        np.testing.assert_array_equal(dense_adjacency(g.edges), [[0.0, 1.0], [1.0, 0.0]])

    def test_duplicate_edges_collapse(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0 1\n1 0\n0 1\n", "1.0\n2.0\n")
        g = load_graph(e, f)
        np.testing.assert_array_equal(dense_adjacency(g.edges), [[0.0, 1.0], [1.0, 0.0]])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        e, f, _ = self.write(tmp_path, "# header\n\n0 1  # trailing\n", "1\n2\n")
        g = load_graph(e, f)
        assert dense_adjacency(g.edges)[0, 1] == 1.0

    def test_label_count_mismatch(self, tmp_path):
        e, f, lp = self.write(tmp_path, "0 1\n0 2\n", "1\n2\n3\n", "0\n1\n")
        with pytest.raises(ParseError, match="2 labels for 3"):
            load_graph(e, f, lp)

    # too many labels name the first extra one, too few the file's last line
    @pytest.mark.parametrize("labels, line_no, count", [
        pytest.param("0\n1\n0\n", 3, 3, id="too-many"),
        pytest.param("0\n\n1\n\n0\n", 5, 3, id="too-many-blank-lines-between"),
        pytest.param("0", 1, 1, id="too-few-no-final-newline"),
        pytest.param("0\n\n\n", 3, 1, id="too-few-blank-lines-after"),
        pytest.param("", 1, 0, id="empty"),
    ])
    def test_label_count_mismatch_names_the_line(self, tmp_path, labels, line_no, count):
        e, f, lp = self.write(tmp_path, "0 1\n", "1\n2\n", labels)
        with pytest.raises(ParseError, match=rf"g.labels:{line_no}: {count} labels for 2 feature"):
            load_graph(e, f, lp)

    def test_source_label_at_or_above_node_count_names_line(self, tmp_path):
        # without a class count, n nodes cannot show more than n classes
        e, f, lp = self.write(tmp_path, "0 1\n", "1\n2\n3\n4\n", "0\n1\n0\n100000\n")
        with pytest.raises(ParseError, match=r"g.labels:4: label 100000 outside \[0, 4\)"):
            load_graph(e, f, lp)

    def test_label_at_or_above_class_count_names_line(self, tmp_path):
        e, f, lp = self.write(tmp_path, "0 1\n", "1\n2\n3\n", "0\n\n1\n2\n")
        g = load_graph(e, f, lp, num_classes=3)
        assert g.num_classes == 3
        with pytest.raises(ParseError, match=r"g.labels:4: label 2 outside \[0, 2\)"):
            load_graph(e, f, lp, num_classes=2)

    def test_negative_label_names_line(self, tmp_path):
        e, f, lp = self.write(tmp_path, "0 1\n", "1\n2\n", "0\n-1\n")
        with pytest.raises(ParseError, match=r"g.labels:2: label -1 outside"):
            load_graph(e, f, lp)

    def test_node_id_out_of_range_names_line(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0 1\n0 5\n", "1\n2\n")
        with pytest.raises(ParseError, match=r"g.edges:2"):
            load_graph(e, f)

    def test_non_numeric_feature_names_line(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0 1\n", "1.0\nx\n")
        with pytest.raises(ParseError, match=r"g.csv:2"):
            load_graph(e, f)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        e, f, _ = self.write(tmp_path, "0 1\n", f"1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(ParseError, match=r"g.csv:3: non-finite feature"):
            load_graph(e, f)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_edge_weight_names_line(self, tmp_path, weight):
        e, f, _ = self.write(tmp_path, f"0 1 0.5\n1 2 {weight}\n", "1\n2\n3\n")
        with pytest.raises(ParseError, match=r"g.edges:2: non-finite weight"):
            load_graph(e, f)

    def test_degree_that_overflows_is_rejected(self, tmp_path):
        # node 1's degree in A + I is 1.2 times the float64 maximum, plus loops
        big = 0.6 * sys.float_info.max
        e, f, _ = self.write(tmp_path, f"0 1 {big!r}\n1 2 {big!r}\n2 3 1.0\n", "1\n2\n3\n4\n")
        with pytest.raises(ConfigError, match=r"g.edges: the weighted degree of node 1 overflows"):
            load_graph(e, f)

    def test_degree_at_the_float64_maximum_loads(self, tmp_path):
        # node 1's degree is 1 + 2 * (max / 2), which rounds to the maximum
        half = sys.float_info.max / 2
        e, f, _ = self.write(tmp_path, f"0 1 {half!r}\n1 2 {half!r}\n", "1\n2\n3\n")
        g = load_graph(e, f)
        assert g.edges.weight.tolist() == [half, half]

    def test_feature_row_whose_squared_norm_overflows_names_line(self, tmp_path):
        # 1e154 squares to 1e308, so one such value fits and two do not
        e, f, _ = self.write(tmp_path, "0 1\n", "1e154,0\n1e154,1e154\n")
        with pytest.raises(ParseError, match=r"g.csv:2: the feature row's squared norm overflows"):
            load_graph(e, f)

    def test_roundtrip_through_save(self, tmp_path):
        g = gen_attribute_shift(0.7, seed=5, n=12, d=3)
        save_graph(g, tmp_path / "a.edges", tmp_path / "a.csv", tmp_path / "a.labels")
        back = load_graph(tmp_path / "a.edges", tmp_path / "a.csv", tmp_path / "a.labels")
        np.testing.assert_array_equal(dense_adjacency(back.edges), dense_adjacency(g.edges))
        np.testing.assert_array_equal(back.features, g.features)
        np.testing.assert_array_equal(back.labels, g.labels)


# Pieces of the three text formats, a few near misses, and bytes that are not
# UTF-8; joined at random they make files that rarely parse.
_TOKENS = st.sampled_from(["0", "1", "2", "7", "-1", "0.5", "-2.5e3", "1e999", "nan", "inf",
                           "99999999999999999999", "x", "", " ", "  ", "\t", ",", ",,",
                           "#", "# c", "\n", "\n", "\n", "\r\n", "\r", "\x0c", "é"])
_TEXT = st.lists(_TOKENS, max_size=30).map(lambda parts: "".join(parts).encode("utf-8"))
_NOISE = st.one_of(_TEXT, st.tuples(_TEXT, st.integers(0, 30),
                                    st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"]))
                   .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


@st.composite
def _graph_files(draw):
    """Edge, feature and label file contents for one node count, well formed
    except for a few node ids and weights; noise replaces any of the three,
    and the label file may be absent (None)."""
    n, width = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    node = st.integers(0, n - 1) | st.integers(-1, n + 1)
    weight = st.sampled_from(["", "", "", "", "", " 0.25", " -3", " nan", " 1e999"])
    cell = st.floats(-1e3, 1e3) | st.integers(-3, 3)
    files = [
        "".join(f"{i} {j}{w}\n" for i, j, w in
                draw(st.lists(st.tuples(node, node, weight), max_size=6))),
        "".join(",".join(map(str, draw(st.lists(cell, min_size=width, max_size=width)))) + "\n"
                for _ in range(n)),
        "".join(f"{y}\n" for y in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))),
    ]
    files = [text.encode() for text in files]
    for idx in draw(st.sets(st.integers(0, 2), max_size=2)):
        files[idx] = draw(_NOISE)
    if draw(st.booleans()):
        files[2] = None
    return files


@settings(max_examples=300, deadline=None)
@given(_graph_files(), st.none() | st.integers(1, 4))
def test_parsers_load_or_name_the_line(files, num_classes):
    """Any edge, feature and label file either loads or raises ParseError at
    ``path:line``; no other exception escapes load_graph."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("g.edges", "g.csv", "g.labels")]
        contents = {}
        for path, raw in zip(paths, files):
            if raw is not None:
                path.write_bytes(raw)
                contents[str(path)] = raw
        try:
            g = load_graph(paths[0], paths[1], paths[2] if files[2] is not None else None,
                           num_classes)
        except ParseError as exc:
            raw = contents[exc.path]
            assert str(exc).startswith(f"{exc.path}:{exc.line_no}: ")
            # a line of the file, or line 1 of an empty one
            assert 1 <= exc.line_no <= max(1, len(raw.splitlines()))
        else:
            assert g.n >= 1
            np.testing.assert_array_equal(dense_adjacency(g.edges),
                                          loop_load_adjacency(paths[0], g.n))


class TestEdgeListLoader:
    """load_graph against the loop-based dense scatter, and the sparse view
    the list builds against scipy's normalization of the dense matrix."""

    def load(self, tmp_path, edges, n):
        (tmp_path / "g.edges").write_text(edges)
        (tmp_path / "g.csv").write_text("1.0\n" * n)
        g = load_graph(tmp_path / "g.edges", tmp_path / "g.csv")
        return g, loop_load_adjacency(tmp_path / "g.edges", n)

    def test_duplicate_pairs_in_both_directions_last_line_wins(self, tmp_path):
        g, want = self.load(tmp_path, "0 1 0.5\n1 0 2.0\n2 1\n1 2 0.25\n0 2 3\n2 0 0\n", 3)
        np.testing.assert_array_equal(dense_adjacency(g.edges), want)
        assert want[0, 1] == 2.0 and want[1, 2] == 0.25 and want[0, 2] == 0.0
        # a pair whose last line weighs 0 is no edge at all
        assert list(zip(g.edges.row, g.edges.col)) == [(0, 1), (1, 2)]

    def test_self_loops_skipped_and_weights_kept(self, tmp_path):
        g, want = self.load(tmp_path, "1 1\n0 1 3.5\n2 2 4\n3 0 1e-7\n", 4)
        np.testing.assert_array_equal(dense_adjacency(g.edges), want)
        assert np.all(g.edges.row < g.edges.col)

    def test_random_files_match_the_loop_scatter(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 30
        lines = [f"{i} {j}" + ("" if w == 1.0 else f" {w!r}")
                 for i, j, w in zip(rng.integers(0, n, 400).tolist(),
                                    rng.integers(0, n, 400).tolist(),
                                    rng.choice([1.0, 0.5, 0.0, 2.25, 0.1 + 0.2], 400).tolist())]
        g, want = self.load(tmp_path, "\n".join(lines) + "\n", n)
        np.testing.assert_array_equal(dense_adjacency(g.edges), want)
        keys = g.edges.row * n + g.edges.col
        assert np.all(np.diff(keys) > 0)  # row-major, each pair once

    @pytest.mark.parametrize("edges, line_no, problem", [
        pytest.param("0 1\n0 9\n5 0\n", 2, r"out of range for 3 nodes: \(0, 9\)", id="first-bad"),
        pytest.param("0 1\n-1 2\n", 2, "out of range", id="negative"),
        pytest.param("0 1\n99999999999999999999 0\n", 2, "out of range", id="beyond-int64"),
        # a malformed line anywhere is reported before an out-of-range id
        pytest.param("0 9\n1 x\n", 2, "non-integer node id", id="malformed-first"),
    ])
    def test_bad_line_is_named(self, tmp_path, edges, line_no, problem):
        with pytest.raises(ParseError, match=rf"g.edges:{line_no}: .*{problem}"):
            self.load(tmp_path, edges, 3)

    @pytest.mark.parametrize("graph", [
        pytest.param(lambda: gen_sbm(seed=12, n=20, d=3), id="weighted"),
        pytest.param(lambda: gen_attribute_shift(0.7, seed=5, n=12, d=3), id="unweighted"),
    ])
    def test_save_load_round_trip_byte_for_byte(self, tmp_path, graph):
        names = ("edges", "csv", "labels")
        save_graph(graph(), *(tmp_path / f"a.{x}" for x in names))
        back = load_graph(*(tmp_path / f"a.{x}" for x in names))
        save_graph(back, *(tmp_path / f"b.{x}" for x in names))
        for x in names:
            assert (tmp_path / f"a.{x}").read_bytes() == (tmp_path / f"b.{x}").read_bytes()

    @pytest.mark.parametrize("n", [SPARSE_MIN_NODES, SPARSE_MIN_NODES + 50])
    def test_csr_from_the_list_equals_scipy_of_the_dense(self, tmp_path, n):
        """A loaded list at the sparse threshold or above: its adjacency is
        the line-by-line one, and its sparse view is scipy's normalization
        of that adjacency, bit for bit."""
        from scipy import sparse

        rng = np.random.default_rng(n)
        lines = [f"{i} {j} {w!r}" for i, j, w in zip(rng.integers(0, n, 6 * n).tolist(),
                                                     rng.integers(0, n, 6 * n).tolist(),
                                                     rng.uniform(0.5, 2.0, 6 * n).tolist())]
        g, want = self.load(tmp_path, "\n".join(lines) + "\n", n)
        np.testing.assert_array_equal(dense_adjacency(g.edges), want)
        got, ref = sym_normalize(g.edges), csr_sym_normalize(sparse.csr_array(want))
        assert got.toarray().tobytes() == ref.toarray().tobytes()


class TestEdgeListInvariants:
    def graph(self, n=3, row=(0, 1), col=(1, 2), weight=(1.0, 2.0)):
        return Graph(edges=EdgeList(n, np.array(row), np.array(col), np.array(weight)),
                     features=np.ones((3, 1)))

    def test_well_formed_list_accepted(self):
        assert self.graph().n == 3

    @pytest.mark.parametrize("fields, problem", [
        ({"n": 4}, "does not match 3 feature rows"),
        ({"row": (0, 1, 1)}, "differ in shape"),
        ({"col": (1.0, 2.0)}, "not integers"),
        ({"col": (1, 3)}, "outside"),
        ({"row": (-1, 1)}, "outside"),
        ({"row": (2, 1)}, "outside"),  # row > col: the lower triangle
        ({"weight": (1.0, np.nan)}, "non-finite"),
        ({"weight": (np.inf, 1.0)}, "non-finite"),
        ({"weight": (1.0, -2.0)}, "negative edge weight"),
        ({"row": (0, 0), "col": (1, 1)}, "repeats a pair"),
        ({"row": (1, 0), "col": (2, 1)}, "not in row-major order"),
    ])
    def test_malformed_list_rejected(self, fields, problem):
        with pytest.raises(DomainError, match=problem):
            self.graph(**fields)

    def test_int32_ids_past_the_int32_pair_key_accepted(self):
        n = 70000  # 40000 * n overflows int32
        ids = np.array([30000, 40000], dtype=np.int32)
        g = Graph(edges=EdgeList(n, ids, ids + 1, np.ones(2)), features=np.ones((n, 1)))
        assert g.n == n

    @pytest.mark.parametrize("row, col", [((0, 2), (1, 2)), ((0, 0), (0, 1))])
    def test_diagonal_entry_rejected(self, row, col):
        # only a normalized list holds a diagonal; a graph's loops come from
        # normalization, never from the list
        with pytest.raises(DomainError, match=r"outside 0 <= row < col < 3"):
            self.graph(row=row, col=col)


class TestGraphInvariants:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        features = np.ones((2, 2))
        features[1, 0] = value
        with pytest.raises(DomainError, match="features hold non-finite"):
            Graph(edges=edges_of_dense(np.zeros((2, 2))), features=features)

    def test_label_out_of_range_rejected(self):
        # a graph shows the classes its labels hold; the pair bounds the
        # target's by the source's count
        source = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 1)),
                       labels=np.array([0, 1]))
        target = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 1)),
                       labels=np.array([0, 3]))
        assert target.num_classes == 4
        with pytest.raises(DomainError, match=r"target label 3 outside the source's 2 classes"):
            DomainPair(source=source, target=target)

    def test_pair_requires_source_labels(self):
        g = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 1)))
        labeled = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 1)),
                        labels=np.array([0, 1]))
        with pytest.raises(DomainError):
            DomainPair(source=g, target=labeled)

    def test_pair_dim_mismatch(self):
        a = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 2)),
                  labels=np.array([0, 1]))
        b = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 3)))
        with pytest.raises(DomainError):
            DomainPair(source=a, target=b)

    def test_pair_takes_the_class_count_from_the_source(self):
        # pairing writes into neither graph, so an unlabeled target paired
        # with a 3-class source pairs again with a 2-class one, and a target
        # whose labels show only class 0 pairs and trains
        source = gen_attribute_shift(0.4, seed=3, n=14, d=4)
        shifted = gen_attribute_shift(1.2, seed=3, n=14, d=4)
        three = Graph(edges=source.edges, features=source.features, labels=np.arange(14) % 3)
        unlabeled = Graph(edges=shifted.edges, features=shifted.features)
        assert DomainPair(source=three, target=unlabeled).num_classes == 3
        only_zero = Graph(edges=shifted.edges, features=shifted.features,
                          labels=np.zeros(14, dtype=np.int64))
        for target, shown in ((unlabeled, None), (only_zero, 1)):
            before = dict(vars(target))
            pair = DomainPair(source=source, target=target)
            assert pair.num_classes == 2
            assert target.num_classes == shown
            assert vars(target).keys() == before.keys()
            assert all(vars(target)[key] is value for key, value in before.items())
        cfg = TrainConfig(epochs=1, k=2, hidden=8, embed=4)
        model, run = train_gaa(pair, cfg)
        assert model.num_classes == 2
        assert 0.0 <= run.target_accuracy <= 1.0


# n for a generator's draw at the default GEN_FLOATS: 512 rows are the most
# that one block holds, so 513 and 519 are drawn in two
ONE_BLOCK_OR_TWO = [2, 100, 256, 257, 512, 513, 519]
# GEN_FLOATS at n=100: ragged three-row blocks, one-row blocks, and one row
# even where a row is more than GEN_FLOATS
SMALL_BLOCKS = [307, 100, 1]


class TestAttributeShift:
    def test_zero_std_puts_nodes_on_centers(self):
        g = gen_attribute_shift(0.0, seed=3, n=10, d=4)
        for i in range(10):
            for j in range(10):
                if g.labels[i] == g.labels[j]:
                    np.testing.assert_array_equal(g.features[i], g.features[j])

    def test_determinism(self):
        a = gen_attribute_shift(0.8, seed=11)
        b = gen_attribute_shift(0.8, seed=11)
        np.testing.assert_array_equal(dense_adjacency(a.edges), dense_adjacency(b.edges))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_adjacency_fixed_across_stds(self):
        a = gen_attribute_shift(0.1, seed=4)
        b = gen_attribute_shift(1.9, seed=4)
        np.testing.assert_array_equal(dense_adjacency(a.edges), dense_adjacency(b.edges))

    def test_edge_count_near_binomial_expectation(self):
        g = gen_attribute_shift(1.0, seed=9, n=100, edge_prob=0.3)
        expected = 0.3 * 100 * 99 / 2
        observed = dense_adjacency(g.edges).sum() / 2
        assert abs(observed - expected) / expected < 0.10

    def test_balanced_labels(self):
        g = gen_attribute_shift(0.5, seed=2, n=100)
        assert (g.labels == 0).sum() == 50

    @pytest.mark.parametrize("n", ONE_BLOCK_OR_TWO)
    def test_edges_equal_the_dense_draw(self, n):
        self.assert_dense_draw(n)

    @pytest.mark.parametrize("floats", SMALL_BLOCKS)
    def test_small_blocks_equal_the_dense_draw(self, monkeypatch, floats):
        monkeypatch.setattr(graphs, "GEN_FLOATS", floats)
        self.assert_dense_draw(100)

    @staticmethod
    def assert_dense_draw(n):
        """The blocked draw against the dense one it replaces: the strict upper
        triangle of one n x n uniform matrix, then the centers."""
        g = gen_attribute_shift(0.6, seed=n, n=n, d=3, edge_prob=0.1)
        rng = np.random.default_rng(np.random.SeedSequence([n, 0xA11CE]))
        upper = np.triu(rng.random((n, n)) < 0.1, 1).astype(np.float64)
        want = edges_of_dense(upper + upper.T)
        centers = rng.uniform(-10.0, 10.0, size=(2, 3))
        for name in ("row", "col", "weight"):
            got, expected = getattr(g.edges, name), getattr(want, name)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        noise = np.random.default_rng(_seed_with_tag(n, 0.6)).standard_normal((n, 3))
        assert g.features.tobytes() == (centers[g.labels] + 0.6 * noise).tobytes()

    def test_holds_no_dense_draw_at_scale(self):
        n = 3000
        tracemalloc.start()
        try:
            g = gen_attribute_shift(1.0, seed=1, n=n, edge_prob=0.005)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edges.row.size > 0
        assert peak < n * n * 8  # 72 MB, one n x n float64 array


class TestSbm:
    def test_symmetric_zero_diagonal(self):
        adj = dense_adjacency(gen_sbm(seed=7).edges)
        np.testing.assert_array_equal(adj, adj.T)
        np.testing.assert_array_equal(np.diag(adj), np.zeros(100))

    def test_block_densities(self):
        adj = dense_adjacency(gen_sbm(seed=8, n=100, p=0.8).edges)
        half = 50
        intra_top = adj[:half, :half]
        possible = half * (half - 1) / 2
        density = np.count_nonzero(np.triu(intra_top, 1)) / possible
        assert abs(density - 0.8) / 0.8 < 0.10
        inter = adj[:half, half:]
        inter_density = np.count_nonzero(inter) / (half * half)
        assert abs(inter_density - 0.08) / 0.08 < 0.25

    def test_weights_in_unit_interval(self):
        adj = dense_adjacency(gen_sbm(seed=9).edges)
        w = adj[adj > 0]
        assert w.min() > 0.0 and w.max() <= 1.0

    def test_lower_p_removes_edges_monotonically(self):
        dense = gen_sbm(seed=10, p=0.8)
        sparse = gen_sbm(seed=10, p=0.4)
        dense_mask = dense_adjacency(dense.edges) > 0
        sparse_mask = dense_adjacency(sparse.edges) > 0
        assert np.all(dense_mask[sparse_mask])  # sparse edge set is nested
        assert sparse_mask.sum() < dense_mask.sum()

    def test_determinism(self):
        np.testing.assert_array_equal(dense_adjacency(gen_sbm(seed=1).edges),
                                      dense_adjacency(gen_sbm(seed=1).edges))

    def test_pair_shares_its_features(self):
        """A `generate --kind sbm` pair differs only in topology."""
        source, target = gen_sbm(seed=6, p=0.8), gen_sbm(seed=6, p=0.3)
        assert source.features.tobytes() == target.features.tobytes()
        assert source.edges.row.size > target.edges.row.size

    def test_gcn_tells_the_communities_apart(self):
        """The features are 1 + N(0,1), not constant: a GCN learns the
        communities on the source and carries them to a sparser target."""
        pair = DomainPair(source=gen_sbm(seed=5, p=0.8), target=gen_sbm(seed=5, p=0.4))
        cfg = TrainConfig(seed=0, variant="GCN", epochs=100, lr=3e-3, dropout=0.3)
        assert min(run_repeated(pair, cfg, n_runs=3).accuracies) >= 0.8

    @pytest.mark.parametrize("p", [0.3, 0.8, 1.0])
    @pytest.mark.parametrize("n", [3, *ONE_BLOCK_OR_TWO])
    def test_edges_equal_the_dense_draw(self, n, p):
        self.assert_dense_draw(n, p)

    @pytest.mark.parametrize("floats", SMALL_BLOCKS)
    def test_small_blocks_equal_the_dense_draw(self, monkeypatch, floats):
        monkeypatch.setattr(graphs, "GEN_FLOATS", floats)
        self.assert_dense_draw(100, 0.3)

    @staticmethod
    def assert_dense_draw(n, p):
        """The blocked draws against the dense ones they replace: the strict
        upper triangle of one n x n uniform matrix below each pair's
        probability, weighed by a second n x n draw, then the features."""
        g = gen_sbm(seed=n, n=n, p=p, d=2)
        rng = np.random.default_rng(np.random.SeedSequence([n, 0x5B3]))
        community = np.arange(n) >= n // 2
        same = np.equal.outer(community, community)
        u = rng.random((n, n))
        weights = 1.0 - rng.random((n, n))
        features = 1.0 + rng.standard_normal((n, 2))
        row, col = np.nonzero(np.triu(u < np.where(same, p, p / 10.0), 1))
        for got, want in ((g.edges.row, row), (g.edges.col, col),
                          (g.edges.weight, weights[row, col]), (g.features, features)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_holds_no_dense_draw_at_scale(self):
        n = 3000
        tracemalloc.start()
        try:
            g = gen_sbm(seed=1, n=n, p=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edges.row.size > 0
        assert peak < n * n * 8  # 72 MB, one n x n float64 array


@pytest.mark.parametrize("generate", [
    lambda n: gen_attribute_shift(1.0, seed=1, n=n, edge_prob=0.0005),
    lambda n: gen_sbm(seed=1, n=n, p=0.002),
], ids=["attribute-shift", "sbm"])
def test_draw_blocks_are_bounded_in_floats_not_rows(generate):
    """A block of 256 rows at n=10000 is 20 MB alone; one of GEN_FLOATS
    floats is 2 MB, whatever n is."""
    n = 10000
    tracemalloc.start()
    try:
        g = generate(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edges.row.size > 0
    assert peak < 256 * n * 8


class TestMetricsIO:
    def metrics(self):
        return RunMetrics(
            seed=5,
            epochs=2,
            per_epoch=[
                EpochLosses(0, 1.5, 1.0, 0.2, 0.2, 0.1),
                EpochLosses(1, 1.2, 0.8, 0.2, 0.1, 0.1),
            ],
            target_accuracy=0.75,
            wall_seconds=1.25,
            config_echo={"lr": 0.001},
        )

    def test_roundtrip(self, tmp_path):
        m = self.metrics()
        save_metrics(m, tmp_path / "m.json")
        back = load_metrics(tmp_path / "m.json")
        assert back == m

    def test_per_epoch_length_matches_epochs(self, tmp_path):
        m = self.metrics()
        save_metrics(m, tmp_path / "m.json")
        back = load_metrics(tmp_path / "m.json")
        assert len(back.per_epoch) == back.epochs

    def test_accuracy_in_unit_interval(self):
        assert 0.0 <= self.metrics().target_accuracy <= 1.0


def test_weighted_edge_roundtrip(tmp_path):
    g = gen_sbm(seed=12, n=20, d=3)
    save_graph(g, tmp_path / "s.edges", tmp_path / "s.csv", tmp_path / "s.labels")
    back = load_graph(tmp_path / "s.edges", tmp_path / "s.csv", tmp_path / "s.labels")
    np.testing.assert_array_equal(dense_adjacency(back.edges), dense_adjacency(g.edges))


def test_save_graph_edges_match_pair_walk(tmp_path):
    rng = np.random.default_rng(4)
    n = 30
    adj = np.triu(rng.random((n, n)) < 0.3, 1) * rng.choice([1.0, 0.1 + 0.2, 2.5, 1e-7], (n, n))
    adj = adj + adj.T
    assert {1.0, 0.1 + 0.2}.issubset(set(adj.reshape(-1)))
    g = Graph(edges=edges_of_dense(adj), features=rng.normal(size=(n, 2)))
    save_graph(g, tmp_path / "w.edges", tmp_path / "w.csv")
    assert (tmp_path / "w.edges").read_text() == loop_edge_lines(adj)


def test_save_graph_blocks_join_at_the_boundaries(tmp_path):
    rng = np.random.default_rng(5)
    n = 20
    adj = np.triu(rng.random((n, n)) < 0.4, 1) * rng.choice([1.0, 0.1 + 0.2, 2.5], (n, n))
    adj = adj + adj.T
    g = Graph(edges=edges_of_dense(adj), features=rng.normal(size=(n, 2)))
    for block in (1, 3, g.edges.row.size, g.edges.row.size + 1):
        with mock.patch.object(graphs, "SAVE_BLOCK", block):
            save_graph(g, tmp_path / "b.edges", tmp_path / "b.csv")
        assert (tmp_path / "b.edges").read_text() == loop_edge_lines(adj)


def test_save_graph_holds_no_list_of_every_edge(tmp_path):
    """The peak stays below the pointer arrays alone of three Python lists
    of every edge, 8 bytes per entry: only a block of edges is formatted at
    a time (small here, so that 100k edges are enough to tell)."""
    n = 450
    row, col = np.triu_indices(n, 1)
    weight = np.where(row % 2 == 0, 1.0, 0.5)
    g = Graph(edges=EdgeList(n, row, col, weight), features=np.ones((n, 1)))
    tracemalloc.start()
    try:
        with mock.patch.object(graphs, "SAVE_BLOCK", 1024):
            save_graph(g, tmp_path / "big.edges", tmp_path / "big.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * row.size
