import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaa.exceptions import DomainError, ParseError
from gaa.featgraph import SYMMETRY_BLOCK
from gaa.graphs import (
    DomainPair,
    EpochLosses,
    Graph,
    RunMetrics,
    gen_attribute_shift,
    gen_sbm,
    load_graph,
    load_metrics,
    save_graph,
    save_metrics,
)

from helpers import loop_edge_lines


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
        np.testing.assert_array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_duplicate_edges_collapse(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0 1\n1 0\n0 1\n", "1.0\n2.0\n")
        g = load_graph(e, f)
        np.testing.assert_array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        e, f, _ = self.write(tmp_path, "# header\n\n0 1  # trailing\n", "1\n2\n")
        g = load_graph(e, f)
        assert g.adjacency[0, 1] == 1.0

    def test_label_count_mismatch(self, tmp_path):
        e, f, lp = self.write(tmp_path, "0 1\n0 2\n", "1\n2\n3\n", "0\n1\n")
        with pytest.raises(ParseError, match="2 labels for 3"):
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

    def test_roundtrip_through_save(self, tmp_path):
        g = gen_attribute_shift(0.7, seed=5, n=12, d=3)
        save_graph(g, tmp_path / "a.edges", tmp_path / "a.csv", tmp_path / "a.labels")
        back = load_graph(tmp_path / "a.edges", tmp_path / "a.csv", tmp_path / "a.labels")
        np.testing.assert_array_equal(back.adjacency, g.adjacency)
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
            # a line of the file, or the one after its end (a missing label)
            assert 1 <= exc.line_no <= len(raw.splitlines()) + 1
        else:
            assert g.adjacency.shape == (g.n, g.n) and g.n >= 1


class TestGraphInvariants:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(DomainError):
            Graph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]), features=np.zeros((2, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        features = np.ones((2, 2))
        features[1, 0] = value
        with pytest.raises(DomainError, match="features hold non-finite"):
            Graph(adjacency=np.zeros((2, 2)), features=features)

    @pytest.mark.parametrize("cells", [[(0, 1), (1, 0)], [(1, 1)], [(0, 1)]])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_adjacency_rejected(self, cells, value):
        adjacency = np.zeros((2, 2))
        for cell in cells:
            adjacency[cell] = value
        with pytest.raises(DomainError, match="adjacency holds non-finite"):
            Graph(adjacency=adjacency, features=np.ones((2, 1)))

    # 2 * 256 + 3 nodes: three row blocks of the symmetry check, the last ragged
    @pytest.mark.parametrize("cell", [(300, 500), (500, 300), (0, 514), (513, 514), (514, 2)])
    def test_asymmetry_in_any_block_rejected(self, cell):
        n = 2 * SYMMETRY_BLOCK + 3
        adjacency = np.zeros((n, n))
        adjacency[cell] = 1.0
        with pytest.raises(DomainError, match="adjacency is not symmetric"):
            Graph(adjacency=adjacency, features=np.ones((n, 1)))

    def test_nan_far_from_the_diagonal_is_non_finite(self):
        n = 2 * SYMMETRY_BLOCK + 3
        adjacency = np.zeros((n, n))
        adjacency[0, n - 1] = np.nan
        with pytest.raises(DomainError, match="adjacency holds non-finite"):
            Graph(adjacency=adjacency, features=np.ones((n, 1)))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 1)),
                  labels=np.array([0, 3]), num_classes=2)

    def test_pair_requires_source_labels(self):
        g = Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 1)))
        labeled = Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 1)),
                        labels=np.array([0, 1]))
        with pytest.raises(DomainError):
            DomainPair(source=g, target=labeled)

    def test_pair_dim_mismatch(self):
        a = Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 2)),
                  labels=np.array([0, 1]))
        b = Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 3)))
        with pytest.raises(DomainError):
            DomainPair(source=a, target=b)

    def test_pair_propagates_num_classes_to_target(self):
        a = Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 2)),
                  labels=np.array([0, 1]))
        b = Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 2)))
        pair = DomainPair(source=a, target=b)
        assert pair.target.num_classes == 2


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
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_adjacency_fixed_across_stds(self):
        a = gen_attribute_shift(0.1, seed=4)
        b = gen_attribute_shift(1.9, seed=4)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)

    def test_edge_count_near_binomial_expectation(self):
        g = gen_attribute_shift(1.0, seed=9, n=100, edge_prob=0.3)
        expected = 0.3 * 100 * 99 / 2
        observed = g.adjacency.sum() / 2
        assert abs(observed - expected) / expected < 0.10

    def test_balanced_labels(self):
        g = gen_attribute_shift(0.5, seed=2, n=100)
        assert (g.labels == 0).sum() == 50


class TestSbm:
    def test_features_all_ones(self):
        g = gen_sbm(seed=6)
        np.testing.assert_array_equal(g.features, np.ones((100, 10)))

    def test_symmetric_zero_diagonal(self):
        g = gen_sbm(seed=7)
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
        np.testing.assert_array_equal(np.diag(g.adjacency), np.zeros(100))

    def test_block_densities(self):
        g = gen_sbm(seed=8, n=100, p=0.8)
        half = 50
        intra_top = g.adjacency[:half, :half]
        possible = half * (half - 1) / 2
        density = np.count_nonzero(np.triu(intra_top, 1)) / possible
        assert abs(density - 0.8) / 0.8 < 0.10
        inter = g.adjacency[:half, half:]
        inter_density = np.count_nonzero(inter) / (half * half)
        assert abs(inter_density - 0.08) / 0.08 < 0.25

    def test_weights_in_unit_interval(self):
        g = gen_sbm(seed=9)
        w = g.adjacency[g.adjacency > 0]
        assert w.min() > 0.0 and w.max() <= 1.0

    def test_lower_p_removes_edges_monotonically(self):
        dense = gen_sbm(seed=10, p=0.8)
        sparse = gen_sbm(seed=10, p=0.4)
        dense_mask = dense.adjacency > 0
        sparse_mask = sparse.adjacency > 0
        assert np.all(dense_mask[sparse_mask])  # sparse edge set is nested
        assert sparse_mask.sum() < dense_mask.sum()

    def test_determinism(self):
        np.testing.assert_array_equal(gen_sbm(seed=1).adjacency, gen_sbm(seed=1).adjacency)


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
    np.testing.assert_array_equal(back.adjacency, g.adjacency)


def test_save_graph_edges_match_pair_walk(tmp_path):
    rng = np.random.default_rng(4)
    n = 30
    adj = np.triu(rng.random((n, n)) < 0.3, 1) * rng.choice([1.0, 0.1 + 0.2, 2.5, 1e-7], (n, n))
    adj = adj + adj.T
    assert {1.0, 0.1 + 0.2}.issubset(set(adj.reshape(-1)))
    g = Graph(adjacency=adj, features=rng.normal(size=(n, 2)))
    save_graph(g, tmp_path / "w.edges", tmp_path / "w.csv")
    assert (tmp_path / "w.edges").read_text() == loop_edge_lines(adj)
