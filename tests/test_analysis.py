import numpy as np
import pytest

from gaa.analysis import avg_feature_value, empirical_margin_loss, proposition1_bound
from gaa.exceptions import DomainError
from gaa.featgraph import SPARSE_MIN_NODES
from gaa.graphs import Graph, gen_attribute_shift

from helpers import (
    dense_adjacency,
    edges_of_dense,
    loop_cosine_matrix,
    loop_knn,
    loop_margin_loss,
    loop_pair_bound,
)


def random_graph(rng, n, d, weighted=False):
    adj = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    if not weighted:
        adj = (adj > 0).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    return Graph(edges=edges_of_dense(adj), features=rng.normal(size=(n, d)))


class TestBound:
    def test_single_identical_node_pair_is_zero(self):
        g = Graph(edges=edges_of_dense(np.zeros((1, 1))), features=np.array([[1.0, 2.0]]))
        report = proposition1_bound(g, g, normalize_by=1)
        assert report.total == 0.0

    def test_identical_features_zero_attr_term(self):
        rng = np.random.default_rng(0)
        a = random_graph(rng, 5, 3)
        b = random_graph(rng, 5, 3)
        ones = np.ones((5, 3))
        ga = Graph(edges=a.edges, features=ones)
        gb = Graph(edges=b.edges, features=ones)
        report = proposition1_bound(ga, gb, normalize_by=5)
        assert report.attr_term == pytest.approx(0.0, abs=1e-12)
        assert report.topo_term > 0

    def test_matches_four_loop_oracle(self):
        rng = np.random.default_rng(1)
        gs = random_graph(rng, 8, 4, weighted=True)
        gt = random_graph(rng, 6, 4, weighted=True)
        report = proposition1_bound(gs, gt, normalize_by=6)
        topo, attr = loop_pair_bound(dense_adjacency(gs.edges), gs.features,
                                     dense_adjacency(gt.edges), gt.features, 6)
        assert report.topo_term == pytest.approx(topo, rel=1e-9)
        assert report.attr_term == pytest.approx(attr, rel=1e-9)
        assert report.total == pytest.approx(report.topo_term + report.attr_term)

    def test_scatter_product_matches_the_dense_one(self):
        # A X is a scatter-add over the edge list on both sides of the view threshold
        for n in (SPARSE_MIN_NODES - 1, SPARSE_MIN_NODES):
            rng = np.random.default_rng(n)
            gs = random_graph(rng, n, 4, weighted=True)
            gt = random_graph(rng, 6, 4, weighted=True)
            report = proposition1_bound(gs, gt, normalize_by=6)
            u, v = dense_adjacency(gs.edges) @ gs.features, dense_adjacency(gt.edges) @ gt.features
            topo = ((u[:, None, :] - v[None, :, :]) ** 2).sum() / 6
            attr = ((gs.features[:, None, :] - gt.features[None, :, :]) ** 2).sum() / 6
            assert report.topo_term == pytest.approx(topo, rel=1e-13)
            assert report.attr_term == pytest.approx(attr, rel=1e-13)

    def test_attr_term_invariant_under_source_permutation(self):
        rng = np.random.default_rng(2)
        gs = random_graph(rng, 7, 3)
        gt = random_graph(rng, 5, 3)
        perm = rng.permutation(7)
        gs_perm = Graph(edges=edges_of_dense(dense_adjacency(gs.edges)[np.ix_(perm, perm)]),
                        features=gs.features[perm])
        a = proposition1_bound(gs, gt, 5).attr_term
        b = proposition1_bound(gs_perm, gt, 5).attr_term
        assert a == pytest.approx(b, rel=1e-12)

    def test_default_normalization_is_target_count(self):
        rng = np.random.default_rng(3)
        gs = random_graph(rng, 4, 2)
        gt = random_graph(rng, 9, 2)
        assert proposition1_bound(gs, gt).normalization == 9

    def test_dim_mismatch(self):
        gs = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 2)))
        gt = Graph(edges=edges_of_dense(np.zeros((2, 2))), features=np.zeros((2, 3)))
        with pytest.raises(DomainError):
            proposition1_bound(gs, gt)

    def test_monotone_in_cluster_std(self):
        from scipy.stats import spearmanr
        stds = [0.2 * i for i in range(1, 11)]
        source = gen_attribute_shift(0.4, seed=3)
        totals = [proposition1_bound(source, gen_attribute_shift(s, seed=3), 100).total
                  for s in stds]
        assert spearmanr(stds, totals).statistic >= 0.9


class TestAvgFeatureValue:
    def test_zero_adjacency_gives_zero(self):
        g = Graph(edges=edges_of_dense(np.zeros((3, 3))), features=np.ones((3, 2)))
        assert avg_feature_value(g, "topology") == 0.0

    def test_matches_loop_oracle_both_views(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 10, 4)
        topo = avg_feature_value(g, "topology")
        want = np.abs(dense_adjacency(g.edges) @ g.features).sum() / (10 * 4)
        assert topo == pytest.approx(want, abs=1e-12)

        attr = avg_feature_value(g, "attribute", k=3)
        feat_adj = loop_knn(loop_cosine_matrix(g.features), 3)
        want = np.abs(feat_adj @ g.features).sum() / (10 * 4)
        assert attr == pytest.approx(want, abs=1e-12)

    def test_scatter_product_matches_the_dense_one(self):
        # both views propagate through an edge list on both sides of the view threshold
        for n in (SPARSE_MIN_NODES - 1, SPARSE_MIN_NODES):
            rng = np.random.default_rng(n)
            g = random_graph(rng, n, 4, weighted=True)
            g.features[5] = 0.0  # a zero-norm row scores 0 with every other
            g.features[7] = g.features[8]  # a tie
            topo = np.abs(dense_adjacency(g.edges) @ g.features).mean()
            assert avg_feature_value(g, "topology") == pytest.approx(topo, rel=1e-13)
            # the cosine of a zero row is 0, as it is in the kNN view
            unit = g.features / np.maximum(np.linalg.norm(g.features, axis=1), 1e-300)[:, None]
            feat_adj = loop_knn(np.clip(unit @ unit.T, -1.0, 1.0), 3)
            attr = np.abs(feat_adj @ g.features).mean()
            assert avg_feature_value(g, "attribute", k=3) == pytest.approx(attr, rel=1e-13)

    def test_attribute_view_needs_k(self):
        g = Graph(edges=edges_of_dense(np.zeros((3, 3))), features=np.ones((3, 2)))
        with pytest.raises(DomainError):
            avg_feature_value(g, "attribute")


class TestMarginLoss:
    def test_zero_gamma_equals_error_rate_with_strict_separation(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        got = empirical_margin_loss(scores, labels, 0.0)
        assert got == pytest.approx(1 / 3)

    def test_huge_gamma_fires_everywhere(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        assert empirical_margin_loss(scores, labels, 1e6) == 1.0

    def test_tie_counts_as_loss(self):
        scores = np.array([[0.5, 0.5]])
        assert empirical_margin_loss(scores, np.array([0]), 0.0) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.normal(size=(7, 4))
            labels = rng.integers(0, 4, size=7)
            got = empirical_margin_loss(scores, labels, 0.1)
            assert got == loop_margin_loss(scores, labels, 0.1)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        values = [empirical_margin_loss(scores, labels, g) for g in np.linspace(0, 3, 13)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            empirical_margin_loss(np.zeros((2, 2)), np.array([0, 2]), 0.0)
