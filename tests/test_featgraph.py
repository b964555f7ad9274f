from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaa import featgraph
from gaa.exceptions import DomainError
from gaa.featgraph import (
    ViewMatrices,
    build_views,
    cosine_similarity_matrix,
    knn_graph,
    max_asymmetry,
    sym_normalize,
)

from helpers import loop_cosine_matrix, loop_knn, loop_knn_selection


class TestCosine:
    def test_identical_rows(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        sim = cosine_similarity_matrix(x)
        assert sim[0, 1] == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(0.0)

    def test_zero_norm_row_scores_zero_including_itself(self):
        sim = cosine_similarity_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert sim[0, 0] == 0.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[1, 1] == 1.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 6))
        np.testing.assert_allclose(cosine_similarity_matrix(x), loop_cosine_matrix(x), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(1, 6))
    def test_symmetric_and_bounded(self, seed, n, d):
        x = np.random.default_rng(seed).normal(size=(n, d))
        sim = cosine_similarity_matrix(x)
        np.testing.assert_array_equal(sim, sim.T)
        assert sim.min() >= -1.0 and sim.max() <= 1.0


class TestKnn:
    def test_top1_forced_edge(self):
        sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        adj = knn_graph(sim, 1)
        assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0

    def test_k_max_gives_complete_graph(self):
        rng = np.random.default_rng(1)
        sim = cosine_similarity_matrix(rng.normal(size=(5, 3)))
        adj = knn_graph(sim, 4)
        np.testing.assert_array_equal(adj, 1.0 - np.eye(5))

    def test_k_out_of_range(self):
        sim = np.eye(3)
        with pytest.raises(DomainError):
            knn_graph(sim, 0)
        with pytest.raises(DomainError):
            knn_graph(sim, 3)

    def test_matches_brute_force_with_tie_rule(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 5))
        sim = cosine_similarity_matrix(x)
        np.testing.assert_array_equal(knn_graph(sim, 3), loop_knn(sim, 3))

    def test_tie_break_prefers_lower_index(self):
        sim = np.ones((4, 4))  # all similarities equal
        adj = knn_graph(sim, 2)
        picks = loop_knn_selection(sim, 2)
        assert picks[3] == [0, 1]
        np.testing.assert_array_equal(adj, loop_knn(sim, 2))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 14), st.integers(1, 3)),
                      elements=st.integers(-1, 2).map(float)),
           st.sets(st.integers(0, 13), max_size=4), st.sampled_from([1, 2, 5, 256]))
    def test_matches_oracle_on_ties_for_every_k(self, x, zero_rows, block):
        # few distinct small-integer features make tied scores the common case;
        # small blocks leave a ragged last block
        x[[r for r in zero_rows if r < len(x)]] = 0.0
        sim = cosine_similarity_matrix(x)
        with mock.patch.object(featgraph, "KNN_BLOCK", block):
            for k in range(1, len(x)):
                np.testing.assert_array_equal(knn_graph(sim, k), loop_knn(sim, k))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 12), st.integers(1, 4))
    def test_structural_invariants(self, seed, n, k):
        k = min(k, n - 1)
        sim = cosine_similarity_matrix(np.random.default_rng(seed).normal(size=(n, 4)))
        adj = knn_graph(sim, k)
        np.testing.assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        # each node selects exactly k neighbors before symmetrization
        for picks in loop_knn_selection(sim, k):
            assert len(picks) == k


class TestSymNormalize:
    def test_isolated_nodes_with_loops_give_identity(self):
        np.testing.assert_array_equal(sym_normalize(np.zeros((2, 2))), np.eye(2))

    def test_two_node_edge(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(sym_normalize(adj), np.full((2, 2), 0.5))

    def test_star_graph_matches_closed_form(self):
        # star with center 0 and m=4 leaves, no self-loops:
        # entry (0, leaf) = 1/sqrt(m), so center row sums to sqrt(m)
        m = 4
        adj = np.zeros((m + 1, m + 1))
        adj[0, 1:] = 1.0
        adj[1:, 0] = 1.0
        norm = sym_normalize(adj, add_self_loops=False)
        sums = norm.sum(axis=1)
        assert sums[0] == pytest.approx(np.sqrt(m))
        np.testing.assert_allclose(sums[1:], np.full(m, 1 / np.sqrt(m)))

    def test_zero_degree_row_stays_zero_without_loops(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        norm = sym_normalize(adj, add_self_loops=False)
        np.testing.assert_array_equal(norm[2], np.zeros(3))

    def test_leaves_input_unchanged(self):
        adj = np.array([[0.0, 2.0], [2.0, 0.0]])
        sym_normalize(adj)
        np.testing.assert_array_equal(adj, [[0.0, 2.0], [2.0, 0.0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            sym_normalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    def test_spectral_radius_at_most_one_with_loops(self, seed, n):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.4).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        norm = sym_normalize(adj)
        # power iteration
        v = np.ones(n) / np.sqrt(n)
        for _ in range(200):
            w = norm @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        radius = abs(v @ norm @ v)
        assert radius <= 1.0 + 1e-6


def test_build_views_invariants():
    rng = np.random.default_rng(3)
    adj = (rng.random((12, 12)) < 0.3).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    views = build_views(adj, rng.normal(size=(12, 4)), k=3)
    assert isinstance(views, ViewMatrices)
    assert views.k == 3
    for m in (views.topo_norm, views.feat_norm):
        assert np.abs(m - m.T).max() <= 1e-12
        assert m.min() >= 0.0
        assert np.all(m.sum(axis=1) > 0.0)  # no zero rows once loops are added


def test_build_views_skips_a_view_whose_input_is_none():
    rng = np.random.default_rng(6)
    adj = np.triu((rng.random((8, 8)) < 0.4).astype(float), 1)
    adj = adj + adj.T
    x = rng.normal(size=(8, 3))
    both = build_views(adj, x, k=2)
    topo_only = build_views(adj, None, k=2)
    feat_only = build_views(None, x, k=2)
    assert topo_only.feat_norm is None and feat_only.topo_norm is None
    np.testing.assert_array_equal(topo_only.topo_norm, both.topo_norm)
    np.testing.assert_array_equal(feat_only.feat_norm, both.feat_norm)


def test_view_matrices_skip_absent_views_and_check_built_ones():
    views = ViewMatrices(topo_norm=None, feat_norm=np.eye(3), k=2)
    assert views.topo_norm is None
    with pytest.raises(DomainError, match="feat_norm is not symmetric"):
        ViewMatrices(topo_norm=None, feat_norm=np.triu(np.ones((3, 3))), k=2)
    with pytest.raises(DomainError, match="topo_norm has negative entries"):
        ViewMatrices(topo_norm=-np.eye(3), feat_norm=None, k=2)


def test_view_matrices_reject_a_nan_entry():
    with pytest.raises(DomainError, match="topo_norm is not symmetric"):
        ViewMatrices(topo_norm=np.array([[np.nan, 0.0], [0.0, 1.0]]), feat_norm=None, k=1)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 12).map(lambda n: (n, n)),
                  elements=st.sampled_from([0.0, 0.5, 1.0, -2.0, np.nan, np.inf])),
       st.sampled_from([1, 2, 5, 256]))
def test_max_asymmetry_matches_the_dense_difference(m, block):
    # small blocks leave a ragged last block; any NaN must survive the running max
    with np.errstate(invalid="ignore"):
        dense = np.abs(m - m.T).max()
    with mock.patch.object(featgraph, "SYMMETRY_BLOCK", block):
        got = max_asymmetry(m)
    assert got == dense or (np.isnan(got) and np.isnan(dense))
