import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from gaa import featgraph
from gaa.exceptions import ConfigError, DomainError, ShapeError
from gaa.featgraph import (
    SPARSE_MIN_NODES,
    EdgeList,
    SparseView,
    ViewMatrices,
    build_views,
    cosine_similarity_matrix,
    knn_edges,
    sym_normalize,
)

from helpers import (
    csr_sym_normalize,
    dense_adjacency,
    edges_of_dense,
    loop_cosine_matrix,
    loop_knn,
    loop_knn_selection,
    loop_sym_normalize,
)


def cosine(x):
    """The cosine matrix that ``knn_edges`` selects from, assembled from its
    row blocks."""
    unit, nonzero = featgraph._unit_rows(x)
    return np.vstack([cosine_similarity_matrix(unit, nonzero, start)
                      for start in range(0, len(x), featgraph.KNN_BLOCK)])


class TestCosine:
    def test_identical_rows(self):
        sim = cosine(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sim[0, 1] == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        sim = cosine(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(0.0)

    def test_zero_norm_row_scores_zero_including_itself(self):
        sim = cosine(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert sim[0, 0] == 0.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[1, 1] == 1.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 6))
        np.testing.assert_allclose(cosine(x), loop_cosine_matrix(x), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(1, 6),
           st.sampled_from([1, 2, 5, 256]))
    def test_symmetric_and_bounded(self, seed, n, d, block):
        # small blocks assemble the matrix from several row blocks
        x = np.random.default_rng(seed).normal(size=(n, d))
        with mock.patch.object(featgraph, "KNN_BLOCK", block):
            sim = cosine(x)
        np.testing.assert_array_equal(sim, sim.T)
        assert sim.min() >= -1.0 and sim.max() <= 1.0
        np.testing.assert_allclose(sim, loop_cosine_matrix(x), atol=1e-12)

    # two row blocks, the second ragged: sizes where letting each row block
    # compute its own products left the matrix 1 ulp off symmetric
    @pytest.mark.parametrize("n, d", [(453, 32), (505, 8)])
    def test_exactly_symmetric_with_a_ragged_last_block(self, n, d):
        sim = cosine(np.random.default_rng(n).normal(size=(n, d)))
        np.testing.assert_array_equal(sim, sim.T)


class TestKnn:
    def test_top1_forced_edge(self):
        # row 1 is the closest direction to both 0 and 2
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        adj = dense_adjacency(knn_edges(x, 1))
        np.testing.assert_array_equal(adj, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_k_max_gives_complete_graph(self):
        rng = np.random.default_rng(1)
        adj = dense_adjacency(knn_edges(rng.normal(size=(5, 3)), 4))
        np.testing.assert_array_equal(adj, 1.0 - np.eye(5))

    def test_k_out_of_range(self):
        x = np.eye(3)
        with pytest.raises(ConfigError):
            knn_edges(x, 0)
        with pytest.raises(ConfigError):
            knn_edges(x, 3)

    def test_matches_brute_force_with_tie_rule(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 5))
        np.testing.assert_array_equal(dense_adjacency(knn_edges(x, 3)), loop_knn(cosine(x), 3))

    def test_tie_break_prefers_lower_index(self):
        x = np.ones((4, 3))  # all similarities equal
        sim = cosine(x)
        assert np.all(sim == sim[0, 0])
        picks = loop_knn_selection(sim, 2)
        assert picks[3] == [0, 1]
        np.testing.assert_array_equal(dense_adjacency(knn_edges(x, 2)), loop_knn(sim, 2))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 14), st.integers(1, 3)),
                      elements=st.integers(-1, 2).map(float)),
           st.sets(st.integers(0, 13), max_size=4), st.sampled_from([1, 2, 5, 256]))
    def test_matches_oracle_on_ties_for_every_k(self, x, zero_rows, block):
        # few distinct small-integer features make tied scores the common case;
        # small blocks leave a ragged last block
        x[[r for r in zero_rows if r < len(x)]] = 0.0
        with mock.patch.object(featgraph, "KNN_BLOCK", block):
            sim = cosine(x)
            for k in range(1, len(x)):
                np.testing.assert_array_equal(dense_adjacency(knn_edges(x, k)), loop_knn(sim, k))

    # one row short of a block, one row into a second block, one row into a
    # third; three small-integer columns leave 27 distinct rows, so most
    # scores tie and many rows have more ties than slots
    @pytest.mark.parametrize("n", [featgraph.KNN_BLOCK - 1, featgraph.KNN_BLOCK + 1,
                                   2 * featgraph.KNN_BLOCK + 1])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_oracle_on_heavy_ties_across_blocks(self, n, k):
        x = np.random.default_rng(n + k).integers(0, 3, size=(n, 3)).astype(float)
        np.testing.assert_array_equal(dense_adjacency(knn_edges(x, k)), loop_knn(cosine(x), k))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 12), st.integers(1, 4))
    def test_structural_invariants(self, seed, n, k):
        k = min(k, n - 1)
        x = np.random.default_rng(seed).normal(size=(n, 4))
        edges = knn_edges(x, k)
        assert np.all(edges.row < edges.col)  # no self-edge
        adj = dense_adjacency(edges)
        np.testing.assert_array_equal(adj, adj.T)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        # each node selects exactly k neighbors before symmetrization
        for picks in loop_knn_selection(cosine(x), k):
            assert len(picks) == k


class TestSymNormalize:
    def test_isolated_nodes_with_loops_give_identity(self):
        norm = sym_normalize(edges_of_dense(np.zeros((2, 2))))
        np.testing.assert_array_equal(norm, np.eye(2))

    def test_a_stored_diagonal_entry_is_rejected(self):
        # normalization adds each node's loop itself, so a list that already
        # holds one, or holds a pair the wrong way round, cannot be built
        for row, col in (((0, 0), (0, 1)), ((0, 1), (1, 0))):
            with pytest.raises(DomainError, match=r"outside 0 <= row < col < 2"):
                EdgeList(2, np.array(row), np.array(col), np.ones(2))

    def test_two_node_edge(self):
        norm = sym_normalize(edges_of_dense([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(norm, np.full((2, 2), 0.5))

    def test_star_graph_matches_closed_form(self):
        # star with center 0 and m=4 leaves; the loops give the center degree
        # m + 1 and each leaf degree 2, so entry (0, leaf) = 1/sqrt(2(m + 1))
        m = 4
        adj = np.zeros((m + 1, m + 1))
        adj[0, 1:] = 1.0
        adj[1:, 0] = 1.0
        norm = sym_normalize(edges_of_dense(adj))
        np.testing.assert_allclose(norm[0, 1:], np.full(m, 1 / np.sqrt(2 * (m + 1))))
        np.testing.assert_allclose(norm[1:, 0], norm[0, 1:])
        assert norm[0, 0] == pytest.approx(1 / (m + 1))
        np.testing.assert_allclose(norm[1:, 1:], np.eye(m) / 2)

    def test_leaves_input_unchanged(self):
        edges = edges_of_dense([[0.0, 2.0], [2.0, 0.0]])
        sym_normalize(edges)
        np.testing.assert_array_equal(dense_adjacency(edges), [[0.0, 2.0], [2.0, 0.0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError, match="negative edge weight"):
            EdgeList(2, np.array([0]), np.array([1]), np.array([-1.0]))

    def test_rejects_a_nan_weight(self):
        with pytest.raises(DomainError, match="edge weights hold non-finite values"):
            EdgeList(2, np.array([0]), np.array([1]), np.array([np.nan]))

    def test_a_degree_past_float64_is_rejected_without_a_warning(self):
        # node 1's two edges sum past the float64 maximum, so no view of
        # them is ever built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="^the weighted degree of node 1 overflows float64$"):
                EdgeList(3, np.array([0, 1]), np.array([1, 2]), np.array([1e308, 1e308]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.booleans())
    def test_matches_loop_oracle(self, seed, n, weighted):
        rng = np.random.default_rng(seed)
        adj = np.triu(rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) < 0.4), 1)
        if not weighted:
            adj = (adj > 0.0).astype(float)
        adj = adj + adj.T
        norm = sym_normalize(edges_of_dense(adj))
        np.testing.assert_allclose(norm, loop_sym_normalize(adj), rtol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    def test_spectral_radius_at_most_one_with_loops(self, seed, n):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.4).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        norm = sym_normalize(edges_of_dense(adj))
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
    views = build_views(edges_of_dense(adj), rng.normal(size=(12, 4)), k=3)
    assert isinstance(views, ViewMatrices)
    for m in (views.topo.norm, views.feat.norm):
        assert np.abs(m - m.T).max() <= 1e-12
        assert m.min() >= 0.0
        assert np.all(m.sum(axis=1) > 0.0)  # no zero rows once loops are added


FLOAT_MAX = np.finfo(np.float64).max


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 14), st.booleans(), st.booleans())
@example(seed=1, n=SPARSE_MIN_NODES - 1, huge=True, force_csr=False)
@example(seed=1, n=SPARSE_MIN_NODES, huge=True, force_csr=False)
@example(seed=2, n=SPARSE_MIN_NODES - 1, huge=False, force_csr=False)
@example(seed=2, n=SPARSE_MIN_NODES, huge=False, force_csr=False)
def test_views_are_exactly_symmetric_non_negative_and_finite(seed, n, huge, force_csr):
    """Both views of any list that passes the entry checks are exactly
    symmetric, non-negative and finite, and equal the loop oracle (dense)
    or scipy's normalization bit for bit (sparse). ``huge`` weights put the
    largest degree between a quarter of the float64 maximum and the maximum
    itself."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < min(0.5, 6.0 / n), 1).astype(float)
    adj = adj + adj.T
    if huge:
        adj *= FLOAT_MAX * rng.uniform(0.25, 1.0, (n, n)) / max(adj.sum(axis=1).max(), 1.0)
    else:
        adj *= rng.uniform(0.1, 3.0, (n, n))
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    try:
        edges = edges_of_dense(adj)
    except DomainError:  # a degree past float64: no such list can be built
        assume(False)
    x = rng.normal(size=(n, 3))
    k = min(3, n - 1)
    threshold = 0 if force_csr else SPARSE_MIN_NODES
    with mock.patch.object(featgraph, "SPARSE_MIN_NODES", threshold):
        views = build_views(edges, x, k)
    knn = dense_adjacency(knn_edges(x, k))
    for view, graph in ((views.topo.norm, adj), (views.feat.norm, knn)):
        assert isinstance(view, SparseView) == (n >= threshold)
        if isinstance(view, SparseView):
            view = view.toarray()
            assert view.tobytes() == csr_sym_normalize(sparse.csr_array(graph)).toarray().tobytes()
        else:
            np.testing.assert_allclose(view, loop_sym_normalize(graph), rtol=1e-14)
        assert np.array_equal(view, view.T)
        assert np.isfinite(view).all() and view.min() >= 0.0


def test_build_views_skips_a_view_whose_input_is_none():
    rng = np.random.default_rng(6)
    adj = np.triu((rng.random((8, 8)) < 0.4).astype(float), 1)
    adj = adj + adj.T
    x = rng.normal(size=(8, 3))
    edges = edges_of_dense(adj)
    both = build_views(edges, x, k=2)
    topo_only = build_views(edges, x, k=None)
    feat_only = build_views(None, x, k=2)
    assert topo_only.feat is None and feat_only.topo is None
    for got, want in ((topo_only.topo, both.topo), (feat_only.feat, both.feat)):
        np.testing.assert_array_equal(got.norm, want.norm)
        np.testing.assert_array_equal(got.ax, want.ax)


def _tied_inputs(n, seed):
    """A sparse weighted topology and features with a zero-norm row and
    rows that tie: equal, and scaled copies of one another."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.01), 1)
    x = rng.normal(size=(n, 4))
    x[3] = 0.0
    x[10] = x[11] = 2.0 * x[12]
    x[20:40] = np.round(x[20:40])  # few distinct directions: more ties
    return adj + adj.T, x


def _array(view):
    return view.toarray() if isinstance(view, SparseView) else view


@pytest.mark.parametrize("n", [SPARSE_MIN_NODES - 1, SPARSE_MIN_NODES])
def test_sparse_views_match_the_dense_ones(n):
    """Both sides of the threshold: the dense view of an edge list is its
    sparse view's array exactly, ties and a zero-norm row included, and
    build_views returns the one its side calls for, with ÂX its product
    with the features bit for bit."""
    adj, x = _tied_inputs(n, seed=n)
    edges = edges_of_dense(adj)
    lists = (edges, knn_edges(x, 3))
    forms = {}
    for threshold in (n + 1, n):  # dense, then sparse
        with mock.patch.object(featgraph, "SPARSE_MIN_NODES", threshold):
            forms[threshold] = [sym_normalize(e) for e in lists]
    for dense, view in zip(forms[n + 1], forms[n]):
        assert isinstance(dense, np.ndarray) and isinstance(view, SparseView)
        assert dense.tobytes() == view.toarray().tobytes()
    views = build_views(edges, x, k=3)
    want = forms[n] if n >= SPARSE_MIN_NODES else forms[n + 1]
    for built, norm in zip(views, want):
        assert isinstance(built.norm, SparseView) == (n >= SPARSE_MIN_NODES)
        assert _array(built.norm).tobytes() == _array(norm).tobytes()
        assert built.ax.tobytes() == (norm @ x).tobytes()


@pytest.mark.parametrize("weighted", [False, True])
def test_csr_views_are_scipys_normalization_bit_for_bit(weighted):
    """The sparse views hold the bits of normalizing in scipy: ``A + I``,
    its row sums, then the scaling, entry for entry in the same order."""
    n = SPARSE_MIN_NODES
    adj, x = _tied_inputs(n, seed=5)
    if not weighted:
        adj = (adj > 0.0).astype(float)
    edges = edges_of_dense(adj)
    views = build_views(edges, x, k=3)
    for got, graph in ((views.topo.norm, edges), (views.feat.norm, knn_edges(x, 3))):
        want = csr_sym_normalize(sparse.csr_array(dense_adjacency(graph)))
        assert got.toarray().tobytes() == want.toarray().tobytes()


def _hub_edges(n, seed):
    """A sparse weighted graph plus one hub linked to every other node, so
    the view has n slots, most of them holding one row."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    hub = np.arange(1, n)
    return EdgeList.from_pairs(n, np.concatenate([i, np.zeros_like(hub)]),
                               np.concatenate([j, hub]), rng.uniform(0.1, 3.0, i.size + hub.size))


@pytest.mark.parametrize("graph", ["topology", "knn", "hub"])
def test_sparse_view_products_are_scipys_bit_for_bit(graph):
    """``view @ x`` and ``view.T @ x`` are scipy's CSR products of the same
    normalization, byte for byte, at widths 1, 10, 16 (training) and 128."""
    n = SPARSE_MIN_NODES + 50
    adj, x = _tied_inputs(n, seed=9)
    edges = {"topology": lambda: edges_of_dense(adj), "knn": lambda: knn_edges(x, 5),
             "hub": lambda: _hub_edges(n, seed=9)}[graph]()
    view = sym_normalize(edges)
    assert isinstance(view, SparseView)
    want = csr_sym_normalize(sparse.csr_array(dense_adjacency(edges)))
    rng = np.random.default_rng(4)
    for width in (1, 10, 16, 128):
        y = rng.normal(size=(n, width))
        y[::7] = 0.0  # rows of zeros, and an exact -0.0 product in some sums
        y[3, 0] = -0.0
        assert (view @ y).tobytes() == (want @ y).tobytes()
        assert (view.T @ y).tobytes() == (want.T @ y).tobytes()


def test_sparse_view_product_holds_one_array_besides_its_result():
    """The product's temporaries are at most one n x c array: ÂX at n=2000,
    d=1000 never gathers all nnz x d entries at once."""
    n, c = 2000, 1000
    view = sym_normalize(_hub_edges(n, seed=2))
    x = np.random.default_rng(3).normal(size=(n, c))
    tracemalloc.start()
    try:
        out = view @ x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + n * c * 8 + 2**20  # 16 MB each; nnz x c would be 176 MB


def test_sparse_view_rejects_a_row_count_other_than_its_own():
    view = sym_normalize(_hub_edges(SPARSE_MIN_NODES, seed=1))
    with pytest.raises(ShapeError, match=r"cannot multiply a \(849, 2\) array"):
        view @ np.ones((SPARSE_MIN_NODES - 1, 2))


def test_sparse_build_views_peaks_below_one_dense_array():
    n = 3000
    assert n >= SPARSE_MIN_NODES
    adj, x = _tied_inputs(n, seed=1)
    edges = edges_of_dense(adj)
    del adj
    tracemalloc.start()
    try:
        build_views(edges, x, k=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # 72 MB, one n x n float64 array
