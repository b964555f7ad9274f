"""Attribute-view graph construction and propagation-matrix normalization.

The attribute view connects each node to its k most cosine-similar peers;
both the original topology and this kNN graph are symmetrically normalized,
with self-loops always added, before message passing.

A graph is stored as its undirected edge list (``EdgeList``), and a matrix
is built from it only where a consumer reads one. From ``SPARSE_MIN_NODES``
nodes on, ``build_views`` returns scipy.sparse CSR views, built straight
from the edge lists, and picks the kNN edges from cosine rows computed a
block at a time, so no n x n array is built. scipy is imported only there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DomainError

SYMMETRY_TOL = 1e-12
KNN_BLOCK = 256  # rows of the similarity matrix computed and selected at a time
SYMMETRY_BLOCK = 256  # rows of the upper triangle compared at a time
# Node count from which the views are CSR: the measured crossover of the
# peak RSS of one training run (GAA for 5 epochs, KNN_GCN for 25). Below it,
# loading scipy costs more memory than the dense views it saves.
SPARSE_MIN_NODES = 850


def _issparse(m) -> bool:
    """True for a scipy.sparse matrix. scipy is not imported for the answer:
    if it is not loaded, no sparse matrix can exist."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(m)


def max_asymmetry(m) -> float:
    """max |m[i, j] - m[j, i]| over i <= j, NaN if any entry is NaN.

    Each ``SYMMETRY_BLOCK`` rows are compared against the matching columns
    from the diagonal on, so every pair is read once and no n x n temporary
    exists. A non-finite entry makes the result non-finite. A sparse ``m``
    is compared through its stored entries.
    """
    if _issparse(m):
        diff = (m - m.T).tocsr()  # a NaN or inf - inf is stored, not pruned
        return float(np.abs(diff.data).max(initial=0.0))
    worst = np.float64(0.0)
    with np.errstate(invalid="ignore"):  # inf - inf
        for lo in range(0, m.shape[0], SYMMETRY_BLOCK):
            hi = lo + SYMMETRY_BLOCK
            # np.maximum, unlike max(), carries a NaN through
            worst = np.maximum(worst, np.abs(m[lo:hi, lo:] - m[lo:, lo:hi].T).max())
    return float(worst)


@dataclass(frozen=True)
class EdgeList:
    """An undirected weighted graph on ``n`` nodes, one entry per linked pair:
    ``row[e] <= col[e]`` with weight ``weight[e]``, in row-major order. A
    diagonal entry (``row == col``) exists only where a dense matrix with a
    diagonal was converted."""

    n: int
    row: np.ndarray
    col: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_pairs(cls, n: int, i: np.ndarray, j: np.ndarray,
                   weight: np.ndarray) -> "EdgeList":
        """The graph of the links ``(i[e], j[e], weight[e])`` taken in order: a
        self-link is skipped, a later link for a pair, in either direction,
        replaces an earlier one, and a zero weight is no edge."""
        keep = i != j
        pairs = (np.minimum(i, j) * n + np.maximum(i, j))[keep]
        # np.unique returns each pair's first occurrence: read the links backwards
        pairs, last = np.unique(pairs[::-1], return_index=True)
        weight = weight[keep][::-1][last]
        present = weight != 0.0
        return cls(n, pairs[present] // n, pairs[present] % n, weight[present])

    @classmethod
    def from_dense(cls, adj: np.ndarray) -> "EdgeList":
        """The upper triangle of a symmetric ``adj``, diagonal included."""
        rows, cols = np.nonzero(adj)  # row-major
        upper = rows <= cols
        rows, cols = rows[upper], cols[upper]
        return cls(adj.shape[0], rows, cols, adj[rows, cols])

    def _both_directions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, weights) of every stored matrix entry: the mirrored
        off-diagonal entries, then the list itself."""
        off = self.row != self.col
        return (np.concatenate([self.col[off], self.row]),
                np.concatenate([self.row[off], self.col]),
                np.concatenate([self.weight[off], self.weight]))

    def dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.row, self.col] = self.weight
        a[self.col, self.row] = self.weight
        return a

    def csr(self):
        """The symmetric matrix as scipy.sparse CSR with sorted indices."""
        from scipy import sparse

        rows, cols, data = self._both_directions()
        # Within one matrix row, the mirrored entries have the lower columns
        # and come first, each part already in column order (the list is
        # row-major), so a stable sort by row sorts every row's columns.
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return sparse.csr_array((data[order], cols[order], indptr), shape=(self.n, self.n))

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """A @ x. Below ``SPARSE_MIN_NODES`` nodes it is the dense product, as
        ``build_views`` builds dense views there; from it on, one scatter-add
        over the list, so neither an n x n array nor scipy is needed."""
        if self.n < SPARSE_MIN_NODES:
            return self.dense() @ x
        rows, cols, data = self._both_directions()
        out = np.zeros((self.n, x.shape[1]))
        np.add.at(out, rows, data[:, None] * x[cols])
        return out


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``x`` scaled to unit length, and which rows had a norm."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)
    return x / safe[:, None], nonzero


def _cosine_rows(unit: np.ndarray, nonzero: np.ndarray, start: int) -> np.ndarray:
    """Rows ``start`` to ``start + KNN_BLOCK`` of the cosine matrix of the
    unit rows ``unit``; zero-norm rows score 0, even with themselves.

    Each pair of row blocks is one product with the lower block on the left,
    and the higher block's rows read its transpose. So every score comes
    from one computation, whichever row asks for it, and the assembled
    matrix is exactly symmetric.
    """
    n = unit.shape[0]
    rows = unit[start:start + KNN_BLOCK]
    sim = np.empty((rows.shape[0], n))
    for lo in range(0, n, KNN_BLOCK):
        cols = unit[lo:lo + KNN_BLOCK]
        sim[:, lo:lo + KNN_BLOCK] = rows @ cols.T if lo >= start else (cols @ rows.T).T
    np.clip(sim, -1.0, 1.0, out=sim)
    sim[~nonzero[start:start + KNN_BLOCK], :] = 0.0
    sim[:, ~nonzero] = 0.0
    local = np.arange(sim.shape[0])
    sim[local, start + local] = nonzero[start:start + KNN_BLOCK]
    return sim


def cosine_similarity_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of rows; zero-norm rows score 0 everywhere.

    Assembled from the row blocks ``knn_edges`` selects from, so the
    dense and the sparse kNN views see bit-identical scores."""
    unit, nonzero = _unit_rows(x)
    n = unit.shape[0]
    sim = np.empty((n, n))
    for start in range(0, n, KNN_BLOCK):
        sim[start:start + KNN_BLOCK] = _cosine_rows(unit, nonzero, start)
    return sim


def _check_k(n: int, k: int):
    # k comes from the user's config, so a k the graph cannot hold is theirs to fix
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}] for {n} nodes, got {k}")


def _pick_neighbors(sim_rows: np.ndarray, start: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the k picks of each row of ``sim_rows``, which are
    rows ``start``, ``start + 1``, ... of the similarity matrix.

    A row takes every score above its k-th largest and the ones equal to it,
    never itself. Only a row where that is not exactly k (more ties than
    slots, or NaN scores) is ordered in full, ties to the lower index.
    """
    # ascending order of -score is descending score, NaN last
    neg = -sim_rows
    local = np.arange(neg.shape[0])
    neg[local, start + local] = np.inf
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    picked = neg <= kth
    for i in np.flatnonzero(picked.sum(axis=1) != k):
        # a stable sort keeps ascending index order among ties
        picked[i] = False
        picked[i, np.argsort(neg[i], kind="stable")[:k]] = True
    rows, cols = np.nonzero(picked)
    return rows + start, cols


def knn_graph(sim: np.ndarray, k: int) -> np.ndarray:
    """0/1 adjacency linking each node to its k most similar other nodes.

    Self-edges are excluded, ties break toward the lower node index, and the
    result is the union of both endpoints' selections (so it is symmetric
    with zero diagonal). Rows are selected ``KNN_BLOCK`` at a time.
    """
    sim = np.asarray(sim, dtype=np.float64)
    n = sim.shape[0]
    _check_k(n, k)
    adj = np.zeros((n, n))
    for start in range(0, n, KNN_BLOCK):
        rows, cols = _pick_neighbors(sim[start:start + KNN_BLOCK], start, k)
        adj[rows, cols] = 1.0
        adj[cols, rows] = 1.0  # the union with the other endpoint's selection
    return adj


def knn_edges(x: np.ndarray, k: int) -> EdgeList:
    """The edges of ``knn_graph(cosine_similarity_matrix(x), k)``, with no
    n x n array.

    The cosine is computed ``KNN_BLOCK`` rows at a time, as
    ``cosine_similarity_matrix`` computes it, and each block goes straight
    to the selection.
    """
    unit, nonzero = _unit_rows(x)
    n = unit.shape[0]
    _check_k(n, k)
    picks = [_pick_neighbors(_cosine_rows(unit, nonzero, start), start, k)
             for start in range(0, n, KNN_BLOCK)]
    rows = np.concatenate([r for r, _ in picks])
    cols = np.concatenate([c for _, c in picks])
    # the union with the other endpoint's selection
    return EdgeList.from_pairs(n, rows, cols, np.ones(rows.size))


def sym_normalize(adj):
    """D^{-1/2} (A + I) D^{-1/2}, degrees taken after the self-loops.

    The loops (Kipf & Welling, arXiv:1609.02907, eq. 2) make every degree
    at least 1, so no row is divided by zero. A sparse ``adj`` gives a CSR
    result whose entries are computed as the dense ones are.
    """
    if _issparse(adj):
        return _sym_normalize_sparse(adj)
    adj = np.asarray(adj, dtype=np.float64)
    if np.any(adj < 0.0):
        raise DomainError("sym_normalize needs a non-negative adjacency")
    a = adj.copy()
    a[np.diag_indices_from(a)] += 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    out = np.multiply.outer(dinv, dinv)
    out *= a
    return out


def _sym_normalize_sparse(adj):
    from scipy import sparse

    adj = sparse.csr_array(adj, dtype=np.float64)
    if np.any(adj.data < 0.0):
        raise DomainError("sym_normalize needs a non-negative adjacency")
    n = adj.shape[0]
    a = adj + sparse.eye_array(n, format="csr")
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    a.data *= dinv[rows] * dinv[a.indices]  # (d_i d_j) a_ij, the dense order
    return a


@dataclass(frozen=True)
class ViewMatrices:
    """Normalized propagation matrices for the two message-passing views.

    A view is a dense array or a scipy.sparse matrix, and a view that its
    consumer never reads may be None.
    """

    topo_norm: Optional[np.ndarray]
    feat_norm: Optional[np.ndarray]

    def __post_init__(self):
        for name, m in (("topo_norm", self.topo_norm), ("feat_norm", self.feat_norm)):
            if m is None:
                continue
            if not max_asymmetry(m) <= SYMMETRY_TOL:
                raise DomainError(f"{name} is not symmetric")
            if np.any((m.data if _issparse(m) else m) < 0.0):
                raise DomainError(f"{name} has negative entries")


def build_views(edges: Optional[EdgeList], features: Optional[np.ndarray],
                k: int) -> ViewMatrices:
    """The normalized topology and kNN views; a view whose input is None is
    not built and stays None. From ``SPARSE_MIN_NODES`` nodes on both are
    CSR."""
    topo_norm = feat_norm = None
    n = features.shape[0] if edges is None else edges.n
    as_csr = n >= SPARSE_MIN_NODES
    # the kNN view first, so that its n x n temporaries are freed before the
    # topology view exists (the other order measured a higher peak RSS)
    if features is not None:
        feat_norm = sym_normalize(knn_edges(features, k).csr() if as_csr
                                  else knn_graph(cosine_similarity_matrix(features), k))
    if edges is not None:
        topo_norm = sym_normalize(edges.csr() if as_csr else edges.dense())
    return ViewMatrices(topo_norm=topo_norm, feat_norm=feat_norm)
