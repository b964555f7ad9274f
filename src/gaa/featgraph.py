"""Attribute-view graph construction and propagation-matrix normalization.

The attribute view connects each node to its k most cosine-similar peers;
both the original topology and this kNN graph are symmetrically normalized,
with self-loops always added, before message passing.

Every graph is an undirected edge list (``EdgeList``), and every view comes
from one on a single path: ``knn_edges`` picks the kNN edges from cosine
rows computed a block at a time, ``sym_normalize`` turns an edge list into
its normalized edge list, and ``build_views`` makes the one format choice,
a dense view below ``SPARSE_MIN_NODES`` nodes and a scipy.sparse CSR view
from it on. No step builds an n x n array other than a dense view itself,
and scipy is imported only for a CSR view.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DomainError

# the largest |m[i, j] - m[j, i]| accepted in a view
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
    ``row[e] < col[e]`` with weight ``weight[e]``, in row-major order. Only
    a normalized list (``sym_normalize``) also holds a diagonal entry
    (``row == col``), one for every node."""

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

    def _csr_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cols, weights, indptr) of the symmetric matrix in CSR order."""
        rows, cols, data = self._both_directions()
        # Within one matrix row, the mirrored entries have the lower columns
        # and come first, each part already in column order (the list is
        # row-major), so a stable sort by row sorts every row's columns.
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return cols[order], data[order], indptr

    def csr(self):
        """The symmetric matrix as scipy.sparse CSR with sorted indices."""
        from scipy import sparse

        cols, data, indptr = self._csr_entries()
        return sparse.csr_array((data, cols, indptr), shape=(self.n, self.n))

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """A @ x as one scatter-add over the list, so neither an n x n array
        nor scipy is needed."""
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


def cosine_similarity_matrix(unit: np.ndarray, nonzero: np.ndarray, start: int) -> np.ndarray:
    """Rows ``start`` to ``start + KNN_BLOCK`` of the pairwise cosine
    similarity matrix of the rows that ``_unit_rows`` returned as ``unit``
    and ``nonzero``; zero-norm rows score 0, even with themselves.

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


def _check_k(n: int, k: int):
    # k comes from the user's config, so a k the graph cannot hold is theirs to fix
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}] for {n} nodes, got {k}")


def knn_graph(sim_rows: np.ndarray, start: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the kNN picks of each row of ``sim_rows``, which are
    rows ``start``, ``start + 1``, ... of the similarity matrix.

    A row takes every score above its k-th largest and the ones equal to it,
    never itself. Only a row where that is not exactly k, because more
    scores tie than slots remain, is ordered in full, ties to the lower
    index. The scores are never NaN: they come from validated, finite
    features.
    """
    # ascending order of -score is descending score
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


def knn_edges(x: np.ndarray, k: int) -> EdgeList:
    """The 0/1 graph linking each row of ``x`` to its k most cosine-similar
    other rows, ties to the lower index, as the union of both endpoints'
    picks (so it is symmetric, with no self-edge).

    The cosine is computed ``KNN_BLOCK`` rows at a time and each block goes
    straight to the selection, so no n x n array exists.
    """
    unit, nonzero = _unit_rows(x)
    n = unit.shape[0]
    _check_k(n, k)
    picks = [knn_graph(cosine_similarity_matrix(unit, nonzero, start), start, k)
             for start in range(0, n, KNN_BLOCK)]
    rows = np.concatenate([r for r, _ in picks])
    cols = np.concatenate([c for _, c in picks])
    # the union with the other endpoint's selection
    return EdgeList.from_pairs(n, rows, cols, np.ones(rows.size))


def sym_normalize(edges: EdgeList) -> EdgeList:
    """D^{-1/2} (A + I) D^{-1/2} as an edge list, degrees taken after the
    self-loops.

    The loops (Kipf & Welling, arXiv:1609.02907, eq. 2) make every degree
    at least 1, so no row is divided by zero. Each node gets a loop of
    weight 1, each row's degree sums that row's entries in CSR column order
    (as scipy's ``csr.sum(axis=1)`` does), and each weight is scaled by
    ``dinv[row] * dinv[col]``.
    """
    if np.any(edges.weight < 0.0) or np.any(edges.row >= edges.col):
        raise DomainError("sym_normalize needs a strictly upper, non-negative edge list")
    n = edges.n
    # a row's loop goes first: its other entries have higher columns
    nodes = np.arange(n)
    at = np.searchsorted(edges.row, nodes)
    looped = EdgeList(n, np.insert(edges.row, at, nodes), np.insert(edges.col, at, nodes),
                      np.insert(edges.weight, at, 1.0))
    _, data, indptr = looped._csr_entries()
    dinv = 1.0 / np.sqrt(np.add.reduceat(data, indptr[:-1]))
    return EdgeList(n, looped.row, looped.col,
                    looped.weight * (dinv[looped.row] * dinv[looped.col]))


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
    not built and stays None. Both are dense below ``SPARSE_MIN_NODES``
    nodes and CSR from it on."""
    n = features.shape[0] if edges is None else edges.n
    as_matrix = EdgeList.dense if n < SPARSE_MIN_NODES else EdgeList.csr

    def view(graph: Optional[EdgeList]):
        return None if graph is None else as_matrix(sym_normalize(graph))

    feat_norm = view(None if features is None else knn_edges(features, k))
    return ViewMatrices(topo_norm=view(edges), feat_norm=feat_norm)
