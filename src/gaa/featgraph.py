"""Attribute-view graph construction and propagation-matrix normalization.

The attribute view connects each node to its k most cosine-similar peers;
both the original topology and this kNN graph are symmetrically normalized,
with self-loops always added, before message passing.

From ``SPARSE_MIN_NODES`` nodes on, ``build_views`` returns scipy.sparse
CSR views and picks the kNN edges from cosine rows computed a block at a
time, so no n x n array is built. scipy is imported only on that path.
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

    Assembled from the row blocks ``sparse_knn_graph`` selects from, so the
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


def sparse_knn_graph(x: np.ndarray, k: int):
    """``knn_graph(cosine_similarity_matrix(x), k)`` as a CSR matrix, with
    no n x n array.

    The cosine is computed ``KNN_BLOCK`` rows at a time, as
    ``cosine_similarity_matrix`` computes it, and each block goes straight
    to the selection.
    """
    from scipy import sparse

    unit, nonzero = _unit_rows(x)
    n = unit.shape[0]
    _check_k(n, k)
    picks = [_pick_neighbors(_cosine_rows(unit, nonzero, start), start, k)
             for start in range(0, n, KNN_BLOCK)]
    rows = np.concatenate([r for r, _ in picks])
    cols = np.concatenate([c for _, c in picks])
    # the union with the other endpoint's selection; a mutual pick sums to 2
    adj = sparse.csr_array((np.ones(2 * rows.size), (np.concatenate([rows, cols]),
                                                     np.concatenate([cols, rows]))),
                           shape=(n, n))
    adj.data[:] = 1.0
    return adj


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


def build_views(adjacency: Optional[np.ndarray], features: Optional[np.ndarray],
                k: int) -> ViewMatrices:
    """The normalized topology and kNN views; a view whose input is None is
    not built and stays None. From ``SPARSE_MIN_NODES`` nodes on both are
    CSR."""
    topo_norm = feat_norm = None
    n = next((m.shape[0] for m in (adjacency, features) if m is not None), 0)
    as_csr = n >= SPARSE_MIN_NODES
    # the kNN view first, so that its n x n temporaries are freed before the
    # topology view exists (the other order measured a higher peak RSS)
    if features is not None:
        feat_norm = sym_normalize(sparse_knn_graph(features, k) if as_csr
                                  else knn_graph(cosine_similarity_matrix(features), k))
    if adjacency is not None:
        if as_csr:
            from scipy import sparse
            adjacency = sparse.csr_array(adjacency)
        topo_norm = sym_normalize(adjacency)
    return ViewMatrices(topo_norm=topo_norm, feat_norm=feat_norm)
