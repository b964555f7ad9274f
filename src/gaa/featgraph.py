"""Attribute-view graph construction and propagation-matrix normalization.

The attribute view connects each node to its k most cosine-similar peers;
both the original topology and this kNN graph are symmetrically normalized
(with self-loops by default) before message passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DomainError

SYMMETRY_TOL = 1e-12
KNN_BLOCK = 256  # rows of the similarity matrix selected at a time
SYMMETRY_BLOCK = 256  # rows of the upper triangle compared at a time


def max_asymmetry(m: np.ndarray) -> float:
    """max |m[i, j] - m[j, i]| over i <= j, NaN if any entry is NaN.

    Each ``SYMMETRY_BLOCK`` rows are compared against the matching columns
    from the diagonal on, so every pair is read once and no n x n temporary
    exists. A non-finite entry makes the result non-finite.
    """
    worst = np.float64(0.0)
    with np.errstate(invalid="ignore"):  # inf - inf
        for lo in range(0, m.shape[0], SYMMETRY_BLOCK):
            hi = lo + SYMMETRY_BLOCK
            # np.maximum, unlike max(), carries a NaN through
            worst = np.maximum(worst, np.abs(m[lo:hi, lo:] - m[lo:, lo:hi].T).max())
    return float(worst)


def cosine_similarity_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of rows; zero-norm rows score 0 everywhere."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)
    unit = x / safe[:, None]
    sim = unit @ unit.T
    sim = (sim + sim.T) / 2.0
    np.clip(sim, -1.0, 1.0, out=sim)
    sim[~nonzero, :] = 0.0
    sim[:, ~nonzero] = 0.0
    sim[np.diag_indices_from(sim)] = np.where(nonzero, 1.0, 0.0)
    return sim


def knn_graph(sim: np.ndarray, k: int) -> np.ndarray:
    """0/1 adjacency linking each node to its k most similar other nodes.

    Self-edges are excluded, ties break toward the lower node index, and the
    result is the union of both endpoints' selections (so it is symmetric
    with zero diagonal).

    Rows are selected ``KNN_BLOCK`` at a time: a row takes every score above
    its k-th largest and the ones equal to it. Only a row where that is not
    exactly k (more ties than slots, or NaN scores) is ordered in full.
    """
    sim = np.asarray(sim, dtype=np.float64)
    n = sim.shape[0]
    if not 1 <= k <= n - 1:
        raise DomainError(f"k must be in [1, {n - 1}] for {n} nodes, got {k}")
    adj = np.zeros((n, n))
    for start in range(0, n, KNN_BLOCK):
        # ascending order of -score is descending score, NaN last
        neg = -sim[start:start + KNN_BLOCK]
        local = np.arange(neg.shape[0])
        neg[local, start + local] = np.inf
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
        picked = neg <= kth
        for i in np.flatnonzero(picked.sum(axis=1) != k):
            # a stable sort keeps ascending index order among ties
            picked[i] = False
            picked[i, np.argsort(neg[i], kind="stable")[:k]] = True
        rows, cols = np.nonzero(picked)
        rows += start
        adj[rows, cols] = 1.0
        adj[cols, rows] = 1.0  # the union with the other endpoint's selection
    return adj


def sym_normalize(adj: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """D^{-1/2} (A [+ I]) D^{-1/2} with degrees taken after the optional loops.

    Without self-loops, zero-degree rows are left all-zero rather than
    divided.
    """
    adj = np.asarray(adj, dtype=np.float64)
    if np.any(adj < 0.0):
        raise DomainError("sym_normalize needs a non-negative adjacency")
    a = adj
    if add_self_loops:
        a = adj.copy()
        a[np.diag_indices_from(a)] += 1.0
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
    out = np.multiply.outer(dinv, dinv)
    out *= a
    return out


@dataclass(frozen=True)
class ViewMatrices:
    """Normalized propagation matrices for the two message-passing views.

    A view that its consumer never reads may be None.
    """

    topo_norm: Optional[np.ndarray]
    feat_norm: Optional[np.ndarray]
    k: int

    def __post_init__(self):
        for name, m in (("topo_norm", self.topo_norm), ("feat_norm", self.feat_norm)):
            if m is None:
                continue
            if not max_asymmetry(m) <= SYMMETRY_TOL:
                raise DomainError(f"{name} is not symmetric")
            if np.any(m < 0.0):
                raise DomainError(f"{name} has negative entries")


def build_views(adjacency: Optional[np.ndarray], features: Optional[np.ndarray], k: int,
                add_self_loops: bool = True) -> ViewMatrices:
    """The normalized topology and kNN views; a view whose input is None is
    not built and stays None."""
    topo_norm = feat_norm = None
    # the kNN view first, so that its n x n temporaries are freed before the
    # topology view exists (the other order measured a higher peak RSS)
    if features is not None:
        feat_norm = sym_normalize(knn_graph(cosine_similarity_matrix(features), k),
                                  add_self_loops)
    if adjacency is not None:
        topo_norm = sym_normalize(adjacency, add_self_loops)
    return ViewMatrices(topo_norm=topo_norm, feat_norm=feat_norm, k=k)
