"""Attribute-view graph construction and propagation-matrix normalization.

The attribute view connects each node to its k most cosine-similar peers;
both the original topology and this kNN graph are symmetrically normalized,
with self-loops always added, before message passing.

Every graph is an undirected edge list (``EdgeList``), and every view comes
from one on a single path: ``knn_edges`` picks the kNN edges from cosine
rows computed a block at a time, and ``sym_normalize`` maps an edge list to
its view in one pass, making the one format choice: a dense view below
``SPARSE_MIN_NODES`` nodes and a ``SparseView`` (jagged-diagonal storage in
numpy, with scipy's CSR product bits) from it on. A view is symmetric by
construction, since every entry is stored in both directions. No step
builds an n x n array other than a dense view itself, and no step needs a
matrix library beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError

KNN_BLOCK = 256  # rows of the similarity matrix computed and selected at a time
# Node count from which the views are sparse. It was set where scipy's import
# stopped costing more memory than the dense views saved, and it stays only
# because a dense view's BLAS product gives other bits than the sparse one's
# ordered sums, so moving it moves every seeded output near it.
SPARSE_MIN_NODES = 850


@dataclass(frozen=True)
class EdgeList:
    """An undirected weighted graph on ``n`` nodes, one entry per linked pair:
    ``row[e] < col[e]`` with weight ``weight[e]``, in row-major order.

    A list is valid by construction: building one that breaks that rule, or
    whose degree in A + I (as ``sym_normalize`` sums it) overflows float64,
    is a DomainError."""

    n: int
    row: np.ndarray
    col: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n, row, col, weight = self.n, self.row, self.col, self.weight
        if row.ndim != 1 or not row.shape == col.shape == weight.shape:
            raise DomainError("edge row, col and weight arrays differ in shape")
        if not (np.issubdtype(row.dtype, np.integer) and np.issubdtype(col.dtype, np.integer)):
            raise DomainError("edge ids are not integers")
        if row.size and (row.min() < 0 or col.max() >= n or np.any(row >= col)):
            raise DomainError(f"edge ids outside 0 <= row < col < {n}")
        if not np.isfinite(weight).all():
            raise DomainError("edge weights hold non-finite values")
        if np.any(weight < 0.0):
            raise DomainError("negative edge weight")
        if np.any(np.diff(row.astype(np.int64) * n + col) <= 0):
            raise DomainError("edge list repeats a pair or is not in row-major order")
        # a degree is at most 1 + edges x the largest weight, so only near the
        # float64 maximum does it need summing as the view sums it
        if float(weight.max(initial=0.0)) * row.size > np.finfo(np.float64).max / 4:
            heavy = np.flatnonzero(np.isinf(_looped_csr(self)[4]))
            if heavy.size:
                raise DomainError(f"the weighted degree of node {heavy[0]} overflows float64")

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

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """A @ x as one scatter-add over the list, each entry in both
        directions, so no n x n array is needed."""
        out = np.zeros((self.n, x.shape[1]))
        np.add.at(out, np.concatenate([self.col, self.row]),
                  np.concatenate([self.weight, self.weight])[:, None]
                  * x[np.concatenate([self.row, self.col])])
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


def check_k(n: int, k: int):
    # k comes from the user's config, so a k the graph cannot hold is theirs to fix
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}] for {n} nodes, got {k}")


def knn_graph(sim_rows: np.ndarray, start: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the kNN picks of each row of ``sim_rows``, which are
    rows ``start``, ``start + 1``, ... of the similarity matrix; the block
    is overwritten.

    A row takes every score above its k-th largest and the ones equal to it,
    never itself. Only a row where that is not exactly k, because more
    scores tie than slots remain, is ordered in full, ties to the lower
    index. The scores are never NaN: they come from validated, finite
    features.
    """
    n = sim_rows.shape[1]
    local = np.arange(sim_rows.shape[0])
    sim_rows[local, start + local] = -np.inf
    kth = np.partition(sim_rows, n - k, axis=1)[:, n - k:n - k + 1]
    picked = sim_rows >= kth
    for i in np.flatnonzero(np.count_nonzero(picked, axis=1) != k):
        # ascending order of -score is descending score, and a stable sort
        # keeps ascending index order among ties
        picked[i] = False
        picked[i, np.argsort(-sim_rows[i], kind="stable")[:k]] = True
    rows, cols = np.divmod(np.flatnonzero(picked), n)
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
    check_k(n, k)
    picks = [knn_graph(cosine_similarity_matrix(unit, nonzero, start), start, k)
             for start in range(0, n, KNN_BLOCK)]
    rows = np.concatenate([r for r, _ in picks])
    cols = np.concatenate([c for _, c in picks])
    # the union with the other endpoint's selection
    return EdgeList.from_pairs(n, rows, cols, np.ones(rows.size))


def _looped_csr(edges: EdgeList) -> tuple[np.ndarray, ...]:
    """(rows, cols, data, indptr, degrees) of A + I in CSR order: every
    entry of the list in both directions and a loop of weight 1 per node,
    and each row's sum in column order, inf past the float64 range.

    Within one row, the mirrored entries have the lower columns, the loop
    comes next and the list's own entries have the higher columns, each part
    already in column order (the list is row-major). So they are
    concatenated in that order, and one stable sort by row sorts every row's
    columns.
    """
    n = edges.n
    nodes = np.arange(n)
    rows = np.concatenate([edges.col, nodes, edges.row])
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.concatenate([edges.weight, np.ones(n), edges.weight])[order]
    with np.errstate(over="ignore"):
        degrees = np.add.reduceat(data, indptr[:-1])
    return (rows[order], np.concatenate([edges.row, nodes, edges.col])[order], data, indptr,
            degrees)


def sym_normalize(edges: EdgeList):
    """The view D^{-1/2} (A + I) D^{-1/2} of an edge list, degrees taken
    after the self-loops: a dense array below ``SPARSE_MIN_NODES`` nodes and
    a ``SparseView`` of the CSR arrays from it on.

    The loops (Kipf & Welling, arXiv:1609.02907, eq. 2) make every degree
    at least 1, so no row is divided by zero. Each row's degree sums that
    row's entries in CSR column order (as scipy's ``csr.sum(axis=1)`` does),
    and each entry is scaled by ``dinv[row] * dinv[col]``, so an entry and
    its mirror get the same bits. Every degree is finite: an ``EdgeList``
    whose degree overflows cannot be built.
    """
    rows, cols, data, indptr, degrees = _looped_csr(edges)
    dinv = 1.0 / np.sqrt(degrees)
    data = data * (dinv[rows] * dinv[cols])
    n = edges.n
    if n < SPARSE_MIN_NODES:
        view = np.zeros((n, n))
        view[rows, cols] = data
        return view
    return SparseView(indptr, cols, data)


class SparseView:
    """A symmetric n x n view in jagged-diagonal storage (JDS, Saad's
    SPARSKIT), built from its CSR arrays, whose rows hold their columns in
    ascending order.

    The rows are sorted stably by falling entry count, and slot s holds the
    s-th entry of each row that has more than s, so slot s covers the first
    m_s sorted rows. ``view @ x`` adds one slot at a time into those rows,
    so each output entry is ``((0 + a0 x0) + a1 x1) + ...`` in column order,
    the order and the bits of scipy's CSR product. An entry and its mirror
    have equal bits, so ``view.T`` is the view itself.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        n = indptr.size - 1
        counts = np.diff(indptr)
        order = np.argsort(-counts, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        # each entry's slot and its row's rank; slot-major, rank-minor order
        slot = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
        entries = np.argsort(slot * n + np.repeat(rank, counts), kind="stable")
        cols, weights = indices[entries].astype(np.intp, copy=False), data[entries, None]
        bounds = np.cumsum(np.bincount(slot)).tolist()
        self.shape = (n, n)
        self._rank = rank
        self._slots = [(cols[lo:hi], weights[lo:hi]) for lo, hi in zip([0] + bounds, bounds)]

    @property
    def T(self) -> "SparseView":
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The n x c product with ``x``; it holds one n x c array besides its
        result."""
        n, c = self.shape[0], x.shape[1]
        if x.shape[0] != n:  # the gather clips ids, so it would not catch this
            raise ShapeError(f"a {self.shape} view cannot multiply a {x.shape} array")
        total = np.zeros((n, c))
        part = np.empty((n, c))
        for cols, weights in self._slots:
            rows = part[:cols.size]
            np.take(x, cols, axis=0, mode="clip", out=rows)
            rows *= weights
            total[:cols.size] += rows
        return np.take(total, self._rank, axis=0, mode="clip", out=part)

    def toarray(self) -> np.ndarray:
        """The view as a dense n x n array."""
        dense = np.zeros(self.shape)
        nodes = np.argsort(self._rank)
        for cols, weights in self._slots:
            dense[nodes[:cols.size], cols] = weights[:, 0]
        return dense


class View(NamedTuple):
    """A view Â (``sym_normalize``, dense or sparse) and ÂX, which depends on no
    parameter, so every epoch reads the one product (SGC, arXiv:1902.07153)."""

    norm: object
    ax: np.ndarray


class ViewMatrices(NamedTuple):
    """The topology and the kNN view of one graph; a view that its consumer
    never reads is None."""

    topo: Optional[View]
    feat: Optional[View]


def build_views(edges: Optional[EdgeList], features: np.ndarray,
                k: Optional[int]) -> ViewMatrices:
    """The topology view of ``edges`` and the kNN view of ``features`` at
    ``k``, each with ÂX of ``features``; one whose ``edges`` or ``k`` is None
    is not built and stays None."""
    feat = None if k is None else sym_normalize(knn_edges(features, k))
    topo = None if edges is None else sym_normalize(edges)
    return ViewMatrices(*(None if norm is None else View(norm, norm @ features)
                          for norm in (topo, feat)))
