"""Theory-side diagnostics computed on raw graph data.

The discrepancy bound sums squared distances over all source-target node
pairs, in a topology term (rows of A X) and an attribute term (rows of X).
Raw adjacencies are used on purpose: the learner's normalization choices
must not leak into these quantities. A x is one scatter-add over the edge
list (see ``EdgeList.matmul``), and the pairwise double sums expand to
moment form, so memory stays O(edges + n d) at any node count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .featgraph import knn_edges
from .graphs import Graph


@dataclass(frozen=True)
class BoundReport:
    topo_term: float
    attr_term: float
    total: float
    normalization: int


def _pairwise_sq_sum(u: np.ndarray, v: np.ndarray) -> float:
    # sum_{i,j} ||u_i - v_j||^2 without materializing the pairs
    nu, nv = u.shape[0], v.shape[0]
    return float(
        nv * (u * u).sum() + nu * (v * v).sum() - 2.0 * (u.sum(axis=0) @ v.sum(axis=0))
    )


def proposition1_bound(source: Graph, target: Graph) -> BoundReport:
    """Pairwise topology and attribute divergence between two graphs, each
    term divided by the target node count."""
    if source.dim != target.dim:
        raise DomainError(f"feature dims differ: {source.dim} vs {target.dim}")
    m = target.n
    topo = _pairwise_sq_sum(source.edges.matmul(source.features),
                            target.edges.matmul(target.features)) / m
    attr = _pairwise_sq_sum(source.features, target.features) / m
    return BoundReport(topo_term=topo, attr_term=attr, total=topo + attr, normalization=m)


def avg_feature_value(graph: Graph, view: str, k: int | None = None) -> float:
    """Mean absolute entry of the propagated features.

    ``topology`` propagates over the raw adjacency; ``attribute`` propagates
    over the kNN feature-graph adjacency built with ``k`` neighbors.
    """
    if view == "topology":
        propagated = graph.edges.matmul(graph.features)
    elif view == "attribute":
        if k is None:
            raise DomainError("attribute view needs a neighbor count k")
        propagated = knn_edges(graph.features, k).matmul(graph.features)
    else:
        raise DomainError(f"view must be 'topology' or 'attribute', got {view!r}")
    return float(np.abs(propagated).mean())

