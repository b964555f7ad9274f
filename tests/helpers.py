"""Shared oracles for the test suite, kept independent of the library paths,
and the test-only helpers ``load_metrics`` and ``predict``."""

import json

import numpy as np

from gaa import autodiff as ad
from gaa import train
from gaa.featgraph import EdgeList
from gaa.graphs import EpochLosses, RunMetrics

FD_H = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-8
FD_ABS_TOL = 1e-7


def fd_check(build_loss, leaves, h=FD_H, rel_tol=FD_REL_TOL):
    """Compare autodiff gradients of ``build_loss(leaves)`` to central differences.

    ``build_loss`` must construct the scalar loss from the given leaf tensors
    alone; it is re-run for every perturbed entry, so it has to be
    deterministic (re-seed any RNG inside).
    """
    for leaf in leaves:
        leaf.zero_grad()
    with ad.Tape() as tape:
        loss = build_loss(leaves)
        ad.backward(loss, tape)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def loss_value():
        with ad.Tape():
            return build_loss(leaves).item()

    for leaf, grad in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_value()
            flat[idx] = orig - h
            down = loss_value()
            flat[idx] = orig
            numeric = (up - down) / (2 * h)
            a = grad.reshape(-1)[idx]
            if abs(a) < FD_ABS_FLOOR:
                assert abs(numeric - a) < FD_ABS_TOL, (
                    f"abs mismatch at entry {idx}: analytic {a}, numeric {numeric}"
                )
            else:
                rel = abs(numeric - a) / max(abs(a), abs(numeric))
                assert rel <= rel_tol or abs(numeric - a) <= FD_ABS_TOL, (
                    f"rel mismatch at entry {idx}: analytic {a}, numeric {numeric}, rel {rel}"
                )


def dense_attention(z, wq, wk, wv):
    """Node attention composed from dense tape ops; it builds the n x n scores."""
    zt = ad.transpose(z)
    q = ad.matmul(wq, zt)
    k = ad.matmul(wk, zt)
    m = ad.matmul(wv, zt)
    scores = ad.scale(ad.matmul(ad.transpose(k), q), 1.0 / np.sqrt(z.cols))
    return ad.matmul(ad.row_softmax(scores), ad.transpose(m))


def loop_cosine_matrix(x):
    """Double-loop cosine similarity with zero-norm rows scoring 0."""
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ni = np.sqrt((x[i] ** 2).sum())
            nj = np.sqrt((x[j] ** 2).sum())
            if ni == 0.0 or nj == 0.0:
                out[i, j] = 0.0
            else:
                out[i, j] = float(x[i] @ x[j] / (ni * nj))
    return out


def loop_knn(sm, k):
    """Per-node top-k by similarity, ties to the lower index, union-symmetrized."""
    n = sm.shape[0]
    adj = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        others.sort(key=lambda j: (-sm[i, j], j))
        for j in others[:k]:
            adj[i, j] = 1.0
            adj[j, i] = 1.0
    return adj


def loop_sym_normalize(adj):
    """D^{-1/2} (A + I) D^{-1/2} of a dense ``adj``, one entry at a time."""
    n = adj.shape[0]
    a = [[float(adj[i, j]) + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    deg = [sum(row) for row in a]
    # a root per degree: the product of two degrees near the float64 maximum overflows
    return np.array([[a[i][j] / (np.sqrt(deg[i]) * np.sqrt(deg[j])) for j in range(n)]
                     for i in range(n)])


def csr_sym_normalize(adj):
    """D^{-1/2} (A + I) D^{-1/2} of a scipy CSR ``adj`` in scipy's own
    arithmetic: ``adj + eye``, its row sums, then each entry times
    ``dinv[row] * dinv[col]``."""
    from scipy import sparse

    n = adj.shape[0]
    a = sparse.csr_array(adj, dtype=np.float64) + sparse.eye_array(n, format="csr")
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    a.data *= dinv[rows] * dinv[a.indices]
    return a


def edges_of_dense(adj):
    """The edge list of a dense ``adj``, which must be exactly symmetric with
    a zero diagonal: its strict upper triangle's nonzero entries, built
    through ``EdgeList.from_pairs``."""
    adj = np.asarray(adj, dtype=np.float64)
    assert np.array_equal(adj, adj.T), "adjacency is not exactly symmetric"
    assert not np.diagonal(adj).any(), "adjacency has a diagonal entry"
    i, j = np.nonzero(np.triu(adj, 1))
    return EdgeList.from_pairs(adj.shape[0], i, j, adj[i, j])


def dense_adjacency(edges):
    """The n x n adjacency of the edge list ``edges``, scattered one stored
    edge at a time."""
    adj = np.zeros((edges.n, edges.n))
    for i, j, w in zip(edges.row.tolist(), edges.col.tolist(), edges.weight.tolist()):
        adj[i, j] = w
        adj[j, i] = w
    return adj


def loop_load_adjacency(edge_path, n):
    """The dense adjacency of a well-formed edge file, read one line at a
    time: ``#`` comments dropped, self-loops skipped, and a later line for a
    pair, in either direction, overwriting an earlier one."""
    adj = np.zeros((n, n))
    with open(edge_path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            i, j = int(parts[0]), int(parts[1])
            if i != j:
                adj[i, j] = adj[j, i] = float(parts[2]) if len(parts) == 3 else 1.0
    return adj


def loop_edge_lines(adjacency):
    """The edge-file text of ``adjacency``: an upper-triangle walk over all pairs."""
    n = adjacency.shape[0]
    lines = []
    for i in range(n):
        for j in range(i + 1, n):
            w = adjacency[i, j]
            if w != 0.0:
                lines.append(f"{i} {j}\n" if w == 1.0 else f"{i} {j} {float(w)!r}\n")
    return "".join(lines)


def loop_knn_selection(sm, k):
    """The pre-symmetrization selection: k chosen neighbors per node."""
    n = sm.shape[0]
    picks = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        others.sort(key=lambda j: (-sm[i, j], j))
        picks.append(others[:k])
    return picks


def loop_pair_bound(adj_s, x_s, adj_t, x_t, divisor):
    """Four-loop pairwise divergence sums, the slow reference."""
    u = adj_s @ x_s
    v = adj_t @ x_t
    topo = 0.0
    attr = 0.0
    for i in range(u.shape[0]):
        for j in range(v.shape[0]):
            topo += float(((u[i] - v[j]) ** 2).sum())
            attr += float(((x_s[i] - x_t[j]) ** 2).sum())
    return topo / divisor, attr / divisor


def loop_margin_loss(scores, labels, gamma):
    n = scores.shape[0]
    hits = 0
    for i in range(n):
        true = scores[i, labels[i]]
        best_other = max(scores[i, c] for c in range(scores.shape[1]) if c != labels[i])
        if true <= gamma + best_other:
            hits += 1
    return hits / n


def loop_source_ce(probs, labels, clamp=1e-12):
    total = 0.0
    for i, y in enumerate(labels):
        total += -np.log(max(probs[i, y], clamp))
    return total / len(labels)


def loop_domain_bce(p_source, p_target, clamp=1e-12):
    total = 0.0
    for p in p_source.reshape(-1):
        total += -np.log(max(p, clamp))
    for p in p_target.reshape(-1):
        total += -np.log(max(1.0 - p, clamp))
    return total / (p_source.size + p_target.size)


def loop_target_entropy(probs, clamp=1e-12):
    total = 0.0
    for row in probs:
        for p in row:
            total += -p * np.log(max(p, clamp))
    return total / probs.shape[0]


def load_metrics(path):
    """The ``RunMetrics`` that ``save_metrics`` wrote to ``path``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return RunMetrics(**{**doc, "per_epoch": [EpochLosses(**e) for e in doc["per_epoch"]]})


def predict(model, graph):
    """Class probabilities for every node of ``graph``, dropout disabled,
    from the view that ``evaluate`` builds."""
    return train._predict(model, train._views_for(model, graph))
