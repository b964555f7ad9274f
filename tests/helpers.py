"""Shared oracles for the test suite, kept independent of the library paths,
the test-only helpers ``load_metrics`` and ``predict``, and the tape ops
that only tests use."""

import json

import numpy as np

from gaa import autodiff as ad
from gaa import train
from gaa.exceptions import DomainError
from gaa.featgraph import EdgeList, SparseView
from gaa.graphs import EpochLosses, RunMetrics

FD_H = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-8
FD_ABS_TOL = 1e-7

# each variant's parameters in checkpoint order, written out by hand rather
# than derived from the variant's flags
EXPECTED_PARAMS = {
    "GAA": ["W1_topo", "W2_topo", "W1_feat", "W2_feat", "Wq", "Wk", "Wv", "Wc", "bc", "Wd", "bd"],
    "GAA1": ["W1_topo", "W2_topo", "W1_feat", "W2_feat", "Wq", "Wk", "Wv", "Wc", "bc", "Wd", "bd"],
    "GAA2": ["W1_topo", "W2_topo", "Wc", "bc", "Wd", "bd"],
    "GAA3": ["W1_topo", "W2_topo", "Wc", "bc", "Wd", "bd"],
    "GCN": ["W1_topo", "W2_topo", "Wc", "bc"],
    "KNN_GCN": ["W1_feat", "W2_feat", "Wc", "bc"],
}


def fd_check(build_loss, leaves, h=FD_H, rel_tol=FD_REL_TOL):
    """Compare autodiff gradients of ``build_loss(leaves)`` to central differences.

    ``build_loss`` must construct the scalar loss from the given leaf tensors
    alone; it is re-run for every perturbed entry, so it has to be
    deterministic (re-seed any RNG inside).
    """
    with ad.Tape() as tape:
        grads = ad.backward(build_loss(leaves), tape)
    analytic = [grads[leaf] for leaf in leaves]

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


# Tape ops that only tests use, recorded through ``autodiff._emit`` like the
# library's own; criterion 1 checks each kind's gradient.


def transpose(a):
    def backward_fn(g):
        return (g.T.copy(),)

    return ad._emit("transpose", a.data.T.copy(), (a,), backward_fn)


def hadamard(a, b):
    """The elementwise product; ``b`` may broadcast as ``autodiff.add``'s does."""
    ad._binary_shapes(a, b, "hadamard")
    a_data, b_data = a.data, b.data

    def backward_fn(g):
        return g * b_data, ad._unbroadcast(g * a_data, b_data.shape)

    return ad._emit("hadamard", a_data * b_data, (a, b), backward_fn)


def sum_all(a):
    """The sum of every entry, as a 1x1 tensor."""
    ad._check_nonempty(a, "sum")
    shape = a.shape

    def backward_fn(g):
        return (np.full(shape, g[0, 0]),)

    return ad._emit("sum", np.array([[a.data.sum()]]), (a,), backward_fn)


def dense_attention(z, wq, wk, wv, s):
    """Node attention pooled to its s-weighted node mean, composed from dense
    tape ops; it builds the n x n scores and the n x e embedding."""
    zt = transpose(z)
    q = ad.matmul(wq, zt)
    k = ad.matmul(wk, zt)
    m = ad.matmul(wv, zt)
    scores = ad.scale(ad.matmul(transpose(k), q), 1.0 / np.sqrt(z.cols))
    embedding = ad.matmul(ad.row_softmax(scores), transpose(m))
    return ad.scale(ad.matmul(transpose(s), embedding), 1.0 / z.rows)


def composed_gcn(a, ax, w1, w2, rate, rng):
    """The GCN encoder as separate tape ops, with a dense Â ``a``:
    relu((ÂX) W1), dropout as a product with a constant keep/(1-rate) tensor
    drawn from ``rng``, unless it is None, as ``autodiff.gcn`` draws it, then
    Â (H W2)."""
    h = ad.relu(ad.matmul(ad.constant(ax), w1))
    if rng is not None:
        keep = rng.random(h.shape) >= rate
        h = hadamard(h, ad.constant(keep * (1.0 / (1.0 - rate))))
    return ad.matmul(ad.constant(a), ad.matmul(h, w2))


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


def sparse_view(a):
    """The ``SparseView`` of a dense symmetric ``a``: its nonzero entries, in
    row-major order."""
    rows, cols = np.nonzero(a)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(a)))])
    return SparseView(indptr, cols, a[rows, cols])


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


def empirical_margin_loss(scores, labels, gamma):
    """Fraction of nodes whose true-class score fails to clear the best
    wrong class by more than ``gamma`` (ties count as failures): the margin
    term of the paper's bound, vectorized; ``loop_margin_loss`` judges it."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = scores.shape
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError(f"label outside [0, {c})")
    true = scores[np.arange(n), labels]
    masked = scores.copy()
    masked[np.arange(n), labels] = -np.inf
    best_other = masked.max(axis=1)
    return float((true <= gamma + best_other).mean())


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
