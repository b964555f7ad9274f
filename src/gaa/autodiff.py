"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything is float64 and strictly two-dimensional (scalars live in 1x1
tensors). Operations record themselves on the innermost active ``Tape``;
``backward`` replays the records in reverse, sums a tensor's path
contributions, and returns the gradient of each leaf the loss reaches.
Tensors hold no gradient: op-output gradients live only inside ``backward``.
"""

from __future__ import annotations

import collections
import contextvars
import os

import numpy as np

from .exceptions import ConfigError, DomainError, NumericError, ShapeError

_TAPE_STACK: list["Tape"] = []
COSINE_CLAMP = 1e-24


class Tensor:
    """A rows x cols float64 matrix, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D; got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class TapeRecord:
    __slots__ = ("kind", "parents", "out", "backward_fn")

    def __init__(self, kind, parents, out, backward_fn):
        self.kind = kind
        self.parents = parents
        self.out = out
        self.backward_fn = backward_fn


class Tape:
    """Ordered log of operations; program order is a topological order."""

    def __init__(self):
        self.records: list[TapeRecord] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _emit(kind, data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.records.append(TapeRecord(kind, tuple(parents), out, backward_fn))
    return out


def _check_nonempty(a: Tensor, op: str):
    if a.data.size == 0:
        raise DomainError(f"{op} of an empty tensor")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    # shapes must match, or b may broadcast along exactly one degenerate axis
    if a.shape == b.shape:
        return
    if b.shape == (1, a.cols) or b.shape == (a.rows, 1):
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are incompatible")


# ---------------------------------------------------------------------------
# core operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def backward_fn(g):
        # a constant operand (an adjacency, say) needs no gradient
        return (g @ b_data.T if a.requires_grad else None,
                a_data.T @ g if b.requires_grad else None)

    return _emit("matmul", a_data @ b_data, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    b_shape = b.shape

    def backward_fn(g):
        return g, _unbroadcast(g, b_shape)

    return _emit("add", a.data + b.data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    b_shape = b.shape

    def backward_fn(g):
        return g, -_unbroadcast(g, b_shape)

    return _emit("sub", a.data - b.data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _emit("scale", a.data * c, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward_fn(g):
        return (g * mask,)

    return _emit("relu", np.maximum(a.data, 0.0), (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def backward_fn(g):
        return (g * out_data * (1.0 - out_data),)

    return _emit("sigmoid", out_data, (a,), backward_fn)


def row_softmax(a: Tensor) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise NumericError("row_softmax received non-finite input")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        return (out_data * (g - dot),)

    return _emit("row_softmax", out_data, (a,), backward_fn)


def row_cosine(a: Tensor, b: Tensor) -> Tensor:
    """cos(a_i, b_i) for each pair of rows, as a rows x 1 tensor. The norm
    product is clamped at COSINE_CLAMP, so a zero-norm row scores 0."""
    if a.shape != b.shape:
        raise ShapeError(f"row_cosine: shapes {a.shape} and {b.shape} differ")
    a_data, b_data = a.data, b.data
    sa = (a_data * a_data).sum(axis=1, keepdims=True)
    sb = (b_data * b_data).sum(axis=1, keepdims=True)
    sq = sa * sb
    denom = np.sqrt(np.maximum(sq, COSINE_CLAMP))
    cos = (a_data * b_data).sum(axis=1, keepdims=True) / denom

    def backward_fn(g):
        # d cos / d a = (b - cos * sb / denom * a) / denom, the norm term
        # only where the clamp is inactive; symmetric in b
        g_d, c = g / denom, cos * (sq > COSINE_CLAMP) / denom
        return g_d * (b_data - c * sb * a_data), g_d * (a_data - c * sa * b_data)

    return _emit("row_cosine", cos, (a, b), backward_fn)


def xlogy_sum(w, p: Tensor, clamp: float) -> Tensor:
    """sum(w * log(max(p, clamp))) as a 1x1 tensor. ``w`` is a tensor of p's
    shape (p itself, say) or a number; p gets gradient only where p > clamp."""
    clamp = float(clamp)
    if clamp <= 0.0:
        raise DomainError(f"xlogy_sum clamp must be > 0, got {clamp}")
    _check_nonempty(p, "xlogy_sum")
    if not isinstance(w, Tensor):
        w = constant(np.full(p.shape, w))
    if w.shape != p.shape:
        raise ShapeError(f"xlogy_sum: shapes {w.shape} and {p.shape} differ")
    w_data, clipped = w.data, np.maximum(p.data, clamp)
    logs, mask = np.log(clipped), p.data > clamp

    def backward_fn(g):
        # full * w / clipped * mask in this order: seeded outputs' bytes rest on it
        full = np.full(p.shape, g[0, 0])
        return full * logs if w.requires_grad else None, full * w_data / clipped * mask

    return _emit("xlogy_sum", np.array([[(logs * w_data).sum()]]), (w, p), backward_fn)


def sq_l2(a: Tensor) -> Tensor:
    """Sum of squared entries, as a 1x1 tensor."""
    _check_nonempty(a, "sq_l2")
    a_data = a.data

    def backward_fn(g):
        return (2.0 * a_data * g[0, 0],)

    return _emit("sq_l2", np.array([[float((a_data * a_data).sum())]]), (a,), backward_fn)


def grad_reverse(a: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    lam = float(lam)
    if lam < 0:
        raise DomainError(f"grad_reverse lambda must be >= 0, got {lam}")

    def backward_fn(g):
        return (-lam * g,)

    return _emit("grad_reverse", a.data.copy(), (a,), backward_fn)


def gcn(a, ax: np.ndarray, w1: Tensor, w2: Tensor, rate: float,
        rng: np.random.Generator | None) -> Tensor:
    """A two-layer GCN encoder as one record: Z = Â (H W2) with
    H = dropout(relu(ÂX W1)), for a constant symmetric view ``a`` = Â, a
    dense array or a ``featgraph.SparseView`` (whose ``.T`` is itself), and
    its constant ÂX ``ax``. Given a generator ``rng``, inverted dropout draws
    its keep mask from it and scales the survivors by 1/(1-rate); with
    ``rng`` None there is no dropout.

    Backward keeps only H, as In-Place ABN keeps only its output
    (arXiv:1712.02616): since 1/(1-rate) > 0, H > 0 exactly where relu was
    active and the unit kept, so that one mask stands for both. Where relu
    was active but the unit dropped, relu, dropout and the two products
    recorded one by one give a zero with the upstream gradient's sign, as
    the mask H > 0 does, so the gradients keep those ops' bytes.
    """
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    n = ax.shape[0]
    if a.shape != (n, n) or ax.shape[1] != w1.rows or w1.cols != w2.rows:
        raise ShapeError(f"gcn: Â {a.shape}, ÂX {ax.shape}, W1 {w1.shape} and W2 {w2.shape} "
                         f"do not chain")
    w1_data, w2_data = w1.data, w2.data
    h = ax @ w1_data
    np.maximum(h, 0.0, out=h)
    inv = 1.0
    if rng is not None:
        inv = 1.0 / (1.0 - rate)
        h *= rng.random(h.shape) >= rate
        h *= inv

    def backward_fn(g):
        gy = a.T @ g
        gh = gy @ w2_data.T
        gh *= inv
        gh *= h > 0
        return (ax.T @ gh if w1.requires_grad else None,
                h.T @ gy if w2.requires_grad else None)

    return _emit("gcn", a @ (h @ w2_data), (w1, w2), backward_fn)


ATTENTION_BLOCK = 128
_POOL = None  # (pid, threads, executor) of this process's attention threads


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_budget() -> int:
    """``GAA_THREADS`` (default ``usable_cpus()``), gaa's thread budget: the
    processes that train a task list (``train.run_tasks``), or the attention
    row blocks in flight in one process."""
    raw = os.environ.get("GAA_THREADS", str(usable_cpus()))
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"GAA_THREADS must be an integer, got {raw!r}")
    if threads < 1:
        raise ConfigError(f"GAA_THREADS must be >= 1, got {threads}")
    return threads


def worker_count(items: int) -> int:
    """The threads or processes to run ``items`` independent pieces of work
    on: the thread budget, capped by ``items`` and by ``usable_cpus()``."""
    return min(thread_budget(), items, usable_cpus())


def _thread_pool(threads: int):
    """This process's pool, made on first use. A forked child inherits the
    parent's pool object but none of its threads, so the pid is part of the key."""
    global _POOL
    if _POOL is None or _POOL[:2] != (os.getpid(), threads):
        from concurrent.futures import ThreadPoolExecutor

        if _POOL is not None and _POOL[0] == os.getpid():
            _POOL[2].shutdown(wait=False)
        _POOL = (os.getpid(), threads, ThreadPoolExecutor(threads, "gaa-attention"))
    return _POOL[2]


def _map_blocks(fn, blocks, threads: int):
    """Yield ``fn(lo, hi)`` for each block, in block order. Above one thread
    the blocks run on the pool, at most one more submitted than run at once,
    so a call holds a few blocks' temporaries whatever n is. Each block runs
    in a copy of the caller's context, so numpy's errstate, a context
    variable since numpy 2.0, carries over."""
    if threads == 1:
        for lo, hi in blocks:
            yield fn(lo, hi)
        return
    from concurrent.futures import wait

    pool, pending = _thread_pool(threads), collections.deque()
    try:
        for lo, hi in blocks:
            pending.append(pool.submit(contextvars.copy_context().run, fn, lo, hi))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # after a block raised, no later block outlives the call
        for future in pending:
            future.cancel()
        wait(pending)


def attention(z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, s: Tensor) -> Tensor:
    """The s-weighted node mean of scaled dot-product attention over the rows
    of z, streamed in row blocks.

    With Q = z Wq^T, K = z Wk^T, M = z Wv^T and P = softmax(K Q^T / sqrt(e))
    row by row, the output is the 1 x e row y = (1/n) s^T P M = w^T M with
    w = P^T s / n: the mean of the attention embedding PM with row i weighted
    by s_i, without the n x e embedding. Forward and backward visit the
    scores ATTENTION_BLOCK rows at a time, so memory is O(n * block) and no
    n x n array is kept. Forward saves each row's max and softmax sum;
    backward rebuilds each block's softmax from them, as in FlashAttention-2
    (arXiv:2307.08691). The output gradient (s/n) g has rank one, so with
    v = M g^T, r = s/n and D = P v, each block takes two products,
    P [v, v*Q, Q] and P^T [r*K, r*D*K], which give
    dK_i = r_i ((P(v*Q))_i - D_i (PQ)_i), dQ = v * P^T(r*K) - P^T(r*D*K),
    and besides them dM = w g and ds = D / n.

    The blocks run on up to ``thread_budget()`` threads (one block runs
    inline). Each block writes only its own rows of K's gradient, D and the
    row statistics, and returns its terms of w or of Q's gradient, which are
    summed in block order: the result is the same bytes for any thread count.
    """
    n, e = z.shape
    for name, weight in (("wq", wq), ("wk", wk), ("wv", wv)):
        if weight.shape != (e, e):
            raise ShapeError(f"attention: {name} is {weight.shape}, expected {(e, e)}")
    if s.shape != (n, 1):
        raise ShapeError(f"attention: s is {s.shape}, expected {(n, 1)}")
    if not all(np.isfinite(t.data).all() for t in (z, wq, wk, wv, s)):
        raise NumericError("attention received non-finite input")
    z_data, wq_data, wk_data, wv_data = z.data, wq.data, wk.data, wv.data
    c = 1.0 / np.sqrt(e)
    # the 1/sqrt(e) scale rides on Q, an n x e array, not on the scores
    q, k, m = (z_data @ wq_data.T) * c, z_data @ wk_data.T, z_data @ wv_data.T
    r = s.data / n
    blocks = [(lo, min(lo + ATTENTION_BLOCK, n)) for lo in range(0, n, ATTENTION_BLOCK)]
    threads = worker_count(len(blocks))
    row_max, row_sum = np.empty((n, 1)), np.empty((n, 1))

    def exp_block(lo, hi, forward=False):
        # exp(scores - row max): each product divides by the row sums on its
        # narrow side, not across the block. The scores live only inside
        # this call, so each thread holds one block at a time
        p = k[lo:hi] @ q.T
        if forward:
            # only forward checks: backward replays this arithmetic on the
            # same q and k, so it cannot overflow where forward did not
            row_max[lo:hi] = p.max(axis=1, keepdims=True)
            if not (np.isfinite(row_max[lo:hi]).all() and np.isfinite(p.min())):
                raise NumericError("attention scores overflowed")
        p -= row_max[lo:hi]
        np.exp(p, out=p)
        if forward:
            row_sum[lo:hi] = p.sum(axis=1, keepdims=True)
        return p

    def forward_block(lo, hi):
        p = exp_block(lo, hi, forward=True)
        return p.T @ (r[lo:hi] / row_sum[lo:hi])

    w = np.zeros((n, 1))
    for w_block in _map_blocks(forward_block, blocks, threads):
        w += w_block

    def backward_fn(g):
        v = m @ g.T
        vq = np.hstack([v, v * q, q])
        dk, d = np.empty_like(k), np.empty((n, 1))

        def block_grads(lo, hi):
            p = exp_block(lo, hi)
            pvq = p @ vq
            pvq /= row_sum[lo:hi]
            d[lo:hi] = pvq[:, :1]
            dk[lo:hi] = r[lo:hi] * (pvq[:, 1:e + 1] - d[lo:hi] * pvq[:, e + 1:])
            rk = (r[lo:hi] / row_sum[lo:hi]) * k[lo:hi]
            return p.T @ np.hstack([rk, d[lo:hi] * rk])

        pk = np.zeros((n, 2 * e))
        for pk_block in _map_blocks(block_grads, blocks, threads):
            pk += pk_block
        dq = (v * pk[:, :e] - pk[:, e:]) * c
        dm = w @ g
        dz = dq @ wq_data + dk @ wk_data + dm @ wv_data
        return dz, dq.T @ z_data, dk.T @ z_data, dm.T @ z_data, d / n

    return _emit("attention", w.T @ m, (z, wq, wk, wv, s), backward_fn)


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep from a scalar loss that pops each record off ``tape``
    and returns ``{leaf: gradient}`` for every ``requires_grad`` tensor the
    loss reaches that no record of ``tape`` made. A gradient is summed out
    of place in tape order; an op output's gradient is dropped once its
    record is replayed. Two entries may share one array, so read them only."""
    if loss.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 loss, got {loss.shape}")
    if not any(rec.out is loss for rec in tape.records):
        raise ShapeError("loss tensor is not a product of this tape")
    grads = {loss: np.ones((1, 1))}
    while tape.records:
        rec = tape.records.pop()
        g = grads.pop(rec.out, None)
        if g is None:
            continue
        for parent, pg in zip(rec.parents, rec.backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent in grads:
                # out of place: add hands one array to both of its parents
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
    return grads
