"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything is float64 and strictly two-dimensional (scalars live in 1x1
tensors). Operations record themselves on the innermost active ``Tape``;
``backward`` replays the records in reverse and accumulates gradients
additively, so a tensor used twice receives the sum of both path
contributions. Gradient buffers exist exactly on tensors that require
gradients and are zeroed by the optimizer, not by ``backward``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError, NumericError, ShapeError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A rows x cols float64 matrix, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D; got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.tape_id = None

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

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def _require_grad(self):
        # promotes an op output to gradient-tracked; allocates the buffer
        if not self.requires_grad:
            self.requires_grad = True
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # small amount of sugar so model code reads like the math
    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return hadamard(self, other)

    def __truediv__(self, other):
        return divide(self, other)

    def __neg__(self):
        return neg(self)


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

    def __len__(self):
        return len(self.records)

    def clear(self):
        self.records.clear()


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
        out._require_grad()
        out.tape_id = len(tape.records)
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


def transpose(a: Tensor) -> Tensor:
    def backward_fn(g):
        return (g.T.copy(),)

    return _emit("transpose", a.data.T.copy(), (a,), backward_fn)


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


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "hadamard")
    a_data, b_data = a.data, b.data

    def backward_fn(g):
        return g * b_data, _unbroadcast(g * a_data, b_data.shape)

    return _emit("hadamard", a_data * b_data, (a, b), backward_fn)


def divide(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a / b; b must be nonzero everywhere (callers clamp)."""
    _binary_shapes(a, b, "divide")
    if np.any(b.data == 0.0):
        raise DomainError("divide: zero entry in denominator")
    a_data, b_data = a.data, b.data

    def backward_fn(g):
        return g / b_data, _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape)

    return _emit("divide", a_data / b_data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _emit("scale", a.data * c, (a,), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g):
        return (-g,)

    return _emit("neg", -a.data, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward_fn(g):
        return (g * mask,)

    return _emit("relu", np.maximum(a.data, 0.0), (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward_fn(g):
        return (g * out_data,)

    return _emit("exp", out_data, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log of a non-positive value; clamp inputs first")
    a_data = a.data

    def backward_fn(g):
        return (g / a_data,)

    return _emit("log", np.log(a_data), (a,), backward_fn)


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


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("sqrt needs strictly positive inputs; clamp first")
    out_data = np.sqrt(a.data)

    def backward_fn(g):
        return (g * 0.5 / out_data,)

    return _emit("sqrt", out_data, (a,), backward_fn)


def clip_min(a: Tensor, c: float) -> Tensor:
    """max(a, c); gradient passes only where a > c."""
    c = float(c)
    mask = a.data > c

    def backward_fn(g):
        return (g * mask,)

    return _emit("clip_min", np.maximum(a.data, c), (a,), backward_fn)


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


def sum_all(a: Tensor) -> Tensor:
    _check_nonempty(a, "sum")
    shape = a.shape

    def backward_fn(g):
        return (np.full(shape, g[0, 0]),)

    return _emit("sum", np.array([[a.data.sum()]]), (a,), backward_fn)


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean over rows; output is 1 x cols."""
    _check_nonempty(a, "mean_rows")
    n = a.rows

    def backward_fn(g):
        return (np.broadcast_to(g / n, (n, g.shape[1])).copy(),)

    return _emit("mean_rows", a.data.mean(axis=0, keepdims=True), (a,), backward_fn)


def row_sum(a: Tensor) -> Tensor:
    """Sum along each row; output is rows x 1."""
    _check_nonempty(a, "row_sum")
    cols = a.cols

    def backward_fn(g):
        return (np.broadcast_to(g, (g.shape[0], cols)).copy(),)

    return _emit("row_sum", a.data.sum(axis=1, keepdims=True), (a,), backward_fn)


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


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate) at train time."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if not training:
        return a
    keep = rng.random(a.shape) >= rate
    inv = 1.0 / (1.0 - rate)

    def backward_fn(g):
        return (g * keep * inv,)

    return _emit("dropout", a.data * keep * inv, (a,), backward_fn)


ATTENTION_BLOCK = 256


def attention(z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Scaled dot-product attention over the rows of z, streamed in row blocks.

    With Q = z Wq^T, K = z Wk^T and M = z Wv^T, row i of the n x e output is
    softmax_j(K_i . Q_j / sqrt(e)) M. Forward and backward visit the scores
    ATTENTION_BLOCK rows at a time, so memory is O(n * block) and no n x n
    array is kept. Forward saves each row's max and softmax sum; backward
    rebuilds each block's softmax from them and, as in FlashAttention-2
    (arXiv:2307.08691), uses D = rowsum(G * out) = rowsum(P * dP).
    """
    e = z.cols
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (e, e):
            raise ShapeError(f"attention: {name} is {w.shape}, expected {(e, e)}")
    if not all(np.isfinite(t.data).all() for t in (z, wq, wk, wv)):
        raise NumericError("attention received non-finite input")
    z_data, wq_data, wk_data, wv_data = z.data, wq.data, wk.data, wv.data
    n, c = z.rows, 1.0 / np.sqrt(e)
    # the 1/sqrt(e) scale rides on Q, an n x e array, not on the scores
    q, k, m = (z_data @ wq_data.T) * c, z_data @ wk_data.T, z_data @ wv_data.T
    blocks = [(lo, min(lo + ATTENTION_BLOCK, n)) for lo in range(0, n, ATTENTION_BLOCK)]
    row_max, row_sum = np.empty((n, 1)), np.empty((n, 1))

    def softmax_block(lo, hi, forward=False):
        # the scores live only inside this call, so one block exists at a
        # time; keeping two alive raised the peak RSS at n=2000 by 30 MB
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
        p /= row_sum[lo:hi]  # so backward's P is bit-identical to forward's
        return p

    out = np.empty((n, e))
    for lo, hi in blocks:
        out[lo:hi] = softmax_block(lo, hi, forward=True) @ m

    def backward_fn(g):
        dq, dk, dm = np.zeros_like(q), np.empty_like(k), np.zeros_like(m)
        d = (g * out).sum(axis=1, keepdims=True)
        for lo, hi in blocks:
            p = softmax_block(lo, hi)
            dm += p.T @ g[lo:hi]
            ds = g[lo:hi] @ m.T
            ds -= d[lo:hi]
            ds *= p
            dk[lo:hi] = ds @ q
            dq += ds.T @ k[lo:hi]
        dq *= c
        dz = dq @ wq_data + dk @ wk_data + dm @ wv_data
        return dz, dq.T @ z_data, dk.T @ z_data, dm.T @ z_data

    return _emit("attention", out, (z, wq, wk, wv), backward_fn)


# ---------------------------------------------------------------------------
# dispatcher surface, matching the engine's documented operation names

_UNARY = {
    "relu": relu,
    "exp": exp,
    "log": log,
    "neg": neg,
    "sigmoid": sigmoid,
    "sqrt": sqrt,
}
_BINARY = {"add": add, "sub": sub, "hadamard": hadamard, "divide": divide}
_REDUCTIONS = {"sum": sum_all, "mean_rows": mean_rows, "sq_l2": sq_l2, "row_sum": row_sum}


def elementwise(kind: str, a: Tensor, b: Tensor | None = None, c: float | None = None) -> Tensor:
    if kind in _BINARY:
        if b is None:
            raise ShapeError(f"elementwise {kind} needs two operands")
        return _BINARY[kind](a, b)
    if kind in _UNARY:
        return _UNARY[kind](a)
    if kind == "scale":
        if c is None:
            raise DomainError("elementwise scale needs constant c")
        return scale(a, c)
    if kind == "clip_min":
        if c is None:
            raise DomainError("elementwise clip_min needs constant c")
        return clip_min(a, c)
    raise DomainError(f"unknown elementwise kind {kind!r}")


def reductions(kind: str, a: Tensor) -> Tensor:
    if kind not in _REDUCTIONS:
        raise DomainError(f"unknown reduction kind {kind!r}")
    return _REDUCTIONS[kind](a)


def backward(loss: Tensor, tape: Tape):
    """Reverse sweep from a scalar loss; accumulates into grad buffers."""
    if loss.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 loss, got {loss.shape}")
    if loss.tape_id is None or loss.tape_id >= len(tape.records) or tape.records[loss.tape_id].out is not loss:
        raise ShapeError("loss tensor is not a product of this tape")
    loss.grad[...] += 1.0
    for rec in reversed(tape.records):
        g = rec.out.grad
        if not g.any():
            continue
        parent_grads = rec.backward_fn(g)
        for parent, pg in zip(rec.parents, parent_grads):
            if pg is not None and parent.requires_grad:
                parent.grad += pg
