import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaa import autodiff as ad
from gaa.exceptions import ConfigError, DomainError, NumericError, ShapeError

from helpers import (
    composed_gcn,
    dense_attention,
    fd_check,
    hadamard,
    sparse_view,
    sum_all,
    transpose,
)


def rand(rng, r, c, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=(r, c))


def test_matmul_identity():
    x = ad.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    eye = ad.constant(np.eye(2))
    np.testing.assert_array_equal(ad.matmul(eye, x).data, x.data)


def test_matmul_hand():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[1.0], [1.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        ad.matmul(a, b)


def test_matmul_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(1)
    const, param = ad.constant(rand(rng, 3, 3)), ad.parameter(rand(rng, 3, 2))
    g = np.ones((3, 2))
    with ad.Tape() as tape:
        ad.matmul(const, param)
        grad_const, grad_param = tape.records[-1].backward_fn(g)
    assert grad_const is None
    np.testing.assert_array_equal(grad_param, const.data.T @ g)

    with ad.Tape() as tape:
        ad.matmul(param, ad.constant(rand(rng, 2, 4)))
        grad_param, grad_const = tape.records[-1].backward_fn(np.ones((3, 4)))
    assert grad_const is None and grad_param.shape == (3, 2)


def test_relu_definition():
    np.testing.assert_array_equal(ad.relu(ad.constant([[-1.0, 2.0]])).data, [[0.0, 2.0]])


def test_hadamard_ones_identity():
    rng = np.random.default_rng(0)
    x = ad.constant(rand(rng, 3, 4))
    ones = ad.constant(np.ones((3, 4)))
    np.testing.assert_array_equal(hadamard(x, ones).data, x.data)


def test_row_softmax_symmetry_and_overflow():
    s = ad.row_softmax(ad.constant([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(s.data, [[1 / 3, 1 / 3, 1 / 3]])
    big = ad.row_softmax(ad.constant([[1000.0, 0.0]]))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [[1.0, 0.0]], atol=1e-12)


def test_row_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        ad.row_softmax(ad.constant([[np.nan, 0.0]]))


def test_reductions_hand_values():
    assert ad.sq_l2(ad.constant([[3.0, 4.0]])).item() == 25.0


def test_reduction_empty_tensor_rejected():
    with pytest.raises(DomainError):
        sum_all(ad.constant(np.zeros((0, 3))))


def test_sum_gradient_is_ones():
    w = ad.parameter(np.arange(4.0).reshape(2, 2))
    with ad.Tape() as tape:
        grads = ad.backward(sum_all(w), tape)
    np.testing.assert_array_equal(grads[w], np.ones((2, 2)))


def test_grad_reverse_forward_identity_and_scaling():
    rng = np.random.default_rng(1)
    x_data = rand(rng, 3, 2)
    for lam, want in [(1.0, -1.0), (0.0, 0.0), (0.5, -0.5)]:
        x = ad.parameter(x_data)
        with ad.Tape() as tape:
            y = ad.grad_reverse(x, lam)
            np.testing.assert_array_equal(y.data, x.data)
            grads = ad.backward(sum_all(y), tape)
        np.testing.assert_array_equal(grads[x], want * np.ones_like(x_data))


def test_grad_reverse_composes_with_positive_sign():
    x = ad.parameter(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = ad.grad_reverse(ad.grad_reverse(x, 2.0), 3.0)
        grads = ad.backward(sum_all(y), tape)
    np.testing.assert_array_equal(grads[x], 6.0 * np.ones((2, 2)))


def _mlp_view(n):
    # Â = I and ÂX = I: with W2 = I the encoder's output is its hidden layer
    return np.eye(n), np.eye(n)


def test_dropout_rate_zero_and_eval_identity():
    rng = np.random.default_rng(2)
    a, ax = _mlp_view(4)
    w1, w2 = ad.constant(rand(rng, 4, 4)), ad.constant(np.eye(4))
    plain = np.maximum(w1.data, 0.0)
    out = ad.gcn(a, ax, w1, w2, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, plain)
    out_eval = ad.gcn(a, ax, w1, w2, 0.9, None)  # no generator, no dropout
    np.testing.assert_array_equal(out_eval.data, plain)


def test_dropout_survival_statistics():
    a, ax = _mlp_view(100)
    ones, eye = ad.constant(np.ones((100, 100))), ad.constant(np.eye(100))
    out = ad.gcn(a, ax, ones, eye, 0.5, np.random.default_rng(42))
    surviving = np.count_nonzero(out.data) / out.data.size
    assert abs(surviving - 0.5) < 0.02
    assert abs(out.data.mean() - 1.0) / 1.0 < 0.05


def test_gcn_rate_outside_unit_interval_is_a_domain_error():
    a, ax = _mlp_view(2)
    w = ad.constant(np.eye(2))
    for rate in (-0.1, 1.0):
        for rng in (np.random.default_rng(0), None):
            with pytest.raises(DomainError, match="dropout rate"):
                ad.gcn(a, ax, w, w, rate, rng)


def test_backward_requires_scalar_on_tape():
    w = ad.parameter(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = ad.scale(w, 2.0)
        with pytest.raises(ShapeError):
            ad.backward(y, tape)
    with ad.Tape() as other:
        with pytest.raises(ShapeError):
            ad.backward(sum_all(ad.scale(w, 1.0)), tape)
        del other


def test_diamond_fanout_accumulates_both_paths():
    # loss = sum(w*w) + sum(2w): grad = 2w + 2
    w = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with ad.Tape() as tape:
        loss = ad.add(sum_all(hadamard(w, w)), sum_all(ad.scale(w, 2.0)))
        grads = ad.backward(loss, tape)
    np.testing.assert_allclose(grads[w], 2.0 * w.data + 2.0)


def test_backward_empties_the_tape_and_only_leaves_hold_grad():
    # the returned map holds exactly the leaves the loss reaches: no op
    # output, no constant, and no parameter that only a dead branch reads
    w, b = ad.parameter(np.ones((3, 2))), ad.parameter(np.zeros((1, 2)))
    c, unread = ad.constant(np.full((3, 2), 2.0)), ad.parameter(np.ones((3, 2)))
    with ad.Tape() as tape:
        h = ad.relu(ad.add(w, b))
        ad.scale(unread, 2.0)
        loss = sum_all(hadamard(h, c))
        grads = ad.backward(loss, tape)
    assert tape.records == []
    assert h.requires_grad and set(grads) == {w, b}
    np.testing.assert_array_equal(grads[w], np.full((3, 2), 2.0))
    np.testing.assert_array_equal(grads[b], [[6.0, 6.0]])


def test_two_sweeps_over_the_same_leaves_return_equal_gradients():
    # no gradient is kept on a leaf, so a second sweep needs no reset
    w = ad.parameter(np.array([[0.5, -1.0], [2.0, 3.0]]))
    sweeps = []
    for _ in range(2):
        with ad.Tape() as tape:
            sweeps.append(ad.backward(ad.sq_l2(ad.scale(w, 3.0)), tape))
    np.testing.assert_array_equal(sweeps[0][w], 18.0 * w.data)
    np.testing.assert_array_equal(sweeps[1][w], sweeps[0][w])


def test_backward_peak_memory_is_the_activations():
    # 40 records on a 1000 x 16 parameter keep 5.12 MB of activations; each
    # op output's gradient lives only until its record is replayed
    w = ad.parameter(np.ones((1000, 16)))
    activations = 40 * w.data.nbytes
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            h = w
            for _ in range(40):
                h = ad.scale(h, 1.0)
            grads = ad.backward(sum_all(h), tape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(grads[w], np.ones((1000, 16)))
    assert peak < 1.25 * activations


def test_shared_upstream_gradient_is_never_summed_in_place():
    # add hands one array to both parents, so p and q first share one
    # gradient; adding r's contribution to q's in place would leak it into
    # p's and give 4 + 24w instead of 1 + 3 + 2 * 3w * 3 = 4 + 18w
    w = ad.parameter(np.array([[0.5, -1.0], [2.0, 3.0]]))
    with ad.Tape() as tape:
        p, q = ad.scale(w, 1.0), ad.scale(w, 3.0)
        r = hadamard(q, q)
        grads = ad.backward(sum_all(ad.add(ad.add(p, q), r)), tape)
    np.testing.assert_allclose(grads[w], 4.0 + 18.0 * w.data, rtol=1e-15)


def test_broadcast_column_gradient_is_row_sum():
    rng = np.random.default_rng(4)
    col = ad.parameter(rand(rng, 5, 1))
    mat = ad.constant(rand(rng, 5, 3))
    with ad.Tape() as tape:
        out = hadamard(mat, col)
        grads = ad.backward(sum_all(out), tape)
    np.testing.assert_allclose(grads[col], mat.data.sum(axis=1, keepdims=True))


def test_broadcast_shape_rules():
    a = ad.constant(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        ad.add(a, ad.constant(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        ad.add(a, ad.constant(np.zeros((1, 3))))
    ad.add(a, ad.constant(np.zeros((1, 4))))
    ad.add(a, ad.constant(np.zeros((3, 1))))


def _symmetric_view(rng, n):
    a = rand(rng, n, n) * (rng.random((n, n)) < 0.4)
    return a + a.T


def _gcn_grads(op, a, ax, w1_data, w2_data, rate, seed, w):
    """The encoder's value and its W1 and W2 gradients under the loss
    sum(w * Z), from ``op`` (``ad.gcn`` or ``composed_gcn``), with dropout
    drawn from a generator seeded ``seed``, or none when ``seed`` is None."""
    w1, w2 = ad.parameter(w1_data.copy()), ad.parameter(w2_data.copy())
    rng = None if seed is None else np.random.default_rng(seed)
    with ad.Tape() as tape:
        out = op(a, ax, w1, w2, rate, rng)
        grads = ad.backward(sum_all(hadamard(out, ad.constant(w))), tape)
    return out.data, grads[w1], grads[w2]


def _gcn_case(seed, n, d=5, hidden=8, e=3):
    rng = np.random.default_rng(seed)
    a = _symmetric_view(rng, n)
    return a, a @ rand(rng, n, d), rand(rng, d, hidden), rand(rng, hidden, e), rand(rng, n, e)


@pytest.mark.parametrize("as_sparse", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_spmm_matches_dense_matmul(seed, as_sparse):
    """The gcn op's products with Â, a sparse or a dense matrix, give the
    value and gradients of the dense composition, exactly for a dense Â."""
    a, ax, w1, w2, w = _gcn_case(seed, 9)
    left = sparse_view(a) if as_sparse else a
    got = _gcn_grads(ad.gcn, left, ax, w1, w2, 0.0, None, w)
    want = _gcn_grads(composed_gcn, a, ax, w1, w2, 0.0, None, w)
    for g, ref in zip(got, want):
        assert isinstance(g, np.ndarray)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        if not as_sparse:
            np.testing.assert_array_equal(g, ref)


@pytest.mark.parametrize("n", [20, 259])
def test_gcn_is_the_composed_ops_bit_for_bit(n):
    """With dropout on, the one record's value and gradients are the bytes of
    relu, dropout and the products recorded one by one; a sparse Â agrees
    with the dense one within 1e-12."""
    a, ax, w1, w2, w = _gcn_case(n, n, d=7, hidden=16, e=4)
    want = _gcn_grads(composed_gcn, a, ax, w1, w2, 0.3, 11, w)
    for g, ref in zip(_gcn_grads(ad.gcn, a, ax, w1, w2, 0.3, 11, w), want):
        assert g.tobytes() == ref.tobytes()
    for g, ref in zip(_gcn_grads(ad.gcn, sparse_view(a), ax, w1, w2, 0.3, 11, w),
                      want):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_spmm_shape_error_names_shapes():
    w = ad.constant(np.zeros((2, 2)))
    with pytest.raises(ShapeError, match=r"\(3, 3\)"):
        ad.gcn(np.eye(3), np.zeros((2, 2)), w, w, 0.0, None)
    with pytest.raises(ShapeError, match=r"\(3, 2\)"):
        ad.gcn(np.eye(2), np.zeros((2, 2)), ad.constant(np.zeros((3, 2))), w, 0.0, None)


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rand(rng, 5, 4))
    b = ad.parameter(rand(rng, 4, 3))
    fd_check(lambda leaves: ad.sq_l2(ad.matmul(leaves[0], leaves[1])), [a, b])


_BINARY = {"add": ad.add, "sub": ad.sub, "hadamard": hadamard}
_BSHAPES = [(4, 3), (1, 3), (4, 1)]


@pytest.mark.parametrize("kind", list(_BINARY))
@pytest.mark.parametrize("bshape", _BSHAPES)
def test_binary_op_gradients(kind, bshape):
    rng = np.random.default_rng([list(_BINARY).index(kind), _BSHAPES.index(bshape)])
    a = ad.parameter(rand(rng, 4, 3))
    b = ad.parameter(rand(rng, *bshape))
    fd_check(lambda leaves: ad.sq_l2(_BINARY[kind](leaves[0], leaves[1])), [a, b])


_UNARY = {"relu": ad.relu, "sigmoid": ad.sigmoid}


@pytest.mark.parametrize("kind", list(_UNARY))
def test_unary_op_gradients(kind):
    rng = np.random.default_rng(list(_UNARY).index(kind))
    data = rand(rng, 4, 4)
    if kind == "relu":
        # keep entries away from the kink where central differences lie
        data = np.where(np.abs(data) < 0.05, 0.5, data)
    x = ad.parameter(data)
    fd_check(lambda leaves: ad.sq_l2(_UNARY[kind](leaves[0])), [x])


def test_xlogy_sum_gradient_masks_clamped_entries():
    # an entry of p below the clamp gets exactly zero gradient, while its w
    # still sees log(clamp)
    w = ad.parameter(np.array([[2.0, 3.0], [0.5, 4.0]]))
    p = ad.parameter(np.array([[0.5, 2.0], [1.0, 0.2]]))
    with ad.Tape() as tape:
        grads = ad.backward(ad.xlogy_sum(w, p, 0.6), tape)
    np.testing.assert_array_equal(grads[p], [[0.0, 1.5], [0.5, 0.0]])
    np.testing.assert_array_equal(grads[w], np.log([[0.6, 2.0], [1.0, 0.6]]))


def test_row_cosine_and_xlogy_sum_reject_bad_input():
    with pytest.raises(ShapeError, match="row_cosine"):
        ad.row_cosine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="xlogy_sum"):
        ad.xlogy_sum(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 2))), 1e-12)
    with pytest.raises(DomainError, match="clamp"):
        ad.xlogy_sum(1.0, ad.constant([[0.5]]), 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_row_softmax_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    x = ad.parameter(rand(rng, 4, 4))
    w = ad.constant(rand(rng, 4, 4))
    fd_check(lambda leaves: sum_all(hadamard(ad.row_softmax(leaves[0]), w)), [x])


_REDUCTIONS = {"sum": sum_all, "sq_l2": ad.sq_l2}


@pytest.mark.parametrize("kind", list(_REDUCTIONS))
def test_reduction_gradients(kind):
    rng = np.random.default_rng(list(_REDUCTIONS).index(kind))
    x = ad.parameter(rand(rng, 5, 3))
    w_col = ad.constant(rand(rng, 5, 1))
    w_row = ad.constant(rand(rng, 1, 3))

    def build(leaves):
        out = _REDUCTIONS[kind](leaves[0])
        if out.shape == (5, 1):
            out = sum_all(hadamard(out, w_col))
        elif out.shape == (1, 3):
            out = sum_all(hadamard(out, w_row))
        return out

    fd_check(build, [x])


def test_transpose_gradient():
    rng = np.random.default_rng(11)
    x = ad.parameter(rand(rng, 3, 5))
    w = ad.constant(rand(rng, 5, 3))
    fd_check(lambda leaves: sum_all(hadamard(transpose(leaves[0]), w)), [x])


def test_dropout_gradient_matches_mask():
    a, ax = _mlp_view(6)
    x = ad.parameter(np.ones((6, 6)))
    with ad.Tape() as tape:
        out = ad.gcn(a, ax, x, ad.constant(np.eye(6)), 0.5, np.random.default_rng(5))
        grads = ad.backward(sum_all(out), tape)
    np.testing.assert_array_equal(grads[x], np.where(out.data > 0, 2.0, 0.0))


def test_forward_backward_determinism():
    def run():
        rng = np.random.default_rng(123)
        w = ad.parameter(rng.normal(size=(4, 4)))
        x, a = rng.normal(size=(4, 4)), _symmetric_view(rng, 4)
        with ad.Tape() as tape:
            h = ad.gcn(a, x, w, ad.constant(np.eye(4)), 0.3, np.random.default_rng(9))
            loss = ad.sq_l2(h)
            grads = ad.backward(loss, tape)
        return loss.item(), grads[w]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_row_softmax_rows_sum_to_one(r, c, seed):
    rng = np.random.default_rng(seed)
    s = ad.row_softmax(ad.constant(rng.uniform(-50, 50, size=(r, c))))
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(r), atol=1e-12)
    assert np.all(s.data > 0) and np.all(s.data <= 1.0)


def _attention_leaves(seed, n, e):
    """z, Wq, Wk, Wv and the node weights s."""
    rng = np.random.default_rng(seed)
    return [ad.parameter(rng.normal(size=(n, e)))] + \
        [ad.parameter(rng.normal(size=(e, e)) / 2) for _ in range(3)] + \
        [ad.parameter(rng.uniform(0.0, 1.0, size=(n, 1)))]


def _attention_value_and_grads(fn, leaves, w):
    with ad.Tape() as tape:
        out = fn(*leaves)
        grads = ad.backward(sum_all(hadamard(out, w)), tape)
    return out.data, [grads[leaf] for leaf in leaves]


def test_attention_matches_dense_composition_over_ragged_blocks():
    n, e = 2 * ad.ATTENTION_BLOCK + 3, 5
    leaves = _attention_leaves(21, n, e)
    w = ad.constant(np.random.default_rng(22).normal(size=(1, e)))
    streamed, streamed_grads = _attention_value_and_grads(ad.attention, leaves, w)
    dense, dense_grads = _attention_value_and_grads(dense_attention, leaves, w)
    assert streamed.shape == (1, e)
    for got, want in zip([streamed] + streamed_grads, [dense] + dense_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_matches_dense_composition_on_nearly_one_hot_rows():
    # a large-norm z puts almost all of each softmax row on one entry, where
    # K's gradient (P(v*Q))_i - D_i (PQ)_i cancels to nearly nothing
    n, e = 2 * ad.ATTENTION_BLOCK + 3, 5
    leaves = _attention_leaves(23, n, e)
    leaves[0].data *= 6.0
    w = ad.constant(np.random.default_rng(24).normal(size=(1, e)))
    streamed, streamed_grads = _attention_value_and_grads(ad.attention, leaves, w)
    dense, dense_grads = _attention_value_and_grads(dense_attention, leaves, w)
    z, wq, wk, _, _ = (leaf.data for leaf in leaves)
    scores = (z @ wk.T) @ (z @ wq.T).T / np.sqrt(e)
    assert np.median(ad.row_softmax(ad.constant(scores)).data.max(axis=1)) > 0.999
    for got, want in zip([streamed] + streamed_grads, [dense] + dense_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_attention_rejects_non_finite(value):
    # 1e200 is finite, but its scores overflow
    z, wq, wk, wv, s = _attention_leaves(5, 4, 3)
    z.data[2] = value
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        ad.attention(z, wq, wk, wv, s)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_attention_rejects_non_finite_node_weights(value):
    z, wq, wk, wv, s = _attention_leaves(5, 4, 3)
    s.data[1] = value
    with pytest.raises(NumericError, match="non-finite"):
        ad.attention(z, wq, wk, wv, s)


def test_attention_shape_error():
    z, wq, wk, wv, s = _attention_leaves(6, 4, 3)
    with pytest.raises(ShapeError, match="wv"):
        ad.attention(z, wq, wk, ad.constant(np.zeros((3, 2))), s)
    with pytest.raises(ShapeError, match=r"s is \(1, 4\)"):
        ad.attention(z, wq, wk, wv, ad.constant(np.ones((1, 4))))


def _attention_bytes(seed=31, n=2 * ad.ATTENTION_BLOCK + 3):
    """Output and gradients of one multi-block attention call, as bytes."""
    e = 5
    leaves = _attention_leaves(seed, n, e)
    w = ad.constant(np.random.default_rng(seed + 1).normal(size=(1, e)))
    out, grads = _attention_value_and_grads(ad.attention, leaves, w)
    return b"".join(a.tobytes() for a in [out] + grads)


@pytest.fixture()
def cores(monkeypatch):
    """Eight CPUs as far as the attention thread cap can tell, so up to
    eight threads run even on a smaller machine."""
    monkeypatch.setattr(ad, "usable_cpus", lambda: 8)


@pytest.mark.parametrize("threads, n_blocks", [("2", 3), ("3", 3), ("8", 9)])
def test_attention_is_the_same_bytes_on_any_thread_count(threads, n_blocks, monkeypatch,
                                                         cores):
    # a short switch interval interleaves the threads' writes as finely as it can
    n = (n_blocks - 1) * ad.ATTENTION_BLOCK + 3
    monkeypatch.setenv("GAA_THREADS", "1")
    serial = _attention_bytes(n=n)
    monkeypatch.setenv("GAA_THREADS", threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _attention_bytes(n=n) == serial
    finally:
        sys.setswitchinterval(interval)
    assert ad._POOL[:2] == (os.getpid(), int(threads))


def test_thread_budget_defaults_to_the_cpu_count(monkeypatch):
    """The budget defaults to the CPUs this process may run on: its affinity
    mask, or the CPU count on a platform without one."""
    monkeypatch.delenv("GAA_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
    assert ad.usable_cpus() == ad.thread_budget() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ad.usable_cpus() == ad.thread_budget() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ad.usable_cpus() == ad.thread_budget() == 1


def test_attention_thread_count_is_capped_by_budget_blocks_and_cores(monkeypatch):
    monkeypatch.setattr(ad, "_POOL", None)
    monkeypatch.setenv("GAA_THREADS", "100000")
    assert ad.worker_count(1) == 1
    assert ad.worker_count(3) == min(3, ad.usable_cpus())
    monkeypatch.setattr(ad, "usable_cpus", lambda: 64)
    assert ad.worker_count(3) == 3
    assert ad.worker_count(1000) == 64
    monkeypatch.setenv("GAA_THREADS", "2")
    assert ad.worker_count(1000) == 2
    assert ad._POOL is None  # counting starts no thread


@pytest.mark.parametrize("raw, message", [
    ("0", "GAA_THREADS must be >= 1, got 0"),
    ("two", "GAA_THREADS must be an integer, got 'two'"),
])
def test_attention_rejects_a_bad_thread_budget(raw, message, monkeypatch):
    monkeypatch.setenv("GAA_THREADS", raw)
    with pytest.raises(ConfigError, match=message):
        ad.attention(*_attention_leaves(7, 2 * ad.ATTENTION_BLOCK + 3, 3))


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_attention_rejects_non_finite_on_two_threads(value, monkeypatch, cores):
    # the bad row sits in the last block, which a pool thread computes
    monkeypatch.setenv("GAA_THREADS", "2")
    leaves = _attention_leaves(5, 2 * ad.ATTENTION_BLOCK + 3, 3)
    leaves[0].data[-1] = value
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        ad.attention(*leaves)
    monkeypatch.setenv("GAA_THREADS", "1")
    serial = _attention_bytes()
    monkeypatch.setenv("GAA_THREADS", "2")
    assert _attention_bytes() == serial  # the pool still serves the next call


def _attention_bytes_in_child():
    return _attention_bytes(), ad._POOL[0] == os.getpid()


def test_forked_child_attends_on_a_pool_of_its_own(monkeypatch, cores):
    # the child inherits the parent's pool object but not its threads; were
    # the pool reused, the child's blocks would never run
    monkeypatch.setenv("GAA_THREADS", "2")
    parent = _attention_bytes()
    assert ad._POOL[0] == os.getpid()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child, own_pool = pool.apply_async(_attention_bytes_in_child).get(timeout=60)
    assert own_pool
    assert child == parent


def test_one_attention_block_runs_without_a_pool(tmp_path):
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from gaa import autodiff as ad",
        "z = ad.parameter(np.ones((ad.ATTENTION_BLOCK, 4)))",
        "ws = [ad.parameter(np.eye(4)) for _ in range(3)]",
        "s = ad.constant(np.ones((ad.ATTENTION_BLOCK, 1)))",
        "with ad.Tape() as tape:",
        "    ad.backward(ad.sq_l2(ad.attention(z, *ws, s)), tape)",
        "assert ad._POOL is None and 'concurrent.futures' not in sys.modules",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "GAA_THREADS": "2", "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
