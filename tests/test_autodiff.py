import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaa import autodiff as ad
from gaa.exceptions import DomainError, NumericError, ShapeError

from helpers import dense_attention, fd_check


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
    np.testing.assert_array_equal(ad.hadamard(x, ones).data, x.data)


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
    np.testing.assert_array_equal(
        ad.mean_rows(ad.constant([[1.0, 3.0], [3.0, 5.0]])).data, [[2.0, 4.0]]
    )


def test_reduction_empty_tensor_rejected():
    with pytest.raises(DomainError):
        ad.sum_all(ad.constant(np.zeros((0, 3))))


def test_sum_gradient_is_ones():
    w = ad.parameter(np.arange(4.0).reshape(2, 2))
    with ad.Tape() as tape:
        loss = ad.sum_all(w)
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


def test_log_rejects_non_positive():
    with pytest.raises(DomainError):
        ad.log(ad.constant([[1.0, 0.0]]))


def test_grad_reverse_forward_identity_and_scaling():
    rng = np.random.default_rng(1)
    x_data = rand(rng, 3, 2)
    for lam, want in [(1.0, -1.0), (0.0, 0.0), (0.5, -0.5)]:
        x = ad.parameter(x_data)
        with ad.Tape() as tape:
            y = ad.grad_reverse(x, lam)
            np.testing.assert_array_equal(y.data, x.data)
            loss = ad.sum_all(y)
            ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, want * np.ones_like(x_data))


def test_grad_reverse_composes_with_positive_sign():
    x = ad.parameter(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = ad.grad_reverse(ad.grad_reverse(x, 2.0), 3.0)
        ad.backward(ad.sum_all(y), tape)
    np.testing.assert_array_equal(x.grad, 6.0 * np.ones((2, 2)))


def test_dropout_rate_zero_and_eval_identity():
    rng = np.random.default_rng(2)
    x = ad.constant(rand(rng, 4, 4))
    out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
    np.testing.assert_array_equal(out.data, x.data)
    out_eval = ad.dropout(x, 0.9, np.random.default_rng(0), training=False)
    assert out_eval is x


def test_dropout_survival_statistics():
    rng = np.random.default_rng(3)
    x = ad.constant(np.ones((100, 100)))
    out = ad.dropout(x, 0.5, np.random.default_rng(42), training=True)
    surviving = np.count_nonzero(out.data) / out.data.size
    assert abs(surviving - 0.5) < 0.02
    assert abs(out.data.mean() - 1.0) / 1.0 < 0.05


def test_backward_requires_scalar_on_tape():
    w = ad.parameter(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = ad.scale(w, 2.0)
        with pytest.raises(ShapeError):
            ad.backward(y, tape)
    with ad.Tape() as other:
        with pytest.raises(ShapeError):
            ad.backward(ad.sum_all(ad.scale(w, 1.0)), tape)
        del other


def test_diamond_fanout_accumulates_both_paths():
    # loss = sum(w*w) + sum(2w): grad = 2w + 2
    w = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with ad.Tape() as tape:
        loss = ad.add(ad.sum_all(ad.hadamard(w, w)), ad.sum_all(ad.scale(w, 2.0)))
        ad.backward(loss, tape)
    np.testing.assert_allclose(w.grad, 2.0 * w.data + 2.0)


def test_elementwise_and_reduction_dispatchers():
    x = ad.constant([[1.0, -2.0]])
    np.testing.assert_array_equal(ad.elementwise("relu", x).data, [[1.0, 0.0]])
    y = ad.constant([[1.0, 1.0]])
    np.testing.assert_array_equal(ad.elementwise("add", x, y).data, [[2.0, -1.0]])
    np.testing.assert_array_equal(ad.elementwise("scale", x, c=2.0).data, [[2.0, -4.0]])
    assert ad.reductions("sum", x).item() == -1.0
    with pytest.raises(DomainError):
        ad.elementwise("nope", x)


def test_broadcast_column_gradient_is_row_sum():
    rng = np.random.default_rng(4)
    col = ad.parameter(rand(rng, 5, 1))
    mat = ad.constant(rand(rng, 5, 3))
    with ad.Tape() as tape:
        out = ad.hadamard(mat, col)
        ad.backward(ad.sum_all(out), tape)
    np.testing.assert_allclose(col.grad, mat.data.sum(axis=1, keepdims=True))


def test_broadcast_shape_rules():
    a = ad.constant(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        ad.add(a, ad.constant(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        ad.add(a, ad.constant(np.zeros((1, 3))))
    ad.add(a, ad.constant(np.zeros((1, 4))))
    ad.add(a, ad.constant(np.zeros((3, 1))))


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rand(rng, 5, 4))
    b = ad.parameter(rand(rng, 4, 3))
    fd_check(lambda leaves: ad.sq_l2(ad.matmul(leaves[0], leaves[1])), [a, b])


@pytest.mark.parametrize("kind", ["add", "sub", "hadamard", "divide"])
@pytest.mark.parametrize("bshape", [(4, 3), (1, 3), (4, 1)])
def test_binary_op_gradients(kind, bshape):
    rng = np.random.default_rng(hash((kind, bshape)) % 2**32)
    a = ad.parameter(rand(rng, 4, 3))
    b_data = rand(rng, *bshape)
    if kind == "divide":
        b_data = np.sign(b_data) * (np.abs(b_data) + 0.5)
    b = ad.parameter(b_data)
    fd_check(lambda leaves: ad.sq_l2(ad.elementwise(kind, leaves[0], leaves[1])), [a, b])


@pytest.mark.parametrize("kind", ["relu", "exp", "neg", "sigmoid"])
def test_unary_op_gradients(kind):
    rng = np.random.default_rng(abs(hash(kind)) % 2**32)
    data = rand(rng, 4, 4)
    if kind == "relu":
        # keep entries away from the kink where central differences lie
        data = np.where(np.abs(data) < 0.05, 0.5, data)
    x = ad.parameter(data)
    fd_check(lambda leaves: ad.sq_l2(ad.elementwise(kind, leaves[0])), [x])


def test_log_sqrt_gradients():
    rng = np.random.default_rng(7)
    x = ad.parameter(rng.uniform(0.2, 2.0, size=(4, 4)))
    fd_check(lambda leaves: ad.sq_l2(ad.log(leaves[0])), [x])
    fd_check(lambda leaves: ad.sq_l2(ad.sqrt(leaves[0])), [x])


def test_clip_min_gradient_masks_clamped_entries():
    x = ad.parameter(np.array([[0.5, 2.0], [3.0, 0.2]]))
    with ad.Tape() as tape:
        ad.backward(ad.sum_all(ad.clip_min(x, 1.0)), tape)
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("seed", range(4))
def test_row_softmax_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    x = ad.parameter(rand(rng, 4, 4))
    w = ad.constant(rand(rng, 4, 4))
    fd_check(lambda leaves: ad.sum_all(ad.hadamard(ad.row_softmax(leaves[0]), w)), [x])


@pytest.mark.parametrize("kind", ["sum", "mean_rows", "sq_l2", "row_sum"])
def test_reduction_gradients(kind):
    rng = np.random.default_rng(abs(hash(kind)) % 2**32)
    x = ad.parameter(rand(rng, 5, 3))
    w_col = ad.constant(rand(rng, 5, 1))
    w_row = ad.constant(rand(rng, 1, 3))

    def build(leaves):
        out = ad.reductions(kind, leaves[0])
        if out.shape == (5, 1):
            out = ad.sum_all(ad.hadamard(out, w_col))
        elif out.shape == (1, 3):
            out = ad.sum_all(ad.hadamard(out, w_row))
        return out

    fd_check(build, [x])


def test_transpose_gradient():
    rng = np.random.default_rng(11)
    x = ad.parameter(rand(rng, 3, 5))
    w = ad.constant(rand(rng, 5, 3))
    fd_check(lambda leaves: ad.sum_all(ad.hadamard(ad.transpose(leaves[0]), w)), [x])


def test_dropout_gradient_matches_mask():
    x = ad.parameter(np.ones((6, 6)))
    with ad.Tape() as tape:
        out = ad.dropout(x, 0.5, np.random.default_rng(5), training=True)
        ad.backward(ad.sum_all(out), tape)
    np.testing.assert_array_equal(x.grad, np.where(out.data > 0, 2.0, 0.0))


def test_forward_backward_determinism():
    def run():
        rng = np.random.default_rng(123)
        w = ad.parameter(rng.normal(size=(4, 4)))
        x = ad.constant(rng.normal(size=(4, 4)))
        with ad.Tape() as tape:
            h = ad.dropout(ad.relu(ad.matmul(w, x)), 0.3, np.random.default_rng(9), True)
            loss = ad.sq_l2(h)
            ad.backward(loss, tape)
        return loss.item(), w.grad.copy()

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
    rng = np.random.default_rng(seed)
    return [ad.parameter(rng.normal(size=(n, e)))] + \
        [ad.parameter(rng.normal(size=(e, e)) / 2) for _ in range(3)]


def _attention_value_and_grads(fn, leaves, w):
    for leaf in leaves:
        leaf.zero_grad()
    with ad.Tape() as tape:
        out = fn(*leaves)
        ad.backward(ad.sum_all(ad.hadamard(out, w)), tape)
    return out.data, [leaf.grad.copy() for leaf in leaves]


def test_attention_matches_dense_composition_over_ragged_blocks():
    n, e = 2 * ad.ATTENTION_BLOCK + 3, 5
    leaves = _attention_leaves(21, n, e)
    w = ad.constant(np.random.default_rng(22).normal(size=(n, e)))
    streamed, streamed_grads = _attention_value_and_grads(ad.attention, leaves, w)
    dense, dense_grads = _attention_value_and_grads(dense_attention, leaves, w)
    assert streamed.shape == (n, e)
    for got, want in zip([streamed] + streamed_grads, [dense] + dense_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_matches_dense_composition_on_nearly_one_hot_rows():
    # a large-norm z puts almost all of each softmax row on one entry, where
    # backward's D = rowsum(G * out) cancels against dP
    n, e = 2 * ad.ATTENTION_BLOCK + 3, 5
    leaves = _attention_leaves(23, n, e)
    leaves[0].data *= 6.0
    w = ad.constant(np.random.default_rng(24).normal(size=(n, e)))
    streamed, streamed_grads = _attention_value_and_grads(ad.attention, leaves, w)
    dense, dense_grads = _attention_value_and_grads(dense_attention, leaves, w)
    z, wq, wk, _ = (leaf.data for leaf in leaves)
    scores = (z @ wk.T) @ (z @ wq.T).T / np.sqrt(e)
    assert np.median(ad.row_softmax(ad.constant(scores)).data.max(axis=1)) > 0.999
    for got, want in zip([streamed] + streamed_grads, [dense] + dense_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_attention_rejects_non_finite(value):
    # 1e200 is finite, but its scores overflow
    z, wq, wk, wv = _attention_leaves(5, 4, 3)
    z.data[2] = value
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        ad.attention(z, wq, wk, wv)


def test_attention_shape_error():
    z, wq, wk, _ = _attention_leaves(6, 4, 3)
    with pytest.raises(ShapeError, match="wv"):
        ad.attention(z, wq, wk, ad.constant(np.zeros((3, 2))))
