import tracemalloc

import numpy as np
import pytest

from gaa import autodiff as ad
from gaa.exceptions import ShapeError
from gaa.featgraph import View, build_views
from gaa.graphs import gen_attribute_shift
from gaa.model import (
    FIELD_ORDER,
    VARIANT_SPECS,
    GaaModel,
    Hyper,
    attention_embed,
    classify,
    cross_view_scores,
    domain_discriminate,
    forward_all,
    gcn_encode,
    init_model,
    load_model,
    refine,
    save_model,
)

from helpers import edges_of_dense, fd_check


def tiny_hyper():
    return Hyper(hidden=5, embed=4, dropout=0.0, grl_lambda=1.0)


def make_model(variant="GAA", in_dim=3, num_classes=2, k=2, seed=0, hyper=None):
    return init_model(in_dim, num_classes, variant, k, hyper or tiny_hyper(),
                      np.random.SeedSequence(seed))


class TestGcnEncode:
    def test_zero_weights_give_zero_embedding(self):
        rng = np.random.default_rng(0)
        norm = np.eye(4)
        x = rng.normal(size=(4, 3))
        w1 = ad.parameter(np.zeros((3, 5)))
        w2 = ad.parameter(np.zeros((5, 2)))
        z = gcn_encode(View(norm, norm @ x), w1, w2, 0.0, rng, training=False)
        np.testing.assert_array_equal(z.data, np.zeros((4, 2)))

    def test_single_node_identity_norm_is_mlp(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(1, 3))
        w1_data = rng.normal(size=(3, 5))
        w2_data = rng.normal(size=(5, 2))
        z = gcn_encode(View(np.eye(1), x_data),
                       ad.parameter(w1_data), ad.parameter(w2_data),
                       0.0, rng, training=False)
        expected = np.maximum(x_data @ w1_data, 0.0) @ w2_data
        np.testing.assert_allclose(z.data, expected, atol=1e-12)

    def test_values_match_propagating_before_each_weight(self):
        # relu(ÂX W1), then (ÂH) W2: the order layer 2 used to compute
        rng = np.random.default_rng(3)
        g = gen_attribute_shift(0.5, seed=4, n=40, d=6, edge_prob=0.2)
        views = build_views(g.edges, g.features, k=3)
        w1, w2 = rng.normal(size=(6, 32)), rng.normal(size=(32, 8))
        for view in views:
            hidden = np.maximum((view.norm @ g.features) @ w1, 0.0)
            want = (view.norm @ hidden) @ w2
            got = gcn_encode(view, ad.parameter(w1), ad.parameter(w2),
                             0.0, rng, training=False).data
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        g = gen_attribute_shift(0.5, seed=3, n=6, d=3, edge_prob=0.5)
        view = build_views(g.edges, g.features / 10.0, k=None).topo
        w1 = ad.parameter(rng.uniform(-1, 1, size=(3, 4)))
        w2 = ad.parameter(rng.uniform(-1, 1, size=(4, 2)))

        def build(leaves):
            return ad.sq_l2(gcn_encode(view, leaves[0], leaves[1], 0.0,
                                       np.random.default_rng(0), training=False))

        fd_check(build, [w1, w2])


class TestAttention:
    def test_single_node_reduces_to_value_projection(self):
        rng = np.random.default_rng(4)
        z_data = rng.normal(size=(1, 3))
        wv_data = rng.normal(size=(3, 3))
        att = attention_embed(ad.constant(z_data), ad.constant(rng.normal(size=(3, 3))),
                              ad.constant(rng.normal(size=(3, 3))), ad.constant(wv_data))
        np.testing.assert_allclose(att.data, (wv_data @ z_data.T).T, atol=1e-12)

    def test_zero_query_key_mixes_uniformly(self):
        rng = np.random.default_rng(5)
        z_data = rng.normal(size=(5, 3))
        wv_data = rng.normal(size=(3, 3))
        zeros = ad.constant(np.zeros((3, 3)))
        att = attention_embed(ad.constant(z_data), zeros, zeros, ad.constant(wv_data))
        mixed = (wv_data @ z_data.T).T.mean(axis=0)
        for row in att.data:
            np.testing.assert_allclose(row, mixed, atol=1e-10)
        spread = np.abs(att.data - att.data[0]).max()
        assert spread < 1e-10

    def test_matches_three_loop_oracle(self):
        rng = np.random.default_rng(6)
        n, e = 5, 3
        z = rng.normal(size=(n, e))
        wq, wk, wv = (rng.normal(size=(e, e)) for _ in range(3))
        att = attention_embed(ad.constant(z), ad.constant(wq), ad.constant(wk), ad.constant(wv))

        q, k, m = wq @ z.T, wk @ z.T, wv @ z.T
        expected = np.zeros((n, e))
        for i in range(n):
            scores = np.array([k[:, i] @ q[:, j] for j in range(n)]) / np.sqrt(e)
            weights = np.exp(scores - scores.max())
            weights = weights / weights.sum()
            for j in range(n):
                expected[i] += weights[j] * m[:, j]
        np.testing.assert_allclose(att.data, expected, atol=1e-10)

    def test_backward_peak_memory_below_one_score_matrix(self):
        n, e = 3000, 16
        rng = np.random.default_rng(8)
        z = ad.parameter(rng.normal(size=(n, e)))
        wq, wk, wv = (ad.parameter(rng.normal(size=(e, e)) / 4) for _ in range(3))
        w = ad.constant(rng.normal(size=(n, e)))
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                att = attention_embed(z, wq, wk, wv)
                ad.backward(ad.sum_all(ad.hadamard(att, w)), tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert att.shape == (n, e)
        assert peak < n * n * 8, f"traced peak {peak / 1e6:.1f} MB"


class TestCrossView:
    def test_identical_rows_score_one(self):
        rng = np.random.default_rng(7)
        z = ad.constant(rng.normal(size=(4, 3)))
        s = cross_view_scores(z, z)
        np.testing.assert_allclose(s.data, np.ones((4, 1)), atol=1e-12)

    def test_opposite_rows_score_zero(self):
        rng = np.random.default_rng(8)
        z_data = rng.normal(size=(4, 3))
        s = cross_view_scores(ad.constant(-z_data), ad.constant(z_data))
        np.testing.assert_allclose(s.data, np.zeros((4, 1)), atol=1e-12)

    def test_zero_norm_rows_score_half(self):
        z_f = ad.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))
        z = ad.constant(np.array([[1.0, 1.0], [1.0, 0.0]]))
        s = cross_view_scores(z_f, z)
        assert s.data[0, 0] == pytest.approx(0.5)
        assert s.data[1, 0] == pytest.approx(1.0)

    def test_matches_per_row_oracle(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        s = cross_view_scores(ad.constant(a), ad.constant(b))
        for i in range(6):
            cos = a[i] @ b[i] / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
            assert s.data[i, 0] == pytest.approx((1 + cos) / 2, abs=1e-12)

    def test_gradient_through_refine_and_scores(self):
        rng = np.random.default_rng(10)
        z_f = ad.parameter(rng.uniform(0.2, 2.0, size=(4, 3)))
        z = ad.parameter(rng.uniform(0.2, 2.0, size=(4, 3)))
        att = ad.parameter(rng.uniform(-1, 1, size=(4, 3)))

        def build(leaves):
            s = cross_view_scores(leaves[0], leaves[1])
            return ad.sq_l2(refine(leaves[2], s))

        fd_check(build, [z_f, z, att])


class TestRefine:
    def test_ones_are_identity(self):
        rng = np.random.default_rng(11)
        att_data = rng.normal(size=(3, 4))
        out = refine(ad.constant(att_data), ad.constant(np.ones((3, 1))))
        np.testing.assert_array_equal(out.data, att_data)

    def test_zero_score_annihilates_row(self):
        att = ad.constant(np.ones((3, 2)))
        s = ad.constant(np.array([[1.0], [0.0], [1.0]]))
        out = refine(att, s)
        np.testing.assert_array_equal(out.data[1], np.zeros(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            refine(ad.constant(np.ones((3, 2))), ad.constant(np.ones((2, 1))))


class TestHeads:
    def test_classify_zero_weights_uniform(self):
        z = ad.constant(np.random.default_rng(12).normal(size=(5, 4)))
        probs = classify(z, ad.constant(np.zeros((4, 3))), ad.constant(np.zeros((1, 3))))
        np.testing.assert_allclose(probs.data, np.full((5, 3), 1 / 3), atol=1e-12)

    def test_classify_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        probs = classify(ad.constant(rng.normal(size=(6, 4))),
                         ad.constant(rng.normal(size=(4, 3))),
                         ad.constant(rng.normal(size=(1, 3))))
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(6), atol=1e-12)

    def test_discriminator_zero_weights_half(self):
        z = ad.constant(np.random.default_rng(14).normal(size=(5, 4)))
        p = domain_discriminate(z, 1.0, ad.constant(np.zeros((4, 1))), ad.constant(np.zeros((1, 1))))
        np.testing.assert_allclose(p.data, np.full((5, 1), 0.5))

    def test_discriminator_output_open_interval(self):
        rng = np.random.default_rng(15)
        p = domain_discriminate(ad.constant(rng.normal(size=(5, 4))), 1.0,
                                ad.constant(rng.normal(size=(4, 1))),
                                ad.constant(rng.normal(size=(1, 1))))
        assert np.all(p.data > 0) and np.all(p.data < 1)

    def test_grl_lambda_flips_and_scales_encoder_gradient(self):
        rng = np.random.default_rng(16)
        z_data = rng.normal(size=(4, 3))
        wd_data = rng.normal(size=(3, 1))
        grads = {}
        for lam in (0.0, 1.0, 2.0):
            z = ad.parameter(z_data)
            with ad.Tape() as tape:
                p = domain_discriminate(z, lam, ad.constant(wd_data), ad.constant(np.zeros((1, 1))))
                ad.backward(ad.sum_all(p), tape)
            grads[lam] = z.grad.copy()
        np.testing.assert_array_equal(grads[0.0], np.zeros_like(z_data))
        np.testing.assert_allclose(grads[2.0], 2.0 * grads[1.0], atol=1e-12)

    def test_discriminator_gradient_matches_finite_differences(self):
        # finite differences see the GRL as identity, so only the head weights
        # are checkable this way; the reversal itself is covered above
        rng = np.random.default_rng(17)
        z = ad.constant(rng.normal(size=(4, 3)))
        wd = ad.parameter(rng.normal(size=(3, 1)))
        bd = ad.parameter(np.zeros((1, 1)))

        def build(leaves):
            p = domain_discriminate(z, 0.5, leaves[0], leaves[1])
            return ad.sq_l2(p)

        fd_check(build, [wd, bd])


class TestModelInit:
    def test_shared_fields_identical_across_variants(self):
        full = make_model("GAA", seed=42)
        ablated = make_model("GAA3", seed=42)
        np.testing.assert_array_equal(full.W1_topo.data, ablated.W1_topo.data)
        np.testing.assert_array_equal(full.Wd.data, ablated.Wd.data)

    def test_gaa3_has_strictly_fewer_parameters(self):
        full = make_model("GAA", seed=1)
        ablated = make_model("GAA3", seed=1)
        count = lambda m: sum(p.data.size for p in m.parameters())
        assert count(ablated) < count(full)
        assert ablated.W1_feat is None and ablated.Wq is None

    def test_all_parameters_require_grad(self):
        model = make_model("GAA")
        for p in model.parameters():
            assert p.requires_grad and p.grad is not None

    def test_field_order_is_checkpoint_order(self):
        model = make_model("GAA")
        assert model.parameter_names() == list(FIELD_ORDER)


@pytest.mark.parametrize("variant", VARIANT_SPECS)
def test_variant_row_is_consistent(variant):
    """A row owns the parameters its flags read, in checkpoint order."""
    spec = VARIANT_SPECS[variant]
    assert list(spec.fields) == [name for name in FIELD_ORDER if name in spec.fields]
    needed = {"Wc", "bc"}
    needed |= {"W1_topo", "W2_topo"} if spec.topo else set()
    needed |= {"W1_feat", "W2_feat"} if spec.feat else set()
    needed |= {"Wq", "Wk", "Wv"} if spec.attends else set()
    needed |= {"Wd", "bd"} if spec.adapts else set()
    assert needed <= set(spec.fields)
    assert spec.topo or spec.feat
    if spec.refines or spec.aligns:
        assert spec.attends
    if spec.attends:  # attention embeds both channels of both domains
        assert spec.topo and spec.feat and spec.adapts
    assert make_model(variant).parameter_names() == list(spec.fields)


class TestForwardAll:
    def pair_inputs(self, n_s=6, n_t=5, d=3, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for n in (n_s, n_t):
            adj = (rng.random((n, n)) < 0.5).astype(float)
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            x = rng.normal(size=(n, d))
            out.append(build_views(edges_of_dense(adj), x, k=2))
        return out

    def test_output_shapes_full_variant(self):
        views_s, views_t = self.pair_inputs()
        model = make_model("GAA")
        out = forward_all(model, views_s, views_t, False, np.random.default_rng(0))
        e, c = model.hyper.embed, model.num_classes
        assert out.att_s.shape == (6, e) and out.att_s_f.shape == (6, e)
        assert out.att_t.shape == (5, e) and out.att_t_f.shape == (5, e)
        assert out.probs_s.shape == (6, c) and out.probs_t.shape == (5, c)
        assert out.dom_s.shape == (6, 1) and out.dom_t.shape == (5, 1)

    def test_weight_sharing_same_objects(self):
        model = make_model("GAA")
        assert model.W1_topo is model.W1_topo  # identity, not value
        # the same tensors appear in source and target paths by construction;
        # check gradients from both domains accumulate into one buffer
        views_s, views_t = self.pair_inputs()
        with ad.Tape() as tape:
            out = forward_all(model, views_s, views_t, False, np.random.default_rng(0))
            loss = ad.add(ad.sq_l2(out.z_s), ad.sq_l2(out.z_t))
            ad.backward(loss, tape)
        assert np.abs(model.W1_topo.grad).sum() > 0

    def test_gaa1_attention_unrefined(self):
        views_s, views_t = self.pair_inputs()
        m_full = make_model("GAA", seed=3)
        m_nore = make_model("GAA1", seed=3)
        kw = dict(training=False, rng=np.random.default_rng(0))
        out_full = forward_all(m_full, views_s, views_t, **kw)
        out_nore = forward_all(m_nore, views_s, views_t, **kw)
        raw = attention_embed(out_nore.z_s, m_nore.Wq, m_nore.Wk, m_nore.Wv)
        np.testing.assert_array_equal(out_nore.att_s.data, raw.data)
        assert np.abs(out_full.att_s.data - out_nore.att_s.data).max() > 0

    def test_deterministic_under_fixed_seed(self):
        views_s, views_t = self.pair_inputs()
        model = make_model("GAA", hyper=Hyper(hidden=5, embed=4, dropout=0.4))
        runs = []
        for _ in range(2):
            out = forward_all(model, views_s, views_t, True, np.random.default_rng(99))
            runs.append(out.probs_s.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = make_model("GAA", seed=21)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.variant == model.variant
        assert back.hyper == model.hyper
        for name in model.parameter_names():
            np.testing.assert_array_equal(getattr(back, name).data, getattr(model, name).data)

    def test_roundtrip_partial_variant(self, tmp_path):
        model = make_model("GCN", seed=22)
        save_model(model, tmp_path / "m.bin")
        back = load_model(tmp_path / "m.bin")
        assert back.parameter_names() == model.parameter_names()
        assert back.W1_feat is None

    def test_save_is_deterministic(self, tmp_path):
        model = make_model("GAA", seed=23)
        save_model(model, tmp_path / "a.bin")
        save_model(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
