import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from gaa import autodiff as ad
from gaa import losses
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
    encode,
    gcn_encode,
    init_model,
    load_model,
    save_model,
)
from gaa.train import _epoch_losses

from helpers import EXPECTED_PARAMS, edges_of_dense, fd_check, hadamard, sum_all


DATA = Path(__file__).parent / "data"


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
        z = gcn_encode(View(norm, norm @ x), w1, w2, 0.0, None)
        np.testing.assert_array_equal(z.data, np.zeros((4, 2)))

    def test_single_node_identity_norm_is_mlp(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(1, 3))
        w1_data = rng.normal(size=(3, 5))
        w2_data = rng.normal(size=(5, 2))
        z = gcn_encode(View(np.eye(1), x_data),
                       ad.parameter(w1_data), ad.parameter(w2_data), 0.0, None)
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
            got = gcn_encode(view, ad.parameter(w1), ad.parameter(w2), 0.0, None).data
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        g = gen_attribute_shift(0.5, seed=3, n=6, d=3, edge_prob=0.5)
        view = build_views(g.edges, g.features / 10.0, k=None).topo
        w1 = ad.parameter(rng.uniform(-1, 1, size=(3, 4)))
        w2 = ad.parameter(rng.uniform(-1, 1, size=(4, 2)))

        def build(leaves):
            return ad.sq_l2(gcn_encode(view, leaves[0], leaves[1], 0.0, None))

        fd_check(build, [w1, w2])

    def test_tape_keeps_only_the_hidden_layer(self):
        # after a training forward the tape holds H and the n x embed output,
        # not the pre-activation, relu's output or either mask
        n, d, hidden, embed = 3000, 10, 128, 16
        rng = np.random.default_rng(8)
        norm = sparse.random_array((n, n), density=0.003, format="csr", rng=rng)
        view = View((norm + norm.T).tocsr(), rng.normal(size=(n, d)))
        w1 = ad.parameter(rng.normal(size=(d, hidden)))
        w2 = ad.parameter(rng.normal(size=(hidden, embed)))
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                z = gcn_encode(view, w1, w2, 0.5, rng)
                kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [rec.kind for rec in tape.records] == ["gcn"] and z.shape == (n, embed)
        assert kept < 1.25 * n * hidden * 8, f"tape keeps {kept / 1e6:.2f} MB"


class TestAttention:
    def test_single_node_reduces_to_value_projection(self):
        rng = np.random.default_rng(4)
        z_data = rng.normal(size=(1, 3))
        wv_data = rng.normal(size=(3, 3))
        att = attention_embed(ad.constant(z_data), ad.constant(rng.normal(size=(3, 3))),
                              ad.constant(rng.normal(size=(3, 3))), ad.constant(wv_data),
                              ad.constant([[1.0]]))
        np.testing.assert_allclose(att.data, (wv_data @ z_data.T).T, atol=1e-12)

    def test_zero_query_key_mixes_uniformly(self):
        # every node attends to the plain mean of the values, so the pool is
        # that mean scaled by the mean weight
        rng = np.random.default_rng(5)
        z_data = rng.normal(size=(5, 3))
        wv_data = rng.normal(size=(3, 3))
        s_data = rng.uniform(0.0, 1.0, size=(5, 1))
        zeros = ad.constant(np.zeros((3, 3)))
        att = attention_embed(ad.constant(z_data), zeros, zeros, ad.constant(wv_data),
                              ad.constant(s_data))
        mixed = (wv_data @ z_data.T).T.mean(axis=0, keepdims=True)
        np.testing.assert_allclose(att.data, s_data.mean() * mixed, atol=1e-12)

    def test_matches_three_loop_oracle(self):
        rng = np.random.default_rng(6)
        n, e = 5, 3
        z = rng.normal(size=(n, e))
        wq, wk, wv = (rng.normal(size=(e, e)) for _ in range(3))
        s = rng.uniform(0.0, 1.0, size=(n, 1))
        att = attention_embed(*[ad.constant(x) for x in (z, wq, wk, wv, s)])

        q, k, m = wq @ z.T, wk @ z.T, wv @ z.T
        expected = np.zeros((1, e))
        for i in range(n):
            scores = np.array([k[:, i] @ q[:, j] for j in range(n)]) / np.sqrt(e)
            weights = np.exp(scores - scores.max())
            weights = weights / weights.sum()
            for j in range(n):
                expected[0] += s[i, 0] * weights[j] * m[:, j] / n
        np.testing.assert_allclose(att.data, expected, atol=1e-10)

    def test_backward_peak_memory_below_one_score_matrix(self):
        n, e = 3000, 16
        rng = np.random.default_rng(8)
        z = ad.parameter(rng.normal(size=(n, e)))
        wq, wk, wv = (ad.parameter(rng.normal(size=(e, e)) / 4) for _ in range(3))
        s = ad.parameter(rng.uniform(0.0, 1.0, size=(n, 1)))
        w = ad.constant(rng.normal(size=(1, e)))
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                att = attention_embed(z, wq, wk, wv, s)
                ad.backward(sum_all(hadamard(att, w)), tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert att.shape == (1, e)
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

    def test_gradient_through_scores_into_the_pooled_row(self):
        rng = np.random.default_rng(10)
        z_f = ad.parameter(rng.uniform(0.2, 2.0, size=(4, 3)))
        z = ad.parameter(rng.uniform(0.2, 2.0, size=(4, 3)))
        ws = [ad.constant(rng.uniform(-1, 1, size=(3, 3))) for _ in range(3)]

        def build(leaves):
            s = cross_view_scores(leaves[0], leaves[1])
            return ad.sq_l2(attention_embed(leaves[1], *ws, s))

        fd_check(build, [z_f, z])


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
                grads[lam] = ad.backward(sum_all(p), tape)[z]
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
        np.testing.assert_array_equal(full.params["W1_topo"].data, ablated.params["W1_topo"].data)
        np.testing.assert_array_equal(full.params["Wd"].data, ablated.params["Wd"].data)

    def test_gaa3_has_strictly_fewer_parameters(self):
        full = make_model("GAA", seed=1)
        ablated = make_model("GAA3", seed=1)
        count = lambda m: sum(p.data.size for p in m.parameters())
        assert count(ablated) < count(full)
        assert "W1_feat" not in ablated.params and "Wq" not in ablated.params

    def test_all_parameters_require_grad(self):
        model = make_model("GAA")
        for p in model.parameters():
            assert p.requires_grad

    def test_field_order_is_checkpoint_order(self):
        model = make_model("GAA")
        assert list(model.params) == list(FIELD_ORDER)


@pytest.mark.parametrize("variant", VARIANT_SPECS)
def test_variant_row_is_consistent(variant):
    """A row's flags agree with each other, and give the parameters the
    hand-written table lists, in checkpoint order."""
    spec = VARIANT_SPECS[variant]
    assert spec.topo or spec.feat
    if spec.refines:
        assert spec.attends
    if spec.attends:  # attention pools both channels of both domains
        assert spec.topo and spec.feat and spec.adapts
    assert list(make_model(variant).params) == EXPECTED_PARAMS[variant]


class TestForwardAll:
    """The forward pass: ``encode`` and the branches ``_epoch_losses`` feeds
    straight to the losses, read at the losses' arguments."""

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

    def loss_inputs(self, monkeypatch, model, views_s, views_t, rng):
        """The arguments ``_epoch_losses`` hands each loss function, by name."""
        seen = {}
        labels = np.arange(views_s.topo.ax.shape[0]) % model.num_classes
        with monkeypatch.context() as patch:
            for name in ("source_ce", "alignment_loss", "domain_bce", "target_entropy"):
                def recording(*args, name=name, original=getattr(losses, name)):
                    seen[name] = args
                    return original(*args)
                patch.setattr(losses, name, recording)
            _epoch_losses(model, views_s, views_t, labels, losses.LossWeights(), rng)
        return seen

    def test_output_shapes_full_variant(self, monkeypatch):
        views_s, views_t = self.pair_inputs()
        model = make_model("GAA")
        seen = self.loss_inputs(monkeypatch, model, views_s, views_t, None)
        e, c = model.hyper.embed, model.num_classes
        for att in seen["alignment_loss"]:
            assert att.shape == (1, e)
        probs_s, probs_t = seen["source_ce"][0], seen["target_entropy"][0]
        dom_s, dom_t = seen["domain_bce"]
        assert probs_s.shape == (6, c) and probs_t.shape == (5, c)
        assert dom_s.shape == (6, 1) and dom_t.shape == (5, 1)

    def test_weight_sharing_same_objects(self):
        model = make_model("GAA")
        assert model.params["W1_topo"] is model.params["W1_topo"]  # identity, not value
        # the same tensors appear in source and target paths by construction;
        # check gradients from both domains sum into one entry
        views_s, views_t = self.pair_inputs()
        with ad.Tape() as tape:
            z_s, z_t = (encode(model, views, None)[0] for views in (views_s, views_t))
            loss = ad.add(ad.sq_l2(z_s), ad.sq_l2(z_t))
            grads = ad.backward(loss, tape)
        assert np.abs(grads[model.params["W1_topo"]]).sum() > 0

    def test_gaa1_attention_unrefined(self, monkeypatch):
        views_s, views_t = self.pair_inputs()
        m_full = make_model("GAA", seed=3)
        m_nore = make_model("GAA1", seed=3)
        att_full, att_nore = (
            self.loss_inputs(monkeypatch, m, views_s, views_t, None)["alignment_loss"][0]
            for m in (m_full, m_nore))
        p, ones = m_nore.params, ad.constant(np.ones((6, 1)))
        z_s = encode(m_nore, views_s, None)[0]
        raw = attention_embed(z_s, p["Wq"], p["Wk"], p["Wv"], ones)
        np.testing.assert_array_equal(att_nore.data, raw.data)
        assert np.abs(att_full.data - att_nore.data).max() > 0

    def test_deterministic_under_fixed_seed(self, monkeypatch):
        views_s, views_t = self.pair_inputs()
        model = make_model("GAA", hyper=Hyper(hidden=5, embed=4, dropout=0.4))
        runs = []
        for _ in range(2):
            seen = self.loss_inputs(monkeypatch, model, views_s, views_t,
                                    np.random.default_rng(99))
            runs.append(seen["source_ce"][0].data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = make_model("GAA", seed=21)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.variant == model.variant
        assert back.hyper == model.hyper
        for name, p in model.params.items():
            np.testing.assert_array_equal(back.params[name].data, p.data)

    def test_roundtrip_partial_variant(self, tmp_path):
        model = make_model("GCN", seed=22)
        save_model(model, tmp_path / "m.bin")
        back = load_model(tmp_path / "m.bin")
        assert list(back.params) == list(model.params)
        assert "W1_feat" not in back.params

    @pytest.mark.parametrize("variant", VARIANT_SPECS)
    def test_golden_checkpoint(self, variant, tmp_path):
        """Pins the format, the parameter order and each field's init stream
        across commits: ``golden_<variant>.bin`` was written by this init and
        ``save_model`` before the parameters moved into one map."""
        golden = DATA / f"golden_{variant}.bin"
        model = init_model(2, 2, variant, 2, Hyper(hidden=3, embed=2), np.random.SeedSequence(7))
        save_model(model, tmp_path / "init.bin")
        assert (tmp_path / "init.bin").read_bytes() == golden.read_bytes()
        save_model(load_model(golden), tmp_path / "back.bin")
        assert (tmp_path / "back.bin").read_bytes() == golden.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        model = make_model("GAA", seed=23)
        save_model(model, tmp_path / "a.bin")
        save_model(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
