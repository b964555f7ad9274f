import numpy as np
import pytest

from gaa import autodiff as ad
from gaa.exceptions import ConfigError
from gaa.graphs import DomainPair, Graph, gen_attribute_shift
from gaa.losses import LossWeights
from gaa.model import VARIANT_SPECS, VARIANTS
from gaa.train import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    run_repeated,
    train_gaa,
)


def small_pair(n=14, d=4, seed=3):
    return DomainPair(source=gen_attribute_shift(0.4, seed=seed, n=n, d=d),
                      target=gen_attribute_shift(1.2, seed=seed, n=n, d=d))


def quick_cfg(**kw):
    base = dict(epochs=3, lr=1e-2, seed=0, k=2, hidden=8, embed=4, dropout=0.2,
                weights=LossWeights(alpha=0.5, beta=0.1, tau=0.1))
    base.update(kw)
    return TrainConfig(**base)


class TestAdam:
    def test_hand_executed_first_step(self):
        w = ad.parameter(np.array([[1.0]]))
        w.grad[...] = 2.0  # gradient of w^2 at w=1
        state = AdamState([w])
        adam_step([w], state, lr=0.1)
        assert w.data[0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_constant_gradient_approaches_lr_sized_steps(self):
        w = ad.parameter(np.array([[0.0]]))
        state = AdamState([w])
        prev = 0.0
        for _ in range(200):
            w.grad[...] = 3.0
            adam_step([w], state, lr=0.01)
        step = prev - w.data[0, 0]
        assert w.data[0, 0] < 0
        # late steps have magnitude ~ lr regardless of gradient scale
        before = w.data[0, 0]
        w.grad[...] = 3.0
        adam_step([w], state, lr=0.01)
        assert abs(before - w.data[0, 0]) == pytest.approx(0.01, rel=1e-3)

    def test_zero_gradient_zero_decay_fixed_point(self):
        w = ad.parameter(np.array([[1.5, -2.0]]))
        state = AdamState([w])
        for _ in range(5):
            adam_step([w], state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(w.data, [[1.5, -2.0]])

    def test_lr_zero_never_changes_parameters(self):
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.normal(size=(3, 3)))
        before = w.data.copy()
        state = AdamState([w])
        for _ in range(3):
            w.grad[...] = rng.normal(size=(3, 3))
            adam_step([w], state, lr=0.0, weight_decay=0.01)
        np.testing.assert_array_equal(w.data, before)

    def test_weight_decay_pulls_toward_zero(self):
        w = ad.parameter(np.array([[4.0]]))
        state = AdamState([w])
        adam_step([w], state, lr=0.1, weight_decay=0.1)
        assert w.data[0, 0] < 4.0

    def test_gradients_zeroed_after_step(self):
        w = ad.parameter(np.array([[1.0]]))
        w.grad[...] = 5.0
        adam_step([w], AdamState([w]), lr=0.1)
        np.testing.assert_array_equal(w.grad, [[0.0]])

    def test_step_counter_increments_once(self):
        w = ad.parameter(np.array([[1.0]]))
        state = AdamState([w])
        for expect in (1, 2, 3):
            adam_step([w], state, lr=0.1)
            assert state.t == expect


class TestTrainLoop:
    def test_one_epoch_is_one_step(self):
        pair = small_pair()
        model, metrics = train_gaa(pair, quick_cfg(epochs=1))
        assert len(metrics.per_epoch) == 1
        assert metrics.per_epoch[0].epoch == 0

    def test_determinism_bitwise(self):
        pair = small_pair()
        cfg = quick_cfg(epochs=4)
        m1, r1 = train_gaa(pair, cfg)
        m2, r2 = train_gaa(pair, cfg)
        assert r1.per_epoch == r2.per_epoch
        assert r1.target_accuracy == r2.target_accuracy
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_all_gaa_parameters_receive_gradient_buffers(self):
        # every parameter is touched by the loss graph when all weights are on
        pair = small_pair()
        cfg = quick_cfg(epochs=1, dropout=0.0,
                        weights=LossWeights(alpha=1.0, beta=1.0, tau=1.0))
        from gaa.featgraph import build_views
        from gaa.model import forward_all, init_model, propagate
        from gaa.train import _epoch_losses

        model = init_model(pair.source.dim, pair.num_classes, "GAA", cfg.k,
                           cfg.hyper(), np.random.SeedSequence(0))
        views_s = build_views(pair.source.adjacency, pair.source.features, cfg.k)
        views_t = build_views(pair.target.adjacency, pair.target.features, cfg.k)
        with ad.Tape() as tape:
            out = forward_all(model, views_s, views_t,
                              propagate(views_s, pair.source.features),
                              propagate(views_t, pair.target.features),
                              False, np.random.default_rng(0))
            total, *_ = _epoch_losses(model, out, pair.source.labels, cfg.weights)
            ad.backward(total, tape)
        for name, p in zip(model.parameter_names(), model.parameters()):
            assert p.grad is not None, name
            if not name.startswith("b"):
                assert np.abs(p.grad).sum() > 0, f"dead parameter {name}"

    def test_loss_decreases_on_default_synthetic(self):
        pair = small_pair(n=30)
        _, metrics = train_gaa(pair, quick_cfg(epochs=40, lr=5e-3))
        assert metrics.per_epoch[-1].loss_total < metrics.per_epoch[0].loss_total

    def test_loss_decreases_at_full_default_config(self):
        # 100-node shift pair, every TrainConfig field at its default
        pair = DomainPair(source=gen_attribute_shift(0.4, seed=7),
                          target=gen_attribute_shift(1.2, seed=7))
        _, metrics = train_gaa(pair, TrainConfig(seed=0))
        assert metrics.per_epoch[-1].loss_total < metrics.per_epoch[0].loss_total

    def test_target_label_firewall(self):
        pair = small_pair()
        cfg = quick_cfg(epochs=3)
        m1, r1 = train_gaa(pair, cfg)

        shuffled = np.roll(pair.target.labels, 5)
        pair2 = DomainPair(
            source=pair.source,
            target=Graph(adjacency=pair.target.adjacency, features=pair.target.features,
                         labels=shuffled, num_classes=pair.target.num_classes),
        )
        m2, r2 = train_gaa(pair2, cfg)
        assert r1.per_epoch == r2.per_epoch
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert r1.target_accuracy != r2.target_accuracy

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="NOPE")
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0)

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="bogus"):
            TrainConfig.from_dict({"bogus": 1})
        with pytest.raises(ConfigError, match="weights.gamma"):
            TrainConfig.from_dict({"weights": {"gamma": 1.0}})
        cfg = TrainConfig.from_dict({"epochs": 2, "weights": {"alpha": 1.0}})
        assert cfg.epochs == 2 and cfg.weights.alpha == 1.0


class TestEvaluate:
    def test_uniform_predictions_tie_break_to_class_zero(self):
        from gaa.model import init_model, Hyper
        pair = small_pair()
        model = init_model(pair.source.dim, 2, "GCN", 2,
                           Hyper(hidden=4, embed=3), np.random.SeedSequence(0))
        model.Wc.data[...] = 0.0
        model.bc.data[...] = 0.0
        acc = evaluate(model, pair.target)
        assert acc == pytest.approx((pair.target.labels == 0).mean())

    def test_matches_per_node_loop(self):
        from gaa.train import predict
        pair = small_pair(n=20)
        model, _ = train_gaa(pair, quick_cfg(epochs=5))
        probs = predict(model, pair.target)
        hits = sum(int(np.argmax(probs[i]) == pair.target.labels[i]) for i in range(20))
        assert evaluate(model, pair.target) == pytest.approx(hits / 20)

    def test_needs_labels(self):
        pair = small_pair()
        unlabeled = Graph(adjacency=pair.target.adjacency, features=pair.target.features)
        model, _ = train_gaa(pair, quick_cfg(epochs=1))
        from gaa.exceptions import DomainError
        with pytest.raises(DomainError):
            evaluate(model, unlabeled)


class TestRunRepeated:
    def test_single_run_zero_std(self):
        result = run_repeated(small_pair(), quick_cfg(epochs=2), n_runs=1)
        assert result.std_acc == 0.0
        assert len(result.accuracies) == 1

    def test_mean_within_min_max(self):
        result = run_repeated(small_pair(), quick_cfg(epochs=2), n_runs=3)
        assert min(result.accuracies) <= result.mean_acc <= max(result.accuracies)

    def test_seeds_advance_per_run(self):
        result = run_repeated(small_pair(), quick_cfg(epochs=2, seed=10), n_runs=3)
        assert [m.seed for m in result.metrics] == [10, 11, 12]


class TestVariantTable:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_row_matches_training(self, variant, monkeypatch):
        """Each row's channels, fields and loss flags against what train_gaa does."""
        from gaa import train

        spec = VARIANT_SPECS[variant]
        built = []
        original = train.build_views

        def recording(adjacency, features, k):
            built.append((adjacency is not None, features is not None))
            return original(adjacency, features, k)

        monkeypatch.setattr(train, "build_views", recording)
        model, metrics = train_gaa(small_pair(), quick_cfg(variant=variant))
        assert built == [(spec.topo, spec.feat)] * 2  # source, then target
        assert model.parameter_names() == list(spec.fields)
        for e in metrics.per_epoch:
            assert e.loss_A > 0.0 if spec.aligns else e.loss_A == 0.0
            for term in (e.loss_D, e.loss_T):
                assert term > 0.0 if spec.adapts else term == 0.0
            if not spec.adapts:
                assert e.loss_total == e.loss_S


class TestViewBuilding:
    @pytest.mark.parametrize("variant", ["GCN", "GAA3"])
    def test_topology_only_variants_never_build_knn(self, variant, monkeypatch):
        from gaa import featgraph

        def forbidden(*args, **kwargs):
            raise AssertionError("knn_graph called")

        monkeypatch.setattr(featgraph, "knn_graph", forbidden)
        train_gaa(small_pair(), quick_cfg(variant=variant, epochs=1))

    def test_knn_gcn_never_normalizes_topology(self, monkeypatch):
        from gaa import featgraph

        pair = small_pair()
        topologies = (pair.source.adjacency, pair.target.adjacency)
        normalized = []
        original = featgraph.sym_normalize

        def recording(adj, *args, **kwargs):
            normalized.append(any(adj is a for a in topologies))
            return original(adj, *args, **kwargs)

        monkeypatch.setattr(featgraph, "sym_normalize", recording)
        train_gaa(pair, quick_cfg(variant="KNN_GCN", epochs=1))
        assert normalized == [False, False]  # the two domains' kNN graphs

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epoch_multiplies_by_each_view_once_per_encode(self, variant, monkeypatch):
        """Inside an epoch's tape, an n x n view enters one matmul per encode,
        and its right operand has embed columns: ÂX is built before training
        and layer 2 is Â(HW2), not (ÂH)W2."""
        pair, cfg = small_pair(), quick_cfg(variant=variant, epochs=1)
        n, spec = pair.source.n, VARIANT_SPECS[variant]
        right_cols = []
        original = ad.matmul

        def recording(a, b):
            if ad.active_tape() is not None and a.shape == (n, n):
                right_cols.append(b.cols)
            return original(a, b)

        monkeypatch.setattr(ad, "matmul", recording)
        train_gaa(pair, cfg)
        encodes = (spec.topo + spec.feat) * (2 if spec.adapts else 1)
        assert right_cols == [cfg.embed] * encodes  # GAA: 4

    @pytest.mark.parametrize("variant", ["GAA", "GAA1", "GAA2", "GAA3", "GCN", "KNN_GCN"])
    def test_training_accuracy_equals_rebuilt_evaluation(self, variant):
        pair = small_pair(n=20)
        model, metrics = train_gaa(pair, quick_cfg(variant=variant, epochs=4))
        assert metrics.target_accuracy == evaluate(model, pair.target)
