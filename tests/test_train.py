import collections
import functools
from dataclasses import asdict, replace

import numpy as np
import pytest

from gaa import autodiff as ad
from gaa.exceptions import ConfigError, DomainError
from gaa.graphs import DomainPair, Graph, gen_attribute_shift, save_metrics
from gaa.losses import LossWeights
from gaa.model import VARIANT_SPECS, VARIANTS, save_model
from gaa.train import (
    AdamState,
    TrainConfig,
    adam_step,
    build_inputs,
    evaluate,
    run_repeated,
    run_tasks,
    train_gaa,
)

from helpers import EXPECTED_PARAMS, dense_adjacency, edges_of_dense, predict


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
        state = AdamState([w])
        adam_step([w], {w: np.array([[2.0]])}, state, lr=0.1)  # gradient of w^2 at w=1
        assert w.data[0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_constant_gradient_approaches_lr_sized_steps(self):
        w = ad.parameter(np.array([[0.0]]))
        state = AdamState([w])
        prev = 0.0
        for _ in range(200):
            adam_step([w], {w: np.array([[3.0]])}, state, lr=0.01)
        step = prev - w.data[0, 0]
        assert w.data[0, 0] < 0
        # late steps have magnitude ~ lr regardless of gradient scale
        before = w.data[0, 0]
        adam_step([w], {w: np.array([[3.0]])}, state, lr=0.01)
        assert abs(before - w.data[0, 0]) == pytest.approx(0.01, rel=1e-3)

    def test_zero_gradient_zero_decay_fixed_point(self):
        w = ad.parameter(np.array([[1.5, -2.0]]))
        state = AdamState([w])
        for _ in range(5):
            adam_step([w], {}, state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(w.data, [[1.5, -2.0]])

    def test_lr_zero_never_changes_parameters(self):
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.normal(size=(3, 3)))
        before = w.data.copy()
        state = AdamState([w])
        for _ in range(3):
            adam_step([w], {w: rng.normal(size=(3, 3))}, state, lr=0.0, weight_decay=0.01)
        np.testing.assert_array_equal(w.data, before)

    def test_weight_decay_pulls_toward_zero(self):
        w = ad.parameter(np.array([[4.0]]))
        state = AdamState([w])
        adam_step([w], {}, state, lr=0.1, weight_decay=0.1)  # no gradient, decay alone
        assert w.data[0, 0] < 4.0

    def test_step_counter_increments_once(self):
        w = ad.parameter(np.array([[1.0]]))
        state = AdamState([w])
        for expect in (1, 2, 3):
            adam_step([w], {}, state, lr=0.1)
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

    def test_all_gaa_parameters_receive_gradients(self):
        # every parameter is touched by the loss graph when all weights are on
        pair = small_pair()
        cfg = quick_cfg(epochs=1, dropout=0.0,
                        weights=LossWeights(alpha=1.0, beta=1.0, tau=1.0))
        from gaa.featgraph import build_views
        from gaa.model import init_model
        from gaa.train import _epoch_losses

        model = init_model(pair.source.dim, pair.num_classes, "GAA", cfg.k,
                           cfg.hyper(), np.random.SeedSequence(0))
        views_s = build_views(pair.source.edges, pair.source.features, cfg.k)
        views_t = build_views(pair.target.edges, pair.target.features, cfg.k)
        with ad.Tape() as tape:
            total, *_ = _epoch_losses(model, views_s, views_t, pair.source.labels, cfg.weights,
                                      None)
            grads = ad.backward(total, tape)
        for name, p in model.params.items():
            assert p in grads, name
            if not name.startswith("b"):
                assert np.abs(grads[p]).sum() > 0, f"dead parameter {name}"

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
            target=Graph(edges=pair.target.edges, features=pair.target.features, labels=shuffled),
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
        model.params["Wc"].data[...] = 0.0
        model.params["bc"].data[...] = 0.0
        acc = evaluate(model, pair.target)
        assert acc == pytest.approx((pair.target.labels == 0).mean())

    def test_matches_per_node_loop(self):
        pair = small_pair(n=20)
        model, _ = train_gaa(pair, quick_cfg(epochs=5))
        probs = predict(model, pair.target)
        hits = sum(int(np.argmax(probs[i]) == pair.target.labels[i]) for i in range(20))
        assert evaluate(model, pair.target) == pytest.approx(hits / 20)

    def test_needs_labels(self):
        pair = small_pair()
        unlabeled = Graph(edges=pair.target.edges, features=pair.target.features)
        model, _ = train_gaa(pair, quick_cfg(epochs=1))
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

    @pytest.mark.parametrize("variant", ["GAA", "KNN_GCN"])
    def test_views_built_once_for_all_seeds(self, variant, monkeypatch):
        """Three seeds build each domain's views once, and train exactly as
        three separate runs do, bit for bit."""
        from gaa import train

        pair, cfg = small_pair(), quick_cfg(variant=variant, seed=4)
        alone = [train_gaa(pair, replace(cfg, seed=seed)) for seed in (4, 5, 6)]
        built = []
        original = train.build_views

        def recording(edges, features, k):
            built.append((edges, features, k))
            return original(edges, features, k)

        monkeypatch.setattr(train, "build_views", recording)
        result = run_repeated(pair, cfg, n_runs=3)
        spec = VARIANT_SPECS[variant]
        assert len(built) == 2
        for (edges, features, k), graph in zip(built, (pair.source, pair.target)):
            assert edges is (graph.edges if spec.topo else None)
            assert features is graph.features
            assert k == (cfg.k if spec.feat else None)
        for metrics, (_, want) in zip(result.metrics, alone):
            assert asdict(metrics) == asdict(want)
        for got, want in zip(result.first_model.parameters(), alone[0][0].parameters()):
            assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("change", [{"k": 3}, {"variant": "GCN"}, {"variant": "KNN_GCN"}])
    def test_inputs_for_another_k_or_variant_are_rejected(self, change):
        pair, cfg = small_pair(), quick_cfg(variant="GAA", k=2)
        inputs = build_inputs(pair, cfg)
        with pytest.raises(DomainError, match="cannot train"):
            train_gaa(pair, replace(cfg, **change), inputs)

    def test_inputs_serve_every_variant_with_the_same_channels(self):
        # GAA1 reads both channels as GAA does; GAA2, GAA3 and GCN read the topology
        pair = small_pair()
        for built_for, trained in (("GAA", "GAA1"), ("GCN", "GAA3")):
            cfg = quick_cfg(variant=trained)
            _, shared = train_gaa(pair, cfg, build_inputs(pair, replace(cfg, variant=built_for)))
            _, alone = train_gaa(pair, cfg)
            assert shared.per_epoch == alone.per_epoch


class TestRunTasks:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_tasks_group_by_inputs_and_return_in_task_order(self, threads, monkeypatch):
        """Tasks reading k = 2, 3, 2, 3 train exactly as each trains alone,
        come back in task order with the first task's model, and each
        process builds each k's views once: here k=2 then k=3 on one
        process; on two, k=2 before the fork, and k=3 in the worker alone."""
        from gaa import train

        pair, cfg = small_pair(), quick_cfg(variant="GAA")
        tasks = [replace(cfg, k=k, seed=seed) for seed, k in ((0, 2), (0, 3), (1, 2), (1, 3))]
        alone = [train_gaa(pair, task) for task in tasks]
        built = []
        original = train.build_views

        def recording(edges, features, k):
            built.append(k)
            return original(edges, features, k)

        monkeypatch.setattr(train, "build_views", recording)
        monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
        monkeypatch.setenv("GAA_THREADS", threads)
        metrics, first_model = run_tasks(pair, tasks)
        assert [asdict(m) for m in metrics] == [asdict(m) for _, m in alone]
        assert built == ([2, 2, 3, 3] if threads == "1" else [2, 2])
        for got, want in zip(first_model.parameters(), alone[0][0].parameters()):
            assert got.data.tobytes() == want.data.tobytes()


class TestVariantTable:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_row_matches_training(self, variant, monkeypatch):
        """Each row's channels, parameters and loss flags against what train_gaa does."""
        from gaa import train

        spec = VARIANT_SPECS[variant]
        built = []
        original = train.build_views

        def recording(edges, features, k):
            built.append((edges is not None, k is not None))
            return original(edges, features, k)

        monkeypatch.setattr(train, "build_views", recording)
        model, metrics = train_gaa(small_pair(), quick_cfg(variant=variant))
        assert built == [(spec.topo, spec.feat)] * 2  # source, then target
        assert list(model.params) == EXPECTED_PARAMS[variant]
        for e in metrics.per_epoch:
            assert e.loss_A > 0.0 if spec.attends else e.loss_A == 0.0
            for term in (e.loss_D, e.loss_T):
                assert term > 0.0 if spec.adapts else term == 0.0
            if not spec.adapts:
                assert e.loss_total == e.loss_S


# One training epoch's tape records by op kind. The shared part is one
# source GCN encoder, the classifier and L_S; adapting adds the target
# encoder, the domain head, L_D, L_T and the total; attending adds the
# feature encoders, four pooled attention rows and L_A; refining adds the
# cross-view scores that weight the pools.
_GCN_EPOCH = {"gcn": 1, "matmul": 1, "add": 1, "row_softmax": 1, "xlogy_sum": 1, "scale": 1}
_ADAPT_EPOCH = {"gcn": 2, "matmul": 4, "add": 8, "row_softmax": 2, "xlogy_sum": 4, "scale": 6,
                "grad_reverse": 2, "sigmoid": 2, "sub": 1}
_ATTEND_EPOCH = {**_ADAPT_EPOCH, "gcn": 4, "add": 9, "attention": 4, "sq_l2": 2, "sub": 3}
EPOCH_RECORDS = {
    "GAA": {**_ATTEND_EPOCH, "row_cosine": 2, "add": 11, "scale": 8},
    "GAA1": _ATTEND_EPOCH,
    "GAA2": _ADAPT_EPOCH,
    "GAA3": _ADAPT_EPOCH,
    "GCN": _GCN_EPOCH,
    "KNN_GCN": _GCN_EPOCH,
}
EPOCH_TOTALS = {"GAA": 48, "GAA1": 42, "GAA2": 31, "GAA3": 31, "GCN": 6, "KNN_GCN": 6}

# The same records in tape order, which is the order backward adds the
# gradients of a shared parameter in, and so fixes the trained bytes:
# encoders (source, then target), the attention pools (source, then
# target; each refined pool scores its nodes first), the classifier on
# both domains, the domain head on both, then L_S, L_D, L_T, L_A, total.
_CLASSIFY = ["matmul", "add", "row_softmax"]
_DOMAIN_HEAD = ["grad_reverse", "matmul", "add", "sigmoid"]
_L_S = ["xlogy_sum", "scale"]
_L_D_L_T = ["xlogy_sum", "sub", "xlogy_sum", "add", "scale", "xlogy_sum", "scale"]
_L_A = ["sub", "sq_l2", "sub", "sq_l2", "add"]
_TOTAL = ["scale", "add", "scale", "add", "scale", "add"]
_SCORES = ["row_cosine", "add", "scale"]


def _adapting_epoch(encoders, pools, l_a):
    return (["gcn"] * encoders + pools + _CLASSIFY * 2 + _DOMAIN_HEAD * 2 + _L_S + _L_D_L_T
            + l_a + _TOTAL)


EPOCH_SEQUENCES = {
    "GAA": _adapting_epoch(4, (_SCORES + ["attention"] * 2) * 2, _L_A),
    "GAA1": _adapting_epoch(4, ["attention"] * 4, _L_A),
    "GAA2": _adapting_epoch(2, [], []),
    "GAA3": _adapting_epoch(2, [], []),
    "GCN": ["gcn"] + _CLASSIFY + _L_S,
    "KNN_GCN": ["gcn"] + _CLASSIFY + _L_S,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_epoch_emits_a_fixed_count_of_each_op_kind(variant, monkeypatch):
    """The op budget of a training epoch, read off the tape ``train_gaa``
    hands to ``backward``, and the order of its records."""
    kinds = []
    original = ad.backward

    def counting(loss, tape):
        kinds.extend(rec.kind for rec in tape.records)
        return original(loss, tape)

    monkeypatch.setattr(ad, "backward", counting)
    train_gaa(small_pair(), quick_cfg(variant=variant, epochs=1))
    assert dict(collections.Counter(kinds)) == EPOCH_RECORDS[variant]
    assert len(kinds) == EPOCH_TOTALS[variant]
    assert kinds == EPOCH_SEQUENCES[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_scoring_accuracy_encodes_only_the_classifier_view(variant, monkeypatch):
    """``evaluate`` and ``train_gaa``'s final accuracy each run one GCN
    encoder, outside any tape: the channel the classifier reads, never the
    other one too, whose output no prediction would read."""
    pair = small_pair()
    untaped = []  # the W1 of each encoder run outside a tape
    gcn = ad.gcn

    def recording(a, ax, w1, *args):
        if ad.active_tape() is None:
            untaped.append(w1)
        return gcn(a, ax, w1, *args)

    monkeypatch.setattr(ad, "gcn", recording)
    model, _ = train_gaa(pair, quick_cfg(variant=variant, epochs=1))
    assert len(untaped) == 1
    evaluate(model, pair.target)
    classifier_w1 = model.params["W1_topo" if VARIANT_SPECS[variant].topo else "W1_feat"]
    assert len(untaped) == 2 and all(w1 is classifier_w1 for w1 in untaped)


class TestViewBuilding:
    @pytest.mark.parametrize("variant", ["GCN", "GAA3"])
    def test_topology_only_variants_never_build_knn(self, variant, monkeypatch):
        from gaa import featgraph

        def forbidden(*args, **kwargs):
            raise AssertionError("knn_edges called")

        monkeypatch.setattr(featgraph, "knn_edges", forbidden)
        train_gaa(small_pair(), quick_cfg(variant=variant, epochs=1))

    def test_knn_gcn_never_normalizes_topology(self, monkeypatch):
        from gaa import featgraph

        pair = small_pair()
        topologies = [dense_adjacency(g.edges) for g in (pair.source, pair.target)]
        normalized = []
        original = featgraph.sym_normalize

        def recording(edges, *args, **kwargs):
            normalized.append(any(np.array_equal(dense_adjacency(edges), a) for a in topologies))
            return original(edges, *args, **kwargs)

        monkeypatch.setattr(featgraph, "sym_normalize", recording)
        train_gaa(pair, quick_cfg(variant="KNN_GCN", epochs=1))
        assert normalized == [False, False]  # the two domains' kNN graphs

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epoch_multiplies_by_each_view_once_per_encode(self, variant, monkeypatch):
        """Inside an epoch's tape, an n x n view enters one gcn record per
        encode and no matmul, and its right operand has embed columns: ÂX is
        built before training and layer 2 is Â(HW2), not (ÂH)W2."""
        pair, cfg = small_pair(), quick_cfg(variant=variant, epochs=1)
        n, spec = pair.source.n, VARIANT_SPECS[variant]
        right_cols, matmul_shapes = [], []
        gcn, matmul = ad.gcn, ad.matmul

        def recording_gcn(a, ax, w1, w2, *args):
            if ad.active_tape() is not None and a.shape == (n, n):
                right_cols.append(w2.cols)
            return gcn(a, ax, w1, w2, *args)

        def recording_matmul(a, b):
            matmul_shapes.append(a.shape)
            return matmul(a, b)

        monkeypatch.setattr(ad, "gcn", recording_gcn)
        monkeypatch.setattr(ad, "matmul", recording_matmul)
        train_gaa(pair, cfg)
        encodes = (spec.topo + spec.feat) * (2 if spec.adapts else 1)
        assert right_cols == [cfg.embed] * encodes  # GAA: 4
        assert (n, n) not in matmul_shapes

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sparse_views_train_as_the_dense_ones(self, variant, monkeypatch):
        from gaa import featgraph

        pair, cfg = small_pair(n=20), quick_cfg(variant=variant, epochs=3)
        _, dense = train_gaa(pair, cfg)
        monkeypatch.setattr(featgraph, "SPARSE_MIN_NODES", 0)
        views = featgraph.build_views(pair.source.edges, pair.source.features, cfg.k)
        assert isinstance(views.topo.norm, featgraph.SparseView)
        assert isinstance(views.feat.norm, featgraph.SparseView)
        model, run = train_gaa(pair, cfg)
        assert run.target_accuracy == dense.target_accuracy == evaluate(model, pair.target)
        for a, b in zip(dense.per_epoch, run.per_epoch):
            for name in ("loss_total", "loss_S", "loss_A", "loss_D", "loss_T"):
                want, got = getattr(a, name), getattr(b, name)
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("variant", ["GAA", "GAA1", "GAA2", "GAA3", "GCN", "KNN_GCN"])
    def test_training_accuracy_equals_rebuilt_evaluation(self, variant):
        pair = small_pair(n=20)
        model, metrics = train_gaa(pair, quick_cfg(variant=variant, epochs=4))
        assert metrics.target_accuracy == evaluate(model, pair.target)


@pytest.mark.parametrize("variant", ["GAA", "GAA1"])
def test_attention_threads_leave_training_bytes_unchanged(variant, tmp_path, monkeypatch):
    """Three attention blocks on one, two or three threads: the same metrics
    and parameters, byte for byte."""
    monkeypatch.setattr(ad, "usable_cpus", lambda: 4)  # so three threads run here too
    n = 2 * ad.ATTENTION_BLOCK + 3
    pair = small_pair(n=n, d=6)
    cfg = quick_cfg(variant=variant, epochs=2, hidden=16, embed=8)
    outputs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("GAA_THREADS", threads)
        model, metrics = train_gaa(pair, cfg)
        out = tmp_path / threads
        out.mkdir()
        save_metrics(metrics, out / "metrics.json")
        save_model(model, out / "model.bin")
        outputs.append([(out / name).read_bytes() for name in ("metrics.json", "model.bin")])
    assert outputs[0] == outputs[1] == outputs[2]


# Node counts on both sides of ATTENTION_BLOCK (128), KNN_BLOCK (256) and
# SPARSE_MIN_NODES (850), so a block-boundary or CSR-assembly bug that the
# fixed-order oracles miss breaks the invariance.
PERMUTED_NODE_COUNTS = [127, 129, 255, 257, 849, 850]
# Relabeling the nodes only reorders sums over nodes; the largest relative
# per-epoch loss difference measured was 6e-15.
PERMUTATION_REL_TOL = 1e-12


@functools.cache
def _pair_and_permuted(n):
    """A continuous-feature pair (so kNN has no index-broken ties), the same
    pair with every node renamed, and the renaming of each domain."""
    pair = DomainPair(source=gen_attribute_shift(0.4, seed=n, n=n, d=6, edge_prob=8.0 / n),
                      target=gen_attribute_shift(1.2, seed=n, n=n, d=6, edge_prob=8.0 / n))
    rng = np.random.default_rng(n)
    perms, graphs = [], []
    for g in (pair.source, pair.target):
        perm = rng.permutation(n)
        adjacency = dense_adjacency(g.edges)[np.ix_(perm, perm)]
        graphs.append(Graph(edges=edges_of_dense(adjacency), features=g.features[perm],
                            labels=g.labels[perm]))
        perms.append(perm)
    return pair, DomainPair(source=graphs[0], target=graphs[1]), perms


@pytest.mark.parametrize("n", PERMUTED_NODE_COUNTS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_training_is_invariant_to_node_order(variant, n):
    pair, permuted, (_, perm_t) = _pair_and_permuted(n)
    cfg = quick_cfg(variant=variant, epochs=3, dropout=0.0, hidden=16, embed=8, k=3)
    model, run = train_gaa(pair, cfg)
    model_p, run_p = train_gaa(permuted, cfg)
    for a, b in zip(run.per_epoch, run_p.per_epoch):
        for name in ("loss_total", "loss_S", "loss_A", "loss_D", "loss_T"):
            want, got = getattr(a, name), getattr(b, name)
            assert abs(got - want) <= PERMUTATION_REL_TOL * abs(want), (name, a.epoch)
    assert run_p.target_accuracy == run.target_accuracy
    probs, probs_p = predict(model, pair.target), predict(model_p, permuted.target)
    np.testing.assert_allclose(probs_p, probs[perm_t], rtol=PERMUTATION_REL_TOL, atol=1e-15)
    np.testing.assert_array_equal(probs_p.argmax(axis=1), probs.argmax(axis=1)[perm_t])
