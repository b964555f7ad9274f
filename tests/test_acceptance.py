"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Training-based criteria
use frozen configurations (calibrated once, deterministic forever); all
tolerances are fixed here and never loosened at runtime.
"""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from gaa import autodiff as ad
from gaa import featgraph, graphs
from gaa.analysis import proposition1_bound
from gaa.cli import run_command
from gaa.featgraph import build_views, knn_edges
from gaa.graphs import DomainPair, Graph, gen_attribute_shift
from gaa.losses import LossWeights, alignment_loss, domain_bce, source_ce, target_entropy
from gaa.model import init_model, Hyper
from gaa.train import TrainConfig, run_repeated, train_gaa, _epoch_losses

from helpers import (
    dense_adjacency,
    edges_of_dense,
    empirical_margin_loss,
    hadamard,
    loop_cosine_matrix,
    loop_domain_bce,
    loop_knn,
    loop_margin_loss,
    loop_pair_bound,
    loop_source_ce,
    loop_target_entropy,
    sparse_view,
    sum_all,
    transpose,
)

FD_H = 1e-5
FD_REL = 1e-4
FD_ABS_FLOOR = 1e-8
FD_ABS_TOL = 1e-7

# frozen training protocol for the trend/transfer criteria (calibrated once)
PROTOCOL = dict(epochs=100, lr=3e-3, dropout=0.3, k=3, grl_lambda=1.0,
                weights=LossWeights(alpha=0.5, beta=0.01, tau=0.1))
TRANSFER_PAIR_SEED = 5     # hard geometry: the baseline has real headroom
TREND_PAIR_SEED = 7


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _grad_mismatch(analytic, numeric):
    # relative check for meaningful entries; the 1e-7 absolute bar covers the
    # finite-difference noise floor (any real sign/factor bug clears both)
    if abs(analytic) < FD_ABS_FLOOR:
        return abs(numeric - analytic) > FD_ABS_TOL
    rel = abs(numeric - analytic) / max(abs(analytic), abs(numeric))
    return rel > FD_REL and abs(numeric - analytic) > FD_ABS_TOL


def _fd_scan(value_fn, leaf, analytic):
    """Yield mismatches between central differences of value_fn and analytic."""
    flat = leaf.data.reshape(-1)
    grads = analytic.reshape(-1)
    bad = []
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + FD_H
        up = value_fn()
        flat[idx] = orig - FD_H
        down = value_fn()
        flat[idx] = orig
        numeric = (up - down) / (2 * FD_H)
        if _grad_mismatch(grads[idx], numeric):
            bad.append((idx, grads[idx], numeric))
    return bad


def test_criterion_1_gradient_correctness():
    """Every differentiable op plus the fully composed loss graph."""
    failures = []

    def check_op(name, seed, build, leaf_shapes, positive=False):
        rng = np.random.default_rng(seed)
        leaves = []
        for shape in leaf_shapes:
            data = rng.uniform(0.05, 2.0, shape) if positive else rng.uniform(-2.0, 2.0, shape)
            leaves.append(ad.parameter(data))
        with ad.Tape() as tape:
            grads = ad.backward(build(leaves), tape)
        analytic = [grads[leaf] for leaf in leaves]

        for leaf, grads in zip(leaves, analytic):
            def value():
                with ad.Tape():
                    return build(leaves).item()
            bad = _fd_scan(value, leaf, grads)
            if bad:
                failures.append((name, seed, bad[:2]))

    n_instances = 20
    for i in range(n_instances):
        rng = np.random.default_rng(1000 + i)
        r, c = rng.integers(2, 9), rng.integers(2, 7)
        k_inner = int(rng.integers(2, 7))
        w_row = ad.constant(rng.uniform(-1, 1, (1, c)))
        w_full = ad.constant(rng.uniform(-1, 1, (r, c)))

        check_op("matmul", i, lambda L: ad.sq_l2(ad.matmul(L[0], L[1])),
                 [(r, k_inner), (k_inner, c)])
        # a constant symmetric view, sparse on odd instances
        view = rng.uniform(-1, 1, (r, r)) * (rng.random((r, r)) < 0.5)
        view = view + view.T
        view = sparse_view(view) if i % 2 else view
        # one GCN encoder on that view, with and without the second relu;
        # dropout is on (its rng rebuilt for every call) where i % 4 < 2, so
        # both view kinds are checked with dropout and without
        ax, hidden = rng.uniform(-1, 1, (r, k_inner)), int(rng.integers(2, 7))
        for relu_second in (False, True):
            def encode(L, relu_second=relu_second):
                z = ad.gcn(view, ax, L[0], L[1], 0.3,
                           np.random.default_rng(77 + i) if i % 4 < 2 else None)
                return ad.sq_l2(ad.relu(z) if relu_second else z)
            check_op("gcn", i, encode, [(k_inner, hidden), (hidden, c)])
        check_op("transpose", i, lambda L: ad.sq_l2(transpose(L[0])), [(r, c)])
        check_op("add", i, lambda L: ad.sq_l2(ad.add(L[0], L[1])), [(r, c), (1, c)])
        check_op("sub", i, lambda L: ad.sq_l2(ad.sub(L[0], L[1])), [(r, c), (r, 1)])
        check_op("hadamard", i, lambda L: ad.sq_l2(hadamard(L[0], L[1])),
                 [(r, c), (r, c)])
        check_op("scale", i, lambda L: ad.sq_l2(ad.scale(L[0], 1.7)), [(r, c)])
        check_op("relu", i, lambda L: ad.sq_l2(ad.relu(L[0])), [(r, c)])
        check_op("sigmoid", i, lambda L: ad.sq_l2(ad.sigmoid(L[0])), [(r, c)])
        check_op("row_softmax", i,
                 lambda L: sum_all(hadamard(ad.row_softmax(L[0]), w_full)), [(r, c)])
        check_op("attention", i,
                 lambda L: sum_all(hadamard(ad.attention(*L), w_row)),
                 [(r, c), (c, c), (c, c), (c, c), (r, 1)])
        check_op("sum", i, lambda L: ad.scale(sum_all(L[0]), 0.9), [(r, c)])
        check_op("row_cosine", i, lambda L: ad.sq_l2(ad.row_cosine(L[0], L[1])),
                 [(r, c), (r, c)])
        # leaves in [0.05, 2): entries below the 0.4 clamp check the masked branch
        check_op("xlogy_sum", i, lambda L: ad.xlogy_sum(L[0], L[1], 0.4),
                 [(r, c), (r, c)], positive=True)
        check_op("xlogy_sum", i, lambda L: ad.xlogy_sum(L[0], L[0], 0.4),
                 [(r, c)], positive=True)
        check_op("sq_l2", i, lambda L: ad.scale(ad.sq_l2(L[0]), 0.5), [(r, c)])

    # the composed objective: encoder-side parameters follow the
    # reversal-adjusted objective, head parameters the raw total
    composed_checked = 0
    for i in range(n_instances):
        rng = np.random.default_rng(2000 + i)
        n_s, n_t = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        d = int(rng.integers(2, 7))
        pair = DomainPair(
            source=gen_attribute_shift(0.5, seed=3000 + i, n=n_s, d=d, edge_prob=0.5),
            target=gen_attribute_shift(1.0, seed=4000 + i, n=n_t, d=d, edge_prob=0.5),
        )
        hyper = Hyper(hidden=5, embed=3, dropout=0.3 if i % 2 == 0 else 0.0,
                      grl_lambda=0.5 if i % 2 == 0 else 1.0)
        w = LossWeights(alpha=0.7, beta=0.4, tau=0.2)
        model = init_model(d, 2, "GAA", 2, hyper, np.random.SeedSequence(5000 + i))
        views_s = build_views(pair.source.edges, pair.source.features / 10.0, 2)
        views_t = build_views(pair.target.edges, pair.target.features / 10.0, 2)
        labels = pair.source.labels

        def terms():
            dropout_rng = np.random.default_rng(6000 + i) if hyper.dropout > 0 else None
            total, _, _, l_d, _ = _epoch_losses(model, views_s, views_t, labels, w, dropout_rng)
            return total, l_d

        with ad.Tape() as tape:
            total, l_d = terms()
            grads = ad.backward(total, tape)
        analytic = {name: grads[p] for name, p in model.params.items()}

        def value_total():
            with ad.Tape():
                return terms()[0].item()

        def value_encoder_side():
            with ad.Tape():
                total_t, l_d_t = terms()
                return total_t.item() - (1.0 + hyper.grl_lambda) * w.beta * l_d_t.item()

        for name, leaf in model.params.items():
            fn = value_total if name in ("Wd", "bd") else value_encoder_side
            bad = _fd_scan(fn, leaf, analytic[name])
            if bad:
                failures.append((f"composed/{name}", i, bad[:2]))
        composed_checked += 1

    ok = not failures and composed_checked >= 20
    detail = (f"{n_instances} instances per op + {composed_checked} composed-loss instances, "
              f"h={FD_H}, rel tol {FD_REL}")
    if failures:
        detail += f"; first failures: {failures[:3]}"
    assert report("1 (gradient correctness)", ok, detail)


# Op kinds criterion 1 does not check by central differences, with the
# reason. grad_reverse's backward deliberately is not the derivative of its
# forward; criterion 1's composed, reversal-adjusted check covers it.
UNCHECKED_OPS = {"grad_reverse"}


def test_every_op_kind_has_a_gradient_check():
    """The op kinds any gaa module or the test helpers emit are exactly
    criterion 1's checked kinds plus UNCHECKED_OPS, so no op lands without a
    check and no check outlives its op."""
    sources = [*Path(ad.__file__).parent.glob("*.py"), Path(__file__).parent / "helpers.py"]
    emitted = {kind for path in sources
               for kind in re.findall(r'_emit\("(\w+)"', path.read_text(encoding="utf-8"))}
    checked = set(re.findall(r'check_op\("(\w+)"',
                             inspect.getsource(test_criterion_1_gradient_correctness)))
    assert UNCHECKED_OPS <= emitted
    assert checked == emitted - UNCHECKED_OPS


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(42)
    n_instances = 50
    worst = {}

    def track(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(n_instances):
        n = int(rng.integers(3, 16))
        d = int(rng.integers(2, 7))
        c = int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))

        sim = featgraph.cosine_similarity_matrix(*featgraph._unit_rows(x), 0)  # one block
        track("cosine", np.abs(sim - loop_cosine_matrix(x)).max())

        k = int(rng.integers(1, n - 1))
        track("knn", np.abs(dense_adjacency(knn_edges(x, k)) - loop_knn(sim, k)).max())

        m = int(rng.integers(3, 12))
        adj_s, adj_t = _rand_adj(rng, n), _rand_adj(rng, m)
        gs = Graph(edges=edges_of_dense(adj_s), features=x)
        gt = Graph(edges=edges_of_dense(adj_t), features=rng.normal(size=(m, d)))
        got = proposition1_bound(gs, gt)
        topo, attr = loop_pair_bound(adj_s, gs.features, adj_t, gt.features, m)
        denom = max(1.0, abs(topo), abs(attr))
        track("bound", max(abs(got.topo_term - topo), abs(got.attr_term - attr)) / denom)

        scores = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        gamma = float(rng.uniform(0, 1))
        track("margin", abs(empirical_margin_loss(scores, labels, gamma)
                            - loop_margin_loss(scores, labels, gamma)))

        probs = rng.random((n, c)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        track("source_ce", abs(source_ce(ad.constant(probs), labels).item()
                               - loop_source_ce(probs, labels)))

        p_s = rng.uniform(1e-6, 1 - 1e-6, size=(n, 1))
        p_t = rng.uniform(1e-6, 1 - 1e-6, size=(m, 1))
        track("domain_bce", abs(domain_bce(ad.constant(p_s), ad.constant(p_t)).item()
                                - loop_domain_bce(p_s, p_t)))

        track("entropy", abs(target_entropy(ad.constant(probs)).item()
                             - loop_target_entropy(probs)))

    tolerances = {"cosine": 1e-12, "knn": 0.0, "bound": 1e-9, "margin": 0.0,
                  "source_ce": 1e-12, "domain_bce": 1e-12, "entropy": 1e-12}
    bad = {k: v for k, v in worst.items() if v > tolerances[k]}
    detail = f"{n_instances} instances per op; worst errors " + \
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    assert report("2 (oracle equivalence)", not bad, detail)


def _rand_adj(rng, n):
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.triu(adj, 1)
    return adj + adj.T


def test_criterion_3_attribute_trend():
    stds = [round(0.2 * i, 1) for i in range(1, 11)]
    source = gen_attribute_shift(0.4, seed=TREND_PAIR_SEED)
    bounds, accs = [], []
    for std in stds:
        target = gen_attribute_shift(std, seed=TREND_PAIR_SEED)
        bounds.append(proposition1_bound(source, target).total)
        pair = DomainPair(source=source, target=target)
        cfg = TrainConfig(seed=0, variant="GAA", **PROTOCOL)
        accs.append(run_repeated(pair, cfg, n_runs=5).mean_acc)
    rho_bound = spearmanr(stds, bounds).statistic
    rho_acc = spearmanr(stds, accs).statistic
    ok = rho_bound >= 0.9 and rho_acc <= -0.5
    detail = (f"bound rho={rho_bound:.3f} (need >= 0.9), "
              f"accuracy rho={rho_acc:.3f} (need <= -0.5); "
              f"accs={[round(a, 3) for a in accs]}")
    assert report("3 (attribute trend)", ok, detail)


def test_criterion_4_topology_trend():
    # Pure structure shift on contextual SBMs (n=100, d=10), the family that
    # `gaa generate --kind sbm` writes: the intra-community probability
    # stays at 0.8 while the inter-community probability rises from the
    # source's 0.08 to 0.8, so the class structure fades into an
    # Erdos-Renyi graph. Every graph is drawn from one seed, so source and
    # targets share one feature matrix, the bound's attribute term is the
    # same at every point and only topology moves.
    source, *targets = [graphs._sbm(np.random.default_rng(11), 100, 0.8, q, 10)
                        for q in [0.08, *np.linspace(0.08, 0.8, 10)]]
    topo_terms, attr_terms, accs = [], [], []
    for target in targets:
        bound = proposition1_bound(source, target)
        topo_terms.append(bound.topo_term)
        attr_terms.append(bound.attr_term)
        pair = DomainPair(source=source, target=target)
        cfg = TrainConfig(seed=0, variant="GAA", **PROTOCOL)
        accs.append(run_repeated(pair, cfg, n_runs=5).mean_acc)
    # the premise: the shift is topology only, and it grows along the axis
    assert len(set(attr_terms)) == 1, f"attribute term moves: {attr_terms}"
    assert all(np.diff(topo_terms) > 0), f"topology term not rising: {topo_terms}"
    rho = spearmanr(accs, topo_terms).statistic
    ok = bool(np.isfinite(rho) and rho <= -0.3)
    detail = (f"rho(acc, topo_term)={rho} (need <= -0.3); accs={[round(a, 3) for a in accs]}; "
              f"topo_terms={[round(t, 0) for t in topo_terms]}")
    assert report("4 (topology trend)", ok, detail)


def _transfer_pair():
    return DomainPair(source=gen_attribute_shift(0.4, seed=TRANSFER_PAIR_SEED),
                      target=gen_attribute_shift(1.2, seed=TRANSFER_PAIR_SEED))


def test_criterion_5_transfer_gain():
    pair = _transfer_pair()
    gaa = run_repeated(pair, TrainConfig(seed=0, variant="GAA", **PROTOCOL), 5).mean_acc
    gcn = run_repeated(pair, TrainConfig(seed=0, variant="GCN", **PROTOCOL), 5).mean_acc
    ok = gaa >= gcn + 0.02
    detail = f"GAA={gaa:.3f}, GCN={gcn:.3f}, gap={gaa - gcn:+.3f} (need >= +0.020)"
    assert report("5 (transfer gain)", ok, detail)


def test_criterion_6_ablation_ordering():
    pair = _transfer_pair()
    means = {}
    for variant in ("GAA", "GAA2", "GAA3"):
        means[variant] = run_repeated(
            pair, TrainConfig(seed=0, variant=variant, **PROTOCOL), 5).mean_acc
    tie = 0.005  # ties allowed within half an accuracy point
    ok = (means["GAA"] >= means["GAA2"] - tie) and (means["GAA"] >= means["GAA3"] - tie)
    detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items()) + f" (ties within {tie})"
    assert report("6 (ablation ordering)", ok, detail)


def test_gaa2_trains_exactly_as_gaa3():
    """Without L_A no loss reads the feature channel, so GAA2 is GAA3's row:
    same losses, accuracy and parameter bytes under the same seed."""
    pair = _transfer_pair()
    (model2, run2), (model3, run3) = [
        train_gaa(pair, TrainConfig(seed=0, variant=variant, **PROTOCOL))
        for variant in ("GAA2", "GAA3")]
    assert run2.per_epoch == run3.per_epoch
    assert run2.target_accuracy == run3.target_accuracy
    assert list(model2.params) == list(model3.params) == [
        "W1_topo", "W2_topo", "Wc", "bc", "Wd", "bd"]
    for p2, p3 in zip(model2.parameters(), model3.parameters()):
        assert p2.data.tobytes() == p3.data.tobytes()


def test_criterion_7_cli_determinism(tmp_path):
    pair_dir = tmp_path / "pair"
    assert run_command(["generate", "--kind", "attribute-shift", "--seed", "13",
                        "--n", "40", "--d", "4", "--out", str(pair_dir)]) == 0
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = run_command(["train", "--pair", str(pair_dir), "--out", str(out),
                            "--seed", "3", "--set", "epochs=5", "--set", "hidden=16",
                            "--set", "embed=8", "--set", "k=2"])
        assert code == 0
        outs.append(out)
    same_metrics = (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()
    same_model = (outs[0] / "model.bin").read_bytes() == (outs[1] / "model.bin").read_bytes()
    ok = same_metrics and same_model
    assert report("7 (determinism)", ok,
                  f"metrics identical={same_metrics}, checkpoints identical={same_model}")


def test_criterion_8_target_label_firewall():
    pair = DomainPair(source=gen_attribute_shift(0.4, seed=9, n=30, d=4),
                      target=gen_attribute_shift(1.2, seed=9, n=30, d=4))
    cfg = TrainConfig(seed=2, variant="GAA", epochs=10, lr=3e-3, dropout=0.3, k=2,
                      hidden=16, embed=8, weights=LossWeights(alpha=0.5, beta=0.1, tau=0.1))
    model_a, run_a = train_gaa(pair, cfg)

    shuffled = np.roll(pair.target.labels, 7)
    pair_b = DomainPair(
        source=pair.source,
        target=Graph(edges=pair.target.edges, features=pair.target.features,
                     labels=shuffled, num_classes=2),
    )
    model_b, run_b = train_gaa(pair_b, cfg)

    losses_identical = run_a.per_epoch == run_b.per_epoch
    params_identical = all(
        np.array_equal(pa.data, pb.data)
        for pa, pb in zip(model_a.parameters(), model_b.parameters())
    )
    accuracy_changed = run_a.target_accuracy != run_b.target_accuracy
    ok = losses_identical and params_identical and accuracy_changed
    assert report("8 (target-label firewall)", ok,
                  f"losses identical={losses_identical}, params identical={params_identical}, "
                  f"accuracy {run_a.target_accuracy:.3f} -> {run_b.target_accuracy:.3f}")


def test_criterion_9_end_to_end_on_supplied_files(tmp_path, capsys):
    # files written directly in the documented text formats, as a user would
    pair_dir = tmp_path / "dataset"
    pair_dir.mkdir()
    rng = np.random.default_rng(17)
    n, d = 26, 5
    for dom in ("source", "target"):
        lines = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.2:
                    lines.append(f"{i} {j}")
        (pair_dir / f"{dom}.edges").write_text("# edge list\n" + "\n".join(lines) + "\n")
        feats = rng.normal(size=(n, d)) + (np.arange(n) % 2)[:, None] * 3.0
        (pair_dir / f"{dom}.features.csv").write_text(
            "\n".join(",".join(f"{v:.6f}" for v in row) for row in feats) + "\n")
        (pair_dir / f"{dom}.labels.txt").write_text(
            "\n".join(str(i % 2) for i in range(n)) + "\n")

    out = tmp_path / "run"
    code_train = run_command(["train", "--pair", str(pair_dir), "--out", str(out),
                              "--seed", "1", "--set", "epochs=60", "--set", "hidden=16",
                              "--set", "embed=8", "--set", "k=2", "--set", "lr=0.01"])
    capsys.readouterr()
    code_eval = run_command(["eval", "--checkpoint", str(out / "model.bin"),
                             "--edges", str(pair_dir / "target.edges"),
                             "--features", str(pair_dir / "target.features.csv"),
                             "--labels", str(pair_dir / "target.labels.txt")])
    eval_out = capsys.readouterr().out
    acc = json.loads(eval_out)["accuracy"] if code_eval == 0 else None
    ok = code_train == 0 and code_eval == 0 and acc is not None and 0.0 <= acc <= 1.0
    assert report("9 (end-to-end on supplied files)", ok,
                  f"train exit={code_train}, eval exit={code_eval}, accuracy={acc}")
