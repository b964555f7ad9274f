"""Adam optimizer, the full-batch training loop, ablations, and evaluation.

One master seed drives everything through spawned substreams (parameter
init, dropout), so two runs with equal config are bit-identical and ablation
variants differ only where their structure differs. Target labels never
enter this module's loss path; they are read by ``evaluate`` alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from .exceptions import ConfigError, DomainError, NumericError, check_field_types, field_types
from .featgraph import ViewMatrices, build_views
from .graphs import DomainPair, EpochLosses, Graph, RunMetrics
from .model import (
    VARIANT_SPECS,
    VARIANTS,
    GaaModel,
    Hyper,
    classify,
    forward_all,
    gcn_encode,
    init_model,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr: float = 3e-4
    weight_decay: float = 1e-4
    dropout: float = 0.5
    k: int = 3
    weights: L.LossWeights = field(default_factory=L.LossWeights)
    grl_lambda: float = 1.0
    seed: int = 0
    variant: str = VARIANTS[0]  # the full model
    hidden: int = 128
    embed: int = 16
    relu_second_layer: bool = False

    def __post_init__(self):
        check_field_types(self)
        for name in ("epochs", "k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        self.hyper()  # hidden, embed, dropout and grl_lambda follow the checkpoint's rule

    def hyper(self) -> Hyper:
        return Hyper(hidden=self.hidden, embed=self.embed, dropout=self.dropout,
                     grl_lambda=self.grl_lambda, relu_second_layer=self.relu_second_layer)

    @classmethod
    def from_dict(cls, doc) -> "TrainConfig":
        """The config whose ``asdict`` is ``doc``, defaults filling absent keys."""
        return _from_fields(cls, doc)


def _from_fields(cls, doc, prefix: str = ""):
    """Build dataclass ``cls`` from a document shaped like ``asdict`` of it;
    a nested dataclass field (``weights``) takes a nested document."""
    if not isinstance(doc, dict):
        name = prefix.rstrip(".") or "config"
        raise ConfigError(f"{name} must be an object, got {type(doc).__name__}")
    kinds = field_types(cls)
    unknown = [key for key in doc if key not in kinds]
    if unknown:
        raise ConfigError(f"unknown config key {prefix + str(unknown[0])!r}")
    return cls(**{key: _from_fields(kinds[key], value, f"{prefix}{key}.")
                  if is_dataclass(kinds[key]) else value
                  for key, value in doc.items()})


class AdamState:
    """First/second moments per parameter plus the shared step counter."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params, state: AdamState, lr: float, weight_decay: float = 0.0):
    """Bias-corrected Adam with L2-style decay folded into the gradient.

    Gradients are zeroed after the update.
    """
    if len(params) != len(state.m):
        raise DomainError("optimizer state does not match parameter list")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            raise DomainError("parameter without gradient buffer in adam_step")
        g = p.grad + weight_decay * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.zero_grad()


def _epoch_losses(model: GaaModel, out, labels_s, w: L.LossWeights):
    """Assemble the variant's loss graph; returns (total, L_S, L_A, L_D, L_T)."""
    zero = ad.constant([[0.0]])
    l_s = L.source_ce(out.probs_s, labels_s)
    if not model.spec.adapts:
        return l_s, l_s, zero, zero, zero
    l_d = L.domain_bce(out.dom_s, out.dom_t)
    l_t = L.target_entropy(out.probs_t)
    l_a = (L.alignment_loss(out.att_s, out.att_t, out.att_s_f, out.att_t_f)
           if model.spec.aligns else zero)
    return L.total_loss(l_a, l_s, l_d, l_t, w), l_s, l_a, l_d, l_t


@dataclass(frozen=True)
class TrainInputs:
    """The views of both domains that a variant trains on, each with its ÂX,
    and the k they were built for. None of it depends on a parameter (SGC,
    arXiv:1902.07153), so every run on those channels and k shares it."""

    k: int
    views_s: ViewMatrices
    views_t: ViewMatrices


def build_inputs(pair: DomainPair, cfg: TrainConfig) -> TrainInputs:
    """Every channel of ``cfg.variant`` for both domains, at ``cfg.k``."""
    spec = VARIANT_SPECS[cfg.variant]
    views_s, views_t = (build_views(g.edges if spec.topo else None, g.features,
                                    cfg.k if spec.feat else None)
                        for g in (pair.source, pair.target))
    return TrainInputs(cfg.k, views_s, views_t)


def train_gaa(pair: DomainPair, cfg: TrainConfig,
              inputs: TrainInputs | None = None) -> tuple[GaaModel, RunMetrics]:
    """Full-batch training per the configured variant.

    The views and ÂX come from ``inputs``, built here when not given, and
    serve the final evaluation too; every epoch runs one forward, one
    backward, and one optimizer step.
    """
    start = time.perf_counter()
    spec = VARIANT_SPECS[cfg.variant]
    if inputs is None:
        inputs = build_inputs(pair, cfg)
    topo, feat = (view is not None for view in inputs.views_s)
    if (topo, feat, inputs.k) != (spec.topo, spec.feat, cfg.k):
        raise DomainError(f"inputs built for topo={topo}, feat={feat}, "
                          f"k={inputs.k} cannot train {cfg.variant} at k={cfg.k}")
    master = np.random.SeedSequence(cfg.seed)
    init_seq, dropout_seq = master.spawn(2)
    model = init_model(pair.source.dim, pair.num_classes, cfg.variant, cfg.k,
                       cfg.hyper(), init_seq)
    params = model.parameters()
    state = AdamState(params)
    labels_s = pair.source.labels

    dropout_rng = np.random.default_rng(dropout_seq)
    metrics = RunMetrics(seed=cfg.seed, epochs=cfg.epochs, config_echo=asdict(cfg))
    try:  # an overflow stops the run at its op, not as warnings and a later error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(cfg.epochs):
                with ad.Tape() as tape:
                    out = forward_all(model, inputs.views_s, inputs.views_t, True, dropout_rng)
                    total, l_s, l_a, l_d, l_t = _epoch_losses(model, out, labels_s, cfg.weights)
                    values = [t.item() for t in (total, l_s, l_a, l_d, l_t)]
                    if not all(math.isfinite(v) for v in values):
                        raise NumericError(f"non-finite loss at epoch {epoch}: {values}")
                    ad.backward(total, tape)
                adam_step(params, state, cfg.lr, cfg.weight_decay)
                metrics.per_epoch.append(EpochLosses(
                    epoch=epoch, loss_total=values[0], loss_S=values[1],
                    loss_A=values[2], loss_D=values[3], loss_T=values[4],
                ))
    except FloatingPointError as exc:
        raise NumericError(f"epoch {epoch}: {exc}") from exc

    if pair.target.labels is not None:
        metrics.target_accuracy = _accuracy(model, inputs.views_t, pair.target)
    metrics.wall_seconds = time.perf_counter() - start
    return model, metrics


def _views_for(model: GaaModel, graph: Graph) -> ViewMatrices:
    """The one view that classification reads, the other None: the topology,
    or the feature view for the variant without topology."""
    topo = model.spec.topo
    return build_views(graph.edges if topo else None, graph.features,
                       None if topo else model.k)


def _predict(model: GaaModel, views: ViewMatrices) -> np.ndarray:
    """Class probabilities from the view of ``views`` that classification reads."""
    rng = np.random.default_rng(0)  # never consumed: dropout is off in eval
    if model.spec.topo:
        view, w1, w2 = views.topo, model.W1_topo, model.W2_topo
    else:
        view, w1, w2 = views.feat, model.W1_feat, model.W2_feat
    z = gcn_encode(view, w1, w2, model.hyper.dropout, rng, False, model.hyper.relu_second_layer)
    return classify(z, model.Wc, model.bc).data


def _accuracy(model: GaaModel, views: ViewMatrices, graph: Graph) -> float:
    probs = _predict(model, views)
    return float((probs.argmax(axis=1) == graph.labels).mean())


def evaluate(model: GaaModel, graph: Graph) -> float:
    """Fraction of nodes whose argmax class (ties to the lowest index)
    matches the label."""
    if graph.labels is None:
        raise DomainError("evaluate needs a labeled graph")
    return _accuracy(model, _views_for(model, graph), graph)


@dataclass
class RepeatedResult:
    mean_acc: float
    std_acc: float
    accuracies: list[float]
    metrics: list[RunMetrics]
    first_model: GaaModel  # the model trained with cfg.seed
    inputs: TrainInputs  # the views and ÂX every run trained on


def run_repeated(pair: DomainPair, cfg: TrainConfig, n_runs: int = 5,
                 inputs: TrainInputs | None = None) -> RepeatedResult:
    """Train with seeds cfg.seed .. cfg.seed + n_runs - 1 on one ``inputs``,
    built here when not given; sample std (0 for one run)."""
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    if pair.target.labels is None:
        raise DomainError("run_repeated needs a labeled target graph")
    if inputs is None:
        inputs = build_inputs(pair, cfg)
    accs = []
    all_metrics = []
    for offset in range(n_runs):
        model, metrics = train_gaa(pair, replace(cfg, seed=cfg.seed + offset), inputs)
        if offset == 0:
            first_model = model
        accs.append(metrics.target_accuracy)
        all_metrics.append(metrics)
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if n_runs > 1 else 0.0
    return RepeatedResult(mean_acc=mean, std_acc=std, accuracies=accs, metrics=all_metrics,
                          first_model=first_model, inputs=inputs)
