"""Adam optimizer, the full-batch training loop, ablations, and evaluation.

One master seed drives everything through spawned substreams (parameter
init, dropout), so two runs with equal config are bit-identical and ablation
variants differ only where their structure differs. Target labels never
enter this module's loss path; they are read by ``evaluate`` alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from .exceptions import (
    ConfigError,
    DomainError,
    GaaError,
    NumericError,
    check_field_types,
    field_types,
)
from .featgraph import ViewMatrices, build_views
from .graphs import DomainPair, EpochLosses, Graph, RunMetrics
from .model import (
    VARIANT_SPECS,
    VARIANTS,
    GaaModel,
    Hyper,
    attention_embed,
    classify,
    cross_view_scores,
    domain_discriminate,
    encode,
    init_model,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr: float = 3e-4
    weight_decay: float = 1e-4
    dropout: float = Hyper.dropout
    k: int = 3
    weights: L.LossWeights = field(default_factory=L.LossWeights)
    grl_lambda: float = Hyper.grl_lambda
    seed: int = 0
    variant: str = VARIANTS[0]  # the full model
    hidden: int = Hyper.hidden
    embed: int = Hyper.embed
    relu_second_layer: bool = Hyper.relu_second_layer

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


def adam_step(params, grads, state: AdamState, lr: float, weight_decay: float = 0.0):
    """Bias-corrected Adam with L2-style decay folded into the gradient.

    ``grads`` maps a parameter to its gradient, as ``autodiff.backward``
    returns it; a parameter it lacks has zero gradient and still decays.
    """
    if len(params) != len(state.m):
        raise DomainError("optimizer state does not match parameter list")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for p, m, v in zip(params, state.m, state.v):
        g = grads.get(p, 0.0) + weight_decay * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


def _epoch_losses(model: GaaModel, views_s: ViewMatrices, views_t: ViewMatrices, labels_s,
                  w: L.LossWeights, rng: np.random.Generator | None):
    """Run the branches the variant's row names straight into its losses,
    the encoders under dropout from ``rng`` unless it is None; returns
    (total, L_S, L_A, L_D, L_T). They run in a fixed order (encoders,
    source first; attention pools; classifier; domain head; losses), which
    fixes the tape and so the order ``backward`` sums gradients in."""
    spec, hy, p = model.spec, model.hyper, model.params
    zero = ad.constant([[0.0]])
    z_s = encode(model, views_s, rng)
    if not spec.adapts:
        l_s = L.source_ce(classify(z_s[0], p["Wc"], p["bc"]), labels_s)
        return l_s, l_s, zero, zero, zero
    z_t = encode(model, views_t, rng)
    if spec.attends:
        # L_A is the only reader of the attention: the classifier and the
        # domain head read the GCN embedding, so each call returns just the
        # pooled 1 x e row that L_A compares, never the n x e embedding
        def pooled(z, z_f):
            s = (cross_view_scores(z_f, z) if spec.refines
                 else ad.constant(np.ones((z.rows, 1))))
            return [attention_embed(h, p["Wq"], p["Wk"], p["Wv"], s) for h in (z, z_f)]
        (att_s, att_s_f), (att_t, att_t_f) = pooled(*z_s), pooled(*z_t)
    probs_s, probs_t = (classify(z[0], p["Wc"], p["bc"]) for z in (z_s, z_t))
    dom_s, dom_t = (domain_discriminate(z[0], hy.grl_lambda, p["Wd"], p["bd"])
                    for z in (z_s, z_t))
    l_s = L.source_ce(probs_s, labels_s)
    l_d = L.domain_bce(dom_s, dom_t)
    l_t = L.target_entropy(probs_t)
    l_a = L.alignment_loss(att_s, att_t, att_s_f, att_t_f) if spec.attends else zero
    return L.total_loss(l_a, l_s, l_d, l_t, w), l_s, l_a, l_d, l_t


@dataclass(frozen=True)
class TrainInputs:
    """The views of both domains that a variant trains on, each with its ÂX,
    and the k they were built for. None of it depends on a parameter (SGC,
    arXiv:1902.07153), so every run on those channels and k shares it."""

    k: int
    views_s: ViewMatrices
    views_t: ViewMatrices

    @property
    def key(self) -> tuple:
        """The ``_inputs_key`` of the configs these inputs train."""
        topo, feat = (view is not None for view in self.views_s)
        return topo, feat, self.k if feat else None


def _inputs_key(cfg: TrainConfig) -> tuple:
    """What ``build_inputs`` reads of ``cfg``: the channels, and k where the
    variant reads it. Configs with equal keys train on the same inputs."""
    spec = VARIANT_SPECS[cfg.variant]
    return spec.topo, spec.feat, cfg.k if spec.feat else None


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
    if inputs is None:
        inputs = build_inputs(pair, cfg)
    if inputs.key != _inputs_key(cfg):
        topo, feat, _ = inputs.key
        raise DomainError(f"inputs built for topo={topo}, feat={feat}, "
                          f"k={inputs.k} cannot train {cfg.variant} at k={cfg.k}")
    master = np.random.SeedSequence(cfg.seed)
    init_seq, dropout_seq = master.spawn(2)
    model = init_model(pair.source.dim, pair.num_classes, cfg.variant, cfg.k,
                       cfg.hyper(), init_seq)
    params = model.parameters()
    state = AdamState(params)

    dropout_rng = np.random.default_rng(dropout_seq)
    metrics = RunMetrics(seed=cfg.seed, epochs=cfg.epochs, config_echo=asdict(cfg))
    try:  # an overflow stops the run at its op, not as warnings and a later error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(cfg.epochs):
                with ad.Tape() as tape:
                    terms = _epoch_losses(model, inputs.views_s, inputs.views_t,
                                          pair.source.labels, cfg.weights, dropout_rng)
                    values = [t.item() for t in terms]
                    if not all(math.isfinite(v) for v in values):
                        raise NumericError(f"non-finite loss at epoch {epoch}: {values}")
                    grads = ad.backward(terms[0], tape)
                adam_step(params, grads, state, cfg.lr, cfg.weight_decay)
                metrics.per_epoch.append(EpochLosses(
                    epoch=epoch, loss_total=values[0], loss_S=values[1],
                    loss_A=values[2], loss_D=values[3], loss_T=values[4],
                ))
    except FloatingPointError as exc:
        raise NumericError(f"epoch {epoch}: {exc}") from exc

    if pair.target.labels is not None:
        metrics.target_accuracy = _accuracy(model, inputs.views_t, pair.target)
    return model, metrics


def _views_for(model: GaaModel, graph: Graph) -> ViewMatrices:
    """The one view that classification reads, the other None: the topology,
    or the feature view for the variant without topology."""
    topo = model.spec.topo
    return build_views(graph.edges if topo else None, graph.features,
                       None if topo else model.k)


def _predict(model: GaaModel, views: ViewMatrices) -> np.ndarray:
    """Class probabilities from the first view of ``views``, the one the
    classifier reads, without dropout; the other is never encoded."""
    if views.topo is not None:
        views = views._replace(feat=None)
    [z] = encode(model, views, None)
    return classify(z, model.params["Wc"], model.params["bc"]).data


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
    first_model: GaaModel | None  # the model trained with cfg.seed

    @classmethod
    def of_runs(cls, metrics: list[RunMetrics],
                first_model: GaaModel | None = None) -> "RepeatedResult":
        """The mean and sample std (0 for one run) of the accuracies of
        ``metrics``, taken in the order given: seed order."""
        accs = [m.target_accuracy for m in metrics]
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        return cls(mean_acc=float(np.mean(accs)), std_acc=std, accuracies=accs,
                   metrics=metrics, first_model=first_model)


_inherited = None  # (pair, inputs) that processes forked by run_tasks start from


def _train_share(share: list[TrainConfig]) -> tuple[list[RunMetrics], GaaModel]:
    """Train each config of ``share`` in order, on the pair and inputs in
    ``_inherited``, which it takes; returns their metrics and the first
    model. It builds inputs where a config reads others than the last, so at
    most one ``TrainInputs`` is alive in the process."""
    global _inherited
    pair, inputs = _inherited
    _inherited = (pair, None)
    done, first_model = [], None
    for cfg in share:
        if inputs is None or inputs.key != _inputs_key(cfg):
            inputs = None  # the last views go before the next are built
            inputs = build_inputs(pair, cfg)
        model, metrics = train_gaa(pair, cfg, inputs)
        if not done:
            first_model = model
        done.append(metrics)
    return done, first_model


def _worker(share: list[TrainConfig], conn):
    """A forked worker: send the metrics of ``share``, or what stopped it."""
    try:
        result = _train_share(share)[0]
    except BaseException as exc:
        result = exc
    conn.send(result)


def run_tasks(pair: DomainPair,
              tasks: list[TrainConfig]) -> tuple[list[RunMetrics], GaaModel]:
    """Train on ``pair`` once per config of ``tasks``; returns each one's
    metrics, in task order, and the model trained with ``tasks[0]``.

    Tasks that read the same inputs run next to each other, in the order
    those inputs first appear, and that order is cut into contiguous shares,
    ``worker_count(len(tasks))`` of them (one where there is no ``os.fork``).
    This process builds the first task's inputs, then forks one worker per
    further share, which inherits the pair, those inputs and the imports,
    and trains the first share itself. Each process builds an input when its
    share first reaches it. While workers are up, every process attends on
    one thread; ``GAA_THREADS`` is restored afterwards. An error in any
    process, or a Ctrl-C, which only this process receives, is raised here
    once every worker is stopped. A run's bytes depend on its config alone,
    not on the process that trains it.
    """
    global _inherited
    groups = {}
    for i, cfg in enumerate(tasks):
        groups.setdefault(_inputs_key(cfg), []).append(i)
    order = [i for group in groups.values() for i in group]
    processes = ad.worker_count(len(tasks)) if hasattr(os, "fork") else 1
    shares = [[tasks[i] for i in part] for part in np.array_split(order, processes)]
    threads = os.environ.get("GAA_THREADS")
    _inherited = (pair, build_inputs(pair, shares[0][0]))
    workers = []  # (process, the read end of its pipe)
    try:
        if len(shares) > 1:
            import signal
            from multiprocessing import get_context

            fork = get_context("fork")
            os.environ["GAA_THREADS"] = "1"  # the budget is spent on processes
            # workers inherit SIGINT blocked and keep it so: Ctrl-C reaches the
            # whole process group, and only this process acts on it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                for share in shares[1:]:
                    receive, send = fork.Pipe(duplex=False)
                    worker = fork.Process(target=_worker, args=(share, send))
                    worker.start()
                    send.close()
                    workers.append((worker, receive))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done, first_model = _train_share(shares[0])
        for _, receive in workers:
            try:
                result = receive.recv()
            except EOFError:
                raise GaaError("a worker process stopped before it sent its results")
            if isinstance(result, BaseException):
                raise result
            done += result
    finally:
        _inherited = None
        if threads is None:
            os.environ.pop("GAA_THREADS", None)
        else:
            os.environ["GAA_THREADS"] = threads
        for worker, receive in workers:  # stops a worker still training after a failure
            receive.close()
            worker.kill()
            worker.join()
    by_task = dict(zip(order, done))
    return [by_task[i] for i in range(len(tasks))], first_model


def run_repeated(pair: DomainPair, cfg: TrainConfig, n_runs: int = 5) -> RepeatedResult:
    """Train with seeds cfg.seed .. cfg.seed + n_runs - 1, as ``run_tasks``
    does, on the one ``TrainInputs`` they all read."""
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    if pair.target.labels is None:
        raise DomainError("run_repeated needs a labeled target graph")
    metrics, first_model = run_tasks(
        pair, [replace(cfg, seed=cfg.seed + offset) for offset in range(n_runs)])
    return RepeatedResult.of_runs(metrics, first_model)
