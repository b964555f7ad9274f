"""The dual-channel network: per-view GCN encoders, attention embeddings,
cross-view refinement, label classifier, and a gradient-reversal domain head.

One parameter set processes both domains; that weight sharing is what makes
the alignment terms meaningful. Each variant is one row of ``VARIANT_SPECS``,
which init, forward, loss assembly, view building and evaluation all read:

  GAA      full model
  GAA1     no cross-view refinement (raw attention embeddings)
  GAA2     no alignment loss; no loss then reads the feature channel, so
           it is GAA3's row
  GAA3     no alignment loss and no feature-graph channel
  GCN      source-only classifier on the topology view
  KNN_GCN  source-only classifier on the feature view
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import CheckpointError, ConfigError, DomainError, ShapeError, check_field_types
from .featgraph import View, ViewMatrices

# checkpoint payload order; also the order parameters are initialized in
FIELD_ORDER = ("W1_topo", "W2_topo", "W1_feat", "W2_feat",
               "Wq", "Wk", "Wv", "Wc", "bc", "Wd", "bd")


@dataclass(frozen=True)
class VariantSpec:
    """What one variant computes.

    ``topo`` and ``feat`` name the channels it encodes; the classifier reads
    the topology embedding when there is one. A variant that adapts encodes
    the target too and adds L_D and L_T; one that attends embeds all four
    encodings with attention, one that refines gates them by cross-view
    agreement, and one that aligns adds L_A. ``fields`` are its parameters.
    """

    topo: bool
    feat: bool
    fields: tuple[str, ...]
    attends: bool = False
    refines: bool = False
    aligns: bool = False
    adapts: bool = False


# Without L_A no loss reads the feature channel or the attention weights
# (the classifier reads the topology embedding), so dropping L_A (GAA2) also
# drops the channel, and GAA2 computes exactly what GAA3 does.
_TOPO_ADAPT = VariantSpec(topo=True, feat=False, adapts=True,
                          fields=("W1_topo", "W2_topo", "Wc", "bc", "Wd", "bd"))

VARIANT_SPECS = {
    "GAA": VariantSpec(topo=True, feat=True, fields=FIELD_ORDER,
                       attends=True, refines=True, aligns=True, adapts=True),
    "GAA1": VariantSpec(topo=True, feat=True, fields=FIELD_ORDER,
                        attends=True, aligns=True, adapts=True),
    "GAA2": _TOPO_ADAPT,
    "GAA3": _TOPO_ADAPT,
    "GCN": VariantSpec(topo=True, feat=False, fields=("W1_topo", "W2_topo", "Wc", "bc")),
    "KNN_GCN": VariantSpec(topo=False, feat=True, fields=("W1_feat", "W2_feat", "Wc", "bc")),
}
VARIANTS = tuple(VARIANT_SPECS)


@dataclass
class Hyper:
    hidden: int = 128
    embed: int = 16
    dropout: float = 0.5
    grl_lambda: float = 1.0
    relu_second_layer: bool = False

    def __post_init__(self):
        check_field_types(self)
        for name in ("hidden", "embed"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.grl_lambda < 0:
            raise ConfigError(f"grl_lambda must be >= 0, got {self.grl_lambda}")


@dataclass
class GaaModel:
    variant: str
    k: int
    in_dim: int
    num_classes: int
    hyper: Hyper
    W1_topo: Optional[Tensor] = None
    W2_topo: Optional[Tensor] = None
    W1_feat: Optional[Tensor] = None
    W2_feat: Optional[Tensor] = None
    Wq: Optional[Tensor] = None
    Wk: Optional[Tensor] = None
    Wv: Optional[Tensor] = None
    Wc: Optional[Tensor] = None
    bc: Optional[Tensor] = None
    Wd: Optional[Tensor] = None
    bd: Optional[Tensor] = None

    @property
    def spec(self) -> VariantSpec:
        return VARIANT_SPECS[self.variant]

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in FIELD_ORDER if getattr(self, name) is not None]

    def parameter_names(self) -> list[str]:
        return [name for name in FIELD_ORDER if getattr(self, name) is not None]


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return ad.parameter(rng.uniform(-limit, limit, size=(rows, cols)))


def _param_shapes(variant: str, in_dim: int, num_classes: int, hyper: Hyper) -> dict:
    """(rows, cols) of each parameter the variant has, in FIELD_ORDER."""
    h, e, c = hyper.hidden, hyper.embed, num_classes
    shapes = {
        "W1_topo": (in_dim, h), "W2_topo": (h, e),
        "W1_feat": (in_dim, h), "W2_feat": (h, e),
        "Wq": (e, e), "Wk": (e, e), "Wv": (e, e),
        "Wc": (e, c), "bc": (1, c),
        "Wd": (e, 1), "bd": (1, 1),
    }
    return {name: shapes[name] for name in FIELD_ORDER if name in VARIANT_SPECS[variant].fields}


def init_model(in_dim: int, num_classes: int, variant: str, k: int,
               hyper: Hyper, seed_seq: np.random.SeedSequence) -> GaaModel:
    """Glorot-uniform weights, zero biases.

    Each field draws from its own child stream (keyed by position in
    FIELD_ORDER), so a field shared between two variants initializes
    identically under the same seed.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    shapes = _param_shapes(variant, in_dim, num_classes, hyper)
    streams = seed_seq.spawn(len(FIELD_ORDER))
    model = GaaModel(variant=variant, k=k, in_dim=in_dim, num_classes=num_classes, hyper=hyper)
    for idx, name in enumerate(FIELD_ORDER):
        if name not in shapes:
            continue
        rows, cols = shapes[name]
        if name.startswith("b"):
            setattr(model, name, ad.parameter(np.zeros((rows, cols))))
        else:
            setattr(model, name, _glorot(np.random.default_rng(streams[idx]), rows, cols))
    return model


# ---------------------------------------------------------------------------
# network pieces


def gcn_encode(view: View, w1: Tensor, w2: Tensor,
               dropout_rate: float, rng: np.random.Generator, training: bool,
               relu_second: bool = False) -> Tensor:
    """Two propagation layers on ``view.ax`` = ÂX: relu((ÂX) W1) with dropout,
    then Â (H W2), ``view.norm`` being Â, dense or sparse. W2 comes first
    (Kipf & Welling, arXiv:1609.02907, eq. 2), so the n x n product and its
    gradient have embed, not hidden, columns."""
    hidden = ad.relu(ad.matmul(ad.constant(view.ax), w1))
    hidden = ad.dropout(hidden, dropout_rate, rng, training)
    z = ad.spmm(view.norm, ad.matmul(hidden, w2))
    return ad.relu(z) if relu_second else z


def attention_embed(z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Scaled dot-product attention over nodes in a shared latent space.

    One streamed tape op (``autodiff.attention``); the output is n x e.
    """
    return ad.attention(z, wq, wk, wv)


def cross_view_scores(z_f: Tensor, z: Tensor) -> Tensor:
    """Per-node agreement between the two views, mapped to [0, 1].

    Row i is (1 + cos(z_f[i], z[i])) / 2; rows with zero norm score 0.5.
    """
    ones = ad.constant(np.ones((z.rows, 1)))
    return ad.scale(ad.add(ad.row_cosine(z_f, z), ones), 0.5)


def refine(att: Tensor, s: Tensor) -> Tensor:
    """Gate each attention row by its cross-view agreement score."""
    if s.shape != (att.rows, 1):
        raise ShapeError(f"refine: scores {s.shape} do not match {att.rows} rows")
    return ad.hadamard(att, s)


def classify(z: Tensor, wc: Tensor, bias: Tensor) -> Tensor:
    return ad.row_softmax(ad.add(ad.matmul(z, wc), bias))


def domain_discriminate(z: Tensor, grl_lambda: float, wd: Tensor, bias: Tensor) -> Tensor:
    """Probability of "source", with gradients reversed into the encoder."""
    return ad.sigmoid(ad.add(ad.matmul(ad.grad_reverse(z, grl_lambda), wd), bias))


@dataclass
class ForwardOutputs:
    z_s: Optional[Tensor] = None
    z_t: Optional[Tensor] = None
    z_s_f: Optional[Tensor] = None
    z_t_f: Optional[Tensor] = None
    att_s: Optional[Tensor] = None
    att_t: Optional[Tensor] = None
    att_s_f: Optional[Tensor] = None
    att_t_f: Optional[Tensor] = None
    scores_s: Optional[Tensor] = None
    scores_t: Optional[Tensor] = None
    probs_s: Optional[Tensor] = None
    probs_t: Optional[Tensor] = None
    dom_s: Optional[Tensor] = None
    dom_t: Optional[Tensor] = None


def forward_all(model: GaaModel, views_s: ViewMatrices, views_t: ViewMatrices,
                training: bool, rng: np.random.Generator) -> ForwardOutputs:
    """Run every branch the variant's row names, in a fixed order.

    Dropout draws happen in encoder order (source topo, source feat, target
    topo, target feat), so equal seeds give bit-identical passes. A variant
    that does not adapt never encodes the target.
    """
    spec, hy = model.spec, model.hyper

    def encode(views):
        def gcn(view, w1, w2):
            return gcn_encode(view, w1, w2, hy.dropout, rng, training, hy.relu_second_layer)
        return (gcn(views.topo, model.W1_topo, model.W2_topo) if spec.topo else None,
                gcn(views.feat, model.W1_feat, model.W2_feat) if spec.feat else None)

    out = ForwardOutputs()
    out.z_s, out.z_s_f = encode(views_s)
    if spec.adapts:
        out.z_t, out.z_t_f = encode(views_t)
    if spec.attends:
        out.att_s, out.att_s_f, out.att_t, out.att_t_f = [
            attention_embed(z, model.Wq, model.Wk, model.Wv)
            for z in (out.z_s, out.z_s_f, out.z_t, out.z_t_f)]
    if spec.refines:
        out.scores_s = cross_view_scores(out.z_s_f, out.z_s)
        out.scores_t = cross_view_scores(out.z_t_f, out.z_t)
        out.att_s, out.att_s_f = refine(out.att_s, out.scores_s), refine(out.att_s_f, out.scores_s)
        out.att_t, out.att_t_f = refine(out.att_t, out.scores_t), refine(out.att_t_f, out.scores_t)

    z_s, z_t = (out.z_s, out.z_t) if spec.topo else (out.z_s_f, out.z_t_f)
    out.probs_s = classify(z_s, model.Wc, model.bc)
    if spec.adapts:
        out.probs_t = classify(z_t, model.Wc, model.bc)
        out.dom_s = domain_discriminate(z_s, hy.grl_lambda, model.Wd, model.bd)
        out.dom_t = domain_discriminate(z_t, hy.grl_lambda, model.Wd, model.bd)
    return out


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then little-endian float64 payloads
# in FIELD_ORDER


def save_model(model: GaaModel, path):
    names = model.parameter_names()
    header = {
        "format": "gaa-model-v1",
        "variant": model.variant,
        "k": model.k,
        "in_dim": model.in_dim,
        "num_classes": model.num_classes,
        "hyper": asdict(model.hyper),
        "tensors": [
            {"name": name, "rows": getattr(model, name).rows, "cols": getattr(model, name).cols}
            for name in names
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(getattr(model, name).data, dtype="<f8").tobytes())


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _header_problem(header) -> Optional[str]:
    """Why a decoded checkpoint header cannot describe a model, or None.

    The hyperparameter values are left to ``Hyper``, the rule training uses.
    """
    if not isinstance(header, dict) or header.get("format") != "gaa-model-v1":
        return "not a model checkpoint"
    for key in ("variant", "k", "in_dim", "num_classes", "hyper", "tensors"):
        if key not in header:
            return f"header has no {key!r}"
    if header["variant"] not in VARIANTS:
        return f"unknown variant {header['variant']!r}"
    if not all(_count(header[key]) for key in ("k", "in_dim", "num_classes")):
        return "k, in_dim and num_classes must be positive integers"
    hyper = header["hyper"]
    if not isinstance(hyper, dict) or set(hyper) != set(Hyper.__dataclass_fields__):
        return "hyper does not list exactly the Hyper fields"
    return None


def load_model(path) -> GaaModel:
    """Read a checkpoint; a missing, unreadable or malformed one raises
    CheckpointError."""
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(path, f"cannot read: {exc.strerror}")
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError:  # undecodable bytes or invalid JSON
        raise CheckpointError(path, "header is not UTF-8 JSON")
    problem = _header_problem(header)
    if problem is not None:
        raise CheckpointError(path, problem)
    try:
        hyper = Hyper(**header["hyper"])
    except ConfigError as exc:
        raise CheckpointError(path, f"bad hyper: {exc}")
    model = GaaModel(variant=header["variant"], k=header["k"], in_dim=header["in_dim"],
                     num_classes=header["num_classes"], hyper=hyper)
    shapes = _param_shapes(model.variant, model.in_dim, model.num_classes, model.hyper)
    if header["tensors"] != [{"name": name, "rows": rows, "cols": cols}
                             for name, (rows, cols) in shapes.items()]:
        raise CheckpointError(path, f"tensor list does not match a {model.variant} model")
    expected = 8 * sum(rows * cols for rows, cols in shapes.values())
    if len(payload) != expected:
        raise CheckpointError(path, f"payload is {len(payload)} bytes, expected {expected}")
    if not np.isfinite(np.frombuffer(payload, dtype="<f8")).all():
        raise CheckpointError(path, "non-finite parameter value")
    offset = 0
    for name, (rows, cols) in shapes.items():
        data = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset)
        setattr(model, name, ad.parameter(data.reshape(rows, cols).copy()))
        offset += 8 * rows * cols
    return model
