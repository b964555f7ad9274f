"""The dual-channel network's pieces: per-view GCN encoders (``encode``),
pooled attention rows (cross-view scores weight the pooled mean), label
classifier, and a gradient-reversal domain head. ``train._epoch_losses``
runs the pieces a variant's row names and feeds them to its losses;
evaluation runs ``encode`` on the classifier's view alone.

One parameter set processes both domains; that weight sharing is what makes
the alignment terms meaningful. Each variant is one row of ``VARIANT_SPECS``,
which init, the forward pass, view building and evaluation all read:

  GAA      full model
  GAA1     no cross-view refinement (an unweighted attention mean)
  GAA2     no alignment loss; no loss then reads the feature channel or
           the attention, so it is GAA3's row
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
from .exceptions import (CheckpointError, ConfigError, DomainError, check_addressable,
                         check_field_types)
from .featgraph import View, ViewMatrices

# checkpoint payload order; also the order parameters are initialized in
FIELD_ORDER = ("W1_topo", "W2_topo", "W1_feat", "W2_feat",
               "Wq", "Wk", "Wv", "Wc", "bc", "Wd", "bd")


@dataclass(frozen=True)
class VariantSpec:
    """What one variant computes.

    ``topo`` and ``feat`` name the channels it encodes; the classifier reads
    the topology embedding when there is one. A variant that adapts encodes
    the target too and adds L_D and L_T; one that attends pools all four
    encodings with attention and adds L_A on the pooled rows, and one that
    refines weights each node in the pool by its cross-view agreement. These
    flags alone decide its parameters (``_param_shapes``).
    """

    topo: bool
    feat: bool
    attends: bool = False
    refines: bool = False
    adapts: bool = False


# Without L_A no loss reads the feature channel or the attention weights
# (the classifier reads the topology embedding), so dropping L_A (GAA2) also
# drops the channel, and GAA2 computes exactly what GAA3 does.
_TOPO_ADAPT = VariantSpec(topo=True, feat=False, adapts=True)

VARIANT_SPECS = {
    "GAA": VariantSpec(topo=True, feat=True, attends=True, refines=True, adapts=True),
    "GAA1": VariantSpec(topo=True, feat=True, attends=True, adapts=True),
    "GAA2": _TOPO_ADAPT,
    "GAA3": _TOPO_ADAPT,
    "GCN": VariantSpec(topo=True, feat=False),
    "KNN_GCN": VariantSpec(topo=False, feat=True),
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
    params: dict[str, Tensor]  # the variant's parameters, in FIELD_ORDER

    @property
    def spec(self) -> VariantSpec:
        return VARIANT_SPECS[self.variant]

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return ad.parameter(rng.uniform(-limit, limit, size=(rows, cols)))


def _param_shapes(variant: str, in_dim: int, num_classes: int, hyper: Hyper) -> dict:
    """(rows, cols) of each parameter the variant has, in FIELD_ORDER; a
    shape too large for numpy to describe raises ConfigError."""
    spec, h, e, c = VARIANT_SPECS[variant], hyper.hidden, hyper.embed, num_classes
    shapes = {}
    if spec.topo:
        shapes.update(W1_topo=(in_dim, h), W2_topo=(h, e))
    if spec.feat:
        shapes.update(W1_feat=(in_dim, h), W2_feat=(h, e))
    if spec.attends:
        shapes.update(Wq=(e, e), Wk=(e, e), Wv=(e, e))
    shapes.update(Wc=(e, c), bc=(1, c))
    if spec.adapts:
        shapes.update(Wd=(e, 1), bd=(1, 1))
    for name, shape in shapes.items():
        check_addressable(f"in_dim={in_dim}, hidden={h}, embed={e} and num_classes={c}",
                          name, shape)
    return shapes


def init_model(in_dim: int, num_classes: int, variant: str, k: int,
               hyper: Hyper, seed_seq: np.random.SeedSequence) -> GaaModel:
    """Glorot-uniform weights, zero biases.

    Each field draws from its own child stream (keyed by position in
    FIELD_ORDER), so a field shared between two variants initializes
    identically under the same seed.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    streams = seed_seq.spawn(len(FIELD_ORDER))
    params = {}
    for name, (rows, cols) in _param_shapes(variant, in_dim, num_classes, hyper).items():
        if name.startswith("b"):
            params[name] = ad.parameter(np.zeros((rows, cols)))
        else:
            rng = np.random.default_rng(streams[FIELD_ORDER.index(name)])
            params[name] = _glorot(rng, rows, cols)
    return GaaModel(variant=variant, k=k, in_dim=in_dim, num_classes=num_classes, hyper=hyper,
                    params=params)


# ---------------------------------------------------------------------------
# network pieces


def gcn_encode(view: View, w1: Tensor, w2: Tensor,
               dropout_rate: float, rng: np.random.Generator | None,
               relu_second: bool = False) -> Tensor:
    """Two propagation layers on ``view.ax`` = ÂX: relu((ÂX) W1), dropped out
    by ``rng`` unless it is None, then Â (H W2), ``view.norm`` being Â, dense
    or sparse. W2 comes first (Kipf & Welling, arXiv:1609.02907, eq. 2), so the
    n x n product and its gradient have embed, not hidden, columns. Both layers
    are one tape record (``autodiff.gcn``) that keeps only the hidden layer H."""
    z = ad.gcn(view.norm, view.ax, w1, w2, dropout_rate, rng)
    return ad.relu(z) if relu_second else z


def attention_embed(z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, s: Tensor) -> Tensor:
    """Scaled dot-product attention over nodes in a shared latent space,
    pooled to its node mean with node i weighted by s_i.

    One streamed tape op (``autodiff.attention``); the output is 1 x e.
    """
    return ad.attention(z, wq, wk, wv, s)


def cross_view_scores(z_f: Tensor, z: Tensor) -> Tensor:
    """Per-node agreement between the two views, mapped to [0, 1].

    Row i is (1 + cos(z_f[i], z[i])) / 2; rows with zero norm score 0.5.
    """
    ones = ad.constant(np.ones((z.rows, 1)))
    return ad.scale(ad.add(ad.row_cosine(z_f, z), ones), 0.5)


def classify(z: Tensor, wc: Tensor, bias: Tensor) -> Tensor:
    return ad.row_softmax(ad.add(ad.matmul(z, wc), bias))


def domain_discriminate(z: Tensor, grl_lambda: float, wd: Tensor, bias: Tensor) -> Tensor:
    """Probability of "source", with gradients reversed into the encoder."""
    return ad.sigmoid(ad.add(ad.matmul(ad.grad_reverse(z, grl_lambda), wd), bias))


def encode(model: GaaModel, views: ViewMatrices,
           rng: np.random.Generator | None) -> list[Tensor]:
    """The GCN embedding of each view of ``views`` that is present, with that
    channel's W1/W2, under dropout from ``rng`` unless it is None. Topology
    comes first, so dropout draws in a fixed order and the first embedding is
    the one the classifier reads: the topology one when there is one."""
    hy, p = model.hyper, model.params
    return [gcn_encode(view, p[f"W1_{channel}"], p[f"W2_{channel}"], hy.dropout, rng,
                       hy.relu_second_layer)
            for channel, view in zip(ViewMatrices._fields, views) if view is not None]


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then little-endian float64 payloads
# in FIELD_ORDER


def save_model(model: GaaModel, path):
    header = {
        "format": "gaa-model-v1",
        "variant": model.variant,
        "k": model.k,
        "in_dim": model.in_dim,
        "num_classes": model.num_classes,
        "hyper": asdict(model.hyper),
        "tensors": [{"name": name, "rows": p.rows, "cols": p.cols}
                    for name, p in model.params.items()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in model.params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


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
    variant = header["variant"]
    try:
        shapes = _param_shapes(variant, header["in_dim"], header["num_classes"], hyper)
    except ConfigError as exc:
        raise CheckpointError(path, str(exc))
    if header["tensors"] != [{"name": name, "rows": rows, "cols": cols}
                             for name, (rows, cols) in shapes.items()]:
        raise CheckpointError(path, f"tensor list does not match a {variant} model")
    expected = 8 * sum(rows * cols for rows, cols in shapes.values())
    if len(payload) != expected:
        raise CheckpointError(path, f"payload is {len(payload)} bytes, expected {expected}")
    if not np.isfinite(np.frombuffer(payload, dtype="<f8")).all():
        raise CheckpointError(path, "non-finite parameter value")
    params, offset = {}, 0
    for name, (rows, cols) in shapes.items():
        data = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset)
        params[name] = ad.parameter(data.reshape(rows, cols).copy())
        offset += 8 * rows * cols
    return GaaModel(variant=variant, k=header["k"], in_dim=header["in_dim"],
                    num_classes=header["num_classes"], hyper=hyper, params=params)
