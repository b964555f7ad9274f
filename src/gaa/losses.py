"""The four training objectives and their weighted combination.

The alignment term compares the domains' pooled attention rows (one 1 x e
row per domain and view), which stays well-typed when the two graphs have
different node counts. The domain term enters the total with a positive
weight; the gradient-reversal layer inside the discriminator's input
realizes the adversarial direction, so no sign flip happens here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError, ShapeError, check_field_types

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.5
    beta: float = 0.01
    tau: float = 0.1

    def __post_init__(self):
        check_field_types(self, "weights.")
        for name in ("alpha", "beta", "tau"):
            if getattr(self, name) < 0:
                raise ConfigError(f"weights.{name} must be >= 0, got {getattr(self, name)}")


def source_ce(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class, clamped before log."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = probs.shape
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} labels for {n} prediction rows")
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError(f"label outside [0, {c}) in source cross-entropy")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return ad.scale(ad.xlogy_sum(ad.constant(onehot), probs, PROB_CLAMP), -1.0 / n)


def alignment_loss(att_s: Tensor, att_t: Tensor, att_s_f: Tensor, att_t_f: Tensor) -> Tensor:
    """Squared distance between the domains' pooled rows, summed over views."""
    shapes = {att_s.shape, att_t.shape, att_s_f.shape, att_t_f.shape}
    if len(shapes) != 1 or att_s.rows != 1:
        raise ShapeError(f"alignment_loss: expects four equal 1 x e rows, got {sorted(shapes)}")
    topo = ad.sq_l2(ad.sub(att_s, att_t))
    feat = ad.sq_l2(ad.sub(att_s_f, att_t_f))
    return ad.add(topo, feat)


def domain_bce(dom_s: Tensor, dom_t: Tensor) -> Tensor:
    """Binary cross-entropy with source=1, target=0, averaged over all nodes."""
    n = dom_s.rows + dom_t.rows
    from_s = ad.xlogy_sum(1.0, dom_s, PROB_CLAMP)
    from_t = ad.xlogy_sum(1.0, ad.sub(ad.constant(np.ones(dom_t.shape)), dom_t), PROB_CLAMP)
    return ad.scale(ad.add(from_s, from_t), -1.0 / n)


def target_entropy(probs_t: Tensor) -> Tensor:
    """Mean prediction entropy on target nodes (nats)."""
    return ad.scale(ad.xlogy_sum(probs_t, probs_t, PROB_CLAMP), -1.0 / probs_t.rows)


def total_loss(l_a: Tensor, l_s: Tensor, l_d: Tensor, l_t: Tensor, w: LossWeights) -> Tensor:
    for name, term in (("L_A", l_a), ("L_S", l_s), ("L_D", l_d), ("L_T", l_t)):
        if term.shape != (1, 1):
            raise ShapeError(f"{name} must be scalar, got {term.shape}")
    out = ad.add(l_a, ad.scale(l_s, w.alpha))
    out = ad.add(out, ad.scale(l_d, w.beta))
    return ad.add(out, ad.scale(l_t, w.tau))
