"""Attribute-driven graph domain adaptation at desk scale.

Submodules:
  autodiff   dense 2-D tensors with tape-based reverse-mode differentiation
  featgraph  cosine kNN feature graphs and propagation-matrix normalization
  graphs     data model, text formats, synthetic shift generators
  model      dual-channel encoders, score-weighted attention pooling, heads
  losses     the four objectives and their weighted sum
  train      Adam, the training loop, ablation variants, evaluation
  analysis   discrepancy bound, feature-value diagnostics
  cli        command-line driver (train / eval / generate / bound /
             diagnose / sweep)
"""

import os

# BLAS computes on one thread, so seeded output does not depend on the
# caller's BLAS settings and GAA_THREADS is gaa's one thread budget. This
# must run before numpy loads, which the first import below does.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

from .graphs import DomainPair, Graph
from .losses import LossWeights
from .train import TrainConfig, evaluate, run_repeated, train_gaa

__all__ = [
    "DomainPair",
    "Graph",
    "LossWeights",
    "TrainConfig",
    "evaluate",
    "run_repeated",
    "train_gaa",
]

__version__ = "0.1.0"
