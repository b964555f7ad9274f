"""Graph data model, text formats, synthetic shift generators, metrics I/O.

File formats:
  * edge list: whitespace-separated 0-based integer pairs, ``#`` comments
  * features: CSV of reals, one row per node, no header
  * labels: one integer per line
  * metrics: JSON, schema under ``RunMetrics``
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DomainError, ParseError
from .featgraph import max_asymmetry

ADJ_SYMMETRY_TOL = 1e-12


@dataclass
class Graph:
    """One domain's data: symmetric adjacency, node features, optional labels."""

    adjacency: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int | None = None

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.num_classes is None:
                self.num_classes = int(self.labels.max()) + 1
        self.validate()

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self):
        n = self.features.shape[0]
        if self.adjacency.shape != (n, n):
            raise DomainError(
                f"adjacency {self.adjacency.shape} does not match {n} feature rows"
            )
        if not np.isfinite(self.features).all():
            raise DomainError("features hold non-finite values")
        # a non-finite entry makes its difference non-finite, so the symmetry
        # check's one pass over the matrix also screens for inf and nan
        asymmetry = max_asymmetry(self.adjacency)
        if not np.isfinite(asymmetry) and not np.isfinite(self.adjacency).all():
            raise DomainError("adjacency holds non-finite values")
        if not asymmetry <= ADJ_SYMMETRY_TOL:
            raise DomainError("adjacency is not symmetric")
        if self.labels is not None:
            if len(self.labels) != n:
                raise DomainError(f"{len(self.labels)} labels for {n} nodes")
            if self.labels.min(initial=0) < 0:
                raise DomainError("negative label")
            if self.num_classes is not None and self.labels.max(initial=-1) >= self.num_classes:
                raise DomainError("label out of class range")


@dataclass
class DomainPair:
    """A labeled source graph and a target graph sharing the attribute space."""

    source: Graph
    target: Graph

    def __post_init__(self):
        if self.source.labels is None:
            raise DomainError("source graph must carry labels")
        if self.source.dim != self.target.dim:
            raise DomainError(
                f"feature dims differ: source {self.source.dim}, target {self.target.dim}"
            )
        if self.target.num_classes is None:
            self.target.num_classes = self.source.num_classes
        if self.source.num_classes != self.target.num_classes:
            raise DomainError("source and target class counts differ")

    @property
    def num_classes(self) -> int:
        return self.source.num_classes


# ---------------------------------------------------------------------------
# text formats


def _lines(path):
    """(line number, text) for each line of a UTF-8 text file, split as
    text-mode ``open`` splits them; an undecodable byte is a ParseError at
    its line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(raw[:exc.start].decode("utf-8"), newline=None).read()
        raise ParseError(path, before.count("\n") + 1, "not UTF-8 text")
    return enumerate(io.StringIO(text, newline=None), start=1)


def _parse_edges(path) -> list[tuple[int, int, float, int]]:
    edges = []
    for line_no, raw in _lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(path, line_no,
                             f"expected 'i j' or 'i j weight', got {raw.strip()!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, line_no, f"non-integer node id in {raw.strip()!r}")
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric weight in {raw.strip()!r}")
            if not math.isfinite(weight):
                raise ParseError(path, line_no, f"non-finite weight in {raw.strip()!r}")
        edges.append((i, j, weight, line_no))
    return edges


def _parse_features(path) -> np.ndarray:
    rows, line_nos = [], []
    width = None
    for line_no, raw in _lines(path):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric feature in {raw.strip()!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(path, line_no, f"expected {width} columns, got {len(row)}")
        rows.append(row)
        line_nos.append(line_no)
    if not rows:
        raise ParseError(path, 1, "empty feature file")
    features = np.asarray(rows, dtype=np.float64)
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        bad = int(np.argmin(finite_rows))
        raise ParseError(path, line_nos[bad], "non-finite feature value")
    return features


def _parse_labels(path, num_classes=None) -> np.ndarray:
    labels = []
    # without a class count, a label must still fit the int64 label array
    bound = np.iinfo(np.int64).max if num_classes is None else num_classes
    for line_no, raw in _lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            labels.append(int(line))
        except ValueError:
            raise ParseError(path, line_no, f"non-integer label {raw.strip()!r}")
        if not 0 <= labels[-1] < bound:
            raise ParseError(path, line_no, f"label {labels[-1]} outside [0, {bound})")
    return np.asarray(labels, dtype=np.int64)


def load_graph(edge_path, feature_path, label_path=None, num_classes=None) -> Graph:
    """Read a graph from the text formats; symmetrizes and deduplicates edges.

    A negative label, or one at or above ``num_classes``, is a ParseError.
    """
    features = _parse_features(feature_path)
    n = features.shape[0]
    adjacency = np.zeros((n, n))
    for i, j, weight, line_no in _parse_edges(edge_path):
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(edge_path, line_no, f"node id out of range for {n} nodes: ({i}, {j})")
        if i == j:
            continue  # diagonal stays zero; loops are added at normalization time
        adjacency[i, j] = weight
        adjacency[j, i] = weight
    labels = None
    if label_path is not None:
        labels = _parse_labels(label_path, num_classes)
        if len(labels) != n:
            raise ParseError(label_path, len(labels) + 1,
                             f"{len(labels)} labels for {n} feature rows")
    return Graph(adjacency=adjacency, features=features, labels=labels, num_classes=num_classes)


def save_graph(graph: Graph, edge_path, feature_path, label_path=None):
    edge_path, feature_path = Path(edge_path), Path(feature_path)
    rows, cols = np.nonzero(np.triu(graph.adjacency, 1))  # row-major, i < j
    weights = graph.adjacency[rows, cols]
    with open(edge_path, "w") as fh:
        fh.writelines(f"{i} {j}\n" if w == 1.0 else f"{i} {j} {w!r}\n"
                      for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist()))
    with open(feature_path, "w") as fh:
        for row in graph.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    if label_path is not None:
        if graph.labels is None:
            raise DomainError("graph has no labels to save")
        with open(label_path, "w") as fh:
            for y in graph.labels:
                fh.write(f"{int(y)}\n")


# ---------------------------------------------------------------------------
# synthetic generators


def _seed_with_tag(seed: int, tag: float) -> np.random.SeedSequence:
    # mixes a float parameter into the entropy so unequal tags give
    # independent streams while equal (seed, tag) stay reproducible
    bits = int(np.float64(tag).view(np.uint64))
    return np.random.SeedSequence([int(seed), bits])


def gen_attribute_shift(cluster_std: float, seed: int, n: int = 100, d: int = 10,
                        edge_prob: float = 0.3) -> Graph:
    """Two Gaussian clusters on a fixed random topology.

    The adjacency and the two cluster centers depend on ``seed`` alone, so
    sweeping ``cluster_std`` under one seed varies only the attribute noise.
    Labels are the cluster memberships (balanced halves).
    """
    if cluster_std < 0:
        raise DomainError(f"cluster_std must be >= 0, got {cluster_std}")
    topo_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA11CE]))
    upper = topo_rng.random((n, n)) < edge_prob
    adjacency = np.triu(upper, 1).astype(np.float64)
    adjacency = adjacency + adjacency.T
    centers = topo_rng.uniform(-10.0, 10.0, size=(2, d))

    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    noise_rng = np.random.default_rng(_seed_with_tag(seed, cluster_std))
    features = centers[labels] + cluster_std * noise_rng.standard_normal((n, d))
    return Graph(adjacency=adjacency, features=features, labels=labels, num_classes=2)


def gen_sbm(seed: int, n: int = 100, p: float = 0.8, d: int = 10) -> Graph:
    """Two-community stochastic block model with Uniform(0,1] edge weights.

    Intra-community edge probability is ``p``, inter-community ``p / 10``.
    Features are all ones; labels are the communities. The underlying uniform
    draws depend on ``seed`` only, so lowering ``p`` under a fixed seed
    removes edges monotonically (nested edge sets). With constant features a
    bias-free GCN embeds every node as a per-node scalar times one fixed vector,
    so no GCN can tell the two balanced communities apart on this family.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must be in (0, 1], got {p}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5B3]))
    half = n // 2
    labels = np.zeros(n, dtype=np.int64)
    labels[half:] = 1
    prob = np.where(np.equal.outer(labels, labels), p, p / 10.0)
    u = rng.random((n, n))
    weights = 1.0 - rng.random((n, n))  # Uniform(0, 1]
    present = np.triu(u < prob, 1)
    adjacency = np.where(present, weights, 0.0)
    adjacency = np.triu(adjacency, 1)
    adjacency = adjacency + adjacency.T
    features = np.ones((n, d))
    return Graph(adjacency=adjacency, features=features, labels=labels, num_classes=2)


# ---------------------------------------------------------------------------
# run metrics


@dataclass
class EpochLosses:
    epoch: int
    loss_total: float
    loss_S: float
    loss_A: float
    loss_D: float
    loss_T: float


@dataclass
class RunMetrics:
    seed: int
    epochs: int
    per_epoch: list[EpochLosses] = field(default_factory=list)
    target_accuracy: float | None = None
    wall_seconds: float = 0.0
    config_echo: dict = field(default_factory=dict)


def save_metrics(metrics: RunMetrics, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(metrics), fh, indent=2)
        fh.write("\n")


def load_metrics(path) -> RunMetrics:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return RunMetrics(**{**doc, "per_epoch": [EpochLosses(**e) for e in doc["per_epoch"]]})
