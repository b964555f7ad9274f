"""Graph data model, text formats, synthetic shift generators, metrics I/O.

File formats:
  * edge list: whitespace-separated 0-based integer pairs, ``#`` comments
  * features: CSV of reals, one row per node, no header
  * labels: one integer per non-blank line, one per feature row
  * metrics: JSON, schema under ``RunMetrics``
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DomainError, ParseError, check_addressable
from .featgraph import EdgeList

GEN_FLOATS = 256 * 1024  # floats of a generator's n x n uniform draw held at once
SAVE_BLOCK = 65536  # edges formatted and written at a time


@dataclass
class Graph:
    """One domain's data: its undirected edge list, node features, optional labels.

    ``edges`` holds each linked pair once, ``row < col``, and is the only
    stored form: a consumer builds a matrix from it only where it reads one.
    """

    edges: EdgeList
    features: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int | None = None

    def __post_init__(self):
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
        """O(nodes) checks that the edge list is on one node per feature row,
        and of the features and labels; the list checked itself when it was
        built (``EdgeList``)."""
        n = self.features.shape[0]
        if self.edges.n != n:
            raise DomainError(f"edge list on {self.edges.n} nodes does not match {n} feature rows")
        if not np.isfinite(self.features).all():
            raise DomainError("features hold non-finite values")
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
    its line. A missing or unreadable file is a ConfigError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(raw[:exc.start].decode("utf-8"), newline=None).read()
        raise ParseError(path, before.count("\n") + 1, "not UTF-8 text")
    return enumerate(io.StringIO(text, newline=None), start=1)


def _parse_edges(path, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j, weight) columns of an edge file, in line order.

    A node id outside [0, n) is a ParseError at the first line that holds
    one, raised once every line has parsed, so a malformed line anywhere in
    the file is reported first.
    """
    ii, jj, ww = [], [], []
    out_of_range = None
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
            if weight < 0.0:
                raise ParseError(path, line_no, f"negative weight in {raw.strip()!r}")
        if out_of_range is None and not (0 <= i < n and 0 <= j < n):
            out_of_range = ParseError(path, line_no,
                                      f"node id out of range for {n} nodes: ({i}, {j})")
        ii.append(i)
        jj.append(j)
        ww.append(weight)
    if out_of_range is not None:
        raise out_of_range
    return (np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64),
            np.array(ww, dtype=np.float64))


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
    # the kNN view scales each row by its norm, so the squared norm must stay finite
    with np.errstate(over="ignore"):
        finite_rows = np.isfinite((features * features).sum(axis=1))
    if not finite_rows.all():
        bad = int(np.argmin(finite_rows))
        raise ParseError(path, line_nos[bad], "the feature row's squared norm overflows float64")
    return features


def _parse_labels(path, n, num_classes=None) -> np.ndarray:
    """The labels of an n-node graph, one per non-blank line.

    A label lies in [0, num_classes), or in [0, n) without a class count:
    n nodes cannot show more than n classes. A count other than n is a
    ParseError at the first extra label, or at the last line of a file that
    runs out.
    """
    labels, line_nos = [], []
    bound = n if num_classes is None else num_classes
    line_no = 1  # an empty file's error names line 1
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
        line_nos.append(line_no)
    if len(labels) != n:
        raise ParseError(path, line_nos[n] if len(labels) > n else line_no,
                         f"{len(labels)} labels for {n} feature rows")
    return np.asarray(labels, dtype=np.int64)


def load_graph(edge_path, feature_path, label_path=None, num_classes=None) -> Graph:
    """Read a graph from the text formats; symmetrizes and deduplicates edges.

    Self-loops are skipped (normalization adds them), a later line for the
    same pair, in either direction, wins, and a zero weight is no edge. A
    negative label, or one at or above ``num_classes`` (the node count when
    no class count is given), is a ParseError, and so is a feature row whose
    squared norm overflows float64. A node whose degree in the normalized
    view overflows float64, the one rule of ``EdgeList`` that a parsed file
    can still break, is a ConfigError naming the edge file.
    """
    features = _parse_features(feature_path)
    n = features.shape[0]
    i, j, weight = _parse_edges(edge_path, n)
    try:
        edges = EdgeList.from_pairs(n, i, j, weight)
    except DomainError as exc:
        raise ConfigError(f"{edge_path}: {exc}")
    labels = None if label_path is None else _parse_labels(label_path, n, num_classes)
    return Graph(edges=edges, features=features, labels=labels, num_classes=num_classes)


def save_graph(graph: Graph, edge_path, feature_path, label_path=None):
    """Write the text formats: one line per edge in row-major order (i < j),
    the weight omitted where it is 1. The edges are formatted ``SAVE_BLOCK``
    at a time, so no Python list of every edge exists."""
    edge_path, feature_path = Path(edge_path), Path(feature_path)
    e = graph.edges
    with open(edge_path, "w") as fh:
        for lo in range(0, e.row.size, SAVE_BLOCK):
            hi = lo + SAVE_BLOCK
            fh.writelines(f"{i} {j}\n" if w == 1.0 else f"{i} {j} {w!r}\n"
                          for i, j, w in zip(e.row[lo:hi].tolist(), e.col[lo:hi].tolist(),
                                             e.weight[lo:hi].tolist()))
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


def _check_sizes(seed: int, n: int, d: int):
    """The arguments both generators take; a pair needs two nodes, and the
    n x d features are the largest array a generator makes."""
    for name, value, low in (("seed", seed, 0), ("n", n, 2), ("d", d, 1)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    check_addressable(f"n={n} and d={d}", "features", (n, d))


def _row_blocks(n: int):
    """(lo, hi) of each row block of an n-column draw: GEN_FLOATS floats at
    most, or one row where n is more."""
    step = max(1, GEN_FLOATS // n)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _strict_upper_draw(rng, n: int, threshold) -> tuple[np.ndarray, np.ndarray]:
    """(row, col), row-major, of the strict upper triangle where one n x n
    uniform draw of ``rng`` falls below ``threshold(lo, hi)``, the threshold
    of rows lo to hi. The draw is made a row block at a time:
    successive row blocks are the same stream, and no n x n array exists."""
    rows, cols = [], []
    for lo, hi in _row_blocks(n):
        r, c = np.nonzero(np.triu(rng.random((hi - lo, n)) < threshold(lo, hi), lo + 1))
        rows.append(r + lo)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def gen_attribute_shift(cluster_std: float, seed: int, n: int = 100, d: int = 10,
                        edge_prob: float = 0.3) -> Graph:
    """Two Gaussian clusters on a fixed random topology.

    The edges and the two cluster centers depend on ``seed`` alone, so
    sweeping ``cluster_std`` under one seed varies only the attribute noise.
    Labels are the cluster memberships (balanced halves).
    """
    _check_sizes(seed, n, d)
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if not 0.0 <= cluster_std < math.inf:
        raise ConfigError(f"cluster_std must be finite and >= 0, got {cluster_std}")
    topo_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA11CE]))
    row, col = _strict_upper_draw(topo_rng, n, lambda lo, hi: edge_prob)
    edges = EdgeList(n, row, col, np.ones(row.size))
    centers = topo_rng.uniform(-10.0, 10.0, size=(2, d))

    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    noise_rng = np.random.default_rng(_seed_with_tag(seed, cluster_std))
    features = centers[labels] + cluster_std * noise_rng.standard_normal((n, d))
    return Graph(edges=edges, features=features, labels=labels, num_classes=2)


def _sbm(rng, n: int, intra: float, inter: float, d: int) -> Graph:
    """A contextual two-community SBM drawn from ``rng``: edges from one
    n x n uniform draw below ``intra`` within a community and ``inter``
    between them, Uniform(0,1] weights from a second, then 1 + N(0,1)
    features. The draws do not depend on the probabilities, so under one
    stream raising a probability only adds edges (nested edge sets) and
    every graph carries the same features."""
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    row, col = _strict_upper_draw(
        rng, n, lambda lo, hi: np.where(labels[lo:hi, None] == labels, intra, inter))
    # the second draw, the weights, is read at the picks one row block at a time
    weight = np.empty(row.size)
    for lo, hi in _row_blocks(n):
        a, b = np.searchsorted(row, (lo, hi))
        weight[a:b] = 1.0 - rng.random((hi - lo, n))[row[a:b] - lo, col[a:b]]  # Uniform(0, 1]
    features = 1.0 + rng.standard_normal((n, d))
    return Graph(edges=EdgeList(n, row, col, weight), features=features, labels=labels,
                 num_classes=2)


def gen_sbm(seed: int, n: int = 100, p: float = 0.8, d: int = 10) -> Graph:
    """Two-community stochastic block model with Uniform(0,1] edge weights.

    Intra-community edge probability is ``p``, inter-community ``p / 10``.
    Features are 1 + N(0,1); labels are the communities. Two n x n uniform
    draws, made a row block at a time, pick the edges and weigh them; they
    and the features depend on ``seed`` only, so lowering ``p`` under a
    fixed seed removes edges monotonically (nested edge sets) and keeps the
    features.
    """
    _check_sizes(seed, n, d)
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"p must be in (0, 1], got {p}")
    return _sbm(np.random.default_rng(np.random.SeedSequence([int(seed), 0x5B3])),
                n, p, p / 10.0, d)


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
