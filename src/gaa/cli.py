"""Command-line driver.

Verbs: ``train``, ``eval``, ``generate``, ``bound``, ``diagnose``, ``sweep``.
Exit codes: 0 success, 1 configuration problems, 2 runtime failures. Every
command that takes ``--seed`` writes byte-reproducible output files, whatever
the BLAS thread variables and ``GAA_THREADS`` are set to; measured wall time
goes to stdout, never into seeded artifacts.

A pair directory (as produced by ``generate``) holds::

    source.edges  source.features.csv  source.labels.txt
    target.edges  target.features.csv  [target.labels.txt]  pair.json
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import thread_budget
from .exceptions import CheckpointError, ConfigError, GaaError, ParseError, field_types
from .analysis import avg_feature_value, proposition1_bound
from .featgraph import check_k
from .graphs import (
    DomainPair,
    Graph,
    gen_attribute_shift,
    gen_sbm,
    load_graph,
    save_graph,
    save_metrics,
)
from .losses import LossWeights
from .model import VARIANT_SPECS, load_model, save_model
from .train import RepeatedResult, TrainConfig, evaluate, run_repeated, run_tasks, train_gaa

DEFAULT_SWEEP_GRID = {
    "alpha": [0.005, 0.01, 0.1, 0.5, 1.0, 5.0],
    "beta": [0.005, 0.01, 0.1, 0.5, 1.0, 5.0],
    "tau": [0.005, 0.01, 0.1, 0.5, 1.0, 5.0],
    "k": list(range(1, 11)),
}
# the grid axis that sets each of these config keys in every sweep cell
GRID_AXIS_OF_KEY = {"weights.alpha": "alpha", "weights.beta": "beta", "weights.tau": "tau",
                    "k": "k"}
# each generator kind's own flags and their defaults; the other kind's are unset
GENERATE_KIND_FLAGS = {
    "attribute-shift": {"std": 1.2, "source_std": 0.4, "edge_prob": 0.3},
    "sbm": {"p": 0.4, "source_p": 0.8},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; config problems are exit 1 here
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gaa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_pair_arg(p):
        p.add_argument("--pair", required=True, help="pair directory from `generate`")

    train = sub.add_parser("train", help="train a model on a pair, write metrics + checkpoint")
    add_pair_arg(train)
    train.add_argument("--config", help="JSON file mirroring the training config")
    train.add_argument("--seed", type=int)
    train.add_argument("--runs", type=int, default=1, help="repeated runs (seed, seed+1, ...)")
    train.add_argument("--variant")
    train.add_argument("--out", required=True)
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config field, e.g. lr=0.003 or weights.alpha=0.5")

    ev = sub.add_parser("eval", help="load a checkpoint and report accuracy on a labeled graph")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--edges", required=True)
    ev.add_argument("--features", required=True)
    ev.add_argument("--labels", required=True)

    gen = sub.add_parser("generate", help="emit a synthetic domain pair to disk")
    gen.add_argument("--kind", required=True, choices=["attribute-shift", "sbm"])
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--std", type=float, help="target cluster std (attribute-shift)")
    gen.add_argument("--source-std", type=float, help="source cluster std (attribute-shift)")
    gen.add_argument("--p", type=float, help="target intra-community prob (sbm)")
    gen.add_argument("--source-p", type=float, help="source intra-community prob (sbm)")
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--d", type=int, default=10)
    gen.add_argument("--edge-prob", type=float, help="edge probability (attribute-shift)")

    bound = sub.add_parser("bound", help="print the pairwise divergence report for a pair")
    add_pair_arg(bound)

    diag = sub.add_parser("diagnose", help="print average propagated feature values per view")
    add_pair_arg(diag)
    diag.add_argument("--k", type=int, default=3)

    sweep = sub.add_parser("sweep", help="grid over alpha/beta/tau/k, one CSV row per cell")
    add_pair_arg(sweep)
    sweep.add_argument("--config", help="JSON file mirroring the training config")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--runs", type=int, default=5)
    sweep.add_argument("--variant")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2,...",
                       help="override one grid axis (alpha, beta, tau, k)")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _coerce(key: str, raw: str):
    """Parse a ``--set`` value as the type of the config field it names."""
    owner, name = ((LossWeights, key[len("weights."):]) if key.startswith("weights.")
                   else (TrainConfig, key))
    kind = field_types(owner).get(name)
    if kind is LossWeights:
        raise ConfigError(f"config key {key!r} is not settable; set one of "
                          + ", ".join(f"{key}.{field}" for field in field_types(kind)))
    if kind not in (int, float, str, bool):
        raise ConfigError(f"unknown config key {key!r}")
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean for {key}, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}")


def _load_config(args) -> TrainConfig:
    doc = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
        try:
            doc = json.loads(raw)
        except ValueError as exc:  # invalid JSON or undecodable bytes
            raise ConfigError(f"{path}: {exc}")
    cfg = TrainConfig.from_dict(doc)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "variant", None) is not None:
        cfg = replace(cfg, variant=args.variant)
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        value = _coerce(key, raw)
        if key.startswith("weights."):
            cfg = replace(cfg, weights=replace(cfg.weights, **{key[len("weights."):]: value}))
        else:
            cfg = replace(cfg, **{key: value})
    return cfg


def load_pair(pair_dir) -> DomainPair:
    pair_dir = Path(pair_dir)
    if not pair_dir.is_dir():
        raise ConfigError(f"pair directory not found: {pair_dir}")
    source = load_graph(pair_dir / "source.edges", pair_dir / "source.features.csv",
                        pair_dir / "source.labels.txt")
    target_labels = pair_dir / "target.labels.txt"
    target = load_graph(pair_dir / "target.edges", pair_dir / "target.features.csv",
                        target_labels if target_labels.exists() else None,
                        num_classes=source.num_classes)
    if target.dim != source.dim:
        raise ConfigError(f"{pair_dir / 'target.features.csv'}: {target.dim} feature columns, "
                          f"but {pair_dir / 'source.features.csv'} has {source.dim}")
    return DomainPair(source=source, target=target)


def _write_pair(pair: DomainPair, out_dir: Path, meta: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    save_graph(pair.source, out_dir / "source.edges", out_dir / "source.features.csv",
               out_dir / "source.labels.txt")
    save_graph(pair.target, out_dir / "target.edges", out_dir / "target.features.csv",
               out_dir / "target.labels.txt" if pair.target.labels is not None else None)
    with open(out_dir / "pair.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verbs


def _check_runs(runs: int):
    if runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {runs}")


def _check_out(out: Path, is_dir: bool):
    """Fail before any training where writing ``out``, a directory or a
    file, would fail after it."""
    if out.exists() and out.is_dir() != is_dir:
        raise ConfigError(f"--out {out} is {'not ' if is_dir else ''}a directory")
    ancestor = next((p for p in out.parents if p.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise ConfigError(f"--out {out}: {ancestor} is not a directory")


def _check_target_labels(pair: DomainPair, pair_dir, what: str):
    # repeated runs and sweep cells are scored on target accuracy
    if pair.target.labels is None:
        raise ConfigError(f"{what} needs target labels, and "
                          f"{Path(pair_dir) / 'target.labels.txt'} does not exist")


def _cmd_train(args) -> int:
    _check_runs(args.runs)
    thread_budget()
    cfg = _load_config(args)
    out = Path(args.out)
    _check_out(out, is_dir=True)
    pair = load_pair(args.pair)
    if args.runs > 1:
        _check_target_labels(pair, args.pair, f"--runs {args.runs}")
    started = time.perf_counter()
    if args.runs == 1:
        model, metrics = train_gaa(pair, cfg)
        out.mkdir(parents=True, exist_ok=True)
        save_metrics(metrics, out / "metrics.json")
        save_model(model, out / "model.bin")
        print(f"accuracy={metrics.target_accuracy} "
              f"elapsed={time.perf_counter() - started:.2f}s -> {out}")
    else:
        result = run_repeated(pair, cfg, n_runs=args.runs)
        out.mkdir(parents=True, exist_ok=True)
        for i, metrics in enumerate(result.metrics):
            save_metrics(metrics, out / f"metrics_run{i}.json")
        save_model(result.first_model, out / "model.bin")
        with open(out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump({"mean_acc": result.mean_acc, "std_acc": result.std_acc,
                       "accuracies": result.accuracies, "runs": args.runs}, fh, indent=2)
            fh.write("\n")
        print(f"mean_acc={result.mean_acc:.4f} std_acc={result.std_acc:.4f} "
              f"elapsed={time.perf_counter() - started:.2f}s -> {out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    graph = load_graph(args.edges, args.features, args.labels, num_classes=model.num_classes)
    if graph.dim != model.in_dim:
        raise ConfigError(f"{args.features}: {graph.dim} feature columns, but the checkpoint "
                          f"{args.checkpoint} takes {model.in_dim}")
    acc = evaluate(model, graph)
    print(json.dumps({"accuracy": acc}))
    return 0


def _cmd_generate(args) -> int:
    _check_out(Path(args.out), is_dir=True)
    for kind, flags in GENERATE_KIND_FLAGS.items():
        for name, default in flags.items():
            if kind == args.kind and getattr(args, name) is None:
                setattr(args, name, default)
            elif kind != args.kind and getattr(args, name) is not None:
                raise ConfigError(f"--{name.replace('_', '-')} shapes only {kind} pairs, "
                                  f"not {args.kind} ones")
    if args.kind == "attribute-shift":
        source = gen_attribute_shift(args.source_std, args.seed, n=args.n, d=args.d,
                                     edge_prob=args.edge_prob)
        target = gen_attribute_shift(args.std, args.seed, n=args.n, d=args.d,
                                     edge_prob=args.edge_prob)
        meta = {"kind": args.kind, "seed": args.seed, "n": args.n, "d": args.d,
                "edge_prob": args.edge_prob, "source_std": args.source_std,
                "target_std": args.std}
    else:
        source = gen_sbm(args.seed, n=args.n, p=args.source_p, d=args.d)
        target = gen_sbm(args.seed, n=args.n, p=args.p, d=args.d)
        meta = {"kind": args.kind, "seed": args.seed, "n": args.n, "d": args.d,
                "source_p": args.source_p, "target_p": args.p}
    pair = DomainPair(source=source, target=target)
    _write_pair(pair, Path(args.out), meta)
    print(f"wrote pair to {args.out}")
    return 0


def _check_finite(pair_dir, what: str, terms: dict):
    # finite input can still be too large to compute with; the user can rescale it
    for name, value in terms.items():
        if not math.isfinite(value):
            raise ConfigError(f"{pair_dir}: the {what} {name!r} overflows float64")


def _cmd_bound(args) -> int:
    pair = load_pair(args.pair)
    with np.errstate(over="ignore", invalid="ignore"):
        report = proposition1_bound(pair.source, pair.target)
    _check_finite(args.pair, "bound term", asdict(report))
    print(json.dumps(asdict(report)))
    return 0


def _cmd_diagnose(args) -> int:
    pair = load_pair(args.pair)
    doc = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, graph in (("source", pair.source), ("target", pair.target)):
            doc[name] = {
                "topology": avg_feature_value(graph, "topology"),
                "attribute": avg_feature_value(graph, "attribute", k=args.k),
            }
            _check_finite(args.pair, f"{name} view", doc[name])
    print(json.dumps(doc, indent=2))
    return 0


def _parse_grid(items) -> dict:
    grid = dict(DEFAULT_SWEEP_GRID)
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--grid needs KEY=V1,V2,..., got {item!r}")
        key, raw = item.split("=", 1)
        if key not in grid:
            raise ConfigError(f"unknown grid axis {key!r}; expected one of {sorted(grid)}")
        cast = int if key == "k" else float
        try:
            grid[key] = [cast(v) for v in raw.split(",") if v]
        except ValueError:
            raise ConfigError(f"bad grid value in {item!r}")
        if not grid[key]:
            raise ConfigError(f"empty grid for {key!r}")
    return grid


def _sweep_cell(runs) -> tuple[float, float]:
    """A cell's mean and std accuracy over the metrics of its runs, in seed
    order."""
    result = RepeatedResult.of_runs(runs)
    return result.mean_acc, result.std_acc


def _cmd_sweep(args) -> int:
    _check_runs(args.runs)
    thread_budget()
    cfg = _load_config(args)
    for item in args.set:
        key = item.split("=", 1)[0]
        if key in GRID_AXIS_OF_KEY:
            raise ConfigError(f"--set {key}: the grid sets {key} in every cell; "
                              f"give its values with --grid {GRID_AXIS_OF_KEY[key]}=V1,V2,...")
    grid = _parse_grid(args.grid)
    out = Path(args.out)
    _check_out(out, is_dir=False)
    spec = VARIANT_SPECS[cfg.variant]
    cells = list(itertools.product(grid["alpha"], grid["beta"], grid["tau"], grid["k"]))
    # a cell's key is what the variant's row reads of it; the first cell of
    # each key, in grid order, trains for every row of that key
    keys, distinct = [], {}
    for alpha, beta, tau, k in cells:
        cell_cfg = replace(cfg, k=k, weights=LossWeights(alpha=alpha, beta=beta, tau=tau))
        key = (cell_cfg.weights if spec.adapts else None, k if spec.feat else None)
        keys.append(key)
        distinct.setdefault(key, cell_cfg)
    pair = load_pair(args.pair)
    _check_target_labels(pair, args.pair, "sweep")
    if spec.feat:  # a k too large for a graph fails before any cell
        check_k(min(pair.source.n, pair.target.n), max(grid["k"]))

    runs = args.runs
    metrics, _ = run_tasks(pair, [replace(cell_cfg, seed=cell_cfg.seed + offset)
                                  for cell_cfg in distinct.values() for offset in range(runs)])
    results = {key: _sweep_cell(metrics[i * runs:(i + 1) * runs])
               for i, key in enumerate(distinct)}

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "tau", "k", "mean_acc", "std_acc"])
        for (alpha, beta, tau, k), key in zip(cells, keys):
            writer.writerow([repr(alpha), repr(beta), repr(tau), k, *map(repr, results[key])])
    trained = f"{len(distinct)} trained cell" + ("" if len(distinct) == 1 else "s")
    print(f"wrote {len(cells)} rows from {trained} to {out}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "generate": _cmd_generate,
    "bound": _cmd_bound,
    "diagnose": _cmd_diagnose,
    "sweep": _cmd_sweep,
}


def run_command(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.verb](args)
    except (GaaError, OSError, MemoryError) as exc:
        # numpy names a failed request; a bare MemoryError says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        # 1 for input the user can fix, 2 for a runtime failure
        return 1 if isinstance(exc, (ConfigError, ParseError, CheckpointError)) else 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
