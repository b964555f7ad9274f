"""Command-line driver.

Verbs: ``train``, ``eval``, ``generate``, ``bound``, ``diagnose``, ``sweep``.
Exit codes: 0 success, 1 configuration problems, 2 runtime failures. Every
command that takes ``--seed`` writes byte-reproducible output files; measured
wall time goes to stdout, never into seeded artifacts.

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
import os
import sys
import time
from dataclasses import asdict, replace
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .autodiff import thread_budget, worker_count
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
from .train import TrainConfig, evaluate, run_repeated, train_gaa

DEFAULT_SWEEP_GRID = {
    "alpha": [0.005, 0.01, 0.1, 0.5, 1.0, 5.0],
    "beta": [0.005, 0.01, 0.1, 0.5, 1.0, 5.0],
    "tau": [0.005, 0.01, 0.1, 0.5, 1.0, 5.0],
    "k": list(range(1, 11)),
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
    gen.add_argument("--std", type=float, default=1.2, help="target cluster std (attribute-shift)")
    gen.add_argument("--source-std", type=float, default=0.4)
    gen.add_argument("--p", type=float, default=0.8, help="target intra-community prob (sbm)")
    gen.add_argument("--source-p", type=float, default=0.8)
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--d", type=int, default=10)
    gen.add_argument("--edge-prob", type=float, default=0.3)

    bound = sub.add_parser("bound", help="print the pairwise divergence report for a pair")
    add_pair_arg(bound)
    bound.add_argument("--normalize-by", type=int, default=None)

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


def _check_target_labels(pair: DomainPair, pair_dir, what: str):
    # repeated runs and sweep cells are scored on target accuracy
    if pair.target.labels is None:
        raise ConfigError(f"{what} needs target labels, and "
                          f"{Path(pair_dir) / 'target.labels.txt'} does not exist")


def _cmd_train(args) -> int:
    _check_runs(args.runs)
    thread_budget()
    cfg = _load_config(args)
    pair = load_pair(args.pair)
    if args.runs > 1:
        _check_target_labels(pair, args.pair, f"--runs {args.runs}")
    out = Path(args.out)
    started = time.perf_counter()
    if args.runs == 1:
        model, metrics = train_gaa(pair, cfg)
        out.mkdir(parents=True, exist_ok=True)
        metrics.wall_seconds = 0.0  # keep seeded outputs byte-reproducible
        save_metrics(metrics, out / "metrics.json")
        save_model(model, out / "model.bin")
        print(f"accuracy={metrics.target_accuracy} "
              f"elapsed={time.perf_counter() - started:.2f}s -> {out}")
    else:
        result = run_repeated(pair, cfg, n_runs=args.runs)
        out.mkdir(parents=True, exist_ok=True)
        for i, metrics in enumerate(result.metrics):
            metrics.wall_seconds = 0.0
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
        report = proposition1_bound(pair.source, pair.target, args.normalize_by)
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


_sweep_pair = None  # the pair every sweep cell of this process trains on
# the TrainInputs of this process's last cell: cells arrive in k order, so
# each k's views are built about once per process
_sweep_inputs = None


def _set_sweep_pair(pair):
    global _sweep_pair, _sweep_inputs
    _sweep_pair, _sweep_inputs = pair, None


def _init_sweep_worker(pair):
    # the thread budget is spent on the worker processes: each attends on one
    os.environ["GAA_THREADS"] = "1"
    _set_sweep_pair(pair)


def _sweep_cell(task):
    global _sweep_inputs
    cfg, runs = task
    if _sweep_inputs is not None and _sweep_inputs.k != cfg.k:
        _sweep_inputs = None  # never hold two k's views at once
    result = run_repeated(_sweep_pair, cfg, n_runs=runs, inputs=_sweep_inputs)
    _sweep_inputs = result.inputs
    return result.mean_acc, result.std_acc


def _cmd_sweep(args) -> int:
    _check_runs(args.runs)
    cfg = _load_config(args)
    grid = _parse_grid(args.grid)
    cells = list(itertools.product(grid["alpha"], grid["beta"], grid["tau"], grid["k"]))
    # each worker receives the pair once, not once per task; no worker sits
    # idle, and none waits for a core
    workers = worker_count(len(cells))
    pair = load_pair(args.pair)
    _check_target_labels(pair, args.pair, "sweep")
    if VARIANT_SPECS[cfg.variant].feat:  # a k too large for a graph fails before any cell
        check_k(min(pair.source.n, pair.target.n), max(grid["k"]))
    tasks = []
    for alpha, beta, tau, k in cells:
        cell_cfg = replace(cfg, k=k, weights=LossWeights(alpha=alpha, beta=beta, tau=tau))
        tasks.append((cell_cfg, args.runs))
    # k-major, so that each process's consecutive cells share their views;
    # the results go back to grid order
    order = sorted(range(len(tasks)), key=lambda i: tasks[i][0].k)
    ordered = [tasks[i] for i in order]

    if workers > 1:
        with Pool(processes=workers, initializer=_init_sweep_worker, initargs=(pair,)) as pool:
            done = pool.map(_sweep_cell, ordered)
    else:
        _set_sweep_pair(pair)
        try:
            done = [_sweep_cell(t) for t in ordered]
        finally:
            _set_sweep_pair(None)
    results = [result for _, result in sorted(zip(order, done))]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "tau", "k", "mean_acc", "std_acc"])
        for (alpha, beta, tau, k), (mean_acc, std_acc) in zip(cells, results):
            writer.writerow([repr(alpha), repr(beta), repr(tau), k,
                             repr(mean_acc), repr(std_acc)])
    print(f"wrote {len(cells)} rows to {out}")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.verb](args)
    except (ConfigError, ParseError, CheckpointError) as exc:
        # user-fixable input problems
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the request; a bare MemoryError says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
