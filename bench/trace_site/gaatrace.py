"""Span tracer installed from outside the program.

``install`` imports every ``gaa`` layer module, wraps its public functions
(plus the private ones the benchmark reports on) in timing spans, and
rebinds every module-level name and dict entry in ``gaa.*`` that holds an
original, so names imported with ``from .x import f`` are traced too. No
file under ``src/`` changes.

Each process keeps, per span name, the call count, inclusive time and self
time (inclusive minus the time of its child spans), plus a few exact counts
computed from argument shapes. It writes them to ``<dir>/<pid>.json`` every
time its outermost span ends: pool workers are terminated without running
exit hooks, so a flush at exit would lose their spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("autodiff", "featgraph", "model", "losses", "train", "graphs", "analysis", "cli")

# Names the benchmark's per-layer metrics are built from. A missing one is a
# setup error, so a renamed function cannot silently read as zero time.
REQUIRED = {
    "autodiff": ("_emit", "backward", "matmul"),
    "featgraph": ("cosine_similarity_matrix", "knn_graph", "sym_normalize", "build_views"),
    "model": ("gcn_encode", "attention_embed", "cross_view_scores", "classify",
              "domain_discriminate", "save_model", "load_model"),
    "losses": ("source_ce", "alignment_loss", "domain_bce", "target_entropy", "total_loss"),
    "train": ("train_gaa", "adam_step", "evaluate", "run_repeated"),
    "graphs": ("load_graph", "save_graph"),
    "analysis": ("proposition1_bound", "avg_feature_value"),
    "cli": ("main", "load_pair", "_cmd_train", "_cmd_eval", "_cmd_generate", "_cmd_bound",
            "_cmd_diagnose", "_cmd_sweep", "_sweep_cell"),
}

# Called once per tape record from inside ``_emit``; a span there would
# double the per-op tracing cost and measure nothing of its own.
SKIP = {("autodiff", "active_tape")}


class TraceSetupError(RuntimeError):
    pass


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stack: list[float] = []   # child time accumulated by each open span
        self.agg: dict[str, list] = {}  # span name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, float] = {}
        self.top_s = 0.0                # time covered by outermost spans

    def reset_after_fork(self):
        # a forked worker inherits the parent's open spans and totals
        self.stack.clear()
        self.agg.clear()
        self.counts.clear()
        self.top_s = 0.0

    def record(self, name: str, seconds: float):
        """Add a span that ran outside any wrapper (the import of gaa)."""
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds
        self.top_s += seconds

    def span(self, name, fn, name_of=None, count=None):
        """A wrapper for ``fn`` that pickles and reads like the original."""
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, kwargs, result)
            finally:
                dt = clock() - t0
                child = stack.pop()
                key = name_of(args, kwargs) if name_of else name
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
                    self.flush()
            return result

        wrapper.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def add(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def flush(self):
        mp = sys.modules.get("multiprocessing")
        worker = mp is not None and mp.parent_process() is not None
        doc = {"pid": os.getpid(), "worker": worker, "top_s": self.top_s,
               "spans": self.agg, "counts": self.counts}
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hooks(tracer: Tracer):
    """Per-name span naming and exact counts computed from shapes."""

    def matmul_flops(args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        tracer.add("autodiff.matmul_gflop", 2.0 * a.rows * a.cols * b.cols / 1e9)

    def attention_bytes(args, kwargs, result):
        n = _arg(args, kwargs, 0, "z").rows
        tracer.add("model.attention_score_mb", n * n * 8 / 1e6)

    def dense_nn(args, kwargs, result):
        shape = getattr(result, "shape", ())
        if type(result).__module__ == "numpy" and len(shape) == 2 and shape[0] == shape[1] > 1:
            tracer.add("featgraph.dense_nn_mb", result.nbytes / 1e6)

    def variant_name(args, kwargs):
        return "train.train_gaa." + _arg(args, kwargs, 1, "cfg").variant

    return {
        "autodiff.matmul": {"count": matmul_flops},
        "model.attention_embed": {"count": attention_bytes},
        "featgraph.cosine_similarity_matrix": {"count": dense_nn},
        "featgraph.knn_graph": {"count": dense_nn},
        "featgraph.sym_normalize": {"count": dense_nn},
        "train.train_gaa": {"name_of": variant_name},
    }


def _traced_emit(tracer: Tracer, emit):
    """Count forward ops. ``_emit`` itself gets no span: its work is its op's,
    and the backward closures it records run inside ``backward``'s span."""

    def traced(kind, data, parents, backward_fn):
        tracer.counts["autodiff.ops"] = tracer.counts.get("autodiff.ops", 0) + 1
        return emit(kind, data, parents, backward_fn)

    traced.__wrapped__ = emit
    return traced


def install(out_dir: str) -> Tracer:
    t0 = time.perf_counter()
    modules = {layer: importlib.import_module(f"gaa.{layer}") for layer in LAYERS}
    import_s = time.perf_counter() - t0

    missing = [f"gaa.{layer}.{name}" for layer, names in REQUIRED.items() for name in names
               if not inspect.isfunction(getattr(modules[layer], name, None))]
    if missing:
        raise TraceSetupError("traced names no longer exist: " + ", ".join(missing))

    tracer = Tracer(out_dir)
    tracer.record("import.gaa", import_s)
    hooks = _hooks(tracer)
    wrapped = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        names = {n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and not n.startswith("_")}
        names |= set(REQUIRED[layer])
        for name in sorted(names):
            if (layer, name) in SKIP:
                continue
            fn = getattr(mod, name)
            span_name = f"{layer}.{name}"
            if span_name == "autodiff._emit":
                wrapped[id(fn)] = _traced_emit(tracer, fn)
            else:
                wrapped[id(fn)] = tracer.span(span_name, fn, **hooks.get(span_name, {}))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gaa" and not mod_name.startswith("gaa."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif type(obj) is dict:
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]

    os.register_at_fork(after_in_child=tracer.reset_after_fork)
    return tracer
