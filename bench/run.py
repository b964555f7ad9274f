"""Benchmark of the gaa reproduction.

Usage, from the repository root:

    python3 bench/run.py --workload paper-100 --seed 1 --seconds 40 --trace 0

Workloads (why each exists is in bench/README.md and BENCHMARK.json):

  paper-100    six variants in one process, acceptance protocol, n=100
  sparse-2000  GAA then GCN in one process, n=2000, sparse topology
  cli-1000     generate / train / eval / bound / diagnose / sweep as
               separate ``gaa`` processes, n=1000

The benchmark writes the input pair from ``--seed`` itself, then runs passes
until ``--seconds`` is spent (at least two, so seeded outputs can be compared
between passes). Every pass is a fresh process tree with BLAS and OpenMP
pinned to one thread. With ``--trace 0`` all passes are untraced and the
end-to-end metrics are printed. With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics are printed; the traced passes run with
``bench/trace_site`` first on PYTHONPATH, which wraps the ``gaa`` modules
from outside (see ``gaatrace.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The machine, the load average
before and after, and every pass are written to
``.bench_work/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_SITE = BENCH / "trace_site"

RUN_LIMIT_S = 170.0  # every pass is killed past this point of the run
GAA_MAIN = "import sys; from gaa.cli import main; sys.exit(main())"  # the `gaa` entry point

# the frozen acceptance protocol of tests/test_acceptance.py
PROTOCOL = {"epochs": 100, "lr": 3e-3, "dropout": 0.3, "k": 3, "grl_lambda": 1.0,
            "weights": {"alpha": 0.5, "beta": 0.01, "tau": 0.1}}
ALL_VARIANTS = ["GAA", "GAA1", "GAA2", "GAA3", "GCN", "KNN_GCN"]

# In process, the pair is drawn with the acceptance transfer pair's seed.
PAIR_SEED = 5
# "probes": set-up-only processes before each untraced pass, so that every
# run samples set-up time a dozen times or more
WORKLOADS = {
    # --seed is the training seed
    "paper-100": {"kind": "inproc", "n": 100, "edge_prob": 0.3,
                  "variants": ALL_VARIANTS, "epochs": 100, "probes": 1},
    # 5 epochs: one GAA epoch costs about 1.4 s at n=2000, and a run needs two
    # passes. The training seed is fixed: after 5 epochs the target accuracy
    # swung between 0.5 and 0.8 with the pair seed and with the training seed,
    # a spread across seeds that no bound allows.
    "sparse-2000": {"kind": "inproc", "n": 2000, "edge_prob": 0.01,
                    "variants": ["GAA", "GCN"], "epochs": 5, "seed": 0, "probes": 3},
    "cli-1000": {"kind": "cli", "n": 1000, "edge_prob": 0.02, "probes": 6},
}
SOURCE_STD, TARGET_STD, DIM = 0.4, 1.2, 10

CLI_RUNS = 3
# the default config otherwise; 100 epochs would make one session about 40 s
CLI_EPOCHS = 25
SWEEP_K = [2, 3, 4, 5]
# `train --runs N` also retrains the seed model for model.bin: N + 1 models
CLI_MODELS = CLI_RUNS + 1 + CLI_RUNS * len(SWEEP_K)

OP_KINDS = ["matmul", "transpose", "add", "sub", "hadamard", "divide", "scale", "relu", "log",
            "sigmoid", "sqrt", "clip_min", "row_softmax", "sum_all", "mean_rows", "row_sum",
            "sq_l2", "grad_reverse", "dropout"]
CLI_VERBS = ["generate", "train", "eval", "bound", "diagnose", "sweep"]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# inputs


def write_attribute_shift_pair(out: Path, seed: int, n: int, edge_prob: float):
    """The attribute-shift pair in gaa's text formats.

    The same model as ``gaa generate --kind attribute-shift``: a random
    topology and two cluster centres drawn from ``seed``, features drawn
    around the centres with the domain's std. It lives here so the inputs
    stay fixed while the program changes.
    """
    out.mkdir(parents=True)
    for domain, std in (("source", SOURCE_STD), ("target", TARGET_STD)):
        topo = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
        upper = np.triu(topo.random((n, n)) < edge_prob, 1)
        centers = topo.uniform(-10.0, 10.0, size=(2, DIM))
        labels = (np.arange(n) >= n // 2).astype(np.int64)
        std_bits = int(np.float64(std).view(np.uint64))
        noise = np.random.default_rng(np.random.SeedSequence([seed, std_bits]))
        features = centers[labels] + std * noise.standard_normal((n, DIM))
        with open(out / f"{domain}.edges", "w") as fh:
            fh.writelines(f"{i} {j}\n" for i, j in zip(*np.nonzero(upper)))
        with open(out / f"{domain}.features.csv", "w") as fh:
            fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in features)
        with open(out / f"{domain}.labels.txt", "w") as fh:
            fh.writelines(f"{y}\n" for y in labels)


def read_graph(pair: Path, domain: str):
    """Dense adjacency and features read back from the text formats."""
    features = np.loadtxt(pair / f"{domain}.features.csv", delimiter=",", ndmin=2)
    adj = np.zeros((len(features), len(features)))
    with open(pair / f"{domain}.edges") as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts:
                i, j = int(parts[0]), int(parts[1])
                if i != j:
                    adj[i, j] = adj[j, i] = float(parts[2]) if len(parts) == 3 else 1.0
    return adj, features


def pairwise_sq_sum(u: np.ndarray, v: np.ndarray) -> float:
    """sum over all (i, j) of ||u_i - v_j||^2, summed directly in row blocks."""
    return float(sum(((u[i:i + 64, None, :] - v[None, :, :]) ** 2).sum()
                     for i in range(0, len(u), 64)))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# processes


def child_env(workers: int, trace_dir: Path | None) -> dict:
    env = dict(os.environ)
    # PYTHONDONTWRITEBYTECODE: every process compiles gaa from source whatever
    # the caller's setting, and nothing is written under src/
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               GAA_THREADS=str(workers), PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("GAATRACE_DIR", None)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
        env["PYTHONPATH"] = f"{TRACE_SITE}{os.pathsep}{SRC}"
        env["GAATRACE_DIR"] = str(trace_dir)
    return env


def _group_members(pgid: int) -> list[int]:
    """Live processes of a process group, read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _Watch(threading.Thread):
    """Samples the peak RSS of every process in a pass's group and kills the
    group once the deadline passes."""

    def __init__(self, pgid: int, deadline: float):
        super().__init__(daemon=True)
        self.pgid, self.deadline = pgid, deadline
        self.hwm_kb: dict[int, int] = {}
        self.timed_out = False
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.1):
            for pid in _group_members(self.pgid):
                self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), _vm_hwm_kb(pid))
            if time.monotonic() > self.deadline and not self.timed_out:
                self.timed_out = True
                _kill_group(self.pgid)


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_proc(argv: list[str], env: dict, out_dir: Path, label: str, deadline: float) -> dict:
    """Run one process tree to completion; returns its times and resources.

    stdout and stderr go to files, so the parent can block in wait4, which
    also returns the tree's CPU time and peak RSS.
    """
    stdout = out_dir / f"{label}.out"
    stderr = out_dir / f"{label}.err"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=out_dir, stdout=out, stderr=err,
                                start_new_session=True)
        watch = _Watch(proc.pid, deadline)
        watch.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): leave no process of the pass behind
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        watch.done.set()
        watch.join()
    # a pass leaves no process behind, even if its root exited early
    _kill_group(proc.pid)
    wait_until = time.monotonic() + 10.0
    while _group_members(proc.pid) and time.monotonic() < wait_until:
        time.sleep(0.05)
    code = proc.returncode
    if code != 0:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-5:]
        log(f"{label}: exit {code}{' (timed out)' if watch.timed_out else ''}: "
            + " | ".join(tail))
    return {
        "label": label, "code": code, "timed_out": watch.timed_out,
        "start": start, "end": end, "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # wait4 gives the largest single process; the sampled sum covers
        # processes alive at once, such as pool workers
        "peak_rss_mb": max(usage.ru_maxrss, sum(watch.hwm_kb.values())) / 1024.0,
        "stdout": stdout,
    }


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, index: int, traced: bool):
        self.index, self.traced = index, traced
        self.ops: list[tuple[str, bool]] = []
        self.digests: dict[str, str] = {}
        self.procs: list[dict] = []
        self.trace_dirs: list[Path] = []
        self.values: dict[str, float] = {}

    def check(self, name: str, ok: bool):
        self.ops.append((name, bool(ok)))
        if not ok:
            log(f"pass {self.index}: check failed: {name}")

    def to_dict(self) -> dict:
        return {"index": self.index, "traced": self.traced, "values": self.values,
                "failed": [name for name, ok in self.ops if not ok], "attempted": len(self.ops),
                "procs": [{k: v for k, v in p.items() if k != "stdout"} for p in self.procs]}


def inproc_pass(p: Pass, spec: dict, pair: Path, seed: int, work: Path, workers: int,
                deadline: float):
    config = {**PROTOCOL, "epochs": spec["epochs"], "seed": spec.get("seed", seed)}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({"pair": str(pair), "variants": spec["variants"],
                                     "config": config}))
    trace_dir = work / "trace" if p.traced else None
    if trace_dir is not None:
        p.trace_dirs.append(trace_dir)
    proc = run_proc([sys.executable, str(BENCH / "inproc.py"), str(spec_path), "result.json"],
                    child_env(workers, trace_dir), work, "inproc", deadline)
    p.procs.append(proc)
    wrote = proc["code"] == 0 and (work / "result.json").is_file()
    p.check("inproc exit 0 and wrote its result", wrote)
    doc = json.loads((work / "result.json").read_text()) if wrote else None
    accs = []
    for variant in spec["variants"]:
        run = next((r for r in doc["runs"] if r["variant"] == variant), None) if doc else None
        p.check(f"train {variant}", run is not None and run["ok"])
        if run is None or not run["ok"]:
            continue
        p.check(f"{variant} losses finite", run["finite"])
        p.check(f"{variant} source loss fell", run["learned"])
        p.check(f"{variant} accuracy in [0, 1]", 0.0 <= run["acc"] <= 1.0)
        p.digests[f"{variant} metrics+params"] = run["digest"]
        accs.append(run["acc"])
    if doc is None:
        return
    p.values = {
        "setup_s": doc["setup_end"] - proc["start"],
        "train_s": doc["train_s"],
        "wall_s": proc["wall_s"],
        "peak_rss_mb": proc["peak_rss_mb"],
    }
    if accs:
        p.values["target_acc"] = statistics.fmean(accs)


def cli_argvs(seed: int) -> dict:
    """Arguments of each verb of the cli-1000 session, run in its pass directory."""
    n, edge_prob = WORKLOADS["cli-1000"]["n"], WORKLOADS["cli-1000"]["edge_prob"]
    return {
        "generate": ["generate", "--kind", "attribute-shift", "--seed", str(seed), "--n", str(n),
                     "--d", str(DIM), "--edge-prob", str(edge_prob),
                     "--source-std", str(SOURCE_STD), "--std", str(TARGET_STD), "--out", "pair"],
        "train": ["train", "--pair", "pair", "--runs", str(CLI_RUNS), "--variant", "KNN_GCN",
                  "--seed", str(seed), "--set", f"epochs={CLI_EPOCHS}", "--out", "train"],
        "eval": ["eval", "--checkpoint", "train/model.bin", "--edges", "pair/target.edges",
                 "--features", "pair/target.features.csv", "--labels", "pair/target.labels.txt"],
        "bound": ["bound", "--pair", "pair"],
        "diagnose": ["diagnose", "--pair", "pair"],
        "sweep": ["sweep", "--pair", "pair", "--variant", "KNN_GCN", "--seed", str(seed),
                  "--runs", str(CLI_RUNS), "--set", f"epochs={CLI_EPOCHS}",
                  "--grid", "alpha=0.5", "--grid", "beta=0.01", "--grid", "tau=0.1",
                  "--grid", "k=" + ",".join(map(str, SWEEP_K)), "--out", "sweep/sweep.csv"],
    }


def gaa_verb(p: Pass, argv: list[str], work: Path, workers: int, deadline: float) -> dict:
    verb = argv[0]
    trace_dir = work / "trace" / verb if p.traced else None
    if trace_dir is not None:
        p.trace_dirs.append(trace_dir)
    proc = run_proc([sys.executable, "-c", GAA_MAIN, *argv],
                    child_env(workers, trace_dir), work, verb, deadline)
    p.procs.append(proc)
    p.check(f"gaa {verb} exit 0", proc["code"] == 0)
    return proc


def setup_probe(p: Pass, spec: dict, pair: Path, seed: int, work: Path, workers: int,
                deadline: float):
    """Set-up alone: the pass process up to training, or `gaa generate`."""
    if spec["kind"] == "inproc":
        inproc_pass(p, {**spec, "variants": []}, pair, seed, work, workers, deadline)
    else:
        proc = gaa_verb(p, cli_argvs(seed)["generate"], work, workers, deadline)
        p.values = {"setup_s": proc["wall_s"]}


def cli_pass(p: Pass, seed: int, work: Path, workers: int, deadline: float):
    pair, train_dir, sweep_csv = work / "pair", work / "train", work / "sweep" / "sweep.csv"
    argvs = cli_argvs(seed)
    procs = {}
    for verb in CLI_VERBS:
        procs[verb] = gaa_verb(p, argvs[verb], work, workers, deadline)

    # output checks, after the session so that they add nothing to its times
    pair_files = [f"{d}.{ext}" for d in ("source", "target")
                  for ext in ("edges", "features.csv", "labels.txt")]
    p.check("generate wrote the pair", all((pair / f).is_file() for f in pair_files))
    for f in pair_files:
        if (pair / f).is_file():
            p.digests[f"pair/{f}"] = sha(pair / f)

    accs = []  # (accuracy, number of models it stands for)
    for i in range(CLI_RUNS):
        path = train_dir / f"metrics_run{i}.json"
        ok = learned = path.is_file()
        if ok:
            doc = json.loads(path.read_text())
            epochs = doc["per_epoch"]
            losses = [v for e in epochs for k, v in e.items() if k != "epoch"]
            ok = len(epochs) == doc["epochs"] > 0 and all(map(math.isfinite, losses))
            # a run whose gradients do nothing keeps its first-epoch loss
            learned = ok and epochs[-1]["loss_S"] < epochs[0]["loss_S"]
            p.digests[path.name] = sha(path)
        p.check(f"train {path.name} losses finite", ok)
        p.check(f"train {path.name} source loss fell", learned)
    summary = train_dir / "summary.json"
    train_accs = json.loads(summary.read_text())["accuracies"] if summary.is_file() else []
    p.check("train summary", len(train_accs) == CLI_RUNS
            and all(0.0 <= a <= 1.0 for a in train_accs))
    accs += [(a, 1) for a in train_accs]
    for f in ("summary.json", "model.bin"):
        if (train_dir / f).is_file():
            p.digests[f] = sha(train_dir / f)
    p.check("train wrote model.bin", (train_dir / "model.bin").is_file())

    outputs = {}
    for verb in ("eval", "bound", "diagnose"):
        try:
            outputs[verb] = json.loads(procs[verb]["stdout"].read_text())
            p.digests[f"{verb} stdout"] = sha(procs[verb]["stdout"])
        except ValueError:
            outputs[verb] = None
    acc = outputs["eval"] and outputs["eval"].get("accuracy")
    # model.bin is the seed model, retrained: eval must reproduce run 0
    p.check("eval accuracy matches run 0", acc is not None and train_accs
            and acc == train_accs[0])
    if acc is not None:
        accs.append((acc, 1))

    if all((pair / f).is_file() for f in pair_files):
        (a_s, x_s), (a_t, x_t) = read_graph(pair, "source"), read_graph(pair, "target")
        bound = outputs["bound"] or {}
        topo = pairwise_sq_sum(a_s @ x_s, a_t @ x_t) / len(x_t)
        attr = pairwise_sq_sum(x_s, x_t) / len(x_t)
        p.check("bound matches a direct pairwise sum",
                close(bound.get("topo_term", math.nan), topo, 1e-8)
                and close(bound.get("attr_term", math.nan), attr, 1e-8))
        diag = outputs["diagnose"] or {}
        p.check("diagnose topology matches mean |A X|",
                all(close(diag.get(d, {}).get("topology", math.nan),
                          float(np.abs(a @ x).mean()))
                    for d, a, x in (("source", a_s, x_s), ("target", a_t, x_t)))
                and all(math.isfinite(diag.get(d, {}).get("attribute", math.nan))
                        for d in ("source", "target")))

    rows = []
    if sweep_csv.is_file():
        lines = sweep_csv.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        p.digests["sweep.csv"] = sha(sweep_csv)
    p.check("sweep wrote one row per k",
            [int(r[3]) for r in rows] == SWEEP_K
            and all(0.0 <= float(r[4]) <= 1.0 and math.isfinite(float(r[5])) for r in rows))
    accs += [(float(r[4]), CLI_RUNS) for r in rows]

    p.values = {
        "setup_s": procs["generate"]["wall_s"],
        "train_s": procs["train"]["wall_s"] + procs["sweep"]["wall_s"],
        "wall_s": sum(proc["wall_s"] for proc in procs.values()),
        "peak_rss_mb": max(proc["peak_rss_mb"] for proc in procs.values()),
        "sweep_cpu_s": procs["sweep"]["cpu_s"],
    }
    if sum(w for _, w in accs) == CLI_MODELS:
        p.values["target_acc"] = sum(a * w for a, w in accs) / CLI_MODELS


# ---------------------------------------------------------------------------
# traces


def read_traces(trace_dirs: list[Path]) -> tuple[dict, dict, float]:
    """Span totals and counts summed over every process that wrote to the
    directories, and the time the outermost spans of the non-worker
    processes cover."""
    spans, counts, top_s = {}, {}, 0.0
    for trace_dir in trace_dirs:
        for path in sorted(trace_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            for name, rec in doc["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, value in doc["counts"].items():
                counts[name] = counts.get(name, 0.0) + value
            if not doc["worker"]:
                top_s += doc["top_s"]
    return spans, counts, top_s


def layer_metrics(p: Pass, workers: int) -> dict:
    spans, counts, top_s = read_traces(p.trace_dirs)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    m = {"trace.unattributed_frac": 1.0 - top_s / sum(proc["wall_s"] for proc in p.procs),
         # inclusive: the backward closures run inside it and have no spans
         "autodiff.backward_s": incl("autodiff.backward"),
         "autodiff.ops": counts.get("autodiff.ops", 0),
         "autodiff.matmul_gflop": counts.get("autodiff.matmul_gflop", 0.0)}
    for op in OP_KINDS:
        m[f"autodiff.op.{op}_s"] = own(f"autodiff.{op}")
        m[f"autodiff.op.{op}_calls"] = calls(f"autodiff.{op}")
    m.update({
        "featgraph.cosine_s": own("featgraph.cosine_similarity_matrix"),
        "featgraph.knn_s": own("featgraph.knn_graph"),
        "featgraph.normalize_s": own("featgraph.sym_normalize"),
        "featgraph.build_views_calls": calls("featgraph.build_views"),
        "featgraph.dense_nn_mb": counts.get("featgraph.dense_nn_mb", 0.0),
        "model.gcn_encode_s": own("model.gcn_encode"),
        "model.attention_embed_s": own("model.attention_embed"),
        "model.cross_view_scores_s": own("model.cross_view_scores"),
        "model.heads_s": own("model.classify") + own("model.domain_discriminate"),
        "model.attention_score_mb": counts.get("model.attention_score_mb", 0.0),
        "model.save_model_s": own("model.save_model"),
        "model.load_model_s": own("model.load_model"),
        "losses.source_ce_s": own("losses.source_ce"),
        "losses.alignment_loss_s": own("losses.alignment_loss"),
        "losses.domain_bce_s": own("losses.domain_bce"),
        "losses.target_entropy_s": own("losses.target_entropy"),
        "losses.total_loss_s": own("losses.total_loss"),
    })
    for variant in ALL_VARIANTS:
        m[f"train.train_gaa.{variant}_s"] = own(f"train.train_gaa.{variant}")
    m.update({
        "train.train_gaa_calls": sum(calls(f"train.train_gaa.{v}") for v in ALL_VARIANTS),
        "train.adam_step_s": own("train.adam_step"),
        "train.evaluate_s": own("train.evaluate"),
        "graphs.load_graph_s": own("graphs.load_graph"),
        "graphs.save_graph_s": own("graphs.save_graph"),
        "analysis.proposition1_bound_s": own("analysis.proposition1_bound"),
        "analysis.avg_feature_value_s": own("analysis.avg_feature_value"),
    })
    for verb in CLI_VERBS:
        m[f"cli.{verb}_s"] = own(f"cli._cmd_{verb}")
    # time the sweep's runs took over the time its workers were available
    sweep = read_traces([d for d in p.trace_dirs if d.name == "sweep"])[0]
    sweep_s = sweep.get("cli._cmd_sweep", (0, 0.0, 0.0))[1]
    busy_s = sweep.get("train.run_repeated", (0, 0.0, 0.0))[1]
    m["cli.sweep.pool_busy_frac"] = busy_s / (sweep_s * workers) if sweep_s else 0.0
    return m


# ---------------------------------------------------------------------------
# the run


def cpu_times() -> list[int]:
    """The machine-wide CPU time counters of /proc/stat, in clock ticks."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def expected_metrics(trace: bool) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "gaa" / "__init__.py").is_file():
        raise BenchError(f"no gaa source tree at {SRC / 'gaa'}")
    spec = WORKLOADS[args.workload]
    seed = args.seed % 2**31  # numpy seed sequences and `gaa --seed` take n >= 0
    units = expected_metrics(bool(args.trace))
    work = ROOT / ".bench_work" / f"{args.workload}-s{seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    env_record = {**machine(), "loadavg_before": os.getloadavg()}
    ticks = cpu_times()
    workers = min(2, env_record["nproc"])

    pair = None
    if spec["kind"] == "inproc":
        pair = work / "pair"
        write_attribute_shift_pair(pair, PAIR_SEED, spec["n"], spec["edge_prob"])
    # warm the file cache before timing
    warm = run_proc([sys.executable, "-c", "import gaa.cli"], child_env(workers, None),
                    work, "warmup", deadline)
    if warm["code"] != 0:
        raise BenchError("cannot import gaa from src/")

    t0 = time.monotonic()
    probes: list[Pass] = []
    passes: list[Pass] = []
    rounds: dict[bool, list[float]] = {False: [], True: []}  # seconds of each round
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        next_s = statistics.median(rounds[traced]) if rounds[traced] else 0.0
        if len(passes) >= 2 and time.monotonic() - t0 + next_s > args.seconds:
            break
        if len(passes) >= 2 and time.monotonic() + next_s > deadline:
            break
        round_start = time.monotonic()
        # Set-up is short and noisy: sample it more often than the passes
        # allow, spread over the run so that slow and fast phases of the
        # machine weigh as they do for the passes.
        for _ in range(0 if args.trace else spec["probes"]):
            q = Pass(len(probes), False)
            probe_dir = work / f"probe{q.index}"
            probe_dir.mkdir()
            setup_probe(q, spec, pair, seed, probe_dir, workers, deadline)
            probes.append(q)
        p = Pass(len(passes), traced)
        pass_dir = work / f"pass{p.index}"
        pass_dir.mkdir()
        if spec["kind"] == "inproc":
            inproc_pass(p, spec, pair, seed, pass_dir, workers, deadline)
        else:
            cli_pass(p, seed, pass_dir, workers, deadline)
        for proc in p.procs:
            err = (pass_dir / f"{proc['label']}.err").read_text()
            if proc["code"] == 3 and "gaatrace:" in err:
                raise BenchError(err.strip())
        if passes:
            for name, digest in passes[0].digests.items():
                if name in p.digests:
                    p.check(f"{name} identical to pass 0", p.digests[name] == digest)
        passes.append(p)
        rounds[traced].append(time.monotonic() - round_start)
        log(f"pass {p.index}{' traced' if traced else ''}: "
            + " ".join(f"{k}={v:.4g}" for k, v in p.values.items()))

    ops = [ok for q in probes + passes for _, ok in q.ops]
    failed = ops.count(False)
    plain = [q for q in passes if not q.traced]

    def med(key, group):
        vals = [q.values[key] for q in group if key in q.values]
        return statistics.median(vals) if vals else math.nan

    if args.trace:
        traced_passes = [q for q in passes if q.traced]
        per_pass = [layer_metrics(q, workers) for q in traced_passes]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = med("train_s", traced_passes) / med("train_s", plain) - 1.0
        values["cli.sweep.cpu_s"] = med("sweep_cpu_s", plain) if spec["kind"] == "cli" else 0.0
    else:
        values = {key: med(key, plain) for key in ("train_s", "wall_s", "peak_rss_mb",
                                                   "target_acc")}
        values["setup_s"] = med("setup_s", probes + plain)
        values["ok_frac"] = 1.0 - failed / len(ops)

    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    finite = all(math.isfinite(v) for v in values.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": len(ops),
        "failed": failed,
        # a metric no pass produced reads 0 (JSON has no NaN); correct is then false
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else 0.0,
                           "unit": units[name]} for name in units},
    }
    env_record["loadavg_after"] = os.getloadavg()
    # time the hypervisor gave this machine's CPUs to others during the run
    ticks = [b - a for a, b in zip(ticks, cpu_times())]
    env_record["cpu_steal_frac"] = ticks[7] / sum(ticks) if len(ticks) > 7 else None
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": env_record, "gaa_threads": workers,
                   "run_s": time.monotonic() - run_start,
                   "probes": [q.to_dict() for q in probes],
                   "passes": [q.to_dict() for q in passes], "result": result}, fh, indent=1)
    log(f"machine: {json.dumps(env_record)}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM too, so run_proc can stop the pass it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        log(f"bench: {exc}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
