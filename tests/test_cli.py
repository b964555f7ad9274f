import contextlib
import csv
import io
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaa import autodiff
from gaa import cli as cli_module
from gaa import train
from gaa.autodiff import thread_budget
from gaa.analysis import avg_feature_value, proposition1_bound
from gaa.cli import load_pair, run_command
from gaa.exceptions import GaaError, NumericError
from gaa.featgraph import SPARSE_MIN_NODES, EdgeList, build_views
from gaa.graphs import DomainPair, Graph, RunMetrics
from gaa.losses import LossWeights
from gaa.model import VARIANTS
from gaa.train import TrainConfig, run_repeated


DATA = Path(__file__).parent / "data"

# the arguments that wrote each data/pair_<kind> directory
GOLDEN_PAIRS = {
    "attribute-shift": ["--edge-prob", "0.3", "--source-std", "0.4", "--std", "1.2"],
    "sbm": ["--source-p", "0.8", "--p", "0.4"],
}


def cli(*argv):
    return run_command(list(argv))


def record_training(monkeypatch, log: Path):
    """Wrap ``train.train_gaa`` so that each call, in this process or in a
    worker forked from it, appends one line to ``log``: its pid, the thread
    budget it attends on, and the config values a sweep varies. Returns a
    reader of those lines."""
    original = train.train_gaa

    def recording(pair, cfg, inputs=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "threads": thread_budget(),
                                 "alpha": cfg.weights.alpha, "tau": cfg.weights.tau,
                                 "k": cfg.k, "seed": cfg.seed}) + "\n")
        return original(pair, cfg, inputs)

    monkeypatch.setattr(train, "train_gaa", recording)
    return lambda: ([json.loads(line) for line in log.read_text().splitlines()]
                    if log.exists() else [])


def spy_workers(monkeypatch, seen: dict, cores=8):
    """Count in ``seen["workers"]`` the worker processes started, and start
    them. The worker cap sees ``cores`` usable CPUs, whatever this machine
    has; with None, it asks the operating system."""
    fork = type(multiprocessing.get_context("fork"))

    class Counted(fork.Process):
        def start(self):
            seen["workers"] = seen.get("workers", 0) + 1
            super().start()

    monkeypatch.setattr(fork, "Process", Counted)
    if cores is not None:
        monkeypatch.setattr(autodiff, "usable_cpus", lambda: cores)


@pytest.fixture()
def pair_dir(tmp_path):
    out = tmp_path / "pair"
    code = cli("generate", "--kind", "attribute-shift", "--std", "1.2",
               "--seed", "7", "--n", "24", "--d", "4", "--out", str(out))
    assert code == 0
    return out


class TestGenerate:
    def test_writes_all_pair_files(self, pair_dir):
        for name in ("source.edges", "source.features.csv", "source.labels.txt",
                     "target.edges", "target.features.csv", "target.labels.txt",
                     "pair.json"):
            assert (pair_dir / name).exists(), name

    def test_pair_loads_and_validates(self, pair_dir):
        pair = load_pair(pair_dir)
        assert pair.source.n == 24
        assert pair.source.dim == 4
        assert pair.num_classes == 2

    def test_reproducible_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli("generate", "--kind", "sbm", "--seed", "3", "--n", "20",
                       "--out", str(out)) == 0
        for name in ("source.edges", "target.features.csv", "pair.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("kind", GOLDEN_PAIRS)
    def test_golden_pair(self, tmp_path, kind):
        """Pins every file `gaa generate` writes across commits, as the
        golden checkpoints pin init."""
        golden, out = DATA / f"pair_{kind}", tmp_path / "pair"
        assert cli("generate", "--kind", kind, "--seed", "3", "--n", "12", "--d", "3",
                   *GOLDEN_PAIRS[kind], "--out", str(out)) == 0
        names = sorted(path.name for path in golden.iterdir())
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_default_sbm_pair_shifts_only_topology(self, tmp_path):
        out = tmp_path / "sbm"
        assert cli("generate", "--kind", "sbm", "--seed", "5", "--out", str(out)) == 0
        meta = json.loads((out / "pair.json").read_text())
        assert (meta["source_p"], meta["target_p"]) == (0.8, 0.4)
        assert (out / "source.edges").read_bytes() != (out / "target.edges").read_bytes()
        assert ((out / "source.features.csv").read_bytes()
                == (out / "target.features.csv").read_bytes())

    def test_sbm_pair_kind(self, tmp_path):
        out = tmp_path / "sbm"
        assert cli("generate", "--kind", "sbm", "--seed", "5", "--n", "20",
                   "--p", "0.5", "--out", str(out)) == 0
        meta = json.loads((out / "pair.json").read_text())
        assert meta["kind"] == "sbm" and meta["target_p"] == 0.5

    @pytest.mark.parametrize("kind, flag, value, message", [
        ("attribute-shift", "--seed", "-1", "seed must be >= 0, got -1"),
        ("attribute-shift", "--n", "-5", "n must be >= 2, got -5"),
        ("attribute-shift", "--n", "0", "n must be >= 2, got 0"),
        ("sbm", "--n", "1", "n must be >= 2, got 1"),
        ("attribute-shift", "--d", "0", "d must be >= 1, got 0"),
        ("attribute-shift", "--edge-prob", "2", "edge_prob must be in [0, 1], got 2.0"),
        ("attribute-shift", "--std", "-1", "cluster_std must be finite and >= 0, got -1.0"),
        ("attribute-shift", "--source-std", "nan",
         "cluster_std must be finite and >= 0, got nan"),
        ("sbm", "--p", "0", "p must be in (0, 1], got 0.0"),
        ("sbm", "--source-p", "1.5", "p must be in (0, 1], got 1.5"),
        # a flag of the other kind would be ignored
        *(("sbm", flag, "0.01", f"{flag} shapes only attribute-shift pairs, not sbm ones")
          for flag in ("--edge-prob", "--std", "--source-std")),
        *(("attribute-shift", flag, "0.3", f"{flag} shapes only sbm pairs, not "
           "attribute-shift ones") for flag in ("--p", "--source-p")),
        # past what numpy can address: one line, not its ValueError's traceback
        *((kind, flag, str(2**60), f"{dims} make the {shape} features more bytes than "
           "numpy can address")
          for kind in ("attribute-shift", "sbm")
          for flag, dims, shape in (("--n", f"n={2**60} and d=10", f"{2**60} x 10"),
                                    ("--d", f"n=20 and d={2**60}", f"20 x {2**60}"))),
    ])
    def test_bad_argument_exit_1(self, tmp_path, capsys, kind, flag, value, message):
        out = tmp_path / "pair"
        code = cli("generate", "--kind", kind, "--seed", "3", "--n", "20",
                   "--out", str(out), flag, value)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub, message", [
        ("", "--out {afile} is not a directory"),
        ("sub", "--out {afile}/sub: {afile} is not a directory"),
    ], ids=["a-file", "under-a-file"])
    def test_out_under_a_file_exit_1_before_generating(self, tmp_path, capsys, monkeypatch,
                                                       sub, message):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        generated = []
        monkeypatch.setattr(cli_module, "gen_attribute_shift",
                            lambda *args, **kw: generated.append(args))
        code = cli("generate", "--kind", "attribute-shift", "--seed", "3", "--n", "20",
                   "--out", str(afile / sub))
        assert code == 1
        assert capsys.readouterr().err == "error: " + message.format(afile=afile) + "\n"
        assert generated == [] and afile.read_text() == "kept\n"

    def test_out_of_memory_exit_2(self, tmp_path, capsys):
        # the 1.4 EiB center draw is past any address space, so numpy's request
        # fails before anything is allocated, whatever the overcommit policy
        out = tmp_path / "pair"
        code = cli("generate", "--kind", "attribute-shift", "--seed", "1", "--n", "10",
                   "--d", str(10**17), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()


class TestTrainEval:
    def train_args(self, pair_dir, out, *extra):
        return ("train", "--pair", str(pair_dir), "--out", str(out), "--seed", "1",
                "--set", "epochs=5", "--set", "hidden=8", "--set", "embed=4",
                "--set", "k=2", "--set", "lr=0.003", *extra)

    def test_train_writes_metrics_and_checkpoint(self, pair_dir, tmp_path):
        out = tmp_path / "run"
        assert cli(*self.train_args(pair_dir, out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 1
        assert len(metrics["per_epoch"]) == 5
        assert metrics["wall_seconds"] == 0.0
        assert 0.0 <= metrics["target_accuracy"] <= 1.0
        assert (out / "model.bin").exists()

    def test_determinism_byte_identical(self, pair_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli(*self.train_args(pair_dir, out1)) == 0
        assert cli(*self.train_args(pair_dir, out2)) == 0
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        assert (out1 / "model.bin").read_bytes() == (out2 / "model.bin").read_bytes()

    def test_gcn_variant_zeroes_adaptation_losses(self, pair_dir, tmp_path):
        out = tmp_path / "gcn"
        assert cli(*self.train_args(pair_dir, out, "--variant", "GCN")) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for row in metrics["per_epoch"]:
            assert row["loss_A"] == row["loss_D"] == row["loss_T"] == 0.0

    def test_eval_prints_accuracy(self, pair_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli(*self.train_args(pair_dir, out)) == 0
        capsys.readouterr()
        code = cli("eval", "--checkpoint", str(out / "model.bin"),
                   "--edges", str(pair_dir / "target.edges"),
                   "--features", str(pair_dir / "target.features.csv"),
                   "--labels", str(pair_dir / "target.labels.txt"))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["accuracy"] <= 1.0

    def test_eval_rejects_label_beyond_model_classes(self, pair_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli(*self.train_args(pair_dir, out)) == 0
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n" * 23 + "5\n")
        capsys.readouterr()
        code = cli("eval", "--checkpoint", str(out / "model.bin"),
                   "--edges", str(pair_dir / "target.edges"),
                   "--features", str(pair_dir / "target.features.csv"), "--labels", str(labels))
        assert code == 1
        assert capsys.readouterr().err == f"error: {labels}:24: label 5 outside [0, 2)\n"

    @pytest.mark.parametrize("width", [3, 5])
    def test_eval_feature_width_other_than_the_checkpoint_exit_1(self, pair_dir, tmp_path,
                                                                  capsys, width):
        out = tmp_path / "run"
        assert cli(*self.train_args(pair_dir, out)) == 0
        features = tmp_path / "features.csv"
        features.write_text("".join(",".join(["0.5"] * width) + "\n" for _ in range(24)))
        capsys.readouterr()
        code = cli("eval", "--checkpoint", str(out / "model.bin"),
                   "--edges", str(pair_dir / "target.edges"), "--features", str(features),
                   "--labels", str(pair_dir / "target.labels.txt"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {features}: {width} feature columns, but the checkpoint "
            f"{out / 'model.bin'} takes 4\n")

    def test_eval_missing_checkpoint_exit_1(self, pair_dir, tmp_path, capsys):
        path = tmp_path / "none.bin"
        code = cli("eval", "--checkpoint", str(path), "--edges", str(pair_dir / "target.edges"),
                   "--features", str(pair_dir / "target.features.csv"),
                   "--labels", str(pair_dir / "target.labels.txt"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: cannot read: No such file or directory\n")

    def test_runs_flag_writes_summary(self, pair_dir, tmp_path):
        out = tmp_path / "multi"
        assert cli(*self.train_args(pair_dir, out), "--runs", "2") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 2
        assert len(summary["accuracies"]) == 2
        assert (out / "metrics_run0.json").exists()
        assert (out / "metrics_run1.json").exists()

    def test_runs_flag_trains_each_seed_once(self, pair_dir, tmp_path, monkeypatch):
        # counted in every process that trains, this one and its workers
        single, multi = tmp_path / "single", tmp_path / "multi"
        assert cli(*self.train_args(pair_dir, single)) == 0
        trained = record_training(monkeypatch, tmp_path / "trained.jsonl")
        assert cli(*self.train_args(pair_dir, multi), "--runs", "3") == 0
        assert sorted(run["seed"] for run in trained()) == [1, 2, 3]
        # the seed model from run 0 is the one a single run writes
        assert (multi / "model.bin").read_bytes() == (single / "model.bin").read_bytes()
        assert (multi / "metrics_run0.json").read_bytes() == (single / "metrics.json").read_bytes()

    @pytest.mark.parametrize("variant", ["KNN_GCN", "GAA"])
    def test_runs_write_the_same_bytes_on_one_or_two_processes(self, pair_dir, tmp_path,
                                                                 monkeypatch, variant):
        seen = {}
        spy_workers(monkeypatch, seen, cores=2)
        written = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("GAA_THREADS", threads)
            out = tmp_path / threads
            assert cli(*self.train_args(pair_dir, out, "--variant", variant), "--runs", "3") == 0
            written[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert seen["workers"] == 1  # seeds 1 and 2 here, seed 3 in the worker
        assert sorted(written["1"]) == ["metrics_run0.json", "metrics_run1.json",
                                        "metrics_run2.json", "model.bin", "summary.json"]
        assert written["2"] == written["1"]

    def test_config_file_with_flag_override(self, pair_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "hidden": 8, "embed": 4, "k": 2}))
        out = tmp_path / "cfgrun"
        assert cli("train", "--pair", str(pair_dir), "--out", str(out),
                   "--config", str(cfg_path), "--seed", "9") == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 9
        assert metrics["epochs"] == 2


class TestErrors:
    def test_unknown_config_key_exit_1(self, pair_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--config", str(cfg_path))
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_bad_set_key_exit_1(self, pair_dir, tmp_path, capsys):
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "warmup=5")
        assert code == 1
        assert "warmup" in capsys.readouterr().err

    def test_set_of_a_field_group_names_its_fields_exit_1(self, pair_dir, tmp_path, capsys):
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "weights=1")
        assert code == 1
        assert capsys.readouterr().err == ("error: config key 'weights' is not settable; "
                                           "set one of weights.alpha, weights.beta, weights.tau\n")

    def test_missing_pair_dir_exit_1(self, tmp_path):
        assert cli("bound", "--pair", str(tmp_path / "nope")) == 1

    @pytest.mark.parametrize("verb", ["train", "bound", "diagnose"])
    def test_feature_widths_that_differ_exit_1(self, pair_dir, tmp_path, capsys, verb):
        path = pair_dir / "target.features.csv"
        path.write_text("".join(line + ",1.0\n" for line in path.read_text().splitlines()))
        extra = ["--out", str(tmp_path / "x")] if verb == "train" else []
        assert cli(verb, "--pair", str(pair_dir), *extra) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 5 feature columns, but {pair_dir / 'source.features.csv'} has 4\n")

    def test_missing_target_features_exit_1(self, pair_dir, tmp_path, capsys):
        path = pair_dir / "target.features.csv"
        path.unlink()
        assert cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {path}: No such file or directory\n")
        assert not (tmp_path / "x").exists()

    def test_config_that_is_a_directory_exit_1(self, pair_dir, tmp_path, capsys):
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--config", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot read config file {tmp_path}: Is a directory\n")

    def test_config_that_is_not_utf8_exit_1(self, pair_dir, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"epochs": 1, "variant": "\xff"}')
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--config", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_unwritable_output_stays_exit_2(self, pair_dir, tmp_path, capsys, monkeypatch):
        # a write that fails after training, which no check up front can foresee
        def full_disk(model, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_module, "save_model", full_disk)
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "epochs=1", "--set", "hidden=8")
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_out_under_a_file_exit_1_before_training(self, pair_dir, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli_module, "train_gaa", None)  # calling it would raise
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "x"
        code = cli("train", "--pair", str(pair_dir), "--out", str(out), "--set", "epochs=1")
        assert code == 1
        assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == ""

    def test_out_that_is_a_file_exit_1_before_training(self, pair_dir, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(cli_module, "train_gaa", None)  # calling it would raise
        blocker = tmp_path / "afile"
        blocker.write_text("")
        code = cli("train", "--pair", str(pair_dir), "--out", str(blocker), "--set", "epochs=1")
        assert code == 1
        assert capsys.readouterr().err == f"error: --out {blocker} is not a directory\n"
        assert blocker.read_text() == ""

    def test_bad_flag_exit_1(self):
        assert cli("train", "--nonsense") == 1

    def test_corrupt_data_file_exit_1(self, pair_dir, tmp_path):
        (pair_dir / "source.features.csv").write_text("1.0,oops\n")
        assert cli("bound", "--pair", str(pair_dir)) == 1

    def test_non_finite_feature_exit_1(self, pair_dir, tmp_path, capsys):
        path = pair_dir / "target.features.csv"
        lines = path.read_text().splitlines()
        lines[4] = ",".join(["nan"] + lines[4].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "epochs=1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}:5: non-finite feature value" in err

    def test_non_utf8_labels_exit_1(self, pair_dir, tmp_path, capsys):
        path = pair_dir / "source.labels.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "epochs=1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}:3: not UTF-8 text" in err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_edge_weight_exit_1(self, pair_dir, tmp_path, capsys, weight):
        path = pair_dir / "source.edges"
        path.write_text(path.read_text() + f"0 1 {weight}\n")
        line_no = path.read_text().count("\n")
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "epochs=1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}:{line_no}: non-finite weight" in err

    def test_negative_edge_weight_exit_1(self, pair_dir, tmp_path, capsys):
        path = pair_dir / "source.edges"
        path.write_text(path.read_text() + "0 1 -2.5\n")
        line_no = path.read_text().count("\n")
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "epochs=1")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{line_no}: negative weight in '0 1 -2.5'\n")
        assert not (tmp_path / "x").exists()

    def test_source_label_at_or_above_node_count_exit_1(self, tmp_path, capsys):
        pair_dir = tmp_path / "pair"
        assert cli("generate", "--kind", "attribute-shift", "--seed", "7", "--n", "4",
                   "--d", "2", "--out", str(pair_dir)) == 0
        path = pair_dir / "source.labels.txt"
        path.write_text("0\n1\n0\n100000\n")
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "epochs=1", "--set", "variant=GCN")
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}:4: label 100000 outside [0, 4)\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("runs", ["0", "-4"])
    def test_runs_below_one_exit_1(self, pair_dir, tmp_path, capsys, runs):
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--runs", runs)
        assert code == 1
        assert capsys.readouterr().err == f"error: --runs must be >= 1, got {runs}\n"
        assert not (tmp_path / "x").exists()

    def test_diagnose_k_zero_exit_1(self, pair_dir, capsys):
        assert cli("diagnose", "--pair", str(pair_dir), "--k", "0") == 1
        assert capsys.readouterr().err == "error: k must be in [1, 23] for 24 nodes, got 0\n"

    def test_k_beyond_node_count_exit_1(self, pair_dir, tmp_path, capsys):
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "k=100")
        assert code == 1
        assert capsys.readouterr().err == "error: k must be in [1, 23] for 24 nodes, got 100\n"
        assert not (tmp_path / "x").exists()

    def test_runs_without_target_labels_exit_1_before_training(self, pair_dir, tmp_path,
                                                                capsys, monkeypatch):
        (pair_dir / "target.labels.txt").unlink()
        monkeypatch.setattr(cli_module, "run_repeated", None)  # calling it would raise
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--runs", "2")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --runs 2 needs target labels, and "
            f"{pair_dir / 'target.labels.txt'} does not exist\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_gaa_threads_below_one_exit_1(self, pair_dir, tmp_path, capsys, monkeypatch,
                                          workers):
        monkeypatch.setenv("GAA_THREADS", workers)
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--grid", "k=2")
        assert code == 1
        assert capsys.readouterr().err == f"error: GAA_THREADS must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("workers, message", [
        ("0", "GAA_THREADS must be >= 1, got 0"),
        ("abc", "GAA_THREADS must be an integer, got 'abc'"),
    ])
    def test_bad_gaa_threads_train_exit_1(self, pair_dir, tmp_path, capsys, monkeypatch,
                                         workers, message):
        # checked where train starts, even on a graph that attention runs in one block
        monkeypatch.setenv("GAA_THREADS", workers)
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("item", [f"hidden={2**60}", f"hidden={2**63}", f"embed={2**63}"])
    def test_a_model_numpy_cannot_address_exit_1_in_sweep(self, pair_dir, tmp_path, capsys,
                                                          monkeypatch, threads, item):
        # raised in the first cell, in this process or in a pool worker
        monkeypatch.setenv("GAA_THREADS", threads)
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--grid", "k=2", "--set", item)
        assert code == 1
        err = self.one_error_line(capsys)
        assert item.split("=")[0] in err and "more bytes than numpy can address" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("verb", ["train", "sweep"])
    @pytest.mark.parametrize("where, failing_offset", [("this", 0), ("a worker", 2)])
    def test_a_numeric_error_in_any_process_exit_2_and_leaves_no_worker(
            self, pair_dir, tmp_path, capfd, monkeypatch, verb, where, failing_offset):
        """Three seeds on two processes: seeds 0 and 1 here, seed 2 in the
        worker. A failure in either exits 2 with one line (captured at the
        file descriptor, so a worker's traceback would show), stops every
        worker and gives this process its GAA_THREADS back."""
        caller = os.getpid()
        original = train.train_gaa

        def failing(pair, cfg, inputs):
            if cfg.seed == failing_offset:
                process = "this" if os.getpid() == caller else "a worker"
                raise NumericError(f"seed {cfg.seed} failed in {process} process")
            return original(pair, cfg, inputs)

        monkeypatch.setattr(train, "train_gaa", failing)
        spy_workers(monkeypatch, {}, cores=2)
        monkeypatch.setenv("GAA_THREADS", "2")
        out = tmp_path / ("s.csv" if verb == "sweep" else "run")
        args = ("--pair", str(pair_dir), "--out", str(out), "--runs", "3", "--seed", "0",
                "--variant", "GCN", "--set", "epochs=2", "--set", "k=2")
        if verb == "sweep":
            args = args[:-2] + ("--grid", "alpha=0.5", "--grid", "k=2")
        capfd.readouterr()
        assert cli(verb, *args) == 2
        assert capfd.readouterr() == (
            "", f"error: seed {failing_offset} failed in {where} process\n")
        assert multiprocessing.active_children() == []
        assert not out.exists()

        # the next command in this process spends the budget it was given
        assert os.environ["GAA_THREADS"] == "2"
        monkeypatch.setattr(train, "train_gaa", original)
        seen = {}
        spy_workers(monkeypatch, seen, cores=2)
        assert cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "next"),
                   "--runs", "2", "--set", "epochs=1") == 0
        assert seen["workers"] == 1

    def test_a_worker_that_stops_without_its_results_exit_2(self, pair_dir, tmp_path, capfd,
                                                            monkeypatch):
        caller = os.getpid()
        original = train.train_gaa

        def stopping(pair, cfg, inputs):
            if os.getpid() != caller:
                os._exit(9)  # as the kernel's out-of-memory killer would stop it
            return original(pair, cfg, inputs)

        monkeypatch.setattr(train, "train_gaa", stopping)
        spy_workers(monkeypatch, {}, cores=2)
        monkeypatch.setenv("GAA_THREADS", "2")
        capfd.readouterr()
        assert cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "run"),
                   "--runs", "2", "--set", "epochs=1") == 2
        assert capfd.readouterr() == (
            "", "error: a worker process stopped before it sent its results\n")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "run").exists()

    def test_non_integer_gaa_threads_exit_1(self, pair_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAA_THREADS", "abc")
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--grid", "k=2")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: GAA_THREADS must be an integer, got 'abc'\n"

    def one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("item", [
        "weights.alpha=abc", "embed=-2", "weights.alpha=nan", "grl_lambda=-1",
        "lr=nan", "weight_decay=nan", "seed=-1",
        f"hidden={2**60}", f"hidden={2**63}", f"embed={2**63}",
    ])
    def test_bad_set_value_exit_1(self, pair_dir, tmp_path, capsys, item):
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", item)
        assert code == 1
        assert item.split("=")[0] in self.one_error_line(capsys)
        assert not (tmp_path / "x").exists()  # rejected before anything ran

    @pytest.mark.parametrize("doc", [
        {"epochs": "10"}, {"weights": 5}, {"hidden": 2.5}, {"weights": {"alpha": "x"}},
        [1, 2], {"relu_second_layer": 1}, {"lr": 1e999},
    ])
    def test_bad_config_file_value_exit_1(self, pair_dir, tmp_path, capsys, doc):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--config", str(cfg_path))
        assert code == 1
        self.one_error_line(capsys)

    def test_zero_hidden_rejected_at_train(self, pair_dir, tmp_path, capsys):
        # the rule load_model applies to checkpoints, so train never writes one eval rejects
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"),
                   "--set", "hidden=0")
        assert code == 1
        assert capsys.readouterr().err == "error: hidden must be >= 1, got 0\n"
        assert not (tmp_path / "x" / "model.bin").exists()

    def test_target_without_highest_class_trains(self, pair_dir, tmp_path):
        (pair_dir / "target.labels.txt").write_text("0\n" * 24)
        assert load_pair(pair_dir).target.num_classes == 2
        out = tmp_path / "x"
        assert cli("train", "--pair", str(pair_dir), "--out", str(out),
                   "--set", "epochs=1", "--set", "hidden=8") == 0
        assert json.loads((out / "metrics.json").read_text())["target_accuracy"] is not None

    def test_target_label_beyond_source_classes_exit_1(self, pair_dir, tmp_path, capsys):
        path = pair_dir / "target.labels.txt"
        lines = path.read_text().splitlines()
        lines[2] = "2"
        path.write_text("\n".join(lines) + "\n")
        code = cli("train", "--pair", str(pair_dir), "--out", str(tmp_path / "x"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}:3: label 2 outside [0, 2)\n"


_CONFIG_KEYS = st.sampled_from(["epochs", "lr", "weight_decay", "dropout", "k", "weights",
                                "grl_lambda", "seed", "variant", "hidden", "embed",
                                "relu_second_layer"]) | st.text(max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 40) | st.integers()
            | st.floats() | st.text(max_size=6) | st.sampled_from(VARIANTS))
_WEIGHTS = st.dictionaries(st.sampled_from(["alpha", "beta", "tau"]) | st.text(max_size=4),
                           _SCALARS, max_size=3)
_DOCS = (st.dictionaries(_CONFIG_KEYS, _SCALARS | _WEIGHTS | st.lists(_SCALARS, max_size=2),
                         max_size=6)
         | _SCALARS | st.lists(_SCALARS, max_size=3))
_SET_ITEMS = (st.tuples(_CONFIG_KEYS | st.sampled_from(["weights.alpha", "weights.beta",
                                                         "weights.tau", "weights.gamma"]),
                        st.text(max_size=8) | st.integers().map(str) | st.floats().map(repr)
                        | st.sampled_from(["true", "no", "nan", "-1", "0", "1e400"]))
              .map("=".join) | st.text(max_size=10))


class _Reached(GaaError):
    """Raised in place of loading the pair, once a config was accepted."""


class TestConfigInput:
    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    def test_from_dict_gives_valid_config_or_config_error(self, doc):
        from dataclasses import asdict

        from gaa.exceptions import ConfigError
        from gaa.train import TrainConfig

        try:
            cfg = TrainConfig.from_dict(doc)
        except ConfigError as exc:
            assert "\n" not in str(exc)
            return
        assert TrainConfig.from_dict(asdict(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SET_ITEMS, max_size=4))
    def test_set_gives_valid_config_or_exit_1(self, items):
        def reached(pair_dir):
            raise _Reached("config accepted")

        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(cli_module, "load_pair", reached)
            code = cli("train", "--pair", "unused", "--out", "unused",
                       *[f"--set={item}" for item in items])
        if code == 2:
            assert err.getvalue() == "error: config accepted\n"
        else:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestBadCheckpoint:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt")
        pair = root / "pair"
        assert cli("generate", "--kind", "attribute-shift", "--seed", "7", "--n", "24",
                   "--d", "4", "--out", str(pair)) == 0
        assert cli("train", "--pair", str(pair), "--out", str(root / "run"), "--seed", "1",
                   "--set", "epochs=2", "--set", "hidden=8", "--set", "embed=4",
                   "--set", "k=2") == 0
        return pair, (root / "run" / "model.bin").read_bytes(), root / "bad.bin"

    @staticmethod
    def eval_bytes(trained, blob):
        """Exit code and stderr of ``gaa eval`` on a checkpoint holding ``blob``."""
        pair, _, path = trained
        path.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli("eval", "--checkpoint", str(path), "--edges", str(pair / "target.edges"),
                       "--features", str(pair / "target.features.csv"),
                       "--labels", str(pair / "target.labels.txt"))
        return code, err.getvalue()

    def test_random_bytes_exit_1(self, trained):
        code, err = self.eval_bytes(trained, bytes(range(128, 256)) + b"\n")
        assert code == 1
        assert err == f"error: {trained[2]}: header is not UTF-8 JSON\n"

    def test_header_without_variant_exit_1(self, trained):
        header, payload = trained[1].split(b"\n", 1)
        doc = json.loads(header)
        del doc["variant"]
        code, err = self.eval_bytes(trained, json.dumps(doc).encode() + b"\n" + payload)
        assert code == 1
        assert err == f"error: {trained[2]}: header has no 'variant'\n"

    def test_hyper_value_train_rejects_exit_1(self, trained):
        header, payload = trained[1].split(b"\n", 1)
        doc = json.loads(header)
        doc["hyper"]["hidden"] = 0
        code, err = self.eval_bytes(trained, json.dumps(doc).encode() + b"\n" + payload)
        assert code == 1
        assert err == f"error: {trained[2]}: bad hyper: hidden must be >= 1, got 0\n"

    def test_shape_numpy_cannot_address_exit_1(self, trained):
        header, payload = trained[1].split(b"\n", 1)
        doc = json.loads(header)
        doc["hyper"]["hidden"] = 2**60
        code, err = self.eval_bytes(trained, json.dumps(doc).encode() + b"\n" + payload)
        assert code == 1
        assert err == (f"error: {trained[2]}: in_dim=4, hidden={2**60}, embed=4 and "
                       f"num_classes=2 make the 4 x {2**60} W1_topo more bytes than numpy "
                       f"can address\n")

    @pytest.mark.parametrize("change", [-1, -8, 8])
    def test_payload_of_wrong_length_exit_1(self, trained, change):
        good = trained[1]
        payload = len(good.split(b"\n", 1)[1])
        blob = good[:change] if change < 0 else good + bytes(change)
        code, err = self.eval_bytes(trained, blob)
        assert code == 1
        assert err == (f"error: {trained[2]}: payload is {payload + change} bytes, "
                       f"expected {payload}\n")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fuzzed_bytes_never_raise(self, trained, data):
        good = trained[1]
        blob = data.draw(st.one_of(
            st.binary(max_size=400),
            st.integers(0, len(good)).map(lambda cut: good[:cut]),
            st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)),
                     min_size=1, max_size=6).map(lambda edits: _patched(good, edits)),
        ))
        code, err = self.eval_bytes(trained, blob)
        if code != 0:
            assert code in (1, 2)
            assert err.startswith("error: ") and err.count("\n") == 1


def _patched(blob, edits):
    out = bytearray(blob)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


class TestBoundDiagnose:
    def test_bound_json(self, pair_dir, capsys):
        assert cli("bound", "--pair", str(pair_dir)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == pytest.approx(doc["topo_term"] + doc["attr_term"])
        assert doc["normalization"] == 24

    def test_diagnose_reports_both_views(self, pair_dir, capsys):
        assert cli("diagnose", "--pair", str(pair_dir), "--k", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        for domain in ("source", "target"):
            assert set(doc[domain]) == {"topology", "attribute"}
            assert doc[domain]["topology"] > 0


class TestHugeInput:
    """Finite input too large for float64 fails where it enters, with exit 1
    and one stderr line, and no verb prints a non-finite term. Any numpy
    warning is an error here, since it would print lines of its own."""

    @staticmethod
    def set_weights(pair_dir, weight):
        path = pair_dir / "source.edges"
        path.write_text("".join(f"{line.split()[0]} {line.split()[1]} {weight}\n"
                                for line in path.read_text().splitlines()))
        return path

    @staticmethod
    def scale_features(pair_dir, factor):
        path = pair_dir / "source.features.csv"
        path.write_text("".join(",".join(repr(float(v) * factor) for v in line.split(",")) + "\n"
                                for line in path.read_text().splitlines()))
        return path

    def one_error_line(self, capsys):
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb", [("train", "--variant", "GCN"), ("bound",), ("diagnose",)])
    def test_edge_weights_whose_degree_overflows_exit_1(self, pair_dir, tmp_path, capsys, verb):
        path = self.set_weights(pair_dir, "1e308")
        extra = ("--out", str(tmp_path / "x"), "--set", "epochs=1") if verb[0] == "train" else ()
        assert cli(verb[0], "--pair", str(pair_dir), *verb[1:], *extra) == 1
        err = self.one_error_line(capsys)
        assert err.startswith(f"error: {path}: the weighted degree of node ")
        assert err.endswith(" overflows float64\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb", [("train", "--variant", "GAA"), ("bound",), ("diagnose",)])
    def test_features_whose_squared_norm_overflows_exit_1(self, pair_dir, tmp_path, capsys,
                                                          verb):
        path = self.scale_features(pair_dir, 1e200)
        extra = ("--out", str(tmp_path / "x"), "--set", "epochs=1") if verb[0] == "train" else ()
        assert cli(verb[0], "--pair", str(pair_dir), *verb[1:], *extra) == 1
        assert self.one_error_line(capsys) == (
            f"error: {path}:1: the feature row's squared norm overflows float64\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb, term", [
        ("bound", "the bound term 'topo_term'"),
        ("diagnose", "the source view 'topology'"),
    ])
    def test_a_term_that_overflows_past_the_entry_checks_exit_1(self, pair_dir, capsys, verb,
                                                                term):
        # every degree and squared norm fits, but A X does not
        self.set_weights(pair_dir, "1e300")
        self.scale_features(pair_dir, 1e9)
        assert cli(verb, "--pair", str(pair_dir)) == 1
        assert self.one_error_line(capsys) == f"error: {pair_dir}: {term} overflows float64\n"

    @pytest.mark.filterwarnings("error")
    def test_training_that_overflows_exit_2(self, pair_dir, tmp_path, capsys):
        # every squared norm fits, but the attention's products do not
        self.scale_features(pair_dir, 1e152)
        assert cli("train", "--pair", str(pair_dir), "--variant", "GAA",
                   "--out", str(tmp_path / "x"), "--set", "epochs=3") == 2
        assert self.one_error_line(capsys).startswith("error: epoch 0: overflow encountered in ")
        assert not (tmp_path / "x").exists()


class TestSweep:
    def test_grid_cardinality_and_format(self, pair_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(out),
                   "--runs", "1", "--seed", "0",
                   "--set", "epochs=2", "--set", "hidden=8", "--set", "embed=4",
                   "--grid", "alpha=0.1,0.5", "--grid", "beta=0.1",
                   "--grid", "tau=0.1", "--grid", "k=2,3")
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "beta", "tau", "k", "mean_acc", "std_acc"]
        assert len(rows) - 1 == 2 * 1 * 1 * 2
        # deterministic grid order: alpha-major, k-minor
        assert [r[0] for r in rows[1:]] == ["0.1", "0.1", "0.5", "0.5"]
        for row in rows[1:]:
            float(row[4]), float(row[5])  # C-locale decimal points

    def test_unknown_grid_axis_exit_1(self, pair_dir, tmp_path, capsys):
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--grid", "gamma=1")
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("key, axis", [("k", "k"), ("weights.alpha", "alpha"),
                                           ("weights.beta", "beta"), ("weights.tau", "tau")])
    def test_set_of_a_grid_axis_exit_1_before_the_pair_loads(self, tmp_path, capsys, key,
                                                              axis):
        # every cell sets the axis, so the --set value would be dropped
        code = cli("sweep", "--pair", str(tmp_path / "missing"), "--out",
                   str(tmp_path / "s.csv"), "--set", "epochs=1", "--set", f"{key}=7")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --set {key}: the grid sets {key} in every cell; "
            f"give its values with --grid {axis}=V1,V2,...\n")
        assert not (tmp_path / "s.csv").exists()

    def test_a_k_the_graphs_cannot_hold_exit_1_before_any_cell(self, pair_dir, tmp_path,
                                                               capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_tasks", None)  # calling it would raise
        monkeypatch.setenv("GAA_THREADS", "1")
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--variant", "GAA", "--runs", "2", "--set", "epochs=2",
                   "--grid", "k=2,3,100")
        assert code == 1
        assert capsys.readouterr().err == "error: k must be in [1, 23] for 24 nodes, got 100\n"
        assert not (tmp_path / "s.csv").exists()

    def test_a_variant_without_the_knn_view_sweeps_any_k(self, pair_dir, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("GAA_THREADS", "1")
        out = tmp_path / "s.csv"
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(out), "--variant", "GCN",
                   "--runs", "1", "--set", "epochs=2", "--grid", "alpha=0.5",
                   "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,100") == 0
        assert len(out.read_text().splitlines()) == 3

    def test_unlabeled_target_exit_1_before_a_pool_starts(self, pair_dir, tmp_path, capsys,
                                                          monkeypatch):
        (pair_dir / "target.labels.txt").unlink()
        seen = {}
        spy_workers(monkeypatch, seen)
        monkeypatch.setenv("GAA_THREADS", "2")
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--grid", "k=2,3")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: sweep needs target labels, and "
            f"{pair_dir / 'target.labels.txt'} does not exist\n")
        assert seen == {}
        assert not (tmp_path / "s.csv").exists()

    def test_runs_zero_exit_1_before_a_pool_starts(self, pair_dir, tmp_path, capsys,
                                                   monkeypatch):
        seen = {}
        spy_workers(monkeypatch, seen)
        monkeypatch.setenv("GAA_THREADS", "2")
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "0", "--grid", "k=2,3")
        assert code == 1
        assert capsys.readouterr().err == "error: --runs must be >= 1, got 0\n"
        assert seen == {}
        assert not (tmp_path / "s.csv").exists()

    def test_pool_receives_the_pair_once_per_worker(self, pair_dir, tmp_path, monkeypatch):
        """A worker inherits the pair and the first inputs when it is forked;
        neither is ever pickled to it, and its share holds only configs."""
        def unpicklable(obj, protocol):
            raise AssertionError(f"a {type(obj).__name__} was pickled")

        for cls in (DomainPair, train.TrainInputs):
            monkeypatch.setattr(cls, "__reduce_ex__", unpicklable)
        seen = {}
        spy_workers(monkeypatch, seen)
        trained = record_training(monkeypatch, tmp_path / "trained.jsonl")
        monkeypatch.setenv("GAA_THREADS", "2")
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--set", "epochs=1", "--grid", "alpha=0.5",
                   "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,3") == 0
        assert seen["workers"] == 1
        assert len({run["pid"] for run in trained()}) == 2

    def test_pool_never_outnumbers_cells(self, pair_dir, tmp_path, monkeypatch):
        args = ("sweep", "--pair", str(pair_dir), "--runs", "1", "--seed", "0",
                "--set", "epochs=1", "--grid", "alpha=0.1,0.5", "--grid", "beta=0.1",
                "--grid", "tau=0.1", "--grid", "k=2,3")
        serial, capped = tmp_path / "serial.csv", tmp_path / "capped.csv"
        monkeypatch.setenv("GAA_THREADS", "1")
        assert cli(*args, "--out", str(serial)) == 0
        seen = {}
        spy_workers(monkeypatch, seen)
        monkeypatch.setenv("GAA_THREADS", "100000")
        assert cli(*args, "--out", str(capped)) == 0
        assert seen["workers"] == 3  # four tasks: this process and three workers
        assert capped.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("cores, processes", [(2, 2), (3, 3), (1, None)])
    def test_pool_never_outnumbers_the_cpus(self, pair_dir, tmp_path, monkeypatch, cores,
                                            processes):
        # ``processes`` counts this process and its workers; on one usable CPU
        # (None) no worker starts and the sweep runs in this process alone
        seen = {}
        spy_workers(monkeypatch, seen, cores)
        monkeypatch.setenv("GAA_THREADS", "64")
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--set", "epochs=1", "--grid", "alpha=0.1,0.5",
                   "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,3") == 0
        assert seen.get("workers") == (None if processes is None else processes - 1)

    @pytest.mark.parametrize("cores, processes", [(8, 4), (3, 3), (1, None)])
    def test_pool_defaults_to_one_worker_per_cpu(self, pair_dir, tmp_path, monkeypatch,
                                                 cores, processes):
        seen = {}
        spy_workers(monkeypatch, seen, cores)
        monkeypatch.delenv("GAA_THREADS", raising=False)
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--set", "epochs=1", "--grid", "alpha=0.1,0.5",
                   "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,3") == 0
        assert seen.get("workers") == (None if processes is None else processes - 1)

    def test_an_affinity_of_one_cpu_budgets_one_thread_and_starts_no_pool(
            self, pair_dir, tmp_path, monkeypatch):
        # as under `taskset -c 0` on a machine with two CPUs
        seen = {}
        spy_workers(monkeypatch, seen, cores=None)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("GAA_THREADS", raising=False)
        assert thread_budget() == 1
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--set", "epochs=1", "--grid", "alpha=0.1,0.5",
                   "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,3") == 0
        assert seen == {}

    def test_pool_workers_attend_on_one_thread(self, pair_dir, tmp_path, monkeypatch):
        # the budget goes to the processes, this one included, not to threads
        # within them; this process has its own budget back afterwards
        seen = {}
        spy_workers(monkeypatch, seen)
        trained = record_training(monkeypatch, tmp_path / "trained.jsonl")
        monkeypatch.setenv("GAA_THREADS", "2")
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--runs", "1", "--set", "epochs=1", "--grid", "alpha=0.5",
                   "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,3") == 0
        assert seen["workers"] == 1
        runs = trained()
        assert os.getpid() in {run["pid"] for run in runs}
        assert len({run["pid"] for run in runs}) == 2
        assert [run["threads"] for run in runs] == [1, 1]
        assert os.environ["GAA_THREADS"] == "2"

    def test_parallel_workers_match_serial(self, pair_dir, tmp_path, monkeypatch):
        args = ("sweep", "--pair", str(pair_dir), "--runs", "1", "--seed", "0",
                "--set", "epochs=2", "--set", "hidden=8", "--set", "embed=4",
                "--grid", "alpha=0.1,0.5", "--grid", "beta=0.1", "--grid", "tau=0.1",
                "--grid", "k=2")
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        monkeypatch.setenv("GAA_THREADS", "1")
        assert cli(*args, "--out", str(serial)) == 0
        monkeypatch.setenv("GAA_THREADS", "2")
        assert cli(*args, "--out", str(parallel)) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    GAA_GRID_ARGS = ("sweep", "--runs", "2", "--seed", "0", "--variant", "GAA",
                     "--set", "epochs=2", "--set", "hidden=8", "--set", "embed=4",
                     "--grid", "alpha=0.5,1.0", "--grid", "beta=0.1", "--grid", "tau=0.1",
                     "--grid", "k=2,3")

    def test_a_sweep_is_the_same_bytes_on_one_or_two_workers(self, pair_dir, tmp_path,
                                                             monkeypatch):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        monkeypatch.setenv("GAA_THREADS", "1")
        assert cli(*self.GAA_GRID_ARGS, "--pair", str(pair_dir), "--out", str(serial)) == 0
        monkeypatch.setattr(autodiff, "usable_cpus", lambda: 2)  # two workers on any machine
        monkeypatch.setenv("GAA_THREADS", "2")
        assert cli(*self.GAA_GRID_ARGS, "--pair", str(pair_dir), "--out", str(parallel)) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_a_one_cell_sweep_splits_its_seeds_over_two_processes(self, pair_dir, tmp_path,
                                                                   monkeypatch):
        # GCN reads no grid axis, so the grid is one cell: three seed tasks
        args = ("sweep", "--pair", str(pair_dir), "--variant", "GCN", "--runs", "3",
                "--seed", "0", "--set", "epochs=2", "--grid", "alpha=0.1,0.5",
                "--grid", "beta=0.1", "--grid", "tau=0.1", "--grid", "k=2,3")
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        seen = {}
        spy_workers(monkeypatch, seen, cores=2)
        monkeypatch.setenv("GAA_THREADS", "1")
        assert cli(*args, "--out", str(serial)) == 0
        monkeypatch.setenv("GAA_THREADS", "2")
        assert cli(*args, "--out", str(parallel)) == 0
        assert seen["workers"] == 1
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_row_holds_its_own_cells_result(self, pair_dir, tmp_path, monkeypatch,
                                                  threads):
        """Each run's result goes back to its cell and seed, and each cell's
        to its row, alpha-major and k-minor, however the tasks were split."""
        def accuracy(alpha, k, seed):
            return alpha + k / 10 + seed**2 / 1000

        monkeypatch.setattr(train, "train_gaa", lambda pair, cfg, inputs: (None, RunMetrics(
            cfg.seed, cfg.epochs, target_accuracy=accuracy(cfg.weights.alpha, cfg.k, cfg.seed))))
        spy_workers(monkeypatch, {})
        monkeypatch.setenv("GAA_THREADS", threads)
        out = tmp_path / "s.csv"
        assert cli(*self.GAA_GRID_ARGS, "--pair", str(pair_dir), "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = []
        for alpha, k in itertools.product((0.5, 1.0), (2, 3)):
            accs = [accuracy(alpha, k, seed) for seed in (0, 1)]
            expected.append((repr(alpha), str(k), repr(float(np.mean(accs))),
                             repr(float(np.std(accs, ddof=1)))))
        assert [(r[0], r[3], r[4], r[5]) for r in rows] == expected

    @pytest.mark.parametrize("variant, reads, calls", [
        ("GAA", ("alpha", "tau", "k"), 8), ("GAA1", ("alpha", "tau", "k"), 8),
        ("GAA2", ("alpha", "tau"), 4), ("GAA3", ("alpha", "tau"), 4),
        ("KNN_GCN", ("k",), 2), ("GCN", (), 1),
    ], ids=["GAA", "GAA1", "GAA2", "GAA3", "KNN_GCN", "GCN"])
    def test_cells_a_variant_cannot_tell_apart_train_once(self, pair_dir, tmp_path, capsys,
                                                          monkeypatch, variant, reads, calls):
        """``reads`` are the grid axes the variant's row reads: the loss
        weights where it adapts, k where it has the kNN view. Cells that
        differ on no axis it reads train once, the first in grid order, and
        every row is the row that training the cell alone would write."""
        axes = {"alpha": (0.5, 1.0), "tau": (0.1, 0.5), "k": (2, 3)}
        grid = [dict(zip(axes, cell)) for cell in itertools.product(*axes.values())]
        expected = [cell for cell in grid
                    if all(cell[axis] == axes[axis][0] for axis in axes if axis not in reads)]
        assert len(expected) == calls
        seen = {}
        spy_workers(monkeypatch, seen)
        trained = record_training(monkeypatch, tmp_path / "trained.jsonl")
        monkeypatch.setenv("GAA_THREADS", "2")
        out = tmp_path / "s.csv"
        assert cli("sweep", "--pair", str(pair_dir), "--out", str(out), "--variant", variant,
                   "--runs", "2", "--seed", "0", "--set", "epochs=2", "--set", "hidden=8",
                   "--set", "embed=4", "--grid", "alpha=0.5,1.0", "--grid", "beta=0.1",
                   "--grid", "tau=0.1,0.5", "--grid", "k=2,3") == 0
        # each cell that trains runs once per seed, over this process and one worker
        assert seen["workers"] == 1
        runs = sorted((run["alpha"], run["tau"], run["k"], run["seed"]) for run in trained())
        assert runs == sorted((cell["alpha"], cell["tau"], cell["k"], seed)
                              for cell in expected for seed in (0, 1))
        cells = "cell" if calls == 1 else "cells"
        assert capsys.readouterr().out == f"wrote 8 rows from {calls} trained {cells} to {out}\n"

        pair = load_pair(pair_dir)
        oracle = io.StringIO(newline="")
        writer = csv.writer(oracle)
        writer.writerow(["alpha", "beta", "tau", "k", "mean_acc", "std_acc"])
        for cell in grid:
            cfg = TrainConfig(variant=variant, epochs=2, hidden=8, embed=4, k=cell["k"],
                              weights=LossWeights(alpha=cell["alpha"], beta=0.1,
                                                  tau=cell["tau"]))
            result = run_repeated(pair, cfg, n_runs=2)
            writer.writerow([repr(cell["alpha"]), "0.1", repr(cell["tau"]), cell["k"],
                             repr(result.mean_acc), repr(result.std_acc)])
        assert out.read_bytes() == oracle.getvalue().encode()

    @pytest.mark.parametrize("variant", ["GCN", "KNN_GCN"])
    def test_k_zero_exit_1_for_a_variant_that_reads_no_k_or_only_k(self, pair_dir, tmp_path,
                                                                   capsys, monkeypatch,
                                                                   variant):
        monkeypatch.setattr(cli_module, "run_tasks", None)  # calling it would raise
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path / "s.csv"),
                   "--variant", variant, "--runs", "1", "--grid", "k=0,2")
        assert code == 1
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"
        assert not (tmp_path / "s.csv").exists()

    def test_bad_gaa_threads_is_reported_before_the_pair_loads(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setenv("GAA_THREADS", "abc")
        code = cli("sweep", "--pair", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "s.csv"), "--runs", "1")
        assert code == 1
        assert capsys.readouterr().err == "error: GAA_THREADS must be an integer, got 'abc'\n"

    def test_out_that_is_a_directory_exit_1_before_any_cell(self, pair_dir, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli_module, "run_tasks", None)  # calling it would raise
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(tmp_path), "--runs", "1",
                   "--grid", "k=2")
        assert code == 1
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"

    def test_out_under_a_file_exit_1_before_any_cell(self, pair_dir, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli_module, "run_tasks", None)  # calling it would raise
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "sub" / "s.csv"
        code = cli("sweep", "--pair", str(pair_dir), "--out", str(out), "--runs", "1",
                   "--grid", "k=2")
        assert code == 1
        assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == ""


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("variant", ["KNN_GCN", "GAA"])
def test_train_bytes_do_not_depend_on_the_blas_settings(tmp_path, variant):
    """`gaa train` writes the same bytes with the BLAS thread variables
    unset, at one thread and at two. At n=1000 the views are CSR and
    attention runs in eight row blocks; products whose inner dimension is n
    change bytes with BLAS's thread count unless gaa pins it."""
    n, pair = 1000, tmp_path / "pair"
    assert n >= SPARSE_MIN_NODES
    assert cli("generate", "--kind", "attribute-shift", "--seed", "3", "--n", str(n),
               "--edge-prob", "0.02", "--out", str(pair)) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = {}
    for threads in (None, "1", "2"):
        env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(src)
        if threads is not None:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        out = tmp_path / f"run_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "gaa.cli", "train", "--pair", str(pair), "--out", str(out),
             "--variant", variant, "--seed", "0", "--set", "epochs=2"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = [(out / name).read_bytes() for name in ("metrics.json", "model.bin")]
    assert outputs["1"] == outputs[None]
    assert outputs["2"] == outputs[None]


def test_dense_path_never_imports_scipy(tmp_path):
    """scipy serves only the sparse views, so importing the CLI and training
    at the paper's scale (n=100) must not load it. Nor may generating,
    loading, bounding or diagnosing a pair at n=1000, past SPARSE_MIN_NODES:
    those read the edge lists without a matrix library."""
    script = "\n".join([
        "import sys",
        "import gaa.cli",
        "assert 'scipy' not in sys.modules, 'import gaa.cli'",
        "from gaa.graphs import DomainPair, gen_attribute_shift",
        "from gaa.train import TrainConfig, train_gaa",
        "pair = DomainPair(source=gen_attribute_shift(0.4, seed=5),",
        "                  target=gen_attribute_shift(1.2, seed=5))",
        "assert pair.source.n == 100",
        "train_gaa(pair, TrainConfig(variant='GAA', epochs=1, seed=0))",
        "assert 'scipy' not in sys.modules, 'train_gaa'",
        "from gaa.cli import load_pair, run_command",
        f"out = {str(tmp_path / 'pair')!r}",
        "assert run_command(['generate', '--kind', 'attribute-shift', '--seed', '3',",
        "                    '--n', '1000', '--edge-prob', '0.02', '--out', out]) == 0",
        "assert 'scipy' not in sys.modules, 'generate'",
        "assert load_pair(out).source.n == 1000",
        "assert 'scipy' not in sys.modules, 'load_pair'",
        "for verb in ('bound', 'diagnose'):",
        "    assert run_command([verb, '--pair', out]) == 0",
        "    assert 'scipy' not in sys.modules, verb",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_analysis_at_scale_peaks_below_one_dense_array(tmp_path):
    """Loading a pair, building its views, the bound and both diagnostics
    hold no n x n array at n=3000."""
    n, d = 3000, 10
    rng = np.random.default_rng(8)
    graphs = []
    for labels in (np.arange(n) % 2, None):
        pairs = np.unique(rng.integers(0, n * n, 10 * n))
        row, col = pairs // n, pairs % n
        upper = row < col
        edges = EdgeList(n, row[upper], col[upper], rng.uniform(0.5, 2.0, upper.sum()))
        graphs.append(Graph(edges=edges, features=rng.normal(size=(n, d)), labels=labels,
                            num_classes=2))
    cli_module._write_pair(DomainPair(source=graphs[0], target=graphs[1]), tmp_path, {})
    del graphs
    tracemalloc.start()
    try:
        pair = load_pair(tmp_path)
        for g in (pair.source, pair.target):
            build_views(g.edges, g.features, k=3)
            avg_feature_value(g, "topology")
            avg_feature_value(g, "attribute", k=3)
        proposition1_bound(pair.source, pair.target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # 72 MB, one n x n float64 array
