import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaa import cli as cli_module
from gaa.cli import load_pair, run_command
from gaa.exceptions import GaaError
from gaa.model import VARIANTS


def cli(*argv):
    return run_command(list(argv))


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

    def test_sbm_pair_kind(self, tmp_path):
        out = tmp_path / "sbm"
        assert cli("generate", "--kind", "sbm", "--seed", "5", "--n", "20",
                   "--p", "0.5", "--out", str(out)) == 0
        meta = json.loads((out / "pair.json").read_text())
        assert meta["kind"] == "sbm" and meta["target_p"] == 0.5


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

    def test_runs_flag_writes_summary(self, pair_dir, tmp_path):
        out = tmp_path / "multi"
        assert cli(*self.train_args(pair_dir, out), "--runs", "2") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 2
        assert len(summary["accuracies"]) == 2
        assert (out / "metrics_run0.json").exists()
        assert (out / "metrics_run1.json").exists()

    def test_runs_flag_trains_each_seed_once(self, pair_dir, tmp_path, monkeypatch):
        from gaa import cli as cli_mod
        from gaa import train

        calls = []
        original = train.train_gaa

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(train, "train_gaa", counting)
        monkeypatch.setattr(cli_mod, "train_gaa", counting)
        single, multi = tmp_path / "single", tmp_path / "multi"
        assert cli(*self.train_args(pair_dir, single)) == 0
        calls.clear()
        assert cli(*self.train_args(pair_dir, multi), "--runs", "3") == 0
        assert len(calls) == 3
        # the seed model from run 0 is the one a single run writes
        assert (multi / "model.bin").read_bytes() == (single / "model.bin").read_bytes()
        assert (multi / "metrics_run0.json").read_bytes() == (single / "metrics.json").read_bytes()

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

    def test_missing_pair_dir_exit_1(self, tmp_path):
        assert cli("bound", "--pair", str(tmp_path / "nope")) == 1

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

    def test_bound_normalize_by(self, pair_dir, capsys):
        assert cli("bound", "--pair", str(pair_dir), "--normalize-by", "1") == 0
        doc1 = json.loads(capsys.readouterr().out)
        assert cli("bound", "--pair", str(pair_dir), "--normalize-by", "24") == 0
        doc24 = json.loads(capsys.readouterr().out)
        assert doc1["total"] == pytest.approx(24 * doc24["total"], rel=1e-12)

    def test_diagnose_reports_both_views(self, pair_dir, capsys):
        assert cli("diagnose", "--pair", str(pair_dir), "--k", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        for domain in ("source", "target"):
            assert set(doc[domain]) == {"topology", "attribute"}
            assert doc[domain]["topology"] > 0


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
