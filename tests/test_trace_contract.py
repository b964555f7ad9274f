"""The benchmark's span tracer, ``bench/trace_site/gaatrace.py``, wraps
functions of ``gaa`` by name and its hooks read some of their parameters by
name or position. These tests hold the program to that contract, so a
rename fails here and not only in a traced benchmark run. The tracer is
loaded by path and never installed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "trace_site" / "gaatrace.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gaatrace_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_name_is_a_function_of_its_module():
    required = _load_tracer().REQUIRED
    missing = [f"gaa.{layer}.{name}" for layer, names in required.items() for name in names
               if not inspect.isfunction(getattr(importlib.import_module(f"gaa.{layer}"),
                                                 name, None))]
    assert missing == []


@pytest.mark.parametrize("layer, name, index, param", [
    ("autodiff", "matmul", 0, "a"),
    ("autodiff", "matmul", 1, "b"),
    ("model", "attention_embed", 0, "z"),
    ("train", "train_gaa", 1, "cfg"),
])
def test_a_parameter_a_hook_reads_is_at_its_position(layer, name, index, param):
    fn = getattr(importlib.import_module(f"gaa.{layer}"), name)
    assert list(inspect.signature(fn).parameters)[index] == param
