"""The benchmark's per-layer trace wraps functions of the program by
name (`bench/tracing.py`).  A traced function that is renamed or
deleted would make `--trace 1` fail, so each name is checked here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, names", sorted(tracing.TRACED.items()))
def test_every_traced_function_exists(module, names):
    mod = importlib.import_module(f"deon.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"deon.{module}.{name}"


def test_the_evaluator_methods_exist():
    # wrapped as the class's own attributes, not inherited ones
    mod_name, cls_name = tracing.EVALUATOR.split(".")
    cls = getattr(importlib.import_module(f"deon.{mod_name}"), cls_name)
    for name in tracing.EVALUATOR_METHODS:
        assert callable(cls.__dict__.get(name)), f"{tracing.EVALUATOR}.{name}"


def test_the_cli_entry_exists():
    mod_name, name = tracing.CLI.split(".")
    assert callable(getattr(importlib.import_module(f"deon.{mod_name}"), name, None))
