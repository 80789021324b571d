"""The layer hooks of the benchmark's tracer name attributes that exist."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_names_an_existing_attribute():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    targets = [target for _, targets, _ in layers for target in targets]
    assert len(targets) > 20
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
