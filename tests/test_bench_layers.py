"""The tracer's layer hooks name attributes that exist and read the arguments they expect."""

import importlib
import inspect
import runpy
from pathlib import Path

from cusplab.dirac_lab import eigen_lowest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_names_an_existing_attribute():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    targets = [target for _, targets, _ in layers for target in targets]
    assert len(targets) > 20
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_the_traced_eigensolver_takes_the_matrix_and_count_first():
    # the tracer's eigensolver counter reads T from args[0] and count from
    # args[1] or the keyword "count", so these may not move or be renamed
    assert list(inspect.signature(eigen_lowest).parameters)[:2] == ["T", "count"]
