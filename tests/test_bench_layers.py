"""The tracer's layer hooks name attributes that exist and read the arguments they expect."""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

from cusplab import corners, surgery_spaces
from cusplab.dirac_lab import eigen_lowest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
# the names the benchmark's files give the cusplab modules they import
BENCH_MODULES = {"cli": "cusplab.cli", "corners": "cusplab.corners", "expfit": "cusplab.expfit",
                 "spectra": "cusplab.dirac_lab.spectra", "surgery": "cusplab.surgery_spaces"}


def test_every_traced_layer_names_an_existing_attribute():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    targets = [target for _, targets, _ in layers for target in targets]
    assert len(targets) > 20
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_a_span_hooked_in_corners_and_surgery_spaces_times_one_function():
    # the tracer wraps a name where each module looks it up; the surgery.*
    # hooks time the same code as the corners.* hooks only if both names are
    # bound to the one function
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    shared = {attr for _, targets, _ in layers for module, attr in targets
              if module == "cusplab.surgery_spaces" and hasattr(corners, attr)}
    assert shared == {"sum_sets", "scale_set", "pullback_family", "pushforward_family"}
    assert all(getattr(surgery_spaces, attr) is getattr(corners, attr) for attr in shared)


def test_the_traced_eigensolver_takes_the_matrix_and_count_first():
    # the tracer's eigensolver counter reads T from args[0] and count from
    # args[1] or the keyword "count", so these may not move or be renamed
    assert list(inspect.signature(eigen_lowest).parameters)[:2] == ["T", "count"]


def _bench_reads() -> set[tuple[str, str]]:
    """(module, attribute) for every ``cli.X``, ``spectra.X`` etc. in bench/*.py.

    A read through another name, as ``workloads.surgery.build_fixture``, counts too.
    """
    reads = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                name = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if name in BENCH_MODULES:
                    reads.add((BENCH_MODULES[name], node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cusplab"):
                reads.update((node.module, alias.name) for alias in node.names)
    return reads


def test_every_name_the_benchmark_reads_exists():
    reads = _bench_reads()
    assert ("cusplab.dirac_lab.spectra", "relative_resolvent_trace") in reads
    assert ("cusplab.surgery_spaces", "build_fixture") in reads and len(reads) > 30
    missing = sorted((module, attr) for module, attr in reads
                     if not hasattr(importlib.import_module(module), attr))
    assert missing == []


def test_the_exact_algebra_oracles_accept_one_pass():
    # a library change that drops what an oracle reads (BMap.interior, .e,
    # .generators) fails here, and not only as a wrong output of a benchmark run
    workload = runpy.run_path(str(BENCH / "workloads.py"))["ExactAlgebra"](0)
    outs = []
    for op in workload.ops():
        outs.append(op.fn(outs))
    verdicts = workload.check(outs)
    assert len(verdicts) == len(workload.queries) > 0
    assert [q[0] for q, ok in zip(workload.queries, verdicts) if not ok] == []
