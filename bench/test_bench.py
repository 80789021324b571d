"""Tests of the benchmark's own code: span arithmetic, percentile choice, output checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from run import (MIN_BEYOND, PROBE_REF_S, ROOT, PassResult, end_to_end, import_package,
                 min_items, percentile, run_passes)

tracing, workloads = import_package()

from cusplab import corners, expfit  # noqa: E402  (needs src/ on the path first)
from cusplab.dirac_lab import spectra  # noqa: E402


def spans_from(rows):
    return [tracing.Span(name, a, b, parent, None) for name, a, b, parent in rows]


def test_self_time_subtracts_nested_children():
    spans = spans_from([
        ("item", 0.0, 10.0, None),
        ("table", 1.0, 8.0, 0),
        ("eigen", 2.0, 4.0, 1),
        ("eigen", 5.0, 6.0, 1),
        ("tail", 8.5, 9.0, 0),
    ])
    assert tracing.self_times(spans) == pytest.approx([10 - 7 - 0.5, 7 - 3, 2, 1, 0.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = spans_from([
        ("parent", 0.0, 10.0, None),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),  # overlaps a: union is [1, 7]
        ("c", 9.0, 12.0, 0),  # sticks out of the parent: only [9, 10] counts
    ])
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 6 - 1)


@pytest.mark.parametrize("q, n", [(50, 20), (60, 25), (75, 40), (90, 100)])
def test_min_items_leaves_ten_samples_beyond_the_percentile(q, n):
    assert min_items(q) == n
    assert n * (100 - q) / 100 >= MIN_BEYOND > (n - 1) * (100 - q) / 100


class _Instant(workloads.Workload):
    name, TAIL_PERCENTILE = "instant", 90

    def ops(self):
        return [workloads.Op(lambda _: None)] * 7

    def check(self, outs):
        return [True] * len(outs)


def test_run_passes_runs_until_the_fixed_percentile_has_its_samples():
    passes = run_passes(_Instant(), seconds=0.0)
    assert len(passes) == 15  # 14 passes of 7 items fall short of 100


def _pass(op_times, items):
    return PassResult(sum(op_times), op_times, op_times[:items], len(op_times), 0, None)


def test_end_to_end_takes_each_operations_fastest_time():
    # two passes of 20 items and one untimed-as-item op; the host was slow in
    # the first half of pass 1 and the second half of pass 2
    slow, fast = [2.0] * 10, [1.0] * 10
    passes = [_pass(slow + fast + [5.0], 20), _pass(fast + slow + [4.0], 20)]
    metrics, samples = end_to_end(passes, setup_s=0.5, q=50)
    assert metrics["wall_s"] == 20 * 1.0 + 4.0
    assert metrics["item_s.p50"] == 1.0 and samples["items"] == 20
    assert metrics["items_per_s"] == pytest.approx(20 / 24.0)


def test_end_to_end_scales_times_by_the_host_probe():
    # two probe slots; each slot's fastest is 2 * PROBE_REF_S, so the host
    # ran at half the reference speed and every time is halved
    p1, p2 = _pass([1.0] * 20 + [5.0], 20), _pass([2.0] * 20 + [5.0], 20)
    p1.probes = [2 * PROBE_REF_S, 4 * PROBE_REF_S]
    p2.probes = [3 * PROBE_REF_S, 2 * PROBE_REF_S]
    metrics, samples = end_to_end([p1, p2], setup_s=0.5, q=50)
    assert samples["host_scale"] == pytest.approx(0.5)
    assert metrics["wall_s"] == pytest.approx(25.0 * 0.5)
    assert metrics["item_s.p50"] == pytest.approx(0.5)
    assert metrics["items_per_s"] == pytest.approx(20 / 12.5)


def test_end_to_end_pools_passes_with_too_few_items_for_the_percentile():
    passes = [_pass([float(i), 10.0], 1) for i in range(1, 41)]
    metrics, samples = end_to_end(passes, setup_s=0.5, q=75)
    assert samples["items"] == 40 and samples["item_times"] == "every pass"
    assert metrics["item_s.tail"] == percentile(range(1, 41), 75)
    assert metrics["wall_s"] == 11.0


def test_percentile_interpolates_between_ranks():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 75) == 4.0
    assert percentile(xs, 60) == pytest.approx(3.4)


def test_tracer_wraps_where_callers_look_up_and_restores():
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules["fake_layer"] = mod
    original = mod.inner
    try:
        tracer = tracing.Tracer()
        tracer.install([("layer.outer", (("fake_layer", "outer"),), None),
                        ("layer.inner", (("fake_layer", "inner"),), None)])
        assert mod.outer(1) == 4
        tracer.uninstall()
        assert mod.inner is original
        assert [(s.name, s.parent) for s in tracer.spans] == [("layer.outer", None),
                                                              ("layer.inner", 0)]
    finally:
        del sys.modules["fake_layer"]


def test_layer_metrics_are_per_pass_and_count_cusp_solves():
    tracer = tracing.Tracer()
    for tracer.pass_no in (0, 1):
        depth = tracer.open("spectra.cusp_depth")
        tracer.close(tracer.open("solver.eigen"))
        tracer.close(depth)
        tracer.close(tracer.open("solver.eigen"))
        tracer.solve_keys.add((tracer.pass_no, b"same matrix", 8))
    tracer.counts["solver.eigen.rows"] = 4 * 4000
    names = ["solver.eigen.calls", "spectra.cusp_depth.calls", "spectra.cusp_depth.solves",
             "solver.eigen.rows", "spectra.solve_unique_ratio", "spectra.tail.calls",
             "bench.trace_overhead_frac"]
    m = tracer.layer_metrics(names, passes=2, overhead_frac=0.1)
    assert m["solver.eigen.calls"] == 2 and m["spectra.cusp_depth.calls"] == 1
    assert m["spectra.cusp_depth.solves"] == 1 and m["solver.eigen.rows"] == 8000
    assert m["spectra.solve_unique_ratio"] == 0.5
    assert m["spectra.tail.calls"] == 0 and m["bench.trace_overhead_frac"] == 0.1
    assert list(m) == names
    with pytest.raises(KeyError):
        tracer.layer_metrics(["spectra.tail.bogus"], passes=2, overhead_frac=0.1)


def test_benchmark_json_metrics_are_all_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert list(tracing.Tracer().layer_metrics(names, 1, 0.0)) == names


def _reference_trace_outputs(wl):
    ref = json.loads((workloads.REFERENCE_DIR / "trace_c12.json").read_text())
    outs = [spectra.TraceValue(v, v, 0.0) for v in ref["value"]]
    fits = [expfit.FitReport((), r, 1.0) for r in (ref["ratio"], 1.0)]
    return outs + [expfit.ModelComparison(*fits)]


def test_trace_check_flags_a_perturbed_value():
    wl = workloads.TraceC12(workloads.DEFAULT_SEED)
    outs = _reference_trace_outputs(wl)
    assert all(wl.check(outs))
    v = outs[7].value * (1 + 1e-7)
    outs[7] = spectra.TraceValue(v, v, 0.0)
    outs[3] = ValueError("raised")
    ok = wl.check(outs)
    assert [i for i, good in enumerate(ok) if not good] == [3, 7]


def test_trace_check_requires_value_to_be_bare_plus_tail():
    wl = workloads.TraceC12(5)
    outs = _reference_trace_outputs(wl)
    assert all(wl.check(outs))
    outs[0] = spectra.TraceValue(1.0, 0.5, 0.25)
    assert wl.check(outs)[0] is False


def test_sweep_check_flags_a_perturbed_csv(tmp_path):
    wl = workloads.SweepCli(workloads.DEFAULT_SEED, tmp_path)
    wl.start_pass()
    try:
        for command in workloads.SWEEP_COMMANDS:
            shutil.copytree(workloads.REFERENCE_DIR / "sweep_cli" / command,
                            wl.pass_dir / command)
        assert wl.check([0, 0, 0]) == [True, True, True]
        csv = wl.pass_dir / "sweep" / "spectrum.csv"
        data = bytearray(csv.read_bytes())
        data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
        csv.write_bytes(bytes(data))
        assert wl.check([0, 0, 1]) == [False, True, False]
    finally:
        wl.end_pass()


def test_structural_csv_check_flags_an_odd_count():
    text = "t,a,b,count\n0.5,0.5,2.0,4\n0.0,0.5,2.0,3\n"
    good = text.replace(",3\n", ",2\n")
    args = ([0.5, 0.0], 2, 8, [(0.5, 2.0)])
    assert workloads.check_sweep_csv("count", good, *args)
    assert not workloads.check_sweep_csv("count", text, *args)


def test_exact_oracles_flag_a_wrong_result():
    first = {}
    for q in workloads.ExactAlgebra(3).queries:
        first.setdefault(q[0], q)
    assert all(workloads.check_query(q, workloads.run_query(q)) for q in first.values())
    E, F = first["sum"][1:]
    wrong_sum = corners.IndexSet(corners.sum_sets(E, F).generators[1:])
    assert not workloads.check_query(first["sum"], wrong_sum)
    (lead_ff, lead_tf), composed, trace = workloads.run_query(first["orders"])
    assert not workloads.check_query(first["orders"], ((lead_ff + 1, lead_tf), composed, trace))
    assert not workloads.check_query(first["bmaps"], ValueError("raised"))


def test_staircase_matches_index_set_canonical_form():
    terms = [corners.IndexTerm(Fraction(z, d), k)
             for z, d, k in [(1, 2, 0), (3, 2, 1), (5, 2, 1), (0, 1, 2), (2, 1, 1), (1, 3, 0)]]
    assert workloads.staircase(terms) == corners.IndexSet(tuple(terms)).generators


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
