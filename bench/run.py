"""Benchmark entry point for cusplab.

    python3 bench/run.py --workload trace-c12|sweep-cli|exact-algebra \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each workload runs as a
closed loop in this one process: one caller, one operation at a time, whole
passes over the workload's operation list until ``--seconds`` is used up
(at least one pass, and enough items for the workload's tail percentile).
Outputs are checked after each pass, outside the timed region; a failed
check counts as a failed operation and never stops the run.  The times
reported are each operation's fastest over the run's passes (``end_to_end``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then wraps the layer functions (see
``tracing.py``) and runs traced passes for the other half, and reports the
per-layer metrics per traced pass, with the names and units listed in
``BENCHMARK.json`` at the checkout's root.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the machine and the sample counts.  The same record
goes to ``.bench_out/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 7
SETUP_SNIPPET = (
    "import cusplab.cli, cusplab.dirac_lab, cusplab.expfit, cusplab.surgery_spaces\n"
    "cusplab.surgery_spaces.build_fixture()\n"
)
MIN_BEYOND = 10
# host_probe's fastest time on the 2-core baseline host outside a slow spell
PROBE_REF_S = 0.0074
PROBE_SLOTS = 10  # probes spread through each pass of a HOST_PROBE workload


def min_items(q: int, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples with at least ``min_beyond`` of them above the q-th percentile."""
    return math.ceil(min_beyond * 100 / (100 - q))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class PassResult:
    wall: float
    op_times: list[float]
    item_times: list[float]
    attempted: int
    failed: int
    first_failure: str | None
    probes: list[float] = field(default_factory=list)


@dataclass(frozen=True, order=True)
class _ProbeTerm:
    z: Fraction
    k: int


def host_probe() -> float:
    """Seconds for one call of a fixed pure-Python kernel: Fractions, frozen dataclasses, sorting, dicts.

    It is the exact engine's kind of work but calls nothing in cusplab, so no
    change to the package can move it; only the host's speed does.
    """
    t0 = perf_counter()
    terms = sorted({_ProbeTerm(Fraction(i % 83 - 41, i % 12 + 1), i % 7) for i in range(400)})
    kept: list[_ProbeTerm] = []
    for t in terms:
        if not any((t.z - u.z).denominator == 1 and t.z >= u.z and t.k <= u.k
                   for u in kept[-8:]):
            kept.append(t)
    totals: dict[int, Fraction] = {}
    for t in kept:
        totals[t.k] = totals.get(t.k, Fraction(0)) + t.z
    return perf_counter() - t0


def run_pass(workload, ops, pass_no: int, tracer=None) -> PassResult:
    workload.start_pass()
    probe_every = max(1, len(ops) // PROBE_SLOTS) if workload.HOST_PROBE else 0
    probes: list[float] = []
    try:
        outs: list = []
        op_times: list[float] = []
        item_times: list[float] = []
        t_pass = perf_counter()
        for i, op in enumerate(ops):
            if probe_every and i % probe_every == 0 and len(probes) < PROBE_SLOTS:
                probes.append(host_probe())
            if tracer is not None:
                tracer.pass_no, tracer.item = pass_no, f"{pass_no}.{i}"
                span = tracer.open("bench.item")
            t0 = perf_counter()
            try:
                out = op.fn(outs)
            except Exception as exc:  # an operation that raises is a failed item
                out = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            outs.append(out)
            op_times.append(dt)
            if op.item:
                item_times.append(dt)
        wall = perf_counter() - t_pass
        ok = workload.check(outs)
    finally:
        workload.end_pass()
    first = next((f"op {i}: {outs[i]!r}" for i, good in enumerate(ok) if not good), None)
    return PassResult(wall, op_times, item_times, len(ok), ok.count(False), first, probes)


def run_passes(workload, seconds: float, tracer=None, first_pass: int = 0) -> list[PassResult]:
    """Whole passes until the next one would end after ``seconds``.

    Runs at least enough passes for ``MIN_BEYOND`` items above the
    workload's fixed tail percentile, so that percentile is always reported.
    """
    ops = workload.ops()
    needed = min_items(workload.TAIL_PERCENTILE)
    results: list[PassResult] = []
    start = perf_counter()
    while True:
        results.append(run_pass(workload, ops, first_pass + len(results), tracer))
        items = sum(len(p.item_times) for p in results)
        if items >= needed and perf_counter() - start + results[-1].wall > seconds:
            return results


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing the package and building the fixture."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    """The checkout's commit; None where git or the repository is missing."""
    # the ceiling keeps git from taking a repository above the checkout for its own
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def best_of_passes(rows) -> list[float]:
    """Each operation's fastest time over the passes; ``rows`` holds one list per pass."""
    return [min(times) for times in zip(*rows)]


def pass_time(passes: list[PassResult]) -> float:
    """The time of one pass with every operation at its fastest in the run."""
    return sum(best_of_passes(p.op_times for p in passes))


def end_to_end(passes: list[PassResult], setup_s: float, q: int) -> tuple[dict, dict]:
    """End-to-end metrics from the best time of each operation over the run's passes.

    The baseline host runs interpreted code up to 1.8 times slower in spells
    of seconds to minutes (see README.md), so a median over passes follows
    the share of the run that fell in a spell; an operation's fastest time
    does not, as long as the run holds a fast stretch.  When a pass has too
    few items for the tail percentile, the item times of every pass are
    pooled instead.

    A run that falls wholly inside a spell has no fast stretch.  For a
    workload of interpreted code only (``HOST_PROBE``), every time is
    therefore scaled by ``PROBE_REF_S`` over the probe's time, taken like
    the operations' times: ``PROBE_SLOTS`` probes spread through each pass,
    each slot at its fastest over the passes, averaged over the slots.  It
    then reads as on the baseline host outside a spell.  The unscaled pass
    time and the scale are in the record.
    """
    slots = best_of_passes(p.probes for p in passes)
    scale = PROBE_REF_S / statistics.mean(slots) if slots else 1.0
    best_items = [t * scale for t in best_of_passes(p.item_times for p in passes)]
    if len(best_items) >= min_items(q):
        items, item_times = best_items, "best of passes"
    else:
        items = [t * scale for p in passes for t in p.item_times]
        item_times = "every pass"
    wall = pass_time(passes) * scale
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "item_s.p50": percentile(items, 50),
        "item_s.tail": percentile(items, q),
        "items_per_s": len(best_items) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"passes": len(passes), "items": len(items), "item_times": item_times,
               "tail_percentile": q, "setup_repeats": SETUP_REPEATS,
               "pass_walls": [p.wall for p in passes], "host_scale": scale,
               "unscaled_wall_s": pass_time(passes)}
    return metrics, samples


def import_package():
    """Import cusplab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import cusplab

    if Path(cusplab.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"cusplab imported from {cusplab.__file__}, not from {SRC}")
    import tracing
    import workloads

    return tracing, workloads


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description="cusplab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    loadavg = os.getloadavg()
    try:
        tracing, workloads = import_package()
    except ImportError as exc:
        print(f"bench: cannot import cusplab from {SRC}: {exc}", file=sys.stderr)
        return 2
    machine = machine_record(loadavg)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = workloads.make_workload(args.workload, args.seed, work)
        workloads.surgery.build_fixture()  # cached by the library; fill it before timing
        # keep the pre-built inputs out of the collector's view, so that a
        # collection costs what the library's own objects cost
        gc.collect()
        gc.freeze()
        if args.trace == 0:
            setup_s = measure_setup()
            passes = run_passes(workload, args.seconds)
            metrics, samples = end_to_end(passes, setup_s, workload.TAIL_PERCENTILE)
            reported = spec["end_to_end"]
            spans_file = None
        else:
            base = run_passes(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes = run_passes(workload, args.seconds / 2, tracer, first_pass=len(base))
            finally:
                tracer.uninstall()
            overhead = pass_time(passes) / pass_time(base) - 1
            reported = spec["per_layer"]
            metrics = tracer.layer_metrics([m["name"] for m in reported], len(passes), overhead)
            samples = {"untraced_passes": len(base), "traced_passes": len(passes),
                       "spans": len(tracer.spans)}
            passes = base + passes
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "samples": samples,
        "fail_frac": failed / attempted, "spans_file": spans_file and str(spans_file),
        "first_failure": next((p.first_failure for p in passes if p.first_failure), None),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=2) + "\n")
    print("machine " + json.dumps(machine))
    print("run " + json.dumps({k: record[k] for k in
                               ("workload", "seed", "samples", "fail_frac", "first_failure")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
