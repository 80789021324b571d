"""Spans around calls into cusplab's layers, their self times, and the per-layer metrics.

The traced run wraps library functions where their callers look them up
(``cusplab.dirac_lab.spectra.eigen_lowest`` is the name ``spectra`` calls,
``cusplab.cli.dirac_spectrum`` the one ``cli`` calls) and records one span
per call: name, start, end, parent span and item id.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the tracer's list
    item: str | None  # "<pass>.<op>" of the benchmark operation that caused it


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


# -- counters recorded at the same boundaries as the spans ----------------------


def _note_eigen(tracer: "Tracer", args, kwargs, result) -> None:
    T = args[0]
    count = args[1] if len(args) > 1 else kwargs["count"]
    tracer.counts["solver.eigen.rows"] += T.dimension
    digest = hashlib.blake2b(T.diagonal.tobytes() + T.offdiagonal.tobytes()).digest()
    tracer.solve_keys.add((tracer.pass_no, digest, count))


def _note_fit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.condition_max = max(tracer.condition_max, result.condition_estimate)


def _note_sum(tracer: "Tracer", args, kwargs, result) -> None:
    E, F = args
    tracer.counts["corners.sum_sets.offered"] += len(E.generators) * len(F.generators)
    tracer.counts["corners.sum_sets.kept"] += len(result.generators)


def _note_write(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["cli.files_written"] += 1
    tracer.counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


SPECTRA = "cusplab.dirac_lab.spectra"
SOLVER = "cusplab.dirac_lab.solver"
CORNERS = "cusplab.corners"
SURGERY = "cusplab.surgery_spaces"
CLI = "cusplab.cli"

# (span name or None for a counter-only hook, [(module, attribute)], counter hook)
LAYERS: tuple[tuple[str | None, tuple[tuple[str, str], ...], Callable | None], ...] = (
    ("geometry.potential", ((SOLVER, "potential"), (SOLVER, "potential_derivative")), None),
    ("solver.assemble", ((SPECTRA, "assemble_hamiltonian"),), None),
    ("solver.eigen", ((SPECTRA, "eigen_lowest"),), _note_eigen),
    ("spectra.cusp_depth", ((SPECTRA, "_cusp_geometry"),), None),
    ("spectra.table", ((SPECTRA, "dirac_spectrum"), (CLI, "dirac_spectrum")), None),
    ("spectra.tail", ((SPECTRA, "_mode_tail"),), None),
    ("spectra.trace", ((SPECTRA, "relative_resolvent_trace"),), None),
    ("spectra.mass", ((CLI, "neck_mass"),), None),
    ("expfit.fit", (("cusplab.expfit", "fit_basis"),), _note_fit),
    ("cli", ((CLI, "main"),), None),
    (None, ((CLI, "_write"),), _note_write),
    ("corners.sum_sets", ((CORNERS, "sum_sets"), (SURGERY, "sum_sets")), _note_sum),
    ("corners.extended_union", ((CORNERS, "extended_union"),), None),
    ("corners.scale_set", ((CORNERS, "scale_set"), (SURGERY, "scale_set")), None),
    ("corners.member", ((CORNERS, "member"),), None),
    ("corners.pullback", ((CORNERS, "pullback_family"), (SURGERY, "pullback_family")), None),
    ("corners.pushforward", ((CORNERS, "pushforward_family"),
                             (SURGERY, "pushforward_family")), None),
    ("corners.compose_bmaps", ((CORNERS, "compose_bmaps"),), None),
    ("surgery.mapping", ((SURGERY, "mapping_orders"),), None),
    ("surgery.composition", ((SURGERY, "composition_orders"),), None),
    ("surgery.trace_index", ((SURGERY, "trace_index_set"),), None),
    ("surgery.verify", ((SURGERY, "verify_fixture"),), None),
)


class Tracer:
    """Span recorder; ``install`` wraps the layer functions, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.item: str | None = None
        self.pass_no = 0
        self.counts: Counter = Counter()
        self.condition_max = 0.0
        self.solve_keys: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.item))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = perf_counter()

    def wrap(self, name: str | None, fn: Callable, note: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, layers: Iterable = LAYERS) -> None:
        for name, targets, note in layers:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def layer_metrics(self, names: Iterable[str], passes: int,
                      overhead_frac: float) -> dict[str, float]:
        """The named per-layer values per traced pass; every pass runs the same inputs.

        A name is a ratio or total computed here, or ``<layer>.calls`` or
        ``<layer>.self_s`` of a span name in ``LAYERS``.
        """
        calls: Counter = Counter()
        self_s: Counter = Counter()
        cusp_solves = 0
        for s, own in zip(self.spans, self_times(self.spans)):
            calls[s.name] += 1
            self_s[s.name] += own
            if (s.name == "solver.eigen" and s.parent is not None
                    and self.spans[s.parent].name == "spectra.cusp_depth"):
                cusp_solves += 1
        offered = self.counts["corners.sum_sets.offered"]
        ratios = {
            "spectra.solve_unique_ratio": (len(self.solve_keys) / calls["solver.eigen"]
                                           if calls["solver.eigen"] else 1.0),
            "expfit.fit.condition_max": self.condition_max,
            "corners.sum_sets.keep_ratio": (self.counts["corners.sum_sets.kept"] / offered
                                            if offered else 1.0),
            "bench.trace_overhead_frac": overhead_frac,
        }
        totals = {
            "spectra.cusp_depth.solves": cusp_solves,
            **{k: self.counts[k] for k in ("solver.eigen.rows", "cli.bytes_written",
                                           "cli.files_written")},
        }
        spans = {name for name, _, _ in LAYERS if name is not None}
        out = {}
        for metric in names:
            if metric in ratios:
                out[metric] = ratios[metric]
                continue
            if metric not in totals:
                layer, kind = metric.rsplit(".", 1)
                if layer not in spans or kind not in ("calls", "self_s"):
                    raise KeyError(f"no per-layer metric {metric!r}")
                totals[metric] = calls[layer] if kind == "calls" else self_s[layer]
            out[metric] = totals[metric] / passes
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent,
                                     "item": s.item}) + "\n")
