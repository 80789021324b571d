"""The benchmark's three workloads: seeded inputs, one pass of operations, output checks.

A workload turns a seed into a fixed list of operations.  The harness in
``run.py`` runs the list in order, one operation at a time, and hands the
outputs back to the workload's ``check`` outside the timed region.

Every call into ``cusplab`` looks the function up on its module at call time
(``spectra.relative_resolvent_trace``, ``cli.main``, ``corners.sum_sets``),
so that the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cusplab import cli, corners, expfit
from cusplab import surgery_spaces as surgery
from cusplab.dirac_lab import spectra

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``fn`` receives the outputs of the operations before it in the pass; the
    output of an operation that raised is the exception.  ``item`` marks the operations whose latency is reported as item time.
    """

    fn: Callable[[list], Any]
    item: bool = True


class Workload:
    """Seeded inputs, the operation list of one pass, and the check of its outputs.

    ``TAIL_PERCENTILE`` is the item-time percentile reported as
    ``item_s.tail``.  It is fixed per workload, as the highest of 90, 75, 60
    with ten items above it in a baseline run, so that a faster program,
    which runs more items, still reports the same statistic.

    ``HOST_PROBE`` marks a workload of interpreted code only, whose times
    are scaled by the host's speed for such code (see ``run.end_to_end``).
    """

    name: str
    TAIL_PERCENTILE: int
    HOST_PROBE = False

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Prepare per-pass state, outside the timed region."""

    def end_pass(self) -> None:
        """Release per-pass state, after the pass has been checked."""

    def check(self, outs: list) -> list[bool]:
        """One verdict per operation; never raises for a wrong or failed output."""
        raise NotImplementedError


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# trace-c12: the criterion-12 trace dataset through the library
# ---------------------------------------------------------------------------


class TraceC12(Workload):
    """Relative-resolvent traces at 25 t values, then the smooth/log model fit.

    The default seed reproduces criterion 12's inputs exactly: 25 geometric
    t in [1e-3, 0.5], k_max = 10, levels = 40, lambda = -1, lambda0 = -2 and
    default spacing.  Other seeds move each t by up to a third of the
    geometric spacing, which keeps the amount of work the same.
    """

    name = "trace-c12"
    TAIL_PERCENTILE = 60  # 25 items in the one pass a 30 s baseline run makes
    LAM, LAM0 = -1.0, -2.0
    PARAMS = dict(k_max=10, levels=40)
    TRACE_REL = 1e-9  # allows reordered float sums, catches changed numbers
    RATIO_REL = 1e-6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        ts = np.geomspace(1e-3, 0.5, 25)
        if seed != DEFAULT_SEED:
            rng = np.random.default_rng(seed)
            step = math.log(ts[1] / ts[0])
            ts = np.clip(ts * np.exp(rng.uniform(-step / 3, step / 3, ts.size)), 1e-3, 0.5)
        self.ts = [float(t) for t in ts]
        self.params = spectra.SpectrumParams(**self.PARAMS)

    def ops(self) -> list[Op]:
        def trace_at(t: float) -> Op:
            return Op(lambda _: spectra.relative_resolvent_trace(
                t, self.LAM, self.LAM0, self.params))

        def fit(outs: list) -> expfit.ModelComparison:
            values = [o.value for o in outs[: len(self.ts)]]
            return expfit.compare_models(self.ts, values, expfit.smooth_even_basis(),
                                         expfit.log_even_basis())

        return [trace_at(t) for t in self.ts] + [Op(fit, item=False)]

    def check(self, outs: list) -> list[bool]:
        ref = None
        if self.seed == DEFAULT_SEED:
            ref = json.loads((REFERENCE_DIR / "trace_c12.json").read_text())
        ok = []
        for i, out in enumerate(outs[:-1]):
            good = (isinstance(out, spectra.TraceValue)
                    and all(map(math.isfinite, (out.value, out.bare_sum, out.tail_estimate)))
                    and out.value == out.bare_sum + out.tail_estimate)
            if good and ref is not None:
                good = self.ts[i] == ref["t"][i] and _close(out.value, ref["value"][i],
                                                            self.TRACE_REL)
            ok.append(good)
        fit = outs[-1]
        good = (isinstance(fit, expfit.ModelComparison) and math.isfinite(fit.ratio)
                and fit.ratio > 0)
        if good and ref is not None:
            good = _close(fit.ratio, ref["ratio"], self.RATIO_REL)
        ok.append(good)
        return ok

    def reference(self, outs: list) -> dict:
        return {"t": self.ts, "value": [o.value for o in outs[:-1]], "ratio": outs[-1].ratio}


# ---------------------------------------------------------------------------
# sweep-cli: `spectrum sweep`, `count` and `mass` through cusplab.cli.main
# ---------------------------------------------------------------------------


SWEEP_COMMANDS = ("sweep", "count", "mass")
SWEEP_FILES = {"sweep": "spectrum.csv", "count": "counts.csv", "mass": "mass.csv"}


class SweepCli(Workload):
    """Three CLI invocations on one config, each writing to a fresh output_dir.

    The default seed is criterion 10's grid 0.5, ..., 0.01, 0.0 with
    k_max = 2, levels = 8, default spacing and windows
    0.5:2.0,0.0:3.0,0.0:0.1.  Other seeds draw the seven positive t values
    log-uniformly from [0.01, 0.5]; the amount of work stays the same.
    """

    name = "sweep-cli"
    TAIL_PERCENTILE = 75  # about 75 items in a 30 s baseline run
    K_MAX, LEVELS = 2, 8
    WINDOWS = ((0.5, 2.0), (0.0, 3.0), (0.0, 0.1))

    def __init__(self, seed: int, work_root: Path) -> None:
        self.seed = seed
        if seed == DEFAULT_SEED:
            ts = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01]
        else:
            rng = random.Random(seed)
            ts = set()
            while len(ts) < 7:
                ts.add(float(f"{math.exp(rng.uniform(math.log(0.01), math.log(0.5))):.3g}"))
        self.t_grid = sorted(ts, reverse=True) + [0.0]
        self.work_root = work_root
        self.pass_dir: Path | None = None

    def config_text(self, command: str) -> str:
        return "\n".join([
            "t_grid = " + ",".join(repr(t) for t in self.t_grid),
            f"k_max = {self.K_MAX}",
            f"levels = {self.LEVELS}",
            "windows = " + ",".join(f"{a}:{b}" for a, b in self.WINDOWS),
            f"output_dir = {command}",
        ]) + "\n"

    def start_pass(self) -> None:
        self.pass_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_root))
        for command in SWEEP_COMMANDS:
            (self.pass_dir / f"{command}.cfg").write_text(self.config_text(command))

    def end_pass(self) -> None:
        shutil.rmtree(self.pass_dir)
        self.pass_dir = None

    def ops(self) -> list[Op]:
        def invoke(command: str) -> Op:
            def run(_: list) -> int:
                # relative paths keep manifest.json free of the pass directory
                cwd = os.getcwd()
                os.chdir(self.pass_dir)
                try:
                    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                        return cli.main(["spectrum", command, f"{command}.cfg"])
                finally:
                    os.chdir(cwd)
            return Op(run)

        return [invoke(command) for command in SWEEP_COMMANDS]

    def outputs(self, command: str) -> dict[str, bytes]:
        out = self.pass_dir / command
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def check(self, outs: list) -> list[bool]:
        ok = []
        for command, rc in zip(SWEEP_COMMANDS, outs):
            try:
                good = rc == cli.EXIT_OK and self._check_files(command, self.outputs(command))
            except (OSError, ValueError, KeyError, cli.ConfigError):
                good = False
            ok.append(good)
        return ok

    def _check_files(self, command: str, files: dict[str, bytes]) -> bool:
        name = SWEEP_FILES[command]
        if set(files) != {name, "manifest.json"}:
            return False
        if self.seed == DEFAULT_SEED:
            ref = REFERENCE_DIR / "sweep_cli" / command
            return all((ref / n).read_bytes() == data for n, data in files.items())
        manifest = json.loads(files["manifest.json"])
        wanted = cli.RunConfig.from_text(self.config_text(command))
        if manifest["outputs"] != [name] or cli.RunConfig.from_text(manifest["config"]) != wanted:
            return False
        return check_sweep_csv(command, files[name].decode(), self.t_grid,
                               self.K_MAX, self.LEVELS, self.WINDOWS)

    def reference(self, outs: list) -> dict[str, dict[str, bytes]]:
        return {command: self.outputs(command) for command in SWEEP_COMMANDS}


def check_sweep_csv(command: str, text: str, t_grid, k_max: int, levels: int,
                    windows) -> bool:
    """Structural check of one CLI output file: shape, finiteness, parity, ranges."""
    lines = text.split("\n")
    if lines[-1] != "":
        return False
    header, rows = lines[0], [r.split(",") for r in lines[1:-1]]
    if command == "sweep":
        if header != "t,k,j,mu,lambda" or len(rows) != len(t_grid) * (k_max + 1) * levels:
            return False
        for row in rows:
            mu, lam = float(row[3]), float(row[4])
            if not (math.isfinite(mu) and mu > 0 and lam == math.sqrt(mu)):
                return False
        return sorted({float(r[0]) for r in rows}) == sorted(t_grid)
    if command == "count":
        if header != "t,a,b,count" or len(rows) != len(t_grid) * len(windows):
            return False
        return all(int(r[3]) % 2 == 0 and int(r[3]) >= 0 for r in rows)
    if header != "t,j,window,fraction" or len(rows) != len(t_grid) * len(windows):
        return False
    return all(math.isfinite(float(r[3])) and 0.0 <= float(r[3]) <= 1.0 for r in rows)


# ---------------------------------------------------------------------------
# exact-algebra: index sets, b-maps and the surgery order pipelines
# ---------------------------------------------------------------------------


def staircase(terms) -> tuple:
    """Canonical generators by an independent algorithm: one staircase per class z mod 1.

    Sorted by z ascending and k descending, a term is kept only if its k
    beats every k seen before it in its class.
    """
    best: dict[Fraction, int] = {}
    kept = []
    for t in sorted(set(terms), key=lambda t: (t.z, -t.k)):
        cls = t.z - math.floor(t.z)
        if t.k > best.get(cls, -1):
            best[cls] = t.k
            kept.append(t)
    return tuple(sorted(kept))


def profile(gens, z_max: Fraction, k_max: int) -> dict[Fraction, int]:
    """Brute-force member profile z -> largest k, for z <= z_max (criterion 1's oracle)."""
    out: dict[Fraction, int] = {}
    for g in gens:
        z, kc = g.z, min(g.k, k_max)
        while z <= z_max:
            if out.get(z, -1) < kc:
                out[z] = kc
            z += 1
    return out


PROFILE_SPAN = 4  # profile oracle window above the smallest exponent involved
PROFILE_K = 12


def _sum_profile_ok(E, F, S) -> bool:
    lo = min(g.z for g in E.generators) + min(g.z for g in F.generators)
    top = lo + PROFILE_SPAN
    want: dict[Fraction, int] = {}
    pe = profile(E.generators, top - min(g.z for g in F.generators), PROFILE_K)
    pf = profile(F.generators, top - min(g.z for g in E.generators), PROFILE_K)
    for za, ka in pe.items():
        for zb, kb in pf.items():
            z = za + zb
            if z <= top:
                k = min(ka + kb, PROFILE_K)
                if want.get(z, -1) < k:
                    want[z] = k
    return profile(S.generators, top, PROFILE_K) == want


class ExactAlgebra(Workload):
    """Queries on the exact engine in three parts with a fixed size schedule.

    (a) ``sum_sets``, ``extended_union``, ``scale_set`` and batches of
        ``member`` on index sets of 2-24 canonical generators (sums up to
        24 x 24, where the pruning in ``IndexSet`` dominates), exponents
        z = p/q with p in [-40, 40], q <= 12, log powers k <= 6;
    (b) ``compose_bmaps`` of two interior b-maps over 8-24 faces, a quarter
        of whose exponents are nonzero, with ``is_b_normal`` of the first
        and ``is_b_fibration`` of the second;
    (c) ``mapping_orders``, ``composition_orders`` and ``trace_index_set``
        on draws from the order distributions of criteria 3, 4 and 2, and
        ``verify_fixture``.

    A query is one operation of (a), one b-map pair of (b), or one draw of
    (c); bundling the cheap calls of (b) and (c) keeps the item times close
    together near the median, which keeps ``item_s.p50`` steady.  The sizes
    follow a fixed schedule and the seed draws only the contents, so every
    seed does about the same amount of work.  The counts keep a pass near
    1.3 s, so a 30 s run times each query 10 to 20 times and its fastest
    time (``run.end_to_end``) can fall in a fast stretch of the host.
    """

    name = "exact-algebra"
    TAIL_PERCENTILE = 90  # 299 items in every pass
    HOST_PROBE = True  # no numpy or LAPACK time at all
    SET_SIZES = (2, 5, 8, 11, 14, 17, 20, 24)  # canonical generator counts, cycled
    SUM_SIZES = ((2, 24), (4, 12), (6, 20), (8, 8), (10, 16), (12, 12), (16, 18), (24, 24))
    SET_PAIRS = 16
    MEMBER_PROBES = 32
    BMAP_FACES = (8, 10, 12, 14, 16, 18, 20, 22, 24)
    BMAP_ROUNDS = 3
    ORDER_QUERIES = 192
    VERIFY_QUERIES = 24

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.queries: list[tuple] = []
        for n, m in self.SUM_SIZES:
            self.queries.append(("sum", _index_set(rng, n), _index_set(rng, m)))
        sizes = self.SET_SIZES
        for i in range(self.SET_PAIRS):
            E = _index_set(rng, sizes[i % len(sizes)])
            F = _index_set(rng, sizes[(i * 3 + 1) % len(sizes)])
            probes = [(_exponent(rng), rng.randint(0, 7)) for _ in range(self.MEMBER_PROBES)]
            q = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            self.queries += [("union", E, F), ("scale", q, E), ("member", E, probes)]
        faces = self.BMAP_FACES
        for r in range(self.BMAP_ROUNDS):
            for j, n in enumerate(faces):
                f, g, fd, gd = _bmap_pair(rng, n, faces[(j + r) % len(faces)])
                self.queries.append(("bmaps", f, g, fd, gd))
        for _ in range(self.ORDER_QUERIES):
            self.queries.append(("orders", _mapping_input(rng), _composition_input(rng),
                                 _trace_input(rng)))
        self.queries += [("verify",)] * self.VERIFY_QUERIES

    def ops(self) -> list[Op]:
        return [Op(_QUERY_FN[q[0]](*q[1:])) for q in self.queries]

    def check(self, outs: list) -> list[bool]:
        return [check_query(q, out) for q, out in zip(self.queries, outs)]


def _exponent(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def _index_set(rng: random.Random, n: int) -> corners.IndexSet:
    """A set whose canonical form has exactly n generators."""
    terms: list[corners.IndexTerm] = []
    while len(staircase(terms)) < n:
        terms.append(corners.IndexTerm(_exponent(rng), rng.randint(0, 6)))
    return corners.IndexSet(staircase(terms))


BMAP_DENSITY = 0.25


def _bmap_pair(rng: random.Random, n: int, m: int):
    """Interior b-maps f: S -> M and g: M -> T with dense exponent matrices alongside.

    A quarter (``BMAP_DENSITY``) of each row's exponents are nonzero, in
    1..3, at random places; a fixed count keeps the cost of a pair set by
    its sizes, whatever the seed.  At that density ``compose_bmaps`` costs
    what the b-map hot path was profiled at: under 1 ms for 8 x 8 x 8 faces
    and about 100 ms for 24 x 24 x 24 (see README.md).  Maps with one
    nonzero per row, as in the surgery fixture, compose about 30 times
    faster at 24 faces.
    """
    S, M, T = (corners.Space.of(*[f"{p}{i}" for i in range(k)])
               for p, k in (("s", n), ("m", m), ("t", n)))

    def matrix(rows: int, cols: int) -> list[list[int]]:
        out = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in rng.sample(range(cols), round(cols * BMAP_DENSITY)):
                out[i][j] = rng.randint(1, 3)
        return out

    def build(src, tgt, mat) -> corners.BMap:
        rows = {src.faces[i].label: {tgt.faces[j].label: v for j, v in enumerate(r) if v}
                for i, r in enumerate(mat)}
        return corners.BMap.build(src, tgt, rows)

    fd = matrix(n, m)
    gd = matrix(m, n)
    return build(S, M, fd), build(M, T, gd), fd, gd


def _q(rng: random.Random, lo: int = -12, hi: int = 12, dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _mapping_input(rng: random.Random):
    """Criterion 3's distribution: random orders and section weights."""
    o = surgery.OpOrders(_q(rng), _q(rng), _q(rng))
    return o, (_q(rng, -9, 9, (1, 2, 3)), _q(rng, -9, 9, (1, 2, 3)))


def _composition_input(rng: random.Random):
    """Criterion 4's distribution: two random order triples."""
    return (surgery.OpOrders(_q(rng), _q(rng), _q(rng)),
            surgery.OpOrders(_q(rng), _q(rng), _q(rng)))


def _trace_input(rng: random.Random):
    """Criterion 2's distribution: alpha < -1, beta <= 0, half with integer difference."""
    den = rng.choice([1, 2, 3, 4, 5])
    alpha = Fraction(-rng.randint(den + 1, 8 * den), den)
    if rng.random() < 0.5:
        beta = alpha + rng.randint(0, 6)
        while beta > 0:  # keep alpha - beta an integer
            beta -= 1
    else:
        beta = Fraction(-rng.randint(0, 12), rng.choice([2, 3, 4, 5]))
    return alpha, beta


_QUERY_FN: dict[str, Callable[..., Callable[[list], Any]]] = {
    "sum": lambda E, F: lambda _: corners.sum_sets(E, F),
    "union": lambda E, F: lambda _: corners.extended_union(E, F),
    "scale": lambda q, E: lambda _: corners.scale_set(q, E),
    "member": lambda E, probes: lambda _: [corners.member(E, z, k) for z, k in probes],
    "bmaps": lambda f, g, fd, gd: lambda _: (
        corners.compose_bmaps(f, g), corners.is_b_normal(f), corners.is_b_fibration(g)),
    "orders": lambda m, c, t: lambda _: (
        surgery.mapping_orders(*m), surgery.composition_orders(*c), surgery.trace_index_set(*t)),
    "verify": lambda: lambda _: surgery.verify_fixture(),
}


def _dense(bm: corners.BMap) -> list[list[int]]:
    idx_s = {f: i for i, f in enumerate(bm.source.faces)}
    idx_t = {f: j for j, f in enumerate(bm.target.faces)}
    out = [[0] * len(bm.target.faces) for _ in bm.source.faces]
    for (G, H), v in bm.e:
        out[idx_s[G]][idx_t[H]] = v
    return out


def _normal_rows(mat) -> bool:
    return all(sum(1 for v in row if v) <= 1 for row in mat)


def _bmaps_oracle(f, g, fd, gd, out) -> bool:
    """Dense integer-matrix product for the composite; row nonzero counts for b-normality."""
    composite, f_normal, g_fibration = out
    want = [[sum(a * gd[h][k] for h, a in enumerate(row)) for k in range(len(gd[0]))]
            for row in fd]
    return (_dense(f) == fd and _dense(g) == gd and _dense(composite) == want
            and composite.source == f.source and composite.target == g.target
            and composite.interior
            and f_normal is _normal_rows(fd) and g_fibration is _normal_rows(gd))


def _orders_oracle(mapping, composition, trace, out) -> bool:
    """Closed forms for mapping and composition orders; criterion 2's trace dichotomy."""
    (o, s), (o1, o2), (a, b) = mapping, composition, trace
    terms = [corners.IndexTerm(-a, 0), corners.IndexTerm(-b, 0)]
    if (a - b).denominator == 1:
        terms.append(corners.IndexTerm(max(-a, -b), 1))
    return out == ((-o.alpha + s[0], -o.beta + s[1]),
                   surgery.OpOrders(o1.m + o2.m, o1.alpha + o2.alpha, o1.beta + o2.beta),
                   corners.IndexSet(staircase(terms)))


_QUERY_ORACLE: dict[str, Callable[..., bool]] = {
    "sum": lambda E, F, S: (
        S.generators == staircase(corners.IndexTerm(a.z + b.z, a.k + b.k)
                                  for a in E.generators for b in F.generators)
        and _sum_profile_ok(E, F, S)),
    "union": lambda E, F, U: U.generators == staircase(
        list(E.generators) + list(F.generators)
        + [corners.IndexTerm(max(a.z, b.z), a.k + b.k + 1)
           for a in E.generators for b in F.generators if (a.z - b.z).denominator == 1]),
    "scale": lambda q, E, S: S.generators == staircase(
        corners.IndexTerm(q * g.z, g.k) for g in E.generators),
    "member": lambda E, probes, got: got == [
        k <= profile(E.generators, z, k).get(z, -1) for z, k in probes],
    "bmaps": _bmaps_oracle,
    "orders": _orders_oracle,
    "verify": lambda checks: len(checks) > 0 and all(passed for _, passed in checks),
}


def run_query(query: tuple):
    return _QUERY_FN[query[0]](*query[1:])([])


def check_query(query: tuple, out) -> bool:
    """Compare one exact-algebra output with its oracle; a raised exception fails."""
    if isinstance(out, Exception):
        return False
    try:
        return bool(_QUERY_ORACLE[query[0]](*query[1:], out))
    except (ArithmeticError, ValueError, KeyError, TypeError, AttributeError):
        return False


def make_workload(name: str, seed: int, work_root: Path):
    if name == TraceC12.name:
        return TraceC12(seed)
    if name == SweepCli.name:
        return SweepCli(seed, work_root)
    if name == ExactAlgebra.name:
        return ExactAlgebra(seed)
    raise KeyError(name)
