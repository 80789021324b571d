"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 12's model-data clause is known-red: the walled-neck model
produces no numerically detectable t^2 log t component (the measured ratio
is ~3 and it shrinks under basis or grid refinement, the signature of a log
monomial absorbing unmodeled smooth structure); the test states the
criterion faithfully and fails honestly, while its synthetic-injection
control passes.
"""

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cusplab.cli import main as cli_main
from cusplab.corners import (
    BlowupStep,
    BMap,
    Face,
    IndexSet,
    Space,
    chained_density_exponents,
    extended_union,
    inf_order,
    is_b_fibration,
    is_b_normal,
    member,
    scale_set,
    sum_sets,
)
from cusplab.dirac_lab import (
    Grid,
    ModeSpec,
    NeckGeometry,
    SpectrumParams,
    SpinStructure,
    assemble_hamiltonian,
    circle_spectrum,
    convergence_order,
    dirac_spectrum,
    eigen_lowest,
    ground_states,
    indicial_min,
    indicial_scan,
    neck_mass,
    partner_minus_hamiltonian,
    relative_resolvent_trace,
)
from cusplab.dirac_lab.spectra import _cusp_geometry
from cusplab.expfit import compare_models, fit_basis, log_even_basis, smooth_even_basis
from cusplab.surgery_spaces import (
    OpOrders,
    build_fixture,
    composition_orders,
    composition_stages,
    mapping_orders,
    trace_expansion_terms,
    trace_index_set,
    verify_fixture,
)

Z_MAX, K_MAX = Fraction(10), 6


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- brute-force oracle ---------------------------------------------------------


def profile(gens, z_max=Z_MAX, k_max=K_MAX):
    """Member set with z <= z_max, k <= k_max, as a map z -> largest k.

    Index sets are downward closed in the log power, so the profile is a
    lossless encoding of the brute-force member enumeration.  The members
    z0 + n of one generator are walked as numerators over z0's denominator,
    which stays in lowest terms, so every member is visited without a
    ``Fraction`` add per step.
    """
    out: dict[tuple[int, int], int] = {}
    for z0, k0 in gens:
        z0, kc = Fraction(z0), min(k0, k_max)
        d = z0.denominator
        for p in range(z0.numerator, math.floor(z_max * d) + 1, d):
            if out.get((p, d), -1) < kc:
                out[(p, d)] = kc
    return {Fraction(p, d): k for (p, d), k in out.items()}


def profile_of(E, z_max=Z_MAX, k_max=K_MAX):
    return profile([(g.z, g.k) for g in E.generators], z_max, k_max)


def test_criterion_01_index_algebra_exactness():
    start = time.perf_counter()
    rng = random.Random(11235)

    def rand_set():
        terms = [
            (Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])), rng.randint(0, 4))
            for _ in range(rng.randint(1, 4))
        ]
        return IndexSet.from_terms(terms)

    sets = [rand_set() for _ in range(1000)]
    for i, E in enumerate(sets):
        F = sets[(i + 1) % len(sets)]
        ME, MF = profile_of(E), profile_of(F)

        # member against the brute-force closure
        for _ in range(5):
            z = Fraction(rng.randint(-8, 10), rng.choice([1, 2, 3, 4]))
            k = rng.randint(0, K_MAX)
            assert member(E, z, k) == (k <= ME.get(z, -1))

        # extended union: plain union plus the log bump on common exponents
        want = dict(ME)
        for z, kb in MF.items():
            want[z] = max(want.get(z, -1), kb)
        for z in set(ME) & set(MF):
            want[z] = max(want[z], min(ME[z] + MF[z] + 1, K_MAX))
        assert profile_of(extended_union(E, F)) == want

        # sum: Minkowski on profiles, windowed
        lo_e, lo_f = inf_order(E), inf_order(F)
        want = {}
        window_f = profile_of(F, Z_MAX - lo_e)
        for za, ka in profile_of(E, Z_MAX - lo_f).items():
            for zb, kb in window_f.items():
                z = za + zb
                if z <= Z_MAX:
                    k = min(ka + kb, K_MAX)
                    if want.get(z, -1) < k:
                        want[z] = k
        assert profile_of(sum_sets(E, F)) == want

        # scale: closure of the scaled generators
        q = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
        scaled = scale_set(q, E)
        assert profile_of(scaled) == profile([(q * g.z, g.k) for g in E.generators])

    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0,
           f"1000 randomized sets agree with brute-force closure in {elapsed:.1f}s")


def test_criterion_02_trace_dichotomy():
    rng = random.Random(202)
    checked_i = checked_ii = 0
    while checked_i < 50 or checked_ii < 50:
        den = rng.choice([1, 2, 3, 4, 5])
        alpha = Fraction(-rng.randint(den + 1, 8 * den), den)  # alpha < -1
        if alpha >= -1:
            continue
        if rng.random() < 0.5:
            beta = alpha + rng.randint(0, 6)  # integer difference
            if beta > 0:
                continue
            assert (alpha - beta).denominator == 1
            terms = trace_expansion_terms(alpha, beta)
            assert terms == [(min(-alpha, -beta), 0), (max(-alpha, -beta), 1)]
            S = trace_index_set(alpha, beta)
            assert member(S, max(-alpha, -beta), 1)
            checked_ii += 1
        else:
            beta = Fraction(-rng.randint(0, 12), rng.choice([2, 3, 4, 5]))
            if (alpha - beta).denominator == 1:
                continue
            terms = trace_expansion_terms(alpha, beta)
            assert terms == sorted([(-alpha, 0), (-beta, 0)])
            assert all(k == 0 for _, k in terms)
            S = trace_index_set(alpha, beta)
            assert all(not member(S, z, 1) for z, _ in terms)
            checked_i += 1
    assert trace_expansion_terms(-2, 0) == [(0, 0), (2, 1)]
    for kk in (3, 4, 5, 6):
        assert trace_expansion_terms(-kk, 0) == [(0, 0), (kk, 1)]
    report(2, True, f"{checked_i} log-free and {checked_ii} log cases exact, "
                    "incl. the (-2,0) and (-k,0) reference instances")


def test_criterion_03_mapping_property():
    rng = random.Random(303)
    for _ in range(100):
        o = OpOrders(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])),
                     Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])),
                     Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])))
        ap = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        bp = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        assert mapping_orders(o, (ap, bp)) == (-o.alpha + ap, -o.beta + bp)
    report(3, True, "pipeline equals (-alpha+alpha', -beta+beta') on 100 random tuples")


def test_criterion_04_composition_orders():
    fx = build_fixture()
    rng = random.Random(404)
    for _ in range(100):
        def q():
            return Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))
        o1, o2 = OpOrders(q(), q(), q()), OpOrders(q(), q(), q())
        got = composition_orders(o1, o2)
        assert got == OpOrders(o1.m + o2.m, o1.alpha + o2.alpha, o1.beta + o2.beta)
    stages = composition_stages(OpOrders(0, 0, 0), OpOrders(0, 0, 0))
    labels_empty = sorted(G.label for G, E in stages.ffc_contributors if E.is_empty)
    labels_full = [G.label for G, E in stages.ffc_contributors if not E.is_empty]
    assert labels_full == ["fff_c"] and labels_empty == ["C2", "T2"]
    nonempty = stages.ffc_contributors[[G.label for G, _ in stages.ffc_contributors]
                                       .index("fff_c")][1]
    assert stages.pushed.get(fx.X2.face("ff_c")) == nonempty
    assert stages.result == OpOrders(0, 0, 0)
    report(4, True, "triple pipeline adds orders on 100 random tuples; "
                    "cusp-face pattern is set-union-with-two-empties")


def test_criterion_05_density_bookkeeping():
    ff = Face("ff")
    simple = chained_density_exponents([BlowupStep(2, 1, ff)])
    ff_b, ff_c = Face("ff_b"), Face("ff_c")
    double = chained_density_exponents([
        BlowupStep(3, 1, ff_b), BlowupStep(2, 1, ff_c, frozenset({ff_b}))])
    fff_b, fff_c = Face("fff_b"), Face("fff_c")
    triple = chained_density_exponents([
        BlowupStep(4, 1, fff_b), BlowupStep(4, 2, fff_c, frozenset({fff_b}))])
    ok = (simple == {ff: 1} and double == {ff_b: 2, ff_c: 3}
          and triple == {fff_b: 3, fff_c: 5})
    report(5, ok, f"chained exponents {simple[ff]}, "
                  f"({double[ff_b]},{double[ff_c]}), ({triple[fff_b]},{triple[fff_c]})")


def test_criterion_06_b_normality_examples_and_fixtures():
    src = Space.of("x1", "x2", "x3")
    tgt = Space.of("x1p", "x2p")
    cross = BMap.build(src, tgt, {
        "x1": {"x1p": 1}, "x2": {"x1p": 3, "x2p": 1}, "x3": {"x2p": 3}})
    assert not is_b_normal(cross)
    pair = Space.of("x1", "x2")
    line = Space.of("x")
    multiply = BMap.build(pair, line, {"x1": {"x": 1}, "x2": {"x": 1}})
    assert is_b_normal(multiply) and is_b_fibration(multiply)
    fx = build_fixture()
    for bm in (fx.pi2_1, fx.pi3_12, fx.pi3_23, fx.pi3_13):
        assert is_b_fibration(bm)
        assert all(v in (0, 1) for _, v in bm.e)
    failures = [name for name, ok in verify_fixture() if not ok]
    report(6, failures == [], "reference b-normality examples classify correctly; "
                              "all fixture projections are {0,1} b-fibrations")


def test_criterion_07_circle_dirac_and_indicial_bound():
    spec = circle_spectrum(SpinStructure.NONTRIVIAL, 6)
    assert all(2 * v % 2 == 1 for v in spec)  # half-integers, exactly
    assert min(abs(v) for v in spec) == Fraction(1, 2)
    assert 0 in circle_spectrum(SpinStructure.TRIVIAL, 3)
    xi = np.linspace(-3.0, 3.0, 61)
    theta = np.linspace(0.0, math.pi, 41)
    value, argmin = indicial_min(xi, theta)
    assert value == 0.25 and argmin[0] == 0.0
    scan = indicial_scan(xi, theta)
    assert np.all(scan.values >= 0.25)
    report(7, True, "half-integer circle spectrum with min |lam| = 1/2; "
                    "indicial minimum exactly 1/4 at xi = 0")


def test_criterion_08_discretization_validity():
    start = time.perf_counter()
    # flat separable case on a neck of arclength ~1 with a constant potential
    t = 2.0 * math.asinh(1.0 / math.sinh(0.5))
    geom = NeckGeometry.neck(t)
    L = geom.length
    c = 0.7
    grid = Grid.for_geometry(geom)  # default spacing: length / 4000
    T = assemble_hamiltonian(geom, ModeSpec(0), grid, flat_potential=c)
    mu = eigen_lowest(T, 3)
    analytic = [c * c + (math.pi * m / L) ** 2 for m in (1, 2, 3)]
    err1 = abs(mu[0] - analytic[0])
    assert err1 < 1e-6
    coarse = Grid.for_geometry(geom, n=400)
    order = convergence_order(geom, ModeSpec(0), coarse, flat_potential=c)
    assert 1.7 <= order <= 2.3
    elapsed = time.perf_counter() - start
    report(8, elapsed < 30.0,
           f"flat case: |error| = {err1:.2e} at default h, observed order "
           f"{order:.2f}, in {elapsed:.1f}s")


def test_criterion_09_susy_pairing_at_t0():
    params = SpectrumParams(k_max=2, levels=10, n=12000)
    with ThreadPoolExecutor(max_workers=2) as pool:
        geom = _cusp_geometry(params, pool)[0]
    grid = Grid.for_geometry(geom, n=12000)
    worst = 0.0
    for k in (0, 1, 2):
        plus = assemble_hamiltonian(geom, ModeSpec(k), grid)
        minus = partner_minus_hamiltonian(geom, ModeSpec(k), grid)
        wp = eigen_lowest(plus, 10)
        wm = eigen_lowest(minus, 10)
        assert np.all(wp > 0)
        worst = max(worst, float(np.max(np.abs(wp - wm) / np.abs(wp))))
    report(9, worst < 1e-6,
           f"H+/H- (partner wall condition) agree to {worst:.2e} relative")


SWEEP_GRID = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0]
WINDOW = (0.5, 2.0)


@pytest.fixture(scope="module")
def sweep_table():
    params = SpectrumParams(k_max=2, levels=8)
    return dirac_spectrum(SWEEP_GRID, params)


def test_criterion_10_spectral_convergence(sweep_table):
    start = time.perf_counter()
    tail = [0.1, 0.05, 0.02, 0.01]
    counts = [sweep_table.eigen_count(*WINDOW, t) for t in tail]
    assert len(set(counts)) == 1
    lam0 = sweep_table.lowest(0.0).lam
    diffs = [abs(sweep_table.lowest(t).lam - lam0) for t in tail]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 0.05 * lam0
    elapsed = time.perf_counter() - start
    report(10, elapsed < 300.0,
           f"count {counts[0]} constant on the tail; |lam1(t)-lam1(0)| falls "
           f"{diffs[0]:.1e} -> {diffs[-1]:.1e} < 5% of lam1(0) = {lam0:.4f}")


def test_criterion_11_projector_mass_decay():
    tail = [0.1, 0.05, 0.02, 0.01]
    ground = ground_states(tail, SpectrumParams(k_max=2, levels=8))  # sweep_table's params
    masses = []
    for t in tail:
        masses.append(neck_mass(t, ground[t], 0.1))
    assert all(a > b for a, b in zip(masses, masses[1:]))
    report(11, masses[-1] < 1e-3,
           f"neck mass strictly decreasing {masses[0]:.1e} -> {masses[-1]:.1e} < 1e-3")


TRACE_TS = np.geomspace(1e-3, 0.5, 25)


@pytest.fixture(scope="module")
def trace_data():
    params = SpectrumParams(k_max=10, levels=40)
    return np.array([
        relative_resolvent_trace(float(t), -1.0, -2.0, params).value
        for t in TRACE_TS
    ])


def test_criterion_12_trace_log_term_model_data(trace_data):
    # known-red: the model's trace data carries no detectable t^2 log t
    # component, so the required ratio is not reached (see module docstring)
    cmp = compare_models(TRACE_TS, trace_data, smooth_even_basis(), log_even_basis())
    report(12, cmp.ratio >= 5.0,
           f"model-data residual ratio smooth/log = {cmp.ratio:.2f} (need >= 5)")


def test_criterion_12_synthetic_injection_control():
    rng = np.random.default_rng(1212)
    ts = TRACE_TS
    noise = 1e-5 * rng.standard_normal(len(ts))
    ys = 0.6 + 1.9 * ts**2 + 0.5 * ts**2 * np.log(ts) + noise
    cmp = compare_models(ts, ys, smooth_even_basis(), log_even_basis())
    assert cmp.ratio >= 10.0
    clean = 0.6 + 1.9 * ts**2 - 3.1 * ts**4 + 0.5 * ts**2 * np.log(ts)
    got = fit_basis(ts, clean, log_even_basis()).coefficients
    want = (0.6, 1.9, -3.1, 0.5)
    rel = max(abs(g - w) / abs(w) for g, w in zip(got, want))
    report(12, rel < 1e-8,
           f"synthetic control: ratio {cmp.ratio:.1f} >= 10, recovery {rel:.1e}")


CONFIG_TEMPLATE = """\
t_grid = 0.4,0.2,0.1,0.0
k_max = 1
levels = 4
h = 0.005
rho_margin_factor = 50.0
lambda = -1.0
lambda0 = -2.0
windows = 0.5:2.0
output_dir = {outdir}
"""

TRACE_CONFIG_TEMPLATE = """\
t_grid = 0.4,0.3,0.2,0.15,0.1,0.07,0.05,0.03
k_max = 1
levels = 4
h = 0.005
rho_margin_factor = 50.0
lambda = -1.0
lambda0 = -2.0
windows = 0.5:2.0
output_dir = {outdir}
"""


def _full_cli_suite(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    outdir = base / "out"
    cfg = base / "run.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(outdir=outdir), encoding="utf-8")
    tcfg = base / "trace.cfg"
    tcfg.write_text(TRACE_CONFIG_TEMPLATE.format(outdir=outdir), encoding="utf-8")
    for argv in (["spectrum", "sweep", str(cfg)],
                 ["spectrum", "count", str(cfg)],
                 ["spectrum", "mass", str(cfg)],
                 ["trace", "compute", str(tcfg)],
                 ["trace", "fit", str(tcfg)]):
        assert cli_main(argv) == 0
    return outdir


def test_criterion_13_determinism(tmp_path, capsys):
    outdir = _full_cli_suite(tmp_path)
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert {"spectrum.csv", "counts.csv", "mass.csv", "trace.csv", "fit.json",
            "manifest.json"} <= set(first)
    _full_cli_suite(tmp_path)  # rerun into the same directory
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in outdir.iterdir()}
    mismatched = [n for n in sorted(first) if first[n] != second.get(n)]
    report(13, mismatched == [] and set(first) == set(second),
           f"two full CLI runs byte-identical on {sorted(first)}")


GOLDEN_DIR = Path(__file__).parent / "data" / "criterion13"


def test_criterion_13_outputs_match_golden_files(tmp_path, capsys):
    # tests/data/criterion13 holds the criterion-13 outputs of the code that
    # summed the spectral tail term by term: the spectrum files must stay
    # byte-identical and the traces within 1e-11 (the tail is now exact).
    # Regenerating these files would remove the check, not fix a failure.
    outdir = _full_cli_suite(tmp_path)
    capsys.readouterr()
    changed = [name for name in ("spectrum.csv", "counts.csv", "mass.csv")
               if (outdir / name).read_bytes() != (GOLDEN_DIR / name).read_bytes()]
    got = [line.split(",") for line in (outdir / "trace.csv").read_text().splitlines()]
    want = [line.split(",") for line in (GOLDEN_DIR / "trace.csv").read_text().splitlines()]
    assert got[0] == want[0] == ["t", "g"] and [r[0] for r in got] == [r[0] for r in want]
    worst = max(abs(float(g) - float(w)) / max(1.0, abs(float(w)))
                for (_, g), (_, w) in zip(got[1:], want[1:]))
    report(13, changed == [] and worst <= 1e-11,
           f"spectrum files byte-identical to the golden files (changed: {changed}); "
           f"traces within {worst:.1e} of them")
