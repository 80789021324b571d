"""Tests for the neck geometry, mode reduction, and eigensolver."""

import ctypes
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cython_lapack, eigh_tridiagonal

from cusplab.cli import EXIT_CONFIG, EXIT_RUNTIME, RunConfig, main
from cusplab.dirac_lab import solver, spectra
from cusplab.dirac_lab import (
    Chirality,
    CuspSide,
    Grid,
    ModeSpec,
    NeckGeometry,
    ResolventAboveLevelsError,
    SpectralCollisionError,
    SpectrumParams,
    SpinStructure,
    Tridiagonal,
    assemble_hamiltonian,
    circle_spectrum,
    convergence_order,
    dirac_spectrum,
    eigen_lowest,
    indicial_min,
    indicial_scan,
    neck_mass,
    partner_minus_hamiltonian,
    phi,
    potential,
    potential_derivative,
    relative_resolvent_trace,
    spectral_sweep,
    tridiagonal_from_potential,
)


# -- geometry -----------------------------------------------------------------


def test_phi_values_and_domain():
    g = NeckGeometry.neck(0.1)
    assert phi(g, 0.0) == pytest.approx(0.1, abs=1e-15)
    a = 0.1 / math.sinh(0.05)  # the half-width t / sinh(t/2) in x
    assert phi(g, g.rho_max) == pytest.approx(math.sqrt(a * a + 0.01), rel=1e-12)
    with pytest.raises(ValueError):
        phi(g, g.rho_max + 1.0)
    c = NeckGeometry.cusp(-8.0)
    assert phi(c, 0.0) == 1.0
    assert phi(c, c.rho_max) == pytest.approx(2.0, rel=1e-12)


def test_gauss_curvature_is_minus_one_on_both_branches():
    # -phi''/phi via central differences at random interior points
    rng = np.random.default_rng(7)
    for geom in (NeckGeometry.neck(0.37), NeckGeometry.cusp(-9.0),
                 NeckGeometry.cusp(-9.0, CuspSide.LEFT)):
        lo, hi = geom.rho_min + 0.1, geom.rho_max - 0.1
        pts = rng.uniform(lo, hi, size=100)
        eps = 1e-5
        for r in pts:
            second = (phi(geom, r + eps) - 2 * phi(geom, r) + phi(geom, r - eps)) / eps**2
            assert -second / phi(geom, r) == pytest.approx(-1.0, abs=1e-4)
    # closed forms make the identity exact to roundoff at machine-checkable points
    g = NeckGeometry.neck(0.2)
    assert -g.t * math.cosh(0.3) / phi(g, 0.3) == pytest.approx(-1.0, abs=1e-12)


def test_potential_and_derivative():
    g = NeckGeometry.neck(0.1)
    m0 = ModeSpec(0)
    assert potential(g, m0, 0.0) == pytest.approx(5.0, abs=1e-14)
    rho = np.linspace(-1.0, 1.0, 11)
    v = potential(g, m0, rho)
    assert np.allclose(v, v[::-1])  # even in rho
    vm = potential(g, ModeSpec(-1), rho)
    assert np.allclose(vm, -v)  # frequency flips sign for the partner mode
    eps = 1e-6
    fd = (potential(g, m0, 0.3 + eps) - potential(g, m0, 0.3 - eps)) / (2 * eps)
    assert potential_derivative(g, m0, 0.3) == pytest.approx(fd, rel=1e-6)
    c = NeckGeometry.cusp(-12.0)
    assert potential(c, m0, -10.0) == pytest.approx(0.5 * math.exp(10.0), rel=1e-12)


def test_circle_spectrum():
    got = circle_spectrum(SpinStructure.NONTRIVIAL, 2)
    assert got == [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2),
                   Fraction(3, 2), Fraction(5, 2)]
    triv = circle_spectrum(SpinStructure.TRIVIAL, 1)
    assert triv == [-1, 0, 1] and 0 in triv
    assert min(abs(v) for v in got) == Fraction(1, 2)


def test_indicial_scan_and_min():
    xi = np.linspace(-2.0, 2.0, 41)
    th = np.linspace(0.0, math.pi, 33)
    value, argmin = indicial_min(xi, th)
    assert value == 0.25 and argmin[0] == 0.0
    scan = indicial_scan(xi, th)
    assert np.all(scan.values >= 0.25)
    row = scan.values[list(scan.xi_grid).index(0.0)]
    assert np.all(row == 0.25)  # exact on the xi = 0 line
    i1 = list(np.isclose(xi, 1.0)).index(True)
    jmid = int(np.argmin(np.abs(np.asarray(th) - math.pi / 2)))
    assert scan.values[i1, jmid] == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        indicial_min([1.0, 2.0], th)


# -- assembly and solver -------------------------------------------------------


def test_assemble_symmetry_and_chirality_difference():
    g = NeckGeometry.neck(0.25)
    grid = Grid.for_geometry(g, n=200)
    plus = assemble_hamiltonian(g, ModeSpec(1, Chirality.PLUS), grid)
    minus = assemble_hamiltonian(g, ModeSpec(1, Chirality.MINUS), grid)
    assert np.array_equal(plus.offdiagonal, minus.offdiagonal)
    vp = potential_derivative(g, ModeSpec(1), grid.rho_values)
    assert np.allclose(plus.diagonal - minus.diagonal, 2 * vp, rtol=1e-13)


def test_flat_override_matches_separable_eigenvalues():
    g = NeckGeometry.neck(1.0)
    L = g.length
    grid = Grid.for_geometry(g, n=2000)
    c = 0.7
    T = assemble_hamiltonian(g, ModeSpec(0), grid, potential_override=lambda r: c)
    got = eigen_lowest(T, 5)
    for m, mu in enumerate(got, start=1):
        analytic = c * c + (math.pi * m / L) ** 2
        fd = c * c + (2.0 / grid.h**2) * (1 - math.cos(math.pi * m * grid.h / L))
        assert mu == pytest.approx(fd, rel=1e-10)  # matches the exact FD spectrum
        assert mu == pytest.approx(analytic, abs=5e-5 * m**4)  # O(h^2) from analytic


def test_eigen_lowest_small_matrix_and_residual():
    T = tridiagonal_from_potential(np.array([2.0, 2.0]), 1.0)
    # overwrite: direct [[2,-1],[-1,2]] has eigenvalues 1 and 3
    import dataclasses
    T = dataclasses.replace(T, diagonal=np.array([2.0, 2.0]),
                            offdiagonal=np.array([-1.0]))
    w = eigen_lowest(T, 2)
    assert np.allclose(w, [1.0, 3.0])

    g = NeckGeometry.neck(0.3)
    grid = Grid.for_geometry(g, n=400)
    T = assemble_hamiltonian(g, ModeSpec(0), grid)
    w, v = eigen_lowest(T, 3, vectors=True, h=grid.h)
    for i in range(3):
        Tv = T.diagonal * v[:, i]
        Tv[:-1] += T.offdiagonal * v[1:, i]
        Tv[1:] += T.offdiagonal * v[:-1, i]
        res = np.linalg.norm(Tv - w[i] * v[:, i]) / np.linalg.norm(v[:, i])
        assert res < 1e-8
        assert grid.h * np.sum(v[:, i] ** 2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        eigen_lowest(T, 0)
    with pytest.raises(ValueError):
        eigen_lowest(T, T.dimension + 1)


def test_discrete_laplacian_matches_closed_form():
    n, L = 100, 1.0
    h = L / (n + 1)
    T = tridiagonal_from_potential(np.zeros(n), h)
    w = eigen_lowest(T, 10)
    for m, mu in enumerate(w, start=1):
        exact_fd = (2.0 / h**2) * (1.0 - math.cos(math.pi * m * h / L))
        assert abs(mu - exact_fd) < 1e-10


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_eigen_lowest_is_bitwise_eigh_tridiagonal():
    # the GIL-free binding makes the calls scipy's eigh_tridiagonal makes
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3, 17, 600, *rng.integers(1, 601, 12)):
        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        for count in {1, n, int(rng.integers(1, n + 1))}:
            cases.append((Tridiagonal(d, e), count, 10.0 ** rng.uniform(-14, -6)))
    neck = NeckGeometry.neck(0.05)
    cusp = NeckGeometry.cusp(-7.0)
    for geom in (neck, cusp):
        grid = Grid.for_geometry(geom)
        for mode in (ModeSpec(0), ModeSpec(3, Chirality.MINUS)):
            cases.append((assemble_hamiltonian(geom, mode, grid), 40, 1e-10))
    cusp_grid = Grid.for_geometry(cusp, n=3000)
    cases.append((partner_minus_hamiltonian(cusp, ModeSpec(1), cusp_grid), 12, 1e-10))
    # a zero off-diagonal splits dstebz's work into blocks, and the block
    # holding the larger eigenvalues comes first: block order is not sorted
    split = Tridiagonal(np.array([10.0, 11.0, 12.0, 0.0, 1.0, 2.0]),
                        np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
    cases += [(split, 6, 1e-12), (split, 4, 1e-12)]
    for T, count, tol in cases:
        kwargs = dict(select="i", select_range=(0, count - 1), tol=tol)
        want = eigh_tridiagonal(T.diagonal, T.offdiagonal, eigvals_only=True, **kwargs)
        assert _same_bits(eigen_lowest(T, count, tol=tol), want), (T.dimension, count)
        want_w, want_v = eigh_tridiagonal(T.diagonal, T.offdiagonal, **kwargs)
        got_w, got_v = eigen_lowest(T, count, tol=tol, vectors=True)
        assert _same_bits(got_w, want_w) and _same_bits(got_v, want_v), (T.dimension, count)
    assert np.all(np.diff(eigen_lowest(split, 6, vectors=True)[0]) > 0)
    with pytest.raises(ValueError):  # as eigh_tridiagonal's finiteness check
        eigen_lowest(Tridiagonal(np.array([1.0, np.nan]), np.array([0.5])), 1)


def test_lapack_binding_refuses_a_foreign_prototype(monkeypatch):
    # a LAPACK with 64-bit integers would read int arguments wrongly
    real = cython_lapack.__pyx_capi__["dstebz"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    name = get_name(real).replace(b"int *", b"long long *")
    new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                    ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
    monkeypatch.setitem(cython_lapack.__pyx_capi__, "dstebz", new_capsule(1, name, None))
    with pytest.raises(ImportError, match="prototype"):
        solver._lapack_routine("dstebz", *solver._dstebz.argtypes)


def test_convergence_order_flat_and_neck():
    g = NeckGeometry.neck(0.3)
    grid = Grid.for_geometry(g, n=250)
    order_flat = convergence_order(g, ModeSpec(0), grid, grid.halved(),
                                   potential_override=lambda r: 0.4)
    assert 1.8 <= order_flat <= 2.2
    order_neck = convergence_order(g, ModeSpec(0), grid, grid.halved())
    assert 1.7 <= order_neck <= 2.3
    with pytest.raises(ValueError):
        convergence_order(g, ModeSpec(0), grid, grid)


# -- spectra, masses, traces ----------------------------------------------------


def test_mode_pair_degeneracy_via_parity():
    # H+(k) and H+(-k-1) = H-(k) are parity conjugate for t > 0
    g = NeckGeometry.neck(0.2)
    grid = Grid.for_geometry(g, n=1500)
    for k in (0, 1):
        plus = assemble_hamiltonian(g, ModeSpec(k, Chirality.PLUS), grid)
        minus = assemble_hamiltonian(g, ModeSpec(k, Chirality.MINUS), grid)
        wp = eigen_lowest(plus, 5)
        wm = eigen_lowest(minus, 5)
        assert np.allclose(wp, wm, atol=1e-10)


def test_susy_pairing_with_partner_wall_condition():
    params = SpectrumParams(k_max=2, levels=10, n=12000)
    geom_params = params
    from cusplab.dirac_lab.spectra import _cusp_geometry
    geom = _cusp_geometry(geom_params)[0]
    grid = Grid.for_geometry(geom, n=12000)
    for k in (0, 1, 2):
        plus = assemble_hamiltonian(geom, ModeSpec(k), grid)
        minus = partner_minus_hamiltonian(geom, ModeSpec(k), grid)
        wp = eigen_lowest(plus, 10)
        wm = eigen_lowest(minus, 10)
        rel = np.abs(wp - wm) / np.abs(wp)
        assert np.all(wp > 0)
        assert np.max(rel) < 1e-6


def test_dirichlet_domain_monotonicity():
    # enlarging the truncated cusp never raises an eigenvalue
    mus = []
    for depth in (-6.0, -7.5, -9.0):
        geom = NeckGeometry.cusp(depth)
        grid = Grid.for_geometry(geom, h=0.002)
        T = assemble_hamiltonian(geom, ModeSpec(0), grid)
        mus.append(eigen_lowest(T, 6))
    for shallow, deep in zip(mus, mus[1:]):
        assert np.all(deep <= shallow + 1e-9)


def test_left_and_right_cusp_spectra_agree():
    right = NeckGeometry.cusp(-8.0, CuspSide.RIGHT)
    left = NeckGeometry.cusp(-8.0, CuspSide.LEFT)
    gr = Grid.for_geometry(right, n=3000)
    gl = Grid.for_geometry(left, n=3000)
    wr = eigen_lowest(assemble_hamiltonian(right, ModeSpec(0), gr), 4)
    # mirrored geometry carries the minus operator of the right cusp
    wl = eigen_lowest(assemble_hamiltonian(left, ModeSpec(0, Chirality.MINUS), gl), 4)
    assert np.allclose(wr, wl, rtol=1e-12)


def test_dirac_spectrum_table_structure():
    params = SpectrumParams(k_max=1, levels=3, n=800, keep_vectors=1)
    table = dirac_spectrum(0.3, params)
    assert len(table.rows) == 2 * 3
    assert all(r.mu >= -1e-10 for r in table.rows)
    lams = [r.lam for r in table.rows]
    assert lams == sorted(lams)
    assert all(r.lam == math.sqrt(max(r.mu, 0.0)) for r in table.rows)
    low = table.lowest(0.3)
    assert (low.k, low.j) == (0, 1)
    handle = table.vector(0.3, 0, 1)
    assert neck_mass(0.3, handle, 100.0) == pytest.approx(1.0, abs=1e-12)
    assert neck_mass(0.3, handle, 0.05) >= 0.0
    with pytest.raises(ValueError):
        neck_mass(0.3, handle, 1e-9)


def test_spectral_sweep_counts_and_inputs():
    params = SpectrumParams(k_max=1, levels=4, n=600)
    grid_t = [0.4, 0.2, 0.1, 0.0]
    table = spectral_sweep(grid_t, params)
    assert list(table.mu) == grid_t
    for t in grid_t:
        assert len(table.rows_at(t)) == 2 * 4
    counts = [table.eigen_count(0.0, 3.0, t) for t in grid_t]
    assert all(c % 2 == 0 for c in counts)
    # discreteness with a gap: the smallest eigenvalue stays away from zero
    # as the neck pinches (the antiperiodic mode frequencies never vanish)
    assert all(table.lowest(t).lam > 0.5 for t in grid_t)
    with pytest.raises(ValueError):
        spectral_sweep([0.1, 0.4, 0.0], params)
    with pytest.raises(ValueError):
        spectral_sweep([0.4, 0.1], params)
    with pytest.raises(ValueError):  # a repeated t would double its counts
        spectral_sweep([0.4, 0.4, 0.0], params)
    for bad in (-0.5, math.nan):  # neither may pass for the t = 0 spectrum
        with pytest.raises(ValueError):
            dirac_spectrum(bad, params)


@pytest.mark.parametrize("bad", [
    dict(k_max=-1), dict(levels=0), dict(h=0.0), dict(h=-0.5), dict(h=math.nan),
    dict(h=math.inf), dict(n=15), dict(n=600, h=0.01), dict(rho_margin_factor=49.0),
    dict(rho_margin_factor=math.nan), dict(rho_margin_factor=math.inf)],
    ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_spectrum_params_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        SpectrumParams(**bad)


def test_relative_resolvent_trace_contract():
    params = SpectrumParams(k_max=1, levels=6, n=700)
    zero = relative_resolvent_trace(0.5, -1.0, -1.0, params)
    assert zero.value == 0.0
    fwd = relative_resolvent_trace(0.5, -1.0, -2.0, params)
    bwd = relative_resolvent_trace(0.5, -2.0, -1.0, params)
    assert fwd.value == pytest.approx(-bwd.value, rel=1e-12)
    assert fwd.value == pytest.approx(fwd.bare_sum + fwd.tail_estimate, rel=1e-12)
    again = relative_resolvent_trace(0.5, -1.0, -2.0, params)
    assert fwd.value == again.value  # deterministic
    table = dirac_spectrum(0.5, params)
    mu0 = table.rows_at(0.5)[0].mu
    with pytest.raises(SpectralCollisionError):
        relative_resolvent_trace(0.5, mu0, -2.0, params, table=table)


def test_trace_rejects_points_above_the_computed_levels(capsys, tmp_path):
    # above the top computed level the Weyl-model tail sums across its own
    # poles: here it gave a tail of about 497 against a bare sum of -1.45
    params = SpectrumParams(k_max=0, levels=2, h=0.01)
    table = dirac_spectrum(0.4, params)
    top = float(table.mu[0.4][0][-1])
    for lam, lam0 in ((12.0, -2.0), (-2.0, 12.0), (top, -2.0)):
        with pytest.raises(ResolventAboveLevelsError) as err:
            relative_resolvent_trace(0.4, lam, lam0, params, table=table)
        assert (err.value.k, err.value.lam, err.value.top) == (0, max(lam, lam0), top)
        assert "mode 0" in str(err.value)
    with pytest.raises(ResolventAboveLevelsError):
        relative_resolvent_trace(0.4, -1.0, math.nan, params, table=table)
    assert math.isfinite(relative_resolvent_trace(0.4, 0.5 * top, -2.0, params, table=table).value)

    out = tmp_path / "out"
    cfg = tmp_path / "above.cfg"
    cfg.write_text(f"t_grid = 0.4\nk_max = 0\nlevels = 2\nh = 0.01\nlambda = 12.0\n"
                   f"lambda0 = -2.0\noutput_dir = {out}\n", encoding="utf-8")
    assert main(["trace", "compute", str(cfg)]) == EXIT_RUNTIME
    assert "mode 0" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("keep_vectors", [0, 1])
def test_t0_spectrum_reuses_the_cusp_depth_search(monkeypatch, keep_vectors):
    # each (k, chirality) is solved once per search iteration and the t = 0
    # table is the accepted iteration's solves, not a second solve
    params = SpectrumParams(k_max=1, levels=12, n=800, keep_vectors=keep_vectors)
    calls, depths, calls_at_search_exit = [], set(), []
    eigen, assemble, search = (spectra.eigen_lowest, spectra.assemble_hamiltonian,
                               spectra._cusp_geometry)

    def counted_eigen(*args, **kwargs):
        calls.append(kwargs.get("vectors", False))
        return eigen(*args, **kwargs)

    def recorded_assemble(geom, *args):
        depths.add(geom.rho_min)
        return assemble(geom, *args)

    def recorded_search(p):
        out = search(p)
        calls_at_search_exit.append(len(calls))
        return out

    monkeypatch.setattr(spectra, "eigen_lowest", counted_eigen)
    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    monkeypatch.setattr(spectra, "_cusp_geometry", recorded_search)
    table = dirac_spectrum(0.0, params)
    assert len(depths) >= 2  # the search deepened the cusp at least once
    assert len(calls) == 2 * (params.k_max + 1) * len(depths)
    assert calls_at_search_exit == [len(calls)]
    assert all(v == (keep_vectors > 0) for v in calls)
    monkeypatch.undo()

    geom = spectra._cusp_geometry(params)[0]
    grid = Grid.for_geometry(geom, n=params.n)
    for k in range(params.k_max + 1):
        both = np.concatenate([
            eigen_lowest(assemble_hamiltonian(geom, ModeSpec(k, chi), grid), params.levels)
            for chi in (Chirality.PLUS, Chirality.MINUS)])
        want = np.sort(both)[: params.levels]
        assert np.array_equal(table.mu[0.0][k], want)
        assert [r.mu for r in table.rows_at(0.0) if r.k == k] == want.tolist()
        assert ((0.0, k, 1) in table.vectors) == (keep_vectors > 0)


def test_mode_solves_on_threads_match_one_worker(monkeypatch):
    # the pool changes when each (k, chirality) is solved, never what comes out
    cases = [(t, SpectrumParams(k_max=2, levels=6, n=900, keep_vectors=kv))
             for t in (0.3, 0.0) for kv in (0, 1)]
    cases.append((0.0, SpectrumParams(k_max=1, levels=5, n=700, keep_vectors=5)))
    default = [dirac_spectrum(t, p) for t, p in cases]
    for cpus in (1, 6):  # one worker, and one per job whatever this host has
        monkeypatch.setattr(spectra, "_cpu_count", lambda: cpus)
        for (t, params), want in zip(cases, default):
            got = dirac_spectrum(t, params)
            assert _same_bits(got.mu[t], want.mu[t])
            assert got.vectors.keys() == want.vectors.keys()
            assert len(got.vectors) == (params.k_max + 1) * params.keep_vectors
            for key, handle in got.vectors.items():
                assert _same_bits(handle.values, want.vectors[key].values), key


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_mode_pool_is_bounded_by_jobs_and_cpus(monkeypatch, cpus):
    asked, threads = [], set()
    pool, eigen = spectra.ThreadPoolExecutor, spectra.eigen_lowest

    def recorded_pool(max_workers):
        asked.append(max_workers)
        return pool(max_workers=max_workers)

    def recorded_eigen(*args, **kwargs):
        threads.add(threading.get_ident())
        return eigen(*args, **kwargs)

    monkeypatch.setattr(spectra, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(spectra, "ThreadPoolExecutor", recorded_pool)
    monkeypatch.setattr(spectra, "eigen_lowest", recorded_eigen)
    params = SpectrumParams(k_max=2, levels=4, n=300)
    dirac_spectrum(0.3, params)  # 3 jobs: one chirality per mode
    assert asked == [min(3, cpus)]
    assert 1 <= len(threads) <= min(3, cpus)
    asked.clear()
    dirac_spectrum(0.0, params)  # 6 jobs per cusp-depth iteration
    assert asked and set(asked) == {min(6, cpus)}


def test_levels_above_the_grid_fail_before_any_solve(monkeypatch, capsys, tmp_path):
    calls = []
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="grid points"):
        dirac_spectrum(0.3, SpectrumParams(levels=101, n=100))
    with pytest.raises(ValueError, match="grid points"):
        dirac_spectrum(0.0, SpectrumParams(levels=101, n=100))
    # h = 0.05: t = 0.01 has 239 interior points, the first cusp depth 158,
    # so the sweep must refuse before it solves t = 0.01
    assert spectra.check_grids([0.01, 0.0], SpectrumParams(levels=158, h=0.05)) == [239, 158]
    with pytest.raises(ValueError, match="158 grid points at t = 0.0"):
        spectral_sweep([0.01, 0.0], SpectrumParams(levels=159, h=0.05))
    with pytest.raises(ValueError, match="levels >= 2"):  # the tail model needs two
        relative_resolvent_trace(0.3, -1.0, -2.0, SpectrumParams(levels=1))
    assert calls == []

    def exit_code(**keys) -> int:
        cfg = tmp_path / "levels.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items())
                       + f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        return main(["spectrum", "sweep", str(cfg)])

    RunConfig.from_text("t_grid = 0.5,0.0\nlevels = 3999\n")
    RunConfig.from_text("t_grid = 0.01,0.0\nlevels = 158\nh = 0.05\n")
    assert exit_code(t_grid="0.5,0.0", levels=4000) == EXIT_CONFIG  # n = 3999 at every t
    assert exit_code(t_grid="0.01", levels=240, h=0.05) == EXIT_CONFIG
    assert exit_code(t_grid="0.01,0.0", levels=159, h=0.05) == EXIT_CONFIG
    assert "158 grid points" in capsys.readouterr().err
    assert calls == []


def _mode_tail_loop(mu, lam, lam0):
    """Reference for the closed-form tail: the Weyl-model sum term by term."""
    J = len(mu)
    A = (mu[-1] - mu[-2]) / (2 * J - 1)
    if A <= 0:
        return 0.0
    c = mu[-1] - A * J**2
    total = 0.0
    j = J + 1
    while True:
        muj = A * j * j + c
        term = 1.0 / (muj - lam) - 1.0 / (muj - lam0)
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1.0) or j > 10**7:
            break
        j += 1
    return total


def test_mode_tail_closed_form_matches_reference_loop():
    rng = np.random.default_rng(2024)
    cases = [(np.array([1.0, 3.0, 3.0]), -1.0, -2.0), (np.array([1.0, 4.0, 2.5]), -1.0, -2.0)]
    signs = set()
    for _ in range(16):
        J = int(rng.integers(2, 13))
        A, c = rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)
        j = np.arange(1, J + 1)
        mu = np.sort(A * j**2 + c + rng.uniform(-0.3, 0.3, J) * A)
        A_fit = (mu[-1] - mu[-2]) / (2 * J - 1)
        c_fit = mu[-1] - A_fit * J**2
        below = min(mu[0], c_fit) - rng.uniform(0.5, 4.0)
        between = rng.uniform(max(mu[0], c_fit), mu[-1])
        for lam in (below, between, c_fit):  # a^2 = (c - lam) / A: > 0, < 0, = 0
            cases.append((mu, lam, below - 1.0))
            signs.add(np.sign(c_fit - lam))
    assert signs == {-1.0, 0.0, 1.0}
    assert any(len(mu) == 2 for mu, _, _ in cases)
    for mu, lam, lam0 in cases:
        bare = float(np.sum(1.0 / (mu - lam) - 1.0 / (mu - lam0)))
        got, want = spectra._mode_tail(mu, lam, lam0), _mode_tail_loop(mu, lam, lam0)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(bare)), (mu, lam, lam0)


def test_trace_reproducible_at_reference_parameters():
    params = SpectrumParams(k_max=10, levels=40)
    first = relative_resolvent_trace(0.5, -1.0, -2.0, params)
    second = relative_resolvent_trace(0.5, -1.0, -2.0, params)
    assert math.isfinite(first.value)
    assert abs(first.value - second.value) < 1e-8 * abs(first.value)
