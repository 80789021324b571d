"""Tests for the neck geometry, mode reduction, and eigensolver."""

import ctypes
import dataclasses
import importlib
import inspect
import itertools
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cusplab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from cusplab import dirac_lab
from cusplab.dirac_lab import solver, spectra
from cusplab.dirac_lab import (
    Chirality,
    Grid,
    IndicialScan,
    ModeSpec,
    NeckGeometry,
    NonConvergenceError,
    ResolventAboveLevelsError,
    RunRefusedError,
    SpectralCollisionError,
    SpectrumParams,
    SpectrumTable,
    SpinStructure,
    Tridiagonal,
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
    phi,
    potential,
    potential_derivative,
    relative_resolvent_trace,
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


def test_geometry_input_rules():
    wall = math.log(2.0)  # log WALL_PHI: the cusp's shallow end
    for rho_min in (wall, wall + 0.5):
        with pytest.raises(ValueError):
            NeckGeometry.cusp(rho_min)
    for t in (0.0, -0.3):
        with pytest.raises(ValueError):
            NeckGeometry.neck(t)
    for t in (-0.1, math.nan):
        with pytest.raises(ValueError, match=f"nonnegative, got {t!r}"):
            NeckGeometry(t, -1.0, 1.0)
    for a, b in ((1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            NeckGeometry(0.5, a, b)
    # a neck below t = 1.1e-308 has 1 / sinh(t / 2) = inf, so rho in (-inf, inf),
    # which no grid can count; a nan end is refused too
    for make in (lambda: NeckGeometry.neck(1e-320), lambda: NeckGeometry.cusp(-math.inf),
                 lambda: NeckGeometry(0.5, -1.0, math.nan)):
        with pytest.raises(ValueError, match="arclength domain must be finite"):
            make()
    assert [f.name for f in dataclasses.fields(NeckGeometry)] == ["t", "rho_min", "rho_max"]
    # t = 0 is the right cusp phi = e^rho
    c = NeckGeometry.cusp(-8.0)
    assert (c.t, c.rho_min, c.rho_max) == (0.0, -8.0, wall)
    rho = np.array([-8.0, -3.7, -0.25, 0.0, 0.5, wall])
    assert np.array_equal(phi(c, rho), np.exp(rho))


def test_gauss_curvature_is_minus_one_on_both_branches():
    # -phi''/phi via central differences at random interior points
    rng = np.random.default_rng(7)
    for geom in (NeckGeometry.neck(0.37), NeckGeometry.cusp(-9.0)):
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
    grid = Grid(g, 200)
    plus = assemble_hamiltonian(ModeSpec(1, Chirality.PLUS), grid)
    minus = assemble_hamiltonian(ModeSpec(1, Chirality.MINUS), grid)
    assert np.array_equal(plus.offdiagonal, minus.offdiagonal)
    vp = potential_derivative(g, ModeSpec(1), grid.rho_values)
    assert np.allclose(plus.diagonal - minus.diagonal, 2 * vp, rtol=1e-13)


def test_flat_override_matches_separable_eigenvalues():
    g = NeckGeometry.neck(1.0)
    L = g.length
    grid = Grid(g, 2000)
    c = 0.7
    T = tridiagonal_from_potential(np.full(grid.n, c * c), grid.h)
    got = eigen_lowest(T, 5)
    for m, mu in enumerate(got, start=1):
        analytic = c * c + (math.pi * m / L) ** 2
        fd = c * c + (2.0 / grid.h**2) * (1 - math.cos(math.pi * m * grid.h / L))
        assert mu == pytest.approx(fd, rel=1e-10)  # matches the exact FD spectrum
        assert mu == pytest.approx(analytic, abs=5e-5 * m**4)  # O(h^2) from analytic


def test_eigen_lowest_small_matrix_and_residual():
    T = tridiagonal_from_potential(np.array([2.0, 2.0]), 1.0)
    # overwrite: direct [[2,-1],[-1,2]] has eigenvalues 1 and 3
    T = dataclasses.replace(T, diagonal=np.array([2.0, 2.0]),
                            offdiagonal=np.array([-1.0]))
    w = eigen_lowest(T, 2)
    assert np.allclose(w, [1.0, 3.0])

    g = NeckGeometry.neck(0.3)
    grid = Grid(g, 400)
    T = assemble_hamiltonian(ModeSpec(0), grid)
    w, v = eigen_lowest(T, 3, vector=True)
    assert v.shape == (T.dimension,)  # the lowest level's vector only
    Tv = T.diagonal * v
    Tv[:-1] += T.offdiagonal * v[1:]
    Tv[1:] += T.offdiagonal * v[:-1]
    assert np.linalg.norm(Tv - w[0] * v) / np.linalg.norm(v) < 1e-8
    assert np.sum(v**2) == pytest.approx(1.0, rel=1e-12)
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


def test_eigen_lowest_is_bitwise_eigh_tridiagonal(monkeypatch):
    # the GIL-free binding makes the calls scipy's eigh_tridiagonal makes, and
    # walking the bisection tree from dstebz's root keeps their bits, on a
    # pool or not
    assert solver.EIGEN_TOL == 1e-10
    dstebz_calls, dstebz = [], solver._dstebz

    def counted_dstebz(*args):
        dstebz_calls.append(args[0])
        return dstebz(*args)

    monkeypatch.setattr(solver, "_dstebz", counted_dstebz)
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3, 17, 600, *rng.integers(1, 601, 12)):
        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        for count in {1, n, int(rng.integers(1, n + 1))}:
            cases.append((Tridiagonal(d, e), count))
            rng.uniform(-14, -6)  # keeps the draws in order, so the seed gives these cases
    neck = NeckGeometry.neck(0.05)
    cusp = NeckGeometry.cusp(-7.0)
    for geom in (neck, cusp):
        grid = Grid.for_geometry(geom)
        for mode in (ModeSpec(0), ModeSpec(3, Chirality.MINUS)):
            cases.append((assemble_hamiltonian(mode, grid), 40))
    necks = []  # criterion 12's top mode at the ends of its t grid
    for t in (1e-3, 0.5):
        geom = NeckGeometry.neck(t)
        necks.append((assemble_hamiltonian(ModeSpec(10), Grid.for_geometry(geom)), 40))
    cases += necks
    cusp_grid = Grid(cusp, 3000)
    cases.append((partner_minus_hamiltonian(ModeSpec(1), cusp_grid), 12))
    # a zero off-diagonal splits dstebz's work into blocks, and the block
    # holding the larger eigenvalues comes first: block order is not sorted
    split = Tridiagonal(np.array([10.0, 11.0, 12.0, 0.0, 1.0, 2.0]),
                        np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
    cases += [(split, 6), (split, 4)]
    # Wilkinson's W21+: its top pairs agree to 1e-14 and closer, so a count
    # that parts one leaves dstebz's search off N(WU) = count
    wilkinson = Tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20))
    cases += [(wilkinson, count) for count in (1, 17, 18, 20)]
    # -W21+'s lowest pair agrees to 1e-13: levels 1 and 2 converge in one node,
    # and the vector is dstein's on that node's midpoint alone
    lowest_pair = Tridiagonal(-wilkinson.diagonal, wilkinson.offdiagonal)
    cases += [(lowest_pair, count) for count in (2, 8, 20)]
    assert all(solver._root(T.diagonal, T.offdiagonal, count) for T, count in necks)
    assert [solver._root(wilkinson.diagonal, wilkinson.offdiagonal, count) is None
            for count in (1, 17, 18, 20)] == [False, False, True, True]
    assert all(solver._root(lowest_pair.diagonal, lowest_pair.offdiagonal, count)
               for count in (2, 8, 20))
    with ThreadPoolExecutor(max_workers=2) as pool:
        for T, count in cases:
            kwargs = dict(select="i", select_range=(0, count - 1), tol=1e-10)
            want = eigh_tridiagonal(T.diagonal, T.offdiagonal, eigvals_only=True, **kwargs)
            want_w, want_v = eigh_tridiagonal(T.diagonal, T.offdiagonal, **kwargs)
            dstebz_calls.clear()
            for pooled in (None, pool):
                assert _same_bits(eigen_lowest(T, count, pool=pooled), want), (T.dimension, count)
                got_w, got_v = eigen_lowest(T, count, vector=True, pool=pooled)
                # the values keep their bits with the vector, and the one vector is column 0
                assert _same_bits(got_w, want_w) and _same_bits(got_w, want), (T.dimension, count)
                assert _same_bits(got_v, want_v[:, 0]), (T.dimension, count)
            if T is lowest_pair or any(T is neck for neck, _ in necks):  # the walk alone
                assert not dstebz_calls, (T.dimension, count)
    # and so do the sweep-cli benchmark's, its cusp-depth search and ground states included
    ts, params = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0], SpectrumParams(k_max=2, levels=8)
    dstebz_calls.clear()
    dirac_spectrum(ts, params), ground_states(ts, params)
    assert not dstebz_calls
    w, v = eigen_lowest(split, 6, vector=True)
    assert np.all(np.diff(w) > 0)
    assert not v[:3].any() and v[3:].all()  # in the block of the lower eigenvalues


def _neck_hamiltonian(t: float = 0.05, n: int = 300) -> Tridiagonal:
    geom = NeckGeometry.neck(t)
    return assemble_hamiltonian(ModeSpec(0), Grid(geom, n))


def test_a_solve_on_a_one_worker_pool_takes_its_offered_half_back():
    # the pool's one worker runs the solve, so the root's upper child it
    # offers stays queued until the solve cancels it and walks it itself
    T = _neck_hamiltonian()
    assert solver._root(T.diagonal, T.offdiagonal, 8) is not None
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        got = pool.submit(eigen_lowest, T, 8, pool=pool).result(timeout=60)
    finally:
        pool.shutdown(wait=False)
    assert _same_bits(got, eigen_lowest(T, 8))


def test_an_offer_taken_back_holds_no_array_while_it_waits_in_the_queue():
    # the pool's queue keeps a cancelled offer until a worker reaches it;
    # here its one worker is busy, so the offer waits, and must not keep
    # the solve's diagonal alive (275 queued criterion-12 solves kept 17 MB)
    T, busy, release = _neck_hamiltonian(), threading.Event(), threading.Event()
    want, jobs = eigen_lowest(T, 8), []

    class RecordedPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            jobs.append(super().submit(*args, **kwargs))
            return jobs[-1]

    pool = RecordedPool(max_workers=1)
    try:
        pool.submit(lambda: (busy.set(), release.wait(timeout=60)))
        assert busy.wait(timeout=60)
        assert _same_bits(eigen_lowest(T, 8, pool=pool), want)
        assert len(jobs) == 2 and jobs[1].cancelled()  # offered, taken back, walked here
        diagonal = weakref.ref(T.diagonal)
        del T
        assert diagonal() is None
    finally:
        release.set()
        pool.shutdown(wait=True)


def test_solves_that_share_a_busy_pool_keep_their_bits():
    # more workers than cores and a short switch interval: whichever of
    # cancel and a worker's start wins, each solve gets its own two subtrees
    mats = [_neck_hamiltonian(t, n) for t in (0.05, 0.2, 0.5) for n in (200, 317)]
    want = [eigen_lowest(T, 8) for T in mats]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            jobs = [pool.submit(eigen_lowest, T, 8, pool=pool) for T in mats * 8]
            got = [job.result(timeout=120) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_bits(g, w) for g, w in zip(got, want * 8))


@pytest.mark.parametrize("workers", [0, 2])
def test_a_failure_in_the_offered_half_reaches_the_caller(monkeypatch, workers):
    # the walk of the root's upper child fails, run here (no pool) or by a
    # worker (the walk of the lower child waits until it starts)
    T = _neck_hamiltonian()
    wl, wu, _, _ = solver._root(T.diagonal, T.offdiagonal, 8)
    mid, laebz, upper_started = 0.5 * (wl + wu), solver._laebz, threading.Event()
    assert 0 < solver.sturm_counts(T, [mid])[0] < 8  # the root's step at mid parts its levels

    def laebz_failing_above(d, e, e2, pivmin, ab, nab, *args):
        call = laebz(d, e, e2, pivmin, ab, nab, *args)

        def failing_above(ijob, nitmax, mmax, minp):
            if ijob == 2 and ab[0] >= mid:  # a node of the upper child
                upper_started.set()
                raise NonConvergenceError("dlaebz failed")
            if workers and ijob == 2 and ab[mmax] <= mid:  # a node of the lower child
                assert upper_started.wait(timeout=60)
            return call(ijob, nitmax, mmax, minp)

        return failing_above

    monkeypatch.setattr(solver, "_laebz", laebz_failing_above)
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        with pytest.raises(NonConvergenceError, match="dlaebz failed"):
            eigen_lowest(T, 8, pool=pool if workers else None)
    assert upper_started.is_set()


def test_read_walks_to_the_bits_of_the_full_solve(monkeypatch):
    # each level read is bitwise the full solve's, with the same vector; the
    # walk runs wherever _root finds the root, and dstebz exactly elsewhere
    roots, walks, dstebz_calls = [], [], []
    root, walk, dstebz = solver._root, solver._walk, solver._dstebz

    def recorded_root(*args):
        roots.append(root(*args))
        return roots[-1]

    def recorded_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    def recorded_dstebz(*args):
        dstebz_calls.append(args[0])
        return dstebz(*args)

    monkeypatch.setattr(solver, "_root", recorded_root)
    monkeypatch.setattr(solver, "_walk", recorded_walk)
    monkeypatch.setattr(solver, "_dstebz", recorded_dstebz)
    necks = []
    for t, k in itertools.product((1e-3, 0.5), (0, 10)):  # criterion 12's
        geom = NeckGeometry.neck(t)
        necks.append(assemble_hamiltonian(ModeSpec(k), Grid.for_geometry(geom)))
    for t in (0.5, 0.2, 0.05, 0.01):  # the sweep-cli config's
        geom = NeckGeometry.neck(t)
        necks.append(assemble_hamiltonian(ModeSpec(0), Grid.for_geometry(geom)))
    for rho_min in (-7.254, -9.19):  # cusps of the t = 0 depth search
        geom = NeckGeometry.cusp(rho_min)
        grid = Grid.for_geometry(geom)
        necks += [assemble_hamiltonian(ModeSpec(k, chi), grid)
                  for k in (0, 2) for chi in Chirality]
    rng = np.random.default_rng(12)
    randoms = [Tridiagonal(rng.normal(size=n), rng.normal(size=n - 1))
               for n in rng.integers(40, 400, 8)]
    cases = [(T, count, True) for T in necks + randoms for count in (1, 2, 8, 40)]
    wilkinson = Tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20))
    # W21+ parts its pair at levels 17 and 18, so counts 18 and 20 fall back
    cases += [(wilkinson, count, count == 17) for count in (17, 18, 20)]
    # -W21+'s lowest pair agrees to 1e-13: levels 1 and 2 converge in one node
    lowest_pair = Tridiagonal(-wilkinson.diagonal, wilkinson.offdiagonal)
    cases += [(lowest_pair, count, True) for count in (2, 8, 20)]
    for T, count, walked in cases:
        want_w, want_v = eigen_lowest(T, count, vector=True)
        assert _same_bits(eigen_lowest(T, count), want_w)
        for read in dict.fromkeys([(1,), (count,), (1, count), (count, 1)]):
            if len(set(read)) < len(read):
                continue
            for vector in (False, True) if 1 in read else (False,):
                roots.clear()
                walks.clear()
                dstebz_calls.clear()
                got = eigen_lowest(T, count, vector=vector, read=read)
                got_w = got[0] if vector else got
                assert _same_bits(got_w, want_w[np.array(read) - 1]), (T.dimension, count, read)
                if vector:
                    assert _same_bits(got[1], want_v), (T.dimension, count, read)
                assert (roots[0] is not None) == bool(walks) == walked, (T.dimension, count)
                if T is lowest_pair and 1 in read:  # levels 1 and 2 share their node's midpoint
                    assert walks[0][1] == want_w[0] == want_w[1]
                assert bool(dstebz_calls) == (roots[0] is None), (count, read)


def _lapack_binding_then(monkeypatch, name: str, after) -> None:
    """Replace LAPACK binding ``name`` by a call of it followed by ``after(args)``."""
    binding = getattr(solver, name)

    def patched(*args):
        binding(*args)
        after(args)

    monkeypatch.setattr(solver, name, patched)


def test_an_unconverged_walk_raises(monkeypatch):
    # a node the walk runs to convergence (IJOB = 2, NITMAX > 1) that dlaebz
    # leaves unconverged (INFO, its last argument, > 0) is an error, not a value
    def unconverged(args):
        if args[0].value == 2 and args[1].value > 1:
            args[-1].value = 1

    _lapack_binding_then(monkeypatch, "_dlaebz", unconverged)
    with pytest.raises(NonConvergenceError, match="dlaebz left a level unconverged"):
        eigen_lowest(_neck_hamiltonian(), 8)


def test_a_failed_inverse_iteration_raises(monkeypatch):
    # dstein's INFO (its last argument) > 0 names the vectors that did not converge
    def failed(args):
        args[-1].value = 1

    _lapack_binding_then(monkeypatch, "_dstein", failed)
    for T in (_neck_hamiltonian(), Tridiagonal(np.ones(4), np.array([1.0, 0.0, 1.0]))):
        with pytest.raises(NonConvergenceError, match="dstein failed with info = 1"):
            eigen_lowest(T, 2, vector=True)  # the walk's dstein call, then dstebz's


def test_a_recount_off_its_levels_falls_back_to_dstebz_with_the_same_bits(monkeypatch):
    # _root's recount at (WL, WU] (IJOB = 1, MMAX = 2, MINP = 1) must give
    # N(WL) = 0; where it does not, the one dstebz("I") call runs instead, and
    # its values and vector are the walk's bits
    dstebz_calls, dstebz = [], solver._dstebz

    def off_by_one(args):
        if (args[0].value, args[3].value, args[4].value) == (1, 2, 1):
            args[16][0] += 1  # NAB(1, 1): the count at WL

    def counted_dstebz(*args):
        dstebz_calls.append(args[0])
        dstebz(*args)

    cases = [(_neck_hamiltonian(t), count) for t in (0.5, 0.05) for count in (1, 2, 8)]
    want = [eigen_lowest(T, count, vector=True) for T, count in cases]
    _lapack_binding_then(monkeypatch, "_dlaebz", off_by_one)
    monkeypatch.setattr(solver, "_dstebz", counted_dstebz)
    for (T, count), (want_w, want_v) in zip(cases, want):
        assert solver._root(T.diagonal, T.offdiagonal, count) is None
        dstebz_calls.clear()
        got_w, got_v = eigen_lowest(T, count, vector=True)
        assert _same_bits(got_w, want_w) and _same_bits(got_v, want_v), count
        assert _same_bits(eigen_lowest(T, count), want_w)
        assert _same_bits(eigen_lowest(T, count, read=(count,)), want_w[-1:])
        assert dstebz_calls == [b"I"] * 3, count


def test_eigen_lowest_checks_its_arguments_before_any_lapack_call(monkeypatch):
    T = _neck_hamiltonian()
    for name in ("_dlaebz", "_dstebz", "_dstein"):
        monkeypatch.setattr(solver, name, lambda *args: pytest.fail("LAPACK called"))
    for count in (1.5, 2.0, True, "2", None):
        with pytest.raises(TypeError, match="count must be an int"):
            eigen_lowest(T, count)
    for count in (0, T.dimension + 1):
        with pytest.raises(ValueError, match="count must lie"):
            eigen_lowest(T, count)
    for read in ((0,), (9,), (-1, 2), (1, 1), (2, 3, 2), ()):
        with pytest.raises(ValueError, match="distinct levels in 1..8"):
            eigen_lowest(T, 8, read=read)
    for read in ((1.0,), (True,), (1, 2.5), ("1",)):
        with pytest.raises(TypeError, match="a read level must be an int"):
            eigen_lowest(T, 8, read=read)
    for read in ([1], 1, range(1, 3)):
        with pytest.raises(TypeError, match="read must be a tuple"):
            eigen_lowest(T, 8, read=read)
    with pytest.raises(ValueError, match="level 1's"):
        eigen_lowest(T, 8, vector=True, read=(2, 8))
    monkeypatch.undo()
    # an integer of numpy's is a count, and a read level
    assert _same_bits(eigen_lowest(T, np.int64(8), read=(np.intc(8),)), eigen_lowest(T, 8)[7:])


def test_tridiagonal_stores_finite_contiguous_float_arrays():
    T = Tridiagonal(np.arange(6.0)[::2], [1, 2])  # a strided view and a list of ints
    for a, want in ((T.diagonal, [0.0, 2.0, 4.0]), (T.offdiagonal, [1.0, 2.0])):
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
        assert a.tolist() == want
    for d, e in (([1.0, np.nan], [0.5]), ([1.0, 2.0], [np.inf]), ([-np.inf, 2.0], [0.5])):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            Tridiagonal(np.array(d), np.array(e))  # as eigh_tridiagonal's finiteness check
    with pytest.raises(ValueError, match="one shorter"):
        Tridiagonal(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="1-d"):
        Tridiagonal(np.ones((2, 2)), np.ones(1))


def test_constructors_keep_a_read_only_copy_of_the_callers_arrays():
    # the object's arrays are read-only copies: the caller's stay writable,
    # and writing to them leaves the object as it was
    d, e, v = np.arange(4.0), np.ones(3), np.linspace(0.0, 1.0, 16)
    mu, values = np.arange(6.0).reshape(2, 3), np.full((2, 2), 0.25)
    T = Tridiagonal(d, e)
    handle = spectra.VectorHandle(Grid(NeckGeometry.neck(0.3), 16), v)
    table = SpectrumTable({0.3: mu})
    scan = IndicialScan((0.0, 1.0), (0.0, 1.0), values)
    for theirs, ours in ((d, T.diagonal), (e, T.offdiagonal), (v, handle.values),
                         (mu, table.mu[0.3]), (values, scan.values)):
        assert theirs.flags.writeable and not ours.flags.writeable
        kept = ours.copy()
        theirs[...] = -7.0
        assert _same_bits(ours, kept)


def test_lapack_binding_is_scipy_linalg_cython_lapack():
    # the solver loads the extension on its own; importing it through
    # scipy.linalg afterwards must bind it there and give the same routines,
    # so the bitwise test against eigh_tridiagonal compares one code
    script = textwrap.dedent("""\
        import ctypes, sys
        from cusplab.dirac_lab import solver
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg.cython_lapack
        cython_lapack = scipy.linalg.cython_lapack
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        for routine in ("dstebz", "dstein", "dlaebz"):
            capsule = cython_lapack.__pyx_capi__[routine]
            bound = ctypes.cast(getattr(solver, "_" + routine), ctypes.c_void_p).value
            assert bound is not None and pointer(capsule, name(capsule)) == bound, routine
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).parents[2])}  # src/
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_missing_cython_lapack_names_the_searched_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(solver, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "x.py")))
    with pytest.raises(ImportError, match=f"not in {tmp_path / 'linalg'}$"):
        solver._load_cython_lapack()


def test_lapack_binding_refuses_a_foreign_prototype(monkeypatch):
    # a LAPACK with 64-bit integers would read int arguments wrongly
    real = solver.cython_lapack.__pyx_capi__["dstebz"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    name = get_name(real).replace(b"int *", b"long long *")
    new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                    ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
    monkeypatch.setattr(solver, "cython_lapack",
                        types.SimpleNamespace(__pyx_capi__={"dstebz": new_capsule(1, name, None)}))
    with pytest.raises(ImportError, match="prototype"):
        solver._lapack_routine("dstebz", *solver._dstebz.argtypes)


def test_convergence_order_flat_and_neck():
    grid = Grid(NeckGeometry.neck(0.3), 250)
    c = 0.4
    order_flat = convergence_order(lambda g: tridiagonal_from_potential(np.full(g.n, c * c), g.h),
                                   grid)
    assert 1.8 <= order_flat <= 2.2
    order_neck = convergence_order(lambda g: assemble_hamiltonian(ModeSpec(0), g), grid)
    assert 1.7 <= order_neck <= 2.3


@pytest.mark.parametrize("rho_min, h, n", [
    (math.nan, 0.1, 100), (math.inf, 0.1, 100), (-math.inf, 0.1, 100),
    (-1.0, math.nan, 100), (-1.0, math.inf, 100), (-1.0, 0.0, 100), (-1.0, -0.1, 100),
    (-1.0, 0.1, 15), (-1.0, 0.1, 0)])
def test_grid_refuses_bad_numbers(rho_min, h, n):
    # a grid is its geometry and n: a bad start is the geometry's refusal, a
    # bad spacing asked of for_geometry is refused there, and a bad n by Grid
    with pytest.raises(ValueError):
        geom = NeckGeometry.cusp(rho_min)
        Grid.for_geometry(geom, h=h)
        Grid(geom, n)
    # a spacing length / (n + 1) that overflows or underflows is refused too
    for geom in (NeckGeometry(0.0, -1e308, 1e308), NeckGeometry(0.0, 0.0, 5e-324)):
        with pytest.raises(ValueError, match="spacing"):
            Grid(geom, 16)


@pytest.mark.parametrize("ts, params", [
    # the sweep-cli benchmark's grid and the criterion-13 config's
    ([0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0], SpectrumParams(k_max=2, levels=8)),
    ([0.4, 0.2, 0.1, 0.0], SpectrumParams(k_max=1, levels=4, h=0.005))],
    ids=["sweep-cli", "criterion-13"])
def test_grid_points_are_three_numbers(ts, params):
    # each t's grid, the first cusp depth's at t = 0, stores its geometry and
    # n; its points come from rho_min, h = length / (n + 1) and n, as the
    # array they were stored as before, and its halving nests them bit for bit
    for t, g in spectra._grids(ts, params).items():
        assert [f.name for f in dataclasses.fields(g)] == ["geometry", "n"]
        geom = g.geometry
        assert (geom.t, g.rho_min, g.h) == (t, geom.rho_min, geom.length / (g.n + 1))
        want = geom.rho_min + (geom.length / (g.n + 1)) * np.arange(1, g.n + 1)
        assert _same_bits(g.rho_values, want) and not g.rho_values.flags.writeable, t
        half = g.halved()
        assert (half.geometry, half.n) == (geom, 2 * g.n + 1)
        assert _same_bits(half.rho_values[1::2], g.rho_values), t


def test_halving_nests_the_points_bit_for_bit():
    # the derived spacing length / (n + 1) has the bits for_geometry once stored,
    # by n and by h, and of the h / 2 each halving stored; three nested
    # halvings keep every point's bits.  (0.1 + 0.3) - 0.3 != 0.1: a halving
    # that restarted from a point would shift every point
    assert (0.1 + 0.3) - 0.3 != 0.1
    rng = np.random.default_rng(8)
    geoms = ([NeckGeometry.neck(float(t)) for t in 10.0 ** rng.uniform(-4, 2, 60)]
             + [NeckGeometry.cusp(float(r)) for r in rng.uniform(-40.0, 0.6, 60)])
    refused = 0
    for geom in geoms:
        n, h = int(rng.integers(16, 3000)), float(10.0 ** rng.uniform(-2.5, 0.5))
        # the spacing of n points gives those points: a run at one t passes it as h
        assert Grid.for_geometry(geom, h=geom.length / (n + 1)) == Grid(geom, n), (geom, n)
        grids = [Grid(geom, n)]
        if round(geom.length / h) - 1 < 16:  # too coarse: refused, never clamped to 16 points
            refused += 1
            with pytest.raises(ValueError, match=re.escape(f"{geom.length / 17!r} gives them")):
                Grid.for_geometry(geom, h=h)
        else:
            grids.append(Grid.for_geometry(geom, h=h))
        for g in grids:
            stored = geom.length / (g.n + 1)  # what for_geometry stored as h
            assert (g.rho_min, g.h) == (geom.rho_min, stored), (geom, g.n)
            for _ in range(3):
                half, stored = g.halved(), stored / 2.0  # what halved() stored
                assert (half.rho_min, half.h, half.n) == (geom.rho_min, stored, 2 * g.n + 1)
                assert _same_bits(half.rho_values[1::2], g.rho_values), (geom, g.n)
                g = half
    assert 0 < refused < len(geoms) // 2, refused


def test_no_function_takes_a_geometry_beside_its_grid():
    # a grid carries its geometry, so a function given both could be given
    # two that disagree, as neck_mass's t once could
    seen = 0
    for info in pkgutil.iter_modules(dirac_lab.__path__):
        module = importlib.import_module(f"{dirac_lab.__name__}.{info.name}")
        functions = [f for f in vars(module).values() if inspect.isfunction(f)]
        functions += [f for c in vars(module).values() if inspect.isclass(c)
                      for f in vars(c).values() if inspect.isfunction(f)]
        for f in functions:
            words = {w for p in inspect.signature(f).parameters.values()
                     for w in re.findall(r"\w+", str(p.annotation))}
            assert not {"NeckGeometry", "Grid"} <= words, f.__qualname__
            seen += "Grid" in words
    assert seen >= 5  # assemble_hamiltonian, convergence_order, _queue_modes, ...


# -- spectra, masses, traces ----------------------------------------------------


def test_mode_pair_degeneracy_via_parity():
    # H+(k) and H+(-k-1) = H-(k) are parity conjugate for t > 0
    g = NeckGeometry.neck(0.2)
    grid = Grid(g, 1500)
    for k in (0, 1):
        plus = assemble_hamiltonian(ModeSpec(k, Chirality.PLUS), grid)
        minus = assemble_hamiltonian(ModeSpec(k, Chirality.MINUS), grid)
        wp = eigen_lowest(plus, 5)
        wm = eigen_lowest(minus, 5)
        assert np.allclose(wp, wm, atol=1e-10)


def test_dirichlet_domain_monotonicity():
    # enlarging the truncated cusp never raises an eigenvalue
    mus = []
    for depth in (-6.0, -7.5, -9.0):
        geom = NeckGeometry.cusp(depth)
        grid = Grid.for_geometry(geom, h=0.002)
        T = assemble_hamiltonian(ModeSpec(0), grid)
        mus.append(eigen_lowest(T, 6))
    for shallow, deep in zip(mus, mus[1:]):
        assert np.all(deep <= shallow + 1e-9)


def test_dirac_spectrum_table_structure():
    params = SpectrumParams(k_max=1, levels=3, h=NeckGeometry.neck(0.3).length / 801)
    table = dirac_spectrum(0.3, params)
    assert len(table.rows) == 2 * 3
    assert all(r.mu >= -1e-10 for r in table.rows)
    lams = [r.lam for r in table.rows]
    assert lams == sorted(lams)
    assert all(r.lam == math.sqrt(max(r.mu, 0.0)) for r in table.rows)
    low = table.lowest(0.3)
    assert (low.k, low.j) == (0, 1)
    handle = ground_states(0.3, params)[0.3]
    assert handle.grid == Grid(NeckGeometry.neck(0.3), 800)  # neck_mass's t
    assert neck_mass(handle, 100.0) == pytest.approx(1.0, abs=1e-12)
    assert neck_mass(handle, 0.05) >= 0.0
    with pytest.raises(ValueError) as failure:  # a failure after the solve, not a refusal
        neck_mass(handle, 1e-9)
    assert not isinstance(failure.value, RunRefusedError)
    for w in (0.0, math.nan):
        with pytest.raises(ValueError, match="window width must be positive"):
            neck_mass(handle, w)


def test_spectral_sweep_counts_and_inputs():
    params = SpectrumParams(k_max=1, levels=4, h=0.01)
    grid_t = [0.4, 0.2, 0.1, 0.0]
    table = dirac_spectrum(grid_t, params)
    assert list(table.mu) == grid_t
    for t in grid_t:
        assert len(table.rows_at(t)) == 2 * 4
    counts = [table.eigen_count(0.0, 3.0, t) for t in grid_t]
    assert all(c % 2 == 0 for c in counts)
    # discreteness with a gap: the smallest eigenvalue stays away from zero
    # as the neck pinches (the antiperiodic mode frequencies never vanish)
    assert all(table.lowest(t).lam > 0.5 for t in grid_t)
    with pytest.raises(RunRefusedError):  # a repeated t would double its counts
        dirac_spectrum([0.4, 0.4, 0.0], params)
    for bad in (-0.5, math.nan):  # neither may pass for the t = 0 spectrum
        with pytest.raises(RunRefusedError):
            dirac_spectrum(bad, params)


# -- window counts by Sturm inertia --------------------------------------------


# the roadmap's windows, one from lam = 0.5 and one from below 0
COUNT_WINDOWS = ((0.0, 4.0), (0.0, 5.0), (0.5, 2.0), (-1.0, 3.0))
COUNT_TS = [0.5, 0.01, 0.0]


@pytest.fixture(scope="module")
def count_slow_path():
    """A table with many modes and levels at COUNT_TS, and the window counts there."""
    table = dirac_spectrum(COUNT_TS, SpectrumParams(k_max=12, levels=30))
    return table, spectra.window_counts(COUNT_TS, SpectrumParams(), COUNT_WINDOWS)


def test_window_counts_are_exact_over_every_mode(count_slow_path):
    table, got = count_slow_path
    top = max(b for _, b in COUNT_WINDOWS) ** 2
    for t in COUNT_TS:
        # the slow path holds every level of the visited modes up to the window top
        assert got.modes[t] <= 13 and table.mu[t][:, -1].min() > top
        assert got.counts[t] == tuple(table.eigen_count(a, b, t) for a, b in COUNT_WINDOWS), t
    assert got.counts[0.5][:2] == (24, 42)
    # a table counts only its rows: k_max 2 with 2 levels undercounts both windows
    small = dirac_spectrum(0.5, SpectrumParams(k_max=2, levels=2))
    assert [small.eigen_count(0.0, b, 0.5) for b in (4.0, 5.0)] == [12, 12]
    # neither k_max nor levels enters a count
    assert spectra.window_counts(COUNT_TS, SpectrumParams(k_max=0, levels=1),
                                 COUNT_WINDOWS) == got


def test_the_count_stops_below_every_mode_it_skips(count_slow_path):
    # the first mode not counted, and the last one counted, have every level
    # above the window top, as has every mode from the closed-form bound on
    _, got = count_slow_path
    top = max(b for _, b in COUNT_WINDOWS) ** 2
    for t, grid in spectra._grids(COUNT_TS, SpectrumParams(), top).items():
        bound = spectra._mode_bound(grid.geometry, top)
        chis = (Chirality.PLUS, Chirality.MINUS) if t == 0 else (Chirality.PLUS,)
        assert grid == Grid.for_geometry(grid.geometry) and got.modes[t] <= bound
        for k in (got.modes[t] - 1, got.modes[t]):
            for chi in chis:
                assert eigen_lowest(assemble_hamiltonian(ModeSpec(k, chi), grid), 1)[0] > top
        for chi in chis:  # the Gershgorin floor min w of the bound's mode
            H = assemble_hamiltonian(ModeSpec(bound, chi), grid)
            assert H.diagonal.min() - 2 / grid.h**2 >= top, (t, chi)


def test_window_ends_are_open_in_lam_and_counted_in_mu(count_slow_path):
    # a lam-window (a, b) holds mu in (a^2, b^2); a < 0 counts every mu, and
    # a = 0 counts mu > 0, as eigen_count reads lam = sqrt(max(mu, 0))
    assert spectra._window_shifts([(-1.0, 2.0), (0.0, 2.0), (0.5, 2.0), (-2.0, -1.0),
                                   (-1.0, 0.0)]) == [(None, 4.0), (0.0, 4.0), (0.25, 4.0),
                                                     (None, None), (None, None)]
    # a Sturm count at a shift counts the eigenvalues at or below it
    T = Tridiagonal(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]))  # 2 - sqrt 2, 2, 2 + sqrt 2
    assert solver.sturm_counts(T, [0.0, 2.0 - 1e-12, 2.0 + 1e-12, 4.0, 3.5]) == [0, 1, 2, 3, 3]
    # the lowest level of the neck at t = 0.5 sits inside (a, b) only when a < lam1 < b
    table, _ = count_slow_path
    lam1 = table.lowest(0.5).lam  # 1.07; the next level is lam = 2.06
    windows = [(0.0, lam1 * (1 - 1e-8)), (0.0, lam1 * (1 + 1e-8)), (lam1 * (1 - 1e-8), 1.5),
               (lam1 * (1 + 1e-8), 1.5), (-1.0, 1.5), (-2.0, -1.0), (-1.0, 0.0)]
    got = spectra.window_counts([0.5], SpectrumParams(), windows).counts[0.5]
    assert got == (0, 2, 2, 0, 2, 0, 0)
    assert got == tuple(table.eigen_count(a, b, 0.5) for a, b in windows)


def test_an_exactly_zero_pivot_counts_once():
    # at the shift 1 the first pivot of both matrices is exactly 0; [[1, 1], [1, 1]] has
    # the eigenvalues 0 and 2, the 3 x 3 tridiagonal of ones 1 - sqrt 2, 1 and 1 + sqrt 2
    shifts = [-0.5, 0.5, 1.0, 4.0]
    for n, want in ((2, [0, 1, 1, 2]), (3, [0, 1, 2, 3])):
        assert solver.sturm_counts(Tridiagonal(np.ones(n), np.ones(n - 1)), shifts) == want
        assert solver.sturm_counts(Tridiagonal(np.ones(n), np.ones(n - 1)), [1.0]) == want[2:3]


def test_window_counts_refuse_unbounded_work_before_any_factorisation(monkeypatch):
    calls = []
    monkeypatch.setattr(spectra, "sturm_counts", lambda *a: calls.append(a))
    monkeypatch.setattr(spectra, "assemble_hamiltonian", lambda *a: calls.append(a))
    # about 2e6 modes of 3999 points reach mu = 1e12
    with pytest.raises(RunRefusedError, match="work estimate"):
        spectra.window_counts([0.5], SpectrumParams(), [(0.0, 1e6)])
    for ts, windows, named in (([0.5], [(2.0, 1.0)], "a < b"), ([0.5], [(0.0, math.nan)], "finite"),
                               ([0.5], [(0.0, 1e200)], "overflows"),
                               ([0.4, 0.4], [(0.0, 1.0)], "distinct"),
                               ([-0.5], [(0.0, 1.0)], "-0.5"), ([], [(0.0, 1.0)], "at least one")):
        with pytest.raises(RunRefusedError, match=re.escape(named)):
            spectra.window_counts(ts, SpectrumParams(), windows)
    assert calls == []
    # the closed-form bound: the first k with k + 1/2 >= 1 + sqrt(1 + 9 phi_wall^2),
    # phi_wall = 2.04 at t = 0.5 and 2 on the cusp
    grids = spectra._grids([0.5, 0.0], SpectrumParams(), 9.0).values()
    assert [(grid.n, spectra._mode_bound(grid.geometry, 9.0)) for grid in grids] == [(3999, 7),
                                                                                   (3999, 7)]


@pytest.mark.parametrize("bad", [
    dict(k_max=-1), dict(levels=0), dict(h=0.0), dict(h=-0.5), dict(h=math.nan),
    dict(h=math.inf), dict(rho_margin_factor=49.0),
    dict(rho_margin_factor=math.nan), dict(rho_margin_factor=math.inf)],
    ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_spectrum_params_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        SpectrumParams(**bad)


@pytest.mark.parametrize("bad", [
    dict(k_max=1.5), dict(k_max=2.0), dict(k_max=True), dict(levels=2.5), dict(levels=True)],
    ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_spectrum_params_refuse_a_count_that_is_not_an_int(bad):
    # refused before any work: levels = 2.5 would fail in a pool thread
    with pytest.raises(TypeError, match="must be an int"):
        SpectrumParams(**bad)


@pytest.mark.parametrize("n", [100.5, 100.0, True])
def test_grid_refuses_a_point_count_that_is_not_an_int(n):
    # n = 100.5 would give 101 points at h = L/101.5, with the Dirichlet end past rho_max
    with pytest.raises(TypeError, match="must be an int"):
        Grid(NeckGeometry.cusp(-1.0), n)


def test_the_spacing_has_one_option():
    # a run's grid is the default spacing or h; a grid of n points is Grid(geometry, n)
    assert [f.name for f in dataclasses.fields(SpectrumParams)] == [
        "k_max", "levels", "h", "rho_margin_factor"]
    with pytest.raises(TypeError, match="'n'"):
        SpectrumParams(n=800)
    assert list(inspect.signature(Grid.for_geometry).parameters) == ["geom", "h"]
    with pytest.raises(TypeError, match="'n'"):
        Grid.for_geometry(NeckGeometry.neck(0.3), n=800)


def test_relative_resolvent_trace_contract():
    params = SpectrumParams(k_max=1, levels=6, h=NeckGeometry.neck(0.5).length / 701)
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


def _first_collision_by_rows(table, t, lam, lam0):
    """(mu, point) of the first row in rows_at's (lam, k, j) order within COLLISION_TOL."""
    for r in table.rows_at(t):
        if min(abs(r.mu - lam), abs(r.mu - lam0)) < spectra.COLLISION_TOL:
            return r.mu, lam if abs(r.mu - lam) < abs(r.mu - lam0) else lam0
    return None


@pytest.mark.parametrize("lam, lam0, want", [
    # mode 1's level below 4 comes first in lam although its k is larger
    (4.0, 0.5, (4.0 - 4e-10, 4.0)),
    (0.5, 4.0 - 4e-10, (4.0 - 4e-10, 4.0 - 4e-10)),
    # a collision with each point: the one at the lower level is reported
    (9.0 + 2e-10, 4.0, (4.0 - 4e-10, 4.0)),
    # equal levels in two modes: the lower k is reported, with the nearer point
    (16.0 - 2e-10, 16.0 + 1e-10, (16.0, 16.0 + 1e-10)),
    (-3.0, -5.0, (-5.0, -5.0)),  # negative levels sit at lam = 0, ordered by k and then j
])
def test_the_first_colliding_row_is_reported(lam, lam0, want):
    mu = np.array([[-5.0, 1.0, 4.0, 9.0, 16.0, 99.0], [-3.0, 3.0, 4.0 - 4e-10, 16.0, 25.0, 99.0]])
    table = spectra.SpectrumTable({0.5: mu})
    params = SpectrumParams(k_max=1, levels=6)
    assert _first_collision_by_rows(table, 0.5, lam, lam0) == want
    with pytest.raises(SpectralCollisionError) as caught:
        relative_resolvent_trace(0.5, lam, lam0, params, table=table)
    assert (caught.value.mu, caught.value.lam) == want


def test_the_trace_counts_the_levels_of_the_table_it_sums():
    # with a table, the tail model's two-level rule reads the table, not params
    five = SpectrumParams(k_max=1, levels=5, h=NeckGeometry.neck(0.3).length / 201)
    table = dirac_spectrum(0.3, five)
    want = relative_resolvent_trace(0.3, -1.0, -2.0, five).value
    got = relative_resolvent_trace(0.3, -1.0, -2.0, dataclasses.replace(five, levels=1),
                                   table=table)
    assert got.value == want == pytest.approx(0.5935379469563329, rel=1e-12)
    one = dirac_spectrum(0.3, dataclasses.replace(five, levels=1))
    with pytest.raises(RunRefusedError, match="got 1"):
        relative_resolvent_trace(0.3, -1.0, -2.0, dataclasses.replace(five, levels=40), table=one)
    with pytest.raises(ValueError, match="no rows at t = 0.4"):
        relative_resolvent_trace(0.4, -1.0, -2.0, five, table=table)


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
    with pytest.raises(RunRefusedError, match="finite"):  # check_trace refuses nan first
        relative_resolvent_trace(0.4, -1.0, math.nan, params, table=table)
    assert math.isfinite(relative_resolvent_trace(0.4, 0.5 * top, -2.0, params, table=table).value)

    out = tmp_path / "out"
    cfg = tmp_path / "above.cfg"
    cfg.write_text(f"t_grid = 0.4\nk_max = 0\nlevels = 2\nh = 0.01\nlambda = 12.0\n"
                   f"lambda0 = -2.0\noutput_dir = {out}\n", encoding="utf-8")
    assert main(["trace", "compute", str(cfg)]) == EXIT_RUNTIME
    assert "mode 0" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_a_trace_whose_bare_sum_cancelled_is_refused(capsys, tmp_path):
    # lam = -1 and lam0 = -2 below a wide neck's spectrum: the bare sum's
    # terms cancel as t grows.  Its rounding bound is 8e-12 of it at t = 10,
    # 1.8e-7 at t = 20, and from t = 40 the sum is exactly 0
    params = SpectrumParams(k_max=1, levels=4)
    table = dirac_spectrum([40.0, 20.0, 10.0, 5.0], params)
    for t in (40.0, 20.0):
        with pytest.raises(RuntimeError, match=rf"the trace at t = {t!r} has cancelled"):
            relative_resolvent_trace(t, -1.0, -2.0, params, table=table)
    for t in (10.0, 5.0):  # a trace that passes is its bare sum to within the bound
        got = relative_resolvent_trace(t, -1.0, -2.0, params, table=table)
        product = 2.0 * float(np.sum(1.0 / ((table.mu[t] + 1.0) * (table.mu[t] + 2.0))))
        assert got.bare_sum == pytest.approx(product, rel=spectra.CANCELLATION_TOL), t
    out = tmp_path / "out"
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"t_grid = 340,100,40\nk_max = 1\nlevels = 4\nlambda = -1.0\n"
                   f"lambda0 = -2.0\noutput_dir = {out}\n", encoding="utf-8")
    assert main(["trace", "compute", str(cfg)]) == EXIT_RUNTIME
    assert "the trace at t = 340.0 has cancelled" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def _ground_state(grid: Grid, levels: int) -> tuple[float, np.ndarray]:
    """Mode 0's lowest level and its vector, over the chiralities solved at the grid's t."""
    chis = (Chirality.PLUS, Chirality.MINUS) if grid.geometry.t == 0 else (Chirality.PLUS,)
    solves = [eigen_lowest(assemble_hamiltonian(ModeSpec(0, chi), grid), levels,
                           vector=True) for chi in chis]
    w, v = min(solves, key=lambda solve: solve[0][0])  # plus on a tie
    return float(w[0]), v / np.sqrt(grid.h * np.sum(v**2))


@pytest.mark.parametrize("k_max", [0, 1])
def test_t0_spectrum_reuses_the_cusp_depth_search(monkeypatch, k_max):
    # each (k, chirality) is solved once per search iteration and the t = 0
    # table is the accepted iteration's solves, not a second solve; no solve
    # computes a vector.  The first step is queued before the search opens,
    # and the search returns once every step's solves have run
    params = SpectrumParams(k_max=k_max, levels=20, h=0.01)
    calls, depths, calls_at_search_exit = [], {}, []
    solving = threading.local()  # a worker assembles its mode, then solves it
    eigen, assemble, search = (spectra.eigen_lowest, spectra.assemble_hamiltonian,
                               spectra._cusp_geometry)

    def counted_eigen(*args, **kwargs):
        calls.append((solving.k, kwargs.get("vector", False)))
        return eigen(*args, **kwargs)

    def recorded_assemble(mode, grid, *args):
        depths[grid.rho_min] = grid
        solving.k = mode.k
        return assemble(mode, grid, *args)

    def recorded_search(*args):
        out = search(*args)
        calls_at_search_exit.append(len(calls))
        return out

    monkeypatch.setattr(spectra, "eigen_lowest", counted_eigen)
    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    monkeypatch.setattr(spectra, "_cusp_geometry", recorded_search)
    table = dirac_spectrum(0.0, params)
    assert len(depths) >= 2  # the search deepened the cusp at least once
    assert len(calls) == 2 * (params.k_max + 1) * len(depths)
    assert calls_at_search_exit == [len(calls)]
    assert sorted(set(calls)) == [(k, False) for k in range(params.k_max + 1)]
    monkeypatch.undo()

    grid = depths[min(depths)]  # the accepted cusp, the deepest step's
    for k in range(params.k_max + 1):
        both = np.concatenate([
            eigen_lowest(assemble_hamiltonian(ModeSpec(k, chi), grid), params.levels)
            for chi in (Chirality.PLUS, Chirality.MINUS)])
        want = np.sort(both)[: params.levels]
        assert np.array_equal(table.mu[0.0][k], want)
        assert [r.mu for r in table.rows_at(0.0) if r.k == k] == want.tolist()
    mu, v = _ground_state(grid, params.levels)
    ground = ground_states(0.0, params)
    assert list(ground) == [0.0] and table.lowest(0.0).mu == mu
    assert _same_bits(ground[0.0].values, v)
    assert ground[0.0].grid == grid and _same_bits(ground[0.0].grid.rho_values, grid.rho_values)


def test_mode_solves_on_threads_match_one_worker(monkeypatch):
    # the pool changes when each (k, chirality) is solved, never what comes out
    params = SpectrumParams(k_max=2, levels=6, h=0.006)
    default = {t: (dirac_spectrum(t, params), ground_states(t, params)) for t in (0.3, 0.0)}
    for cpus in (1, 6):  # one worker, and one per job whatever this host has
        monkeypatch.setattr(spectra, "_cpu_count", lambda: cpus)
        for t, (want, want_ground) in default.items():
            got, ground = dirac_spectrum(t, params), ground_states(t, params)
            assert _same_bits(got.mu[t], want.mu[t])
            assert list(ground) == list(want_ground) == [t]
            assert _same_bits(ground[t].values, want_ground[t].values), t


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_mode_pool_is_bounded_by_jobs_and_cpus(monkeypatch, cpus):
    # one pool per call, sized by the CPUs; it starts a thread only when a
    # job finds none idle, counting the bisection halves the solves offer
    # it, so never more threads than CPUs or than solves and halves.  A
    # later cusp-depth step reuses it
    asked, threads, peak = [], set(), [threading.active_count()]
    pool, eigen, walk = spectra.ThreadPoolExecutor, spectra.eigen_lowest, solver._walk

    def recorded_pool(max_workers):
        asked.append(max_workers)
        return pool(max_workers=max_workers)

    def recorded(run):
        def call(*args, **kwargs):
            threads.add(threading.get_ident())
            peak.append(threading.active_count())
            return run(*args, **kwargs)
        return call

    monkeypatch.setattr(spectra, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(spectra, "ThreadPoolExecutor", recorded_pool)
    monkeypatch.setattr(spectra, "eigen_lowest", recorded(eigen))
    monkeypatch.setattr(solver, "_walk", recorded(walk))
    params = SpectrumParams(k_max=2, levels=4, h=0.02)
    for ts, jobs in ((0.3, 3), (0.0, 6), ([0.3, 0.2, 0.0], 3 + 3 + 6)):
        # one chirality per mode at t > 0, both for the cusp search's first step
        asked.clear()
        threads.clear()
        dirac_spectrum(ts, params)
        assert asked == [cpus], ts
        assert 1 <= len(threads) <= min(2 * jobs, cpus), ts
    assert max(peak) - peak[0] <= cpus  # the pool's threads, over every call


# k_max <= 1, levels = 20, h = 0.01: the cusp search deepens at least once
POOL_GRID = [0.4, 0.2, 0.0]


def _pool_params(k_max: int) -> SpectrumParams:
    return SpectrumParams(k_max=k_max, levels=20, h=0.01)


@pytest.mark.parametrize("k_max", [0, 1])
def test_pooled_grid_matches_one_t_per_call(monkeypatch, k_max):
    # pooling the t values changes when each solve runs, never what comes out
    params = _pool_params(k_max)
    per_t = {t: dirac_spectrum(t, params) for t in POOL_GRID}
    ground_per_t = {t: ground_states(t, params)[t] for t in POOL_GRID}
    depths, assemble = set(), spectra.assemble_hamiltonian

    def recorded_assemble(mode, grid, *args):
        depths.add((grid.geometry.t, grid.rho_min))
        return assemble(mode, grid, *args)

    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    for cpus in (1, 2, 6):
        monkeypatch.setattr(spectra, "_cpu_count", lambda: cpus)
        got, ground = dirac_spectrum(POOL_GRID, params), ground_states(POOL_GRID, params)
        assert list(got.mu) == POOL_GRID and sorted(ground) == sorted(POOL_GRID)
        for t in POOL_GRID:
            assert _same_bits(got.mu[t], per_t[t].mu[t]), (cpus, t)
            assert _same_bits(ground[t].values, ground_per_t[t].values), (cpus, t)
            assert _same_bits(ground[t].grid.rho_values, ground_per_t[t].grid.rho_values)
    assert len({rho for t, rho in depths if t == 0}) >= 2  # two cusp-depth steps or more


def test_necks_are_queued_ahead_of_the_cusp_search_and_one_cpu_finishes(monkeypatch):
    # one worker runs the jobs in the order they were queued: each t > 0,
    # then the cusp's first step, queued with them, then each deeper step,
    # which the search queues from the calling thread, so no worker waits on
    # another
    params = _pool_params(1)
    order, assemble = [], spectra.assemble_hamiltonian

    def recorded_assemble(mode, grid, *args):
        order.append(grid.geometry.t)
        return assemble(mode, grid, *args)

    monkeypatch.setattr(spectra, "_cpu_count", lambda: 1)
    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    done = []
    worker = threading.Thread(target=lambda: done.append(dirac_spectrum(POOL_GRID, params)),
                              daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert done, "one CPU did not finish the pooled grid"
    modes = params.k_max + 1
    assert order[: 2 * modes] == [0.4] * modes + [0.2] * modes
    assert order[2 * modes:] == [0.0] * (len(order) - 2 * modes) and len(order) > 4 * modes


def _full_run_and_cusp(monkeypatch, ts, params: SpectrumParams):
    """``dirac_spectrum(ts, params)`` and the cusp its depth search accepted, the deepest it used.

    The cusp is None where ``ts`` holds no 0.
    """
    cusps, assemble = {}, spectra.assemble_hamiltonian

    def recorded_assemble(mode, grid, *args):
        if grid.geometry.t == 0:
            cusps[grid.rho_min] = grid
        return assemble(mode, grid, *args)

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
        table = dirac_spectrum(ts, params)
    return table, cusps[min(cusps)] if cusps else None


@pytest.mark.parametrize("k_max, levels, steps", [(2, 8, 1), (4, 20, 2)])
def test_the_cusp_queued_beside_the_necks_keeps_its_bits(monkeypatch, k_max, levels, steps):
    # every t's first step shares one queue: the t = 0 rows, ground state and
    # grid beside two necks are those of t = 0 alone, at one depth step and
    # at two, and each run plans its grids once
    params = SpectrumParams(k_max=k_max, levels=levels)
    planned, depths = [], set()
    grids, assemble = spectra._grids, spectra.assemble_hamiltonian

    def recorded_grids(*args, **kwargs):
        planned.append(args[0])
        return grids(*args, **kwargs)

    def recorded_assemble(mode, grid, *args):
        if grid.geometry.t == 0:
            depths.add(grid.rho_min)
        return assemble(mode, grid, *args)

    monkeypatch.setattr(spectra, "_grids", recorded_grids)
    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    runs = {}
    for ts in ([0.0], [0.5, 0.1, 0.0]):
        for run in (dirac_spectrum, ground_states):
            planned.clear()
            depths.clear()
            runs[len(ts), run] = run(ts, params)
            assert len(planned) == 1 and len(depths) == steps, (ts, run.__name__)
    assert _same_bits(runs[1, dirac_spectrum].mu[0.0], runs[3, dirac_spectrum].mu[0.0])
    alone, beside = runs[1, ground_states][0.0], runs[3, ground_states][0.0]
    assert alone.grid == beside.grid and _same_bits(alone.values, beside.values)
    assert _same_bits(alone.grid.rho_values, beside.grid.rho_values)


GROUND_CONFIGS = pytest.mark.parametrize("ts, params", [
    # the sweep-cli benchmark's grid and the criterion-13 config's
    ([0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0], SpectrumParams(k_max=2, levels=8)),
    ([0.4, 0.2, 0.1, 0.0], SpectrumParams(k_max=1, levels=4, h=0.005)),
    (sorted(np.random.default_rng(3).uniform(1e-3, 2.0, 6).tolist(), reverse=True),
     SpectrumParams(k_max=3, levels=5, h=0.006))], ids=["sweep-cli", "criterion-13", "random"])


@GROUND_CONFIGS
def test_the_ground_state_is_the_lowest_row(monkeypatch, ts, params):
    # H_k <= H_{k+1} pointwise puts mode 0's first level lowest at every t,
    # so the lowest row's vector, the one spectrum mass reads, is mode 0's,
    # on the cusp the full run accepted
    table, cusp = _full_run_and_cusp(monkeypatch, ts, params)
    ground = ground_states(ts, params)
    for t in ts:
        low = table.lowest(t)
        assert (low.k, low.j) == (0, 1) and low.mu < table.mu[t][1:, 0].min(initial=np.inf), t
        grid = Grid.for_geometry(NeckGeometry.neck(t), params.h) if t > 0 else cusp
        mu, v = _ground_state(grid, params.levels)
        assert ground[t].grid == grid and low.mu == mu and _same_bits(ground[t].values, v), t


@GROUND_CONFIGS
def test_ground_states_match_the_slow_path_on_any_cpus(monkeypatch, ts, params):
    # mode 0 alone at t > 0 and the full cusp-depth search at t = 0 give the
    # vectors of one serial solve per chirality, at a full run's depth
    cusp = _full_run_and_cusp(monkeypatch, [0.0], params)[1]
    for cpus in (1, 2, 6):
        monkeypatch.setattr(spectra, "_cpu_count", lambda: cpus)
        ground = ground_states(list(reversed(ts)), params)  # any order in, descending t out
        assert list(ground) == ts, cpus
        for t in ts:
            grid = Grid.for_geometry(NeckGeometry.neck(t), params.h) if t > 0 else cusp
            assert ground[t].grid == grid, (cpus, t)
            assert _same_bits(ground[t].values, _ground_state(grid, params.levels)[1]), (cpus, t)


def test_ground_states_solve_mode_0_alone_at_each_neck(monkeypatch):
    # one vector solve of mode 0 per t > 0, reading level 1; at t = 0 the
    # cusp-depth search solves modes 0 and k_max alone, in both chiralities,
    # at each depth: mode k_max reads its top level, mode 0 level 1 and its
    # vector.  No other mode is assembled
    params = _pool_params(3)
    calls, assembled, solving = [], set(), threading.local()
    eigen, assemble = spectra.eigen_lowest, spectra.assemble_hamiltonian

    def recorded_assemble(mode, grid, *args):
        solving.key = (grid.geometry.t, grid.rho_min, mode.k, mode.chirality.value)
        assembled.add((grid.geometry.t, mode.k))
        return assemble(mode, grid, *args)

    def counted_eigen(T, count, **kwargs):
        calls.append((*solving.key, count, kwargs.get("vector", False), kwargs.get("read")))
        return eigen(T, count, **kwargs)

    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    monkeypatch.setattr(spectra, "eigen_lowest", counted_eigen)
    ground_states(POOL_GRID, params)
    necks, plus, top = sorted(t for t in POOL_GRID if t > 0), Chirality.PLUS.value, params.levels
    assert sorted(c for c in calls if c[0] > 0) == [
        (t, NeckGeometry.neck(t).rho_min, 0, plus, top, True, (1,)) for t in necks]
    search = [c for c in calls if c[0] == 0]
    depths = {rho for _, rho, *_ in search}
    assert len(depths) >= 2  # the search deepened the cusp at least once
    assert sorted(search) == sorted(
        (0.0, rho, k, chi.value, top, k == 0, (1,) if k == 0 else (top,))
        for rho in depths for k in (0, params.k_max) for chi in Chirality)
    assert assembled == {(t, 0) for t in necks} | {(0.0, 0), (0.0, params.k_max)}


@pytest.mark.parametrize("levels", [1, 2, 20])
def test_ground_states_keep_the_full_solves_vector_and_depth(monkeypatch, levels):
    # a ground-state run's cusp search solves modes 0 and k_max alone; mode
    # k_max's top level is every step's highest, so the run walks a full
    # run's depths to its grid and vector.  At one level, level 1 is the top
    # level mode 0 reads at the cusp when k_max = 0
    depths, solving, assemble = {}, threading.local(), spectra.assemble_hamiltonian
    eigen, cusps = spectra.eigen_lowest, {}

    def recorded_assemble(mode, grid, *args):
        solving.key = (grid.geometry.t, grid.rho_min, mode.k)
        if grid.geometry.t == 0:
            cusps[grid.rho_min] = grid
        return assemble(mode, grid, *args)

    def recorded_eigen(T, count, **kwargs):
        out = eigen(T, count, **kwargs)
        t, rho, k = solving.key
        if t == 0:
            w = out[0] if kwargs.get("vector") else out
            depths.setdefault(rho, []).append((k, float(w.max())))
        return out

    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded_assemble)
    monkeypatch.setattr(spectra, "eigen_lowest", recorded_eigen)
    steps = []
    # the default spacing keeps its 3999 points at every depth, h = 0.01 adds points
    for k_max, spacing in itertools.product((0, 1, 3), (dict(), dict(h=0.01))):
        params = SpectrumParams(k_max=k_max, levels=levels, **spacing)
        depths.clear()
        dirac_spectrum(0.0, params)
        full, cusp = dict(depths), cusps[min(depths)]  # a full run's depth steps and cusp
        for rho, solves in full.items():  # mode k_max holds each step's highest level
            assert max(w for k, w in solves if k == k_max) == max(w for _, w in solves), rho
        depths.clear()
        ground = ground_states([0.3, 0.0], params)
        assert list(depths) == list(full), (k_max, spacing)  # the same depth steps
        steps.append(len(full))
        neck = Grid.for_geometry(NeckGeometry.neck(0.3), params.h)
        for t, grid in ((0.3, neck), (0.0, cusp)):
            assert ground[t].grid == grid, (k_max, spacing, t)
            assert _same_bits(ground[t].values, _ground_state(grid, levels)[1]), (
                k_max, spacing, t)
            # normalized in the discrete L^2(d rho) norm
            assert grid.h * np.sum(ground[t].values**2) == pytest.approx(1.0, rel=1e-12), t
    assert max(steps) >= 2 or levels < 20, steps  # at 20 levels the search deepens


def test_a_vector_that_is_not_finite_reaches_the_caller(monkeypatch):
    # dstein may return NaN with info = 0 (spectrum mass at t = 340 did):
    # the solve raises instead of handing it on
    def nan_dstein(n, d, e, m, w, iblock, isplit, z, *rest):
        for i in range(n.value * m.value):
            z[i] = math.nan

    monkeypatch.setattr(solver, "_dstein", nan_dstein)
    with pytest.raises(NonConvergenceError, match="not finite"):
        ground_states(0.3, SpectrumParams(k_max=0, levels=2, h=0.02))


@pytest.mark.parametrize("n", [16, 400, None], ids=["16", "400", "default"])
def test_ground_runs_are_refused_below_where_dstein_returns_nan(n):
    # dstein's first NaN vector comes at n^(3/2) * 2 / h^2 = 1.70 to 1.77 times
    # SQRT_MAX: the ground-state plan refuses a grid above SQRT_MAX, so the
    # last t it admits solves to a finite vector, and 1.8 times further in the
    # product, where dstein gives NaN, is refused; a full run calls no dstein.
    # n points at a t are the spacing length / (n + 1) there
    def params_at(t):
        h = None if n is None else NeckGeometry.neck(t).length / (n + 1)
        return SpectrumParams(k_max=1, levels=2, h=h)

    def grid_at(t):
        return Grid.for_geometry(NeckGeometry.neck(t), params_at(t).h)

    def product(t):
        grid = grid_at(t)
        return grid.n**1.5 * (2.0 / grid.h**2)

    def t_at(target):  # the last t at or below target and the first above: 1 / h^2 grows with t
        low, high = 300.0, 360.0
        for _ in range(60):
            mid = (low + high) / 2
            low, high = (mid, high) if product(mid) <= target else (low, mid)
        return low, high

    (edge, over), (_, beyond) = t_at(spectra.SQRT_MAX), t_at(1.8 * spectra.SQRT_MAX)
    assert grid_at(edge).n == (3999 if n is None else n)
    assert np.isfinite(ground_states(edge, params_at(edge))[edge].values).all()
    for t in (over, beyond):
        with pytest.raises(RunRefusedError, match="dstein"):
            spectra.check_windows([t], params_at(t), [1.0])
        spectra.check_grids([t], params_at(t))
    H = assemble_hamiltonian(ModeSpec(0), grid_at(beyond))
    with pytest.raises(NonConvergenceError, match="not finite"):
        eigen_lowest(H, 2, vector=True)


def test_a_failed_solve_cancels_the_queued_ones(monkeypatch):
    # the grid's 27 solves are queued at once: the first failure must not
    # wait for the rest to run before it reaches the caller
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            time.sleep(0.05)
        raise NonConvergenceError("dstebz failed")

    monkeypatch.setattr(spectra, "_cpu_count", lambda: 2)
    monkeypatch.setattr(spectra, "eigen_lowest", failing_first)
    params = SpectrumParams(k_max=2, levels=4, h=0.02)
    with pytest.raises(NonConvergenceError):
        dirac_spectrum([0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0], params)
    assert 1 <= len(calls) < 27 // 2, len(calls)


@pytest.mark.parametrize("ts", [[0.4, 0.4, 0.0], [0.4, 0.0, 0.0], [0.4, -0.1], [0.4, math.nan],
                                [], -0.5, math.nan],
                         ids=["repeated", "repeated-0", "negative", "nan", "empty",
                              "negative-scalar", "nan-scalar"])
def test_bad_t_values_fail_before_any_solve(monkeypatch, ts):
    calls = []
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: calls.append(a))
    with pytest.raises(RunRefusedError):
        dirac_spectrum(ts, SpectrumParams(k_max=0, levels=2, h=0.05))
    assert calls == []


@pytest.mark.parametrize("grid, keys, named", [
    ("-0.5", {}, "-0.5"), ("0.4,nan", {}, "nan"), ("inf", {}, "inf"), ("2000.0", {}, "2000.0"),
    ("0.4,0.4,0.0", {}, "0.4"),
    # a neck of length 4e-217: its spacing is far below MIN_SPACING
    ("0.5,1000.0", {}, "1000.0"),
    # spacing 8.5e-78, below MIN_SPACING: dstebz fails on the overflow of (1 / h^2)^2
    ("0.5,341.1", {}, "341.1"),
    # 2 * 2000 solves * 100 levels * 3999 points at t = 0; 8.0e8 at t = 0.5 passes
    ("0.0", dict(k_max=1999, levels=100), "work estimate 1599600000 "),
    # range(k_max + 1) holds more modes than len() can count
    ("0.5", dict(k_max=10**20), "than can be counted")],
    ids=["negative", "nan", "inf", "2000", "repeated", "1000", "341.1", "over-max-work",
         "uncountable-modes"])
def test_config_and_library_refuse_the_same_runs_before_solving(monkeypatch, capsys, tmp_path,
                                                                grid, keys, named):
    # _plan is the one owner of the t rules and the work bound: the commands
    # and the library refuse the same runs, before any solve.  The work bound
    # counts the solves a run makes: a count solves nothing, and mass solves
    # mode 0 alone at t > 0 and modes 0 and k_max in both chiralities at
    # t = 0, so a full run's work bound binds neither.
    calls = []
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_grid = {grid}\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   + f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    ts, params = [float(x) for x in grid.split(",")], SpectrumParams(**keys)
    work = bool(keys)  # the two work refusals, which set k_max
    for command in (("spectrum", "sweep"), ("spectrum", "mass"), ("trace", "compute"),
                    ("spectrum", "count")):
        if work and command[1] == "mass":
            continue  # admitted: it would solve
        code, err = main([*command, str(cfg)]), capsys.readouterr().err
        if work and command[1] == "count":
            assert code == EXIT_OK, err
        else:
            assert code == EXIT_CONFIG and named in err, (command, err)
    with pytest.raises(RunRefusedError, match=re.escape(named)):
        dirac_spectrum(ts[0] if len(ts) == 1 else ts, params)
    if work:  # 4 solves * 100 levels * 3999 points at t = 0, 1 solve at t = 0.5
        [(solves, grid)] = spectra.check_windows(ts, params, [1.0]).values()
        assert solves * params.levels * grid.n == (1599600 if ts == [0.0] else 8 * 3999)
    else:
        with pytest.raises(RunRefusedError, match=re.escape(named)):
            ground_states(ts[0] if len(ts) == 1 else ts, params)
    assert calls == []


def test_the_spacing_rule_admits_what_the_solver_resolves(capsys, tmp_path):
    # at the default spacing dstebz resolves t = 340.0 (h = 1.3e-77), returns
    # the diagonal 2 / h^2 at t = 341.0 (h = 9.0e-78) and fails at t = 341.1
    # (h = 8.5e-78); with 100 points, h = L / 101, t = 341.1 solves: the rule is on h, not t
    assert spectra.MIN_SPACING == pytest.approx(1.2213e-77, rel=1e-4)

    def lowest_two(t):
        geom = NeckGeometry.neck(t)
        return eigen_lowest(assemble_hamiltonian(ModeSpec(0), Grid.for_geometry(geom)), 2)

    for t, params in ((340.0, SpectrumParams(k_max=0, levels=2)),
                      (341.1, SpectrumParams(k_max=0, levels=2,
                                             h=NeckGeometry.neck(341.1).length / 101))):
        pi_over_length = math.pi / NeckGeometry.neck(t).length
        assert dirac_spectrum(t, params).mu[t][0, 0] == pytest.approx(pi_over_length**2, rel=1e-3)
    h = NeckGeometry.neck(341.0).length / 4000
    assert lowest_two(341.0) == pytest.approx([2 / h**2] * 2, rel=1e-6)  # 3.2e6 (pi / L)^2
    with pytest.raises(NonConvergenceError):
        lowest_two(341.1)
    cfg = tmp_path / "run.cfg"
    for t in ("341.0", "341.1"):
        with pytest.raises(RunRefusedError, match=re.escape(f"t = {t}")):
            dirac_spectrum(float(t), SpectrumParams(k_max=0, levels=2))
        cfg.write_text(f"t_grid = {t}\nk_max = 0\nlevels = 2\noutput_dir = {tmp_path}\n")
        assert main(["spectrum", "sweep", str(cfg)]) == EXIT_CONFIG
        assert f"t = {t}" in capsys.readouterr().err


def test_the_thin_neck_rule_admits_what_the_assembly_represents(monkeypatch, capsys, tmp_path):
    # V' squares cosh(rho), about 2 / t at the walls, and V^2 squares (k + 1/2) / t
    # at the waist; SQRT_MAX is the largest double whose square is finite
    assert spectra.SQRT_MAX ** 2 < math.inf
    with pytest.raises(OverflowError):
        math.nextafter(spectra.SQRT_MAX, math.inf) ** 2

    def tanh_form(t, k, levels):
        # V' = -q tanh(rho) / phi squares nothing, so it holds where cosh(rho)^2 overflows
        geom = NeckGeometry.neck(t)
        grid = Grid.for_geometry(geom)
        v = (k + 0.5) / (t * np.cosh(grid.rho_values))
        return eigen_lowest(tridiagonal_from_potential(v * v - v * np.tanh(grid.rho_values),
                                                       grid.h), levels)

    # below the rule the assembly is wrong with no error: V' reads -0 near the walls
    with np.errstate(over="ignore"):
        geom = NeckGeometry.neck(1e-154)
        H = assemble_hamiltonian(ModeSpec(0), Grid.for_geometry(geom))
    assert eigen_lowest(H, 1)[0] == pytest.approx(1.5526656, rel=1e-7)
    assert tanh_form(1e-154, 0, 1)[0] == pytest.approx(1.5400011, rel=1e-7)
    # the thinnest neck is max(2, k + 1/2) / SQRT_MAX for the highest mode k: k_max
    # for a solve; for a count, the last below the mode bound, 5 for b = 2 where
    # phi_wall = 2, so k = 4
    thinnest = {0: 2.0 / spectra.SQRT_MAX, 2: 2.5 / spectra.SQRT_MAX}  # 1.49e-154, 1.86e-154
    for k_max, t in thinnest.items():
        mu = dirac_spectrum(t, SpectrumParams(k_max=k_max, levels=3)).mu[t]
        for k in range(k_max + 1):
            assert mu[k] == pytest.approx(tanh_form(t, k, 3), rel=1e-12), (k_max, k)
    t = 4.5 / spectra.SQRT_MAX
    table = dirac_spectrum(t, SpectrumParams(k_max=4, levels=4))
    assert table.mu[t][:, -1].min() > 4.0
    assert spectra.window_counts([t], SpectrumParams(), [(0.0, 2.0)]).counts[t] == (
        table.eigen_count(0.0, 2.0, t),)

    calls = []
    for name in ("eigen_lowest", "sturm_counts", "assemble_hamiltonian"):
        monkeypatch.setattr(spectra, name, lambda *a, **k: calls.append(a))
    with pytest.raises(RunRefusedError, match="too thin"):
        spectra.window_counts([math.nextafter(t, 0.0)], SpectrumParams(), [(0.0, 2.0)])
    cfg = tmp_path / "run.cfg"
    for k_max, t in thinnest.items():
        for thinner in (math.nextafter(t, 0.0), 1e-154, 5e-155, 1e-160):
            with pytest.raises(RunRefusedError, match=re.escape(f"t = {thinner!r} is too thin")):
                dirac_spectrum(thinner, SpectrumParams(k_max=k_max, levels=3))
            cfg.write_text(f"t_grid = {thinner!r}\nk_max = {k_max}\nlevels = 3\n"
                           f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
            for command in (("spectrum", "sweep"), ("spectrum", "mass"), ("spectrum", "count"),
                            ("trace", "compute")):
                code, err = main([*command, str(cfg)]), capsys.readouterr().err
                assert code == EXIT_CONFIG and "too thin" in err, (command, thinner, err)
    assert calls == [] and not (tmp_path / "out").exists()


COMMANDS = (("spectrum", "sweep"), ("spectrum", "mass"), ("spectrum", "count"),
            ("trace", "compute"))


def test_a_k_max_beyond_the_float_range_is_refused_as_a_thin_neck(capsys, tmp_path):
    # k_max + 1/2 overflows a float from about 1.8e308: the thin-neck rule
    # refuses such a k_max as it refuses 10**300, and at t = 0 the cusp rule
    # does; count reads no k_max and runs
    huge = SpectrumParams(k_max=10**400, levels=2)
    with pytest.raises(RunRefusedError) as big:
        spectra.check_grids([0.5], SpectrumParams(k_max=10**300, levels=2))
    with pytest.raises(RunRefusedError, match=re.escape(str(big.value))):
        spectra.check_grids([0.5], huge)
    assert "t = 0.5 is too thin" in str(big.value)
    with pytest.raises(RunRefusedError, match="too deep"):
        spectra.check_grids([0.0], huge)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_grid = 0.5\nk_max = {10**400}\nlevels = 2\n"
                   f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    for command in COMMANDS:
        code, err = main([*command, str(cfg)]), capsys.readouterr().err
        if command[1] == "count":
            assert code == EXIT_OK, err
        else:
            assert code == EXIT_CONFIG and str(big.value) in err, (command, err)


def _first_cusp_bound(k_max: int) -> float:
    """The largest rho_margin_factor whose first cusp depth the rule admits for k_max."""
    def admitted(factor):
        try:
            spectra.check_grids([0.0], SpectrumParams(k_max=k_max, levels=2,
                                                      rho_margin_factor=factor))
        except RunRefusedError:
            return False
        return True

    lo, hi = 1e150, 1e160
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("k_max", [0, 2])
def test_the_cusp_rule_admits_what_the_assembly_represents(monkeypatch, capsys, tmp_path, k_max):
    # V = (k + 1/2) e^-rho peaks at the cusp's deepest grid point; a
    # rho_margin_factor that puts it above SQRT_MAX used to fail with inf
    # entries after work had started, so the rule refuses it before any
    bound = _first_cusp_bound(k_max)
    assert 1e152 < bound < 1.1e153
    params = SpectrumParams(k_max=k_max, levels=2, rho_margin_factor=bound)
    [grid] = spectra._grids([0.0], params).values()
    for mode in (ModeSpec(k_max), ModeSpec(k_max, Chirality.MINUS)):
        with np.errstate(over="raise"):
            assemble_hamiltonian(mode, grid)
    assert np.isfinite(dirac_spectrum(0.0, params).mu[0.0]).all()
    past = NeckGeometry.cusp(grid.rho_min * (1 + 1e-12))  # 1e-12 deeper overflows
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        assemble_hamiltonian(ModeSpec(k_max), Grid.for_geometry(past))

    calls = []
    for name in ("eigen_lowest", "sturm_counts", "assemble_hamiltonian"):
        monkeypatch.setattr(spectra, name, lambda *a, **k: calls.append(a))
    for factor in (math.nextafter(bound, math.inf), 1e200):
        deep = SpectrumParams(k_max=k_max, levels=2, rho_margin_factor=factor)
        with pytest.raises(RunRefusedError, match="t = 0.0 with rho_min = .* is too deep"):
            dirac_spectrum(0.0, deep)
        with pytest.raises(RunRefusedError, match="t = 0.0 with rho_min = .* is too deep"):
            spectra.window_counts([0.0], deep, [(0.0, 2.0)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"t_grid = 0.0\nk_max = {k_max}\nlevels = 2\n"
                       f"rho_margin_factor = {factor!r}\noutput_dir = {tmp_path / 'out'}\n",
                       encoding="utf-8")
        for command in COMMANDS:
            code, err = main([*command, str(cfg)]), capsys.readouterr().err
            assert code == EXIT_CONFIG and "too deep" in err, (command, factor, err)
    assert calls == [] and not (tmp_path / "out").exists()


def test_rho_margin_factor_1e150_solves_the_first_cusp():
    # far below the bound the rule changes nothing: one depth step, whose
    # rows are the serial solves of both chiralities on _grids's grid
    params = SpectrumParams(k_max=2, levels=2, rho_margin_factor=1e150)
    [grid] = spectra._grids([0.0], params).values()
    mu = dirac_spectrum(0.0, params).mu[0.0]
    for k in range(params.k_max + 1):
        both = np.concatenate([
            eigen_lowest(assemble_hamiltonian(ModeSpec(k, chi), grid), params.levels)
            for chi in Chirality])
        assert _same_bits(mu[k], np.sort(both)[: params.levels]), k
    # the count assembles modes up to k = 4 on its own cusp, also below the bound
    assert spectra.window_counts([0.0], params, [(0.0, 2.0)]).modes[0.0] >= 1


def test_a_deeper_cusp_step_that_would_overflow_fails_before_assembling(monkeypatch, capsys,
                                                                         tmp_path):
    # the first depth passes the rule and solves; its 20th level lies above
    # 200, so the search deepens, and there V^2 would overflow: a RuntimeError
    # names the depth before any assembly on it
    params = SpectrumParams(k_max=0, levels=20, h=0.05, rho_margin_factor=8e152)
    [first] = spectra._grids([0.0], params).values()
    depths, assemble = [], spectra.assemble_hamiltonian

    def recorded(mode, grid, *args):
        depths.append(grid.rho_min)
        return assemble(mode, grid, *args)

    monkeypatch.setattr(spectra, "assemble_hamiltonian", recorded)
    for run in (dirac_spectrum, ground_states):
        depths.clear()
        with pytest.raises(RuntimeError, match=r"t = 0.0 with rho_min = \S+ is too deep") as e:
            run(0.0, params)
        deeper = float(re.search(r"rho_min = (\S+) is", str(e.value))[1])
        assert deeper < first.rho_min and set(depths) == {first.rho_min}, run
        assert 0.5 * math.exp(-deeper) > spectra.SQRT_MAX
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_grid = 0.0\nk_max = 0\nlevels = 20\nh = 0.05\n"
                   f"rho_margin_factor = 8e152\noutput_dir = {tmp_path / 'out'}\n",
                   encoding="utf-8")
    for command in (("spectrum", "sweep"), ("spectrum", "mass"), ("trace", "compute")):
        code, err = main([*command, str(cfg)]), capsys.readouterr().err
        assert code == EXIT_RUNTIME and f"rho_min = {deeper!r}" in err, (command, err)


def test_a_cusp_depth_that_never_settles_is_a_runtime_error(monkeypatch, capsys, tmp_path):
    # each depth the search asks for lies 1 below the last, so the grid just
    # solved is never deep enough: after 8 steps the library raises, and the
    # sweep exits 1 and writes no file
    asked = []

    def ever_deeper(params, mu_max):
        asked.append(-7.0 - len(asked))
        return asked[-1]

    monkeypatch.setattr(spectra, "_cusp_depth", ever_deeper)
    params = SpectrumParams(k_max=0, levels=2, h=0.05)
    for run in (dirac_spectrum, ground_states):
        asked.clear()
        with pytest.raises(RuntimeError, match="cusp truncation depth did not stabilize"):
            run([0.5, 0.0], params)
        assert asked == [-7.0 - i for i in range(9)], run  # the plan's, then one per step
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_grid = 0.5,0.0\nk_max = 0\nlevels = 2\nh = 0.05\n"
                   f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    code, err = main(["spectrum", "sweep", str(cfg)]), capsys.readouterr().err
    assert code == EXIT_RUNTIME and "did not stabilize" in err, err
    assert not (tmp_path / "out").exists()


def test_every_command_checks_its_t_grid_in_descending_order(capsys, tmp_path):
    # 1e-200 is too thin and 500.0 too coarse: _grids checks 500.0 first, so
    # every library entry point and every command gives one message, the spacing's
    messages = set()
    for run in (dirac_spectrum, ground_states, spectra.check_grids,
                lambda ts, params: spectra.check_windows(ts, params, [1.0]),
                lambda ts, params: spectra.window_counts(ts, params, [(0.0, 2.0)])):
        with pytest.raises(RunRefusedError) as refused:
            run([1e-200, 500.0], SpectrumParams(k_max=0, levels=2))
        messages.add(str(refused.value))
    [message] = messages
    assert "spacing" in message and "t = 500.0" in message
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_grid = 1e-200,500\nk_max = 0\nlevels = 2\n"
                   f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    for command in COMMANDS:
        code, err = main([*command, str(cfg)]), capsys.readouterr().err
        assert code == EXIT_CONFIG and err == f"config error: {message}\n", (command, err)


def test_the_order_of_a_t_grid_does_not_matter():
    # _grids orders every t grid, so each permutation gives the sorted call's
    # plans, bits and counts, keyed by descending t
    want, params, windows = [0.5, 0.2, 0.0], SpectrumParams(k_max=1, levels=3, h=0.03), [(0.0, 2.0)]
    plans = spectra.check_grids(want, params), spectra.check_windows(want, params, [1.0])
    table, ground = dirac_spectrum(want, params), ground_states(want, params)
    counts = spectra.window_counts(want, params, windows)
    for ts in itertools.permutations(want):
        got = spectra.check_grids(ts, params), spectra.check_windows(ts, params, [1.0])
        assert [list(plan) for plan in got] == [want, want] and got == plans, ts
        mu, vectors = dirac_spectrum(ts, params).mu, ground_states(ts, params)
        assert list(mu) == list(vectors) == want, ts
        assert all(_same_bits(mu[t], table.mu[t]) for t in want), ts
        assert all(_same_bits(vectors[t].values, ground[t].values) for t in want), ts
        assert spectra.window_counts(ts, params, windows) == counts, ts
    # -0.0 is the split neck, keyed 0.0
    for plan in (spectra._grids([-0.0, 0.5], params), spectra.check_grids([-0.0, 0.5], params),
                 spectra.check_windows([-0.0, 0.5], params, [1.0])):
        assert list(plan) == [0.5, 0.0] and math.copysign(1.0, list(plan)[1]) == 1.0


def test_the_solves_run_on_the_planned_grids(monkeypatch):
    # _grids plans each t's grid once, and each neck is solved on it: k values
    # of t > 0 build k grids, not one for the checks and one for the solves
    ts, params = [0.5, 0.2, 0.05], SpectrumParams(k_max=1, levels=3, h=0.03)
    built, for_geometry = [], Grid.for_geometry.__func__

    def recorded(cls, geom, *args, **kwargs):
        built.append(geom.t)
        return for_geometry(cls, geom, *args, **kwargs)

    monkeypatch.setattr(Grid, "for_geometry", classmethod(recorded))
    for run in (dirac_spectrum, ground_states):
        built.clear()
        run(ts, params)
        assert sorted(built, reverse=True) == ts, run.__name__


def test_levels_above_the_grid_fail_before_any_solve(monkeypatch, capsys, tmp_path):
    calls = []
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: calls.append(a))
    with pytest.raises(RunRefusedError, match="grid points"):
        dirac_spectrum(0.3, SpectrumParams(levels=101, h=0.08))  # 64 points
    with pytest.raises(RunRefusedError, match="grid points"):
        dirac_spectrum(0.0, SpectrumParams(levels=101, h=0.08))  # 98 at the first cusp depth
    # h = 0.05: t = 0.01 has 239 interior points, the first cusp depth 158,
    # so the sweep must refuse before it solves t = 0.01
    # (k_max = 2: three solves at t > 0, six for a cusp-depth step)
    plan = spectra.check_grids([0.01, 0.0], SpectrumParams(levels=158, h=0.05))
    assert [(solves, grid.n) for solves, grid in plan.values()] == [(3, 239), (6, 158)]
    with pytest.raises(RunRefusedError, match="158 grid points at t = 0.0"):
        dirac_spectrum([0.01, 0.0], SpectrumParams(levels=159, h=0.05))
    with pytest.raises(RunRefusedError, match="levels >= 2"):  # the tail model needs two
        relative_resolvent_trace(0.3, -1.0, -2.0, SpectrumParams(levels=1))
    assert calls == []

    def exit_code(**keys) -> int:
        cfg = tmp_path / "levels.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items())
                       + f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        return main(["spectrum", "sweep", str(cfg)])

    spectra.check_grids([0.5, 0.0], SpectrumParams(levels=3999))
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


@pytest.mark.parametrize("q", [0.5, 3.7, 1e2, 1e4, 1e8, 1e20, 1e60, 1e100, 1e200, 1e300,
                               math.inf])
def test_inverse_square_tail_matches_the_coth_sum_up_to_huge_q(q):
    # sum_{j >= 1} 1/(j^2 + a^2) = (pi a coth(pi a) - 1) / (2 a^2); no power
    # the asymptotic series forms may overflow, whatever q, and q = inf gives
    # the limit 0
    if q == math.inf:
        assert [spectra._inverse_square_tail(n, q) for n in (1, 3, 41)] == [0.0] * 3
        return
    a = math.sqrt(q)
    full = (math.pi * a / math.tanh(math.pi * a) - 1.0) / (2.0 * q)
    for n in (1, 3, 41):
        want = full - sum(1.0 / (j * j + q) for j in range(1, n))
        assert spectra._inverse_square_tail(n, q) == pytest.approx(want, rel=1e-13), n


def test_the_trace_refuses_non_finite_points_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: calls.append(a))
    params = SpectrumParams(k_max=1, levels=4, h=0.005)
    for lam, lam0 in ((-math.inf, -2.0), (-1.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(RunRefusedError, match="finite"):
            relative_resolvent_trace(0.3, lam, lam0, params)
    assert calls == []


def test_a_non_finite_trace_is_raised_not_returned(monkeypatch):
    params = SpectrumParams(k_max=1, levels=4, h=0.005)
    table = dirac_spectrum(0.4, params)
    monkeypatch.setattr(spectra, "_mode_tail", lambda mu, lam, lam0: math.nan)
    with pytest.raises(RuntimeError, match="not finite"):
        relative_resolvent_trace(0.4, -1.0, -2.0, params, table=table)


def test_trace_reproducible_at_reference_parameters():
    params = SpectrumParams(k_max=10, levels=40)
    first = relative_resolvent_trace(0.5, -1.0, -2.0, params)
    second = relative_resolvent_trace(0.5, -1.0, -2.0, params)
    assert math.isfinite(first.value)
    assert abs(first.value - second.value) < 1e-8 * abs(first.value)
