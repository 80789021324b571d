"""Finite-difference assembly, the symmetric tridiagonal eigensolver and Sturm counts."""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from cusplab.dirac_lab.geometry import (
    Chirality,
    CuspSide,
    ModeSpec,
    NeckGeometry,
    potential,
    potential_derivative,
)

DEFAULT_POINTS = 4000  # default resolution: h = length / DEFAULT_POINTS
MIN_POINTS = 16  # fewest interior points a Grid accepts


class NonConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed to converge."""


def _load_cython_lapack():
    """scipy's ``cython_lapack`` extension, without running ``scipy.linalg``'s ``__init__``."""
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg.cython_lapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's cython_lapack extension is not in {directory}")
    loaded = spec.name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        # Cython's module init files the module in sys.modules; left there
        # without its package, a later ``import scipy.linalg.cython_lapack``
        # would find it and never bind it to ``scipy.linalg``
        sys.modules.pop(spec.name, None)
    return module


# LAPACK's dstebz/dstein/dlarrc, called through scipy's Cython LAPACK table with
# ctypes: a ctypes call releases the GIL, so solves on different threads run
# at once (scipy's f2py wrappers hold it).  Only the cython_lapack extension
# is loaded: importing it through ``scipy.linalg`` would first run that
# package's __init__, some 290 modules (f2py wrappers, array-api-compat) the
# solver never calls, which roughly doubled the command line's start-up.
# Every integer is a 32-bit C int; a LAPACK built with 64-bit integers would
# misread them, so its prototypes are refused at import.
_CHAR, _INT, _DOUBLE = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int),
                        ctypes.POINTER(ctypes.c_double))
_C_TYPES = {_CHAR: "char *", _INT: "int *", _DOUBLE: "double *"}


def _lapack_routine(name: str, *argtypes) -> Callable:
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    # Cython spells cython_lapack's ``ctypedef double d`` as a mangled name
    signature = re.sub(r"__pyx_t_\w*cython_lapack_d\b", "double", capsule_name.decode())
    expected = "void (" + ", ".join(_C_TYPES[a] for a in argtypes) + ")"
    if signature != expected:
        raise ImportError(f"scipy's LAPACK {name} has the prototype {signature!r}, "
                          f"not {expected!r}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, capsule_name)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


cython_lapack = _load_cython_lapack()

# RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO
_dstebz = _lapack_routine("dstebz", _CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _INT, _INT,
                          _DOUBLE, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT,
                          _DOUBLE, _INT, _INT)
# N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
_dstein = _lapack_routine("dstein", _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _INT, _INT,
                          _DOUBLE, _INT, _DOUBLE, _INT, _INT, _INT)
# JOBT N VL VU D E PIVMIN EIGCNT LCNT RCNT INFO
_dlarrc = _lapack_routine("dlarrc", _CHAR, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE,
                          _INT, _INT, _INT, _INT)


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid for Dirichlet problems on the arclength domain."""

    rho_values: np.ndarray
    h: float

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if self.n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} interior points")
        steps = np.diff(self.rho_values)
        if steps.size and not np.allclose(steps, self.h, rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")
        self.rho_values.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.rho_values)

    @staticmethod
    def points_for(geom: NeckGeometry, n: int | None = None, h: float | None = None) -> int:
        """The number of interior points ``for_geometry`` lays on the domain."""
        if n is not None and h is not None:
            raise ValueError("give n or h, not both")
        if n is not None:
            return n
        target = h if h is not None else geom.length / DEFAULT_POINTS
        return max(MIN_POINTS, int(round(geom.length / target)) - 1)

    @classmethod
    def for_geometry(cls, geom: NeckGeometry, n: int | None = None,
                     h: float | None = None) -> "Grid":
        """Interior points of [rho_min, rho_max]; default spacing length/4000."""
        n = cls.points_for(geom, n, h)
        hh = geom.length / (n + 1)
        rho = geom.rho_min + hh * np.arange(1, n + 1)
        return cls(rho, hh)

    def halved(self) -> "Grid":
        """The nested refinement with spacing h/2 (2n + 1 interior points)."""
        a = self.rho_values[0] - self.h
        hh = self.h / 2.0
        m = 2 * self.n + 1
        return Grid(a + hh * np.arange(1, m + 1), hh)


@dataclass(frozen=True)
class Tridiagonal:
    """A real symmetric tridiagonal matrix (diagonal + off-diagonal)."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        if len(self.offdiagonal) != len(self.diagonal) - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")
        self.diagonal.setflags(write=False)
        self.offdiagonal.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.diagonal)


def tridiagonal_from_potential(w: np.ndarray, h: float) -> Tridiagonal:
    """Central-difference -d^2/drho^2 + diag(w) with Dirichlet ends."""
    n = len(w)
    diag = 2.0 / h**2 + np.asarray(w, dtype=float)
    off = np.full(n - 1, -1.0 / h**2)
    return Tridiagonal(diag, off)


def assemble_hamiltonian(
    geom: NeckGeometry,
    mode: ModeSpec,
    grid: Grid,
    potential_override: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Tridiagonal:
    """Mode Hamiltonian -d^2/drho^2 + V^2 +- V' on the grid, Dirichlet ends.

    The sign is the mode's chirality.  ``potential_override`` replaces V by
    an arbitrary profile (V' then comes from centered differences of the
    override, except that a constant override has V' = 0 exactly).
    """
    rho = grid.rho_values
    if not (geom.contains(rho[0] - grid.h) or math.isclose(
            rho[0] - grid.h, geom.rho_min, rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError("grid does not cover the geometry's domain")
    if potential_override is None:
        v = np.asarray(potential(geom, mode, rho), dtype=float)
        vp = np.asarray(potential_derivative(geom, mode, rho), dtype=float)
    else:
        v = np.asarray(potential_override(rho), dtype=float) * np.ones_like(rho)
        vp = np.gradient(v, grid.h) if np.ptp(v) > 0 else np.zeros_like(v)
    sign = float(mode.chirality.value)
    return tridiagonal_from_potential(v * v + sign * vp, grid.h)


def partner_minus_hamiltonian(geom: NeckGeometry, mode: ModeSpec, grid: Grid) -> Tridiagonal:
    """The minus-chirality operator with its supersymmetric wall condition.

    Squaring the mode Dirac operator with Dirichlet data on the plus
    component forces the Robin condition u' + V u = 0 on the minus component
    at the wall; realizing that condition (ghost-node elimination, then a
    diagonal similarity restoring symmetry) makes -d^2/drho^2 + V^2 - V'
    isospectral to the plus operator away from zero modes.  At t = 0 the wall
    is the shallow end of the cusp; the deep end keeps Dirichlet, which is
    invisible under the confining potential.
    """
    if geom.t != 0:
        raise ValueError("the partner realization is used on the split (t = 0) neck")
    wall_at_max = geom.cusp_side is CuspSide.RIGHT
    h = grid.h
    if wall_at_max:
        rho = np.append(grid.rho_values, geom.rho_max)
    else:
        rho = np.insert(grid.rho_values, 0, geom.rho_min)
    v = np.asarray(potential(geom, ModeSpec(mode.k, Chirality.MINUS), rho), dtype=float)
    vp = np.asarray(potential_derivative(geom, mode, rho), dtype=float)
    diag = 2.0 / h**2 + v * v - vp
    m = len(rho)
    sub = np.full(m - 1, -1.0 / h**2)
    sup = np.full(m - 1, -1.0 / h**2)
    vw = v[-1] if wall_at_max else v[0]
    if wall_at_max:
        diag[-1] += 2.0 * vw / h
        sub[-1] = -2.0 / h**2
    else:
        diag[0] += 2.0 * vw / h
        sup[0] = -2.0 / h**2
    off = -np.sqrt(sub * sup)
    return Tridiagonal(diag, off)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_INT if a.dtype == np.intc else _DOUBLE)


def eigen_lowest(
    T: Tridiagonal,
    count: int,
    tol: float = 1e-10,
    vectors: bool = False,
    h: float | None = None,
):
    """Lowest eigenvalues of T by Sturm-sequence bisection, to absolute tol.

    Eigenvectors (inverse iteration) are normalized in the discrete
    L^2(d rho) norm when the spacing h is given, else in the plain l^2 norm.
    Returns an array of eigenvalues, or (values, columns) with vectors.
    """
    n = T.dimension
    if not 1 <= count <= n:
        raise ValueError("count must lie between 1 and the dimension")
    d = np.ascontiguousarray(T.diagonal, dtype=float)
    e = np.ascontiguousarray(T.offdiagonal, dtype=float)
    if d.shape != (n,) or e.shape != (n - 1,):
        raise ValueError("diagonal and off-diagonal must be 1-d")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    # the calls scipy's eigh_tridiagonal(select="i", tol=tol) makes: values in
    # matrix order, or in block order for dstein and sorted afterwards
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, iblock, isplit = np.empty(n), np.empty(n, np.intc), np.empty(n, np.intc)
    work, iwork = np.empty(5 * n), np.empty(3 * n, np.intc)  # enough for both routines
    _dstebz(b"I", b"B" if vectors else b"E", ctypes.c_int(n), ctypes.c_double(0.0),
            ctypes.c_double(0.0), ctypes.c_int(1), ctypes.c_int(count), ctypes.c_double(tol),
            _ptr(d), _ptr(e), m, nsplit, _ptr(w), _ptr(iblock), _ptr(isplit),
            _ptr(work), _ptr(iwork), info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dstebz failed with info = {info.value}")
    w = w[: m.value]
    if not vectors:
        return w
    vecs, ifail = np.empty((n, m.value), order="F"), np.empty(m.value, np.intc)
    _dstein(ctypes.c_int(n), _ptr(d), _ptr(e), m, _ptr(w), _ptr(iblock), _ptr(isplit),
            _ptr(vecs), ctypes.c_int(n), _ptr(work), _ptr(iwork), _ptr(ifail), info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dstein failed with info = {info.value}")
    order = np.argsort(w)
    w, vecs = w[order], vecs[:, order]
    if h is not None:
        vecs = vecs / np.sqrt(h * np.sum(vecs**2, axis=0))
    return w, vecs


def sturm_counts(T: Tridiagonal, shifts) -> list[int]:
    """The number of eigenvalues of T at or below each shift, without an eigensolve.

    Each count is the number of nonpositive pivots of the LDL^T factorisation
    of T - shift (Sylvester's law of inertia), which LAPACK's dlarrc forms in
    O(n) for two shifts per call.  dlarrc does not guard a pivot that is
    exactly zero, which takes an exact cancellation: it counts that pivot and
    the -inf after it, one too many (2 for [[1, 1], [1, 1]] at the shift 1).
    """
    d = np.ascontiguousarray(T.diagonal, dtype=float)
    e = np.ascontiguousarray(T.offdiagonal, dtype=float)
    n = len(d)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    shifts = [float(s) for s in shifts]
    if not all(map(math.isfinite, shifts)):
        raise ValueError(f"shifts must be finite, got {shifts!r}")
    eigcnt, lcnt, rcnt, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    counts = []
    for i in range(0, len(shifts), 2):
        low, high = shifts[i], shifts[min(i + 1, len(shifts) - 1)]
        # PIVMIN is read only when dlarrc is given an LDL^T rather than T
        _dlarrc(b"T", ctypes.c_int(n), ctypes.c_double(low), ctypes.c_double(high), _ptr(d),
                _ptr(e), ctypes.c_double(sys.float_info.min), eigcnt, lcnt, rcnt, info)
        if info.value != 0:
            raise NonConvergenceError(f"LAPACK dlarrc failed with info = {info.value}")
        counts += [lcnt.value, rcnt.value]
    return counts[: len(shifts)]


def convergence_order(
    geom: NeckGeometry,
    mode: ModeSpec,
    grid: Grid,
    grid_half: Grid,
    potential_override: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Observed discretization order of the lowest eigenvalue from nested grids.

    Richardson-style estimate log2(|mu_h - mu_ref| / |mu_h/2 - mu_ref|)
    against a reference at spacing h/8.
    """
    if grid_half.n == grid.n:
        raise ValueError("grids must be distinct nested refinements")
    if not math.isclose(grid_half.h, grid.h / 2.0, rel_tol=1e-9):
        raise ValueError("second grid must have half the spacing of the first")

    def mu(g: Grid) -> float:
        T = assemble_hamiltonian(geom, mode, g, potential_override)
        return float(eigen_lowest(T, 1)[0])

    reference = grid.halved().halved().halved()
    mu_ref = mu(reference)
    return math.log2(abs(mu(grid) - mu_ref) / abs(mu(grid_half) - mu_ref))
