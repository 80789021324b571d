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
    ModeSpec,
    NeckGeometry,
    potential,
    potential_derivative,
)

DEFAULT_POINTS = 4000  # default resolution: h = length / DEFAULT_POINTS
MIN_POINTS = 16  # fewest interior points a Grid accepts
EIGEN_TOL = 1e-10  # absolute tolerance of eigen_lowest's bisection


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


# LAPACK's dstebz/dstein/dlaebz, called through scipy's Cython LAPACK table with
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
# IJOB NITMAX N MMAX MINP NBMIN ABSTOL RELTOL PIVMIN D E E2 NVAL AB C MOUT NAB WORK IWORK INFO
_dlaebz = _lapack_routine("dlaebz", _INT, _INT, _INT, _INT, _INT, _INT, _DOUBLE, _DOUBLE,
                          _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT,
                          _INT, _DOUBLE, _INT, _INT)


@dataclass(frozen=True)
class Grid:
    """The n interior points rho_min + h * i (i = 1..n) of [rho_min, rho_min + (n + 1) h].

    Dirichlet problems on the arclength domain use these points; the grid
    stores the three numbers and computes the points on demand.
    """

    rho_min: float
    h: float
    n: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.rho_min):
            raise ValueError(f"grid start must be finite, got {self.rho_min!r}")
        if not 0.0 < self.h < math.inf:  # nan fails this too
            raise ValueError(f"grid spacing must be finite and positive, got {self.h!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"the point count must be an int, got {self.n!r}")
        if self.n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} interior points, got {self.n!r}")

    @property
    def rho_values(self) -> np.ndarray:
        """The interior points, a read-only array computed on each access."""
        rho = self.rho_min + self.h * np.arange(1, self.n + 1)
        rho.setflags(write=False)
        return rho

    @classmethod
    def for_geometry(cls, geom: NeckGeometry, n: int | None = None,
                     h: float | None = None) -> "Grid":
        """The grid filling [rho_min, rho_max]: n points, else spacing near h or length/4000."""
        if n is not None and h is not None:
            raise ValueError("give n or h, not both")
        if n is None:
            target = h if h is not None else geom.length / DEFAULT_POINTS
            n = max(MIN_POINTS, int(round(geom.length / target)) - 1)
        return cls(geom.rho_min, geom.length / (n + 1), n)

    def halved(self) -> "Grid":
        """The nested refinement at spacing h/2: its points 2, 4, ..., 2n are this grid's bits."""
        return Grid(self.rho_min, self.h / 2.0, 2 * self.n + 1)


@dataclass(frozen=True)
class Tridiagonal:
    """A real symmetric tridiagonal matrix (diagonal + off-diagonal).

    Both are finite, contiguous, read-only float64 1-d arrays, the off-diagonal one shorter.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diagonal", "offdiagonal"):
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            if a.ndim != 1:
                raise ValueError("diagonal and off-diagonal must be 1-d")
            if not np.isfinite(a).all():  # as eigh_tridiagonal's finiteness check
                raise ValueError("array must not contain infs or NaNs")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if len(self.offdiagonal) != len(self.diagonal) - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")

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
    flat_potential: float | None = None,
) -> Tridiagonal:
    """Mode Hamiltonian -d^2/drho^2 + V^2 +- V' on the grid, Dirichlet ends.

    The sign is the mode's chirality.  ``flat_potential`` replaces V by that
    constant c, so V' = 0 and the potential is c^2 at every point.
    """
    if not (geom.contains(grid.rho_min) or math.isclose(
            grid.rho_min, geom.rho_min, rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError("grid does not cover the geometry's domain")
    if flat_potential is not None:
        return tridiagonal_from_potential(np.full(grid.n, flat_potential * flat_potential), grid.h)
    rho = grid.rho_values
    v = np.asarray(potential(geom, mode, rho), dtype=float)
    vp = np.asarray(potential_derivative(geom, mode, rho), dtype=float)
    sign = float(mode.chirality.value)
    return tridiagonal_from_potential(v * v + sign * vp, grid.h)


def partner_minus_hamiltonian(geom: NeckGeometry, mode: ModeSpec, grid: Grid) -> Tridiagonal:
    """The minus-chirality operator with its supersymmetric wall condition.

    Squaring the mode Dirac operator with Dirichlet data on the plus
    component forces the Robin condition u' + V u = 0 on the minus component
    at the wall; realizing that condition (ghost-node elimination, then a
    diagonal similarity restoring symmetry) makes -d^2/drho^2 + V^2 - V'
    isospectral to the plus operator away from zero modes.  At t = 0 the wall
    is the shallow end of the cusp, ``rho_max``; the deep end keeps Dirichlet,
    which is invisible under the confining potential.
    """
    if geom.t != 0:
        raise ValueError("the partner realization is used on the split (t = 0) neck")
    h = grid.h
    rho = np.append(grid.rho_values, geom.rho_max)
    v = np.asarray(potential(geom, mode, rho), dtype=float)
    vp = np.asarray(potential_derivative(geom, mode, rho), dtype=float)
    diag = 2.0 / h**2 + v * v - vp
    m = len(rho)
    sub = np.full(m - 1, -1.0 / h**2)
    sup = np.full(m - 1, -1.0 / h**2)
    diag[-1] += 2.0 * v[-1] / h
    sub[-1] = -2.0 / h**2
    off = -np.sqrt(sub * sup)
    return Tridiagonal(diag, off)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_INT if a.dtype == np.intc else _DOUBLE)


def eigen_lowest(T: Tridiagonal, count: int, vector: bool = False, h: float | None = None):
    """Lowest eigenvalues of T by Sturm-sequence bisection, to absolute ``EIGEN_TOL``.

    With ``vector``, also the eigenvector of the lowest one (inverse
    iteration), normalized in the discrete L^2(d rho) norm when the spacing h
    is given, else in the plain l^2 norm.  Returns the ascending eigenvalues,
    or (values, vector) with ``vector``.
    """
    n = T.dimension
    if not 1 <= count <= n:
        raise ValueError("count must lie between 1 and the dimension")
    d, e = T.diagonal, T.offdiagonal
    # the calls scipy's eigh_tridiagonal(select="i", tol=EIGEN_TOL) makes: values in
    # matrix order, or in block order for dstein and sorted afterwards
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, iblock, isplit = np.empty(n), np.empty(n, np.intc), np.empty(n, np.intc)
    work, iwork = np.empty(5 * n), np.empty(3 * n, np.intc)  # enough for both routines
    _dstebz(b"I", b"B" if vector else b"E", ctypes.c_int(n), ctypes.c_double(0.0),
            ctypes.c_double(0.0), ctypes.c_int(1), ctypes.c_int(count), ctypes.c_double(EIGEN_TOL),
            _ptr(d), _ptr(e), m, nsplit, _ptr(w), _ptr(iblock), _ptr(isplit),
            _ptr(work), _ptr(iwork), info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dstebz failed with info = {info.value}")
    w = w[: m.value]
    if not vector:
        return w
    # dstein draws one random start per value in the order given: the values up to the
    # lowest (one unless T splits) give its vector the bits of eigh_tridiagonal's column 0
    order = np.argsort(w)
    first = int(order[0]) + 1
    vecs, ifail = np.empty((n, first), order="F"), np.empty(first, np.intc)
    _dstein(ctypes.c_int(n), _ptr(d), _ptr(e), ctypes.c_int(first), _ptr(w), _ptr(iblock),
            _ptr(isplit), _ptr(vecs), ctypes.c_int(n), _ptr(work), _ptr(iwork), _ptr(ifail),
            info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dstein failed with info = {info.value}")
    v = vecs[:, -1]
    if h is not None:
        v = v / np.sqrt(h * np.sum(v**2))
    return w[order], v


def sturm_counts(T: Tridiagonal, shifts) -> list[int]:
    """The number of eigenvalues of T at or below each shift, without an eigensolve.

    Each count is the number of nonpositive pivots of the LDL^T factorisation
    of T - shift (Sylvester's law of inertia), which LAPACK's dlaebz forms in
    O(n) per shift, two shifts to an interval.  A pivot smaller in magnitude
    than dstebz's PIVMIN is replaced by -PIVMIN, as in dstebz's own counts,
    so an exactly zero pivot counts once (1 for [[1, 1], [1, 1]] at the
    shift 1, which has the eigenvalues 0 and 2).
    """
    shifts = [float(s) for s in shifts]
    if not all(map(math.isfinite, shifts)):
        raise ValueError(f"shifts must be finite, got {shifts!r}")
    e2 = T.offdiagonal**2
    pivmin = sys.float_info.min * max(1.0, float(e2.max(initial=0.0)))
    # AB's rows are the shift pairs, an odd last shift filling its row; NAB gets their counts
    ab = np.asfortranarray(np.reshape(shifts + shifts[-1:] * (len(shifts) % 2), (-1, 2)))
    nab, pairs = np.empty_like(ab, dtype=np.intc), ctypes.c_int(len(ab))
    one, mout, info = ctypes.c_int(1), ctypes.c_int(), ctypes.c_int()
    # IJOB = 1 only counts: NVAL, C, WORK and IWORK go unread
    unread, unread_int = np.zeros(1), np.zeros(1, np.intc)
    _dlaebz(one, one, ctypes.c_int(T.dimension), pairs, pairs, one, ctypes.c_double(0.0),
            ctypes.c_double(0.0), ctypes.c_double(pivmin), _ptr(T.diagonal), _ptr(T.offdiagonal),
            _ptr(e2), _ptr(unread_int), _ptr(ab), _ptr(unread), mout, _ptr(nab), _ptr(unread),
            _ptr(unread_int), info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dlaebz failed with info = {info.value}")
    return nab.ravel()[: len(shifts)].tolist()


def convergence_order(
    geom: NeckGeometry,
    mode: ModeSpec,
    grid: Grid,
    flat_potential: float | None = None,
) -> float:
    """Observed discretization order of the lowest eigenvalue on ``grid`` and its halving.

    Richardson-style estimate log2(|mu_h - mu_ref| / |mu_h/2 - mu_ref|)
    against a reference at spacing h/8; the finer grids are nested refinements of ``grid``.
    ``flat_potential`` is passed on to ``assemble_hamiltonian``.
    """

    def mu(g: Grid) -> float:
        T = assemble_hamiltonian(geom, mode, g, flat_potential)
        return float(eigen_lowest(T, 1)[0])

    half = grid.halved()
    mu_ref = mu(half.halved().halved())
    return math.log2(abs(mu(grid) - mu_ref) / abs(mu(half) - mu_ref))
