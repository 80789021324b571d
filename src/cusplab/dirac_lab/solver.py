"""Finite-difference assembly, the symmetric tridiagonal eigensolver and Sturm counts."""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from cusplab.dirac_lab.geometry import (
    ModeSpec,
    NeckGeometry,
    potential,
    potential_derivative,
    read_only_copy,
)

DEFAULT_POINTS = 4000  # default spacing length / 4000: exactly 3999 points
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
    """The n interior points rho_min + h * i (i = 1..n) of ``geometry``'s arclength domain.

    Dirichlet problems on the domain [rho_min, rho_max] use these points.
    The grid stores the geometry and n; rho_min is the geometry's and the
    spacing is h = length / (n + 1), so the points fill the domain and every
    grid knows the t and the depth it discretises.  The points are computed
    on demand.
    """

    geometry: NeckGeometry
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"the point count must be an int, got {self.n!r}")
        if self.n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} interior points, got {self.n!r}")
        if not 0.0 < self.h < math.inf:  # a length that overflows, or a spacing that underflows
            raise ValueError(f"grid spacing must be finite and positive, got {self.h!r}")

    @property
    def rho_min(self) -> float:
        return self.geometry.rho_min

    @property
    def h(self) -> float:
        return self.geometry.length / (self.n + 1)

    @property
    def rho_values(self) -> np.ndarray:
        """The interior points, a read-only array computed on each access."""
        rho = self.rho_min + self.h * np.arange(1, self.n + 1)
        rho.setflags(write=False)
        return rho

    @classmethod
    def for_geometry(cls, geom: NeckGeometry, h: float | None = None) -> "Grid":
        """The grid of ``geom`` at a spacing near h, else at length/4000.

        A grid of exactly n points is ``Grid(geom, n)``; the spacing
        h = length / (n + 1) rebuilds it bit for bit.
        """
        if h is not None and not 0.0 < h < math.inf:  # nan fails this too
            raise ValueError(f"grid spacing must be finite and positive, got {h!r}")
        target = h if h is not None else geom.length / DEFAULT_POINTS
        return cls(geom, max(MIN_POINTS, int(round(geom.length / target)) - 1))

    def halved(self) -> "Grid":
        """The nested refinement at spacing h/2: its points 2, 4, ..., 2n are this grid's bits."""
        return Grid(self.geometry, 2 * self.n + 1)


@dataclass(frozen=True)
class Tridiagonal:
    """A real symmetric tridiagonal matrix (diagonal + off-diagonal).

    Both are finite, contiguous, read-only float64 1-d arrays, the off-diagonal one shorter,
    copied from the caller's.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diagonal", "offdiagonal"):
            a = read_only_copy(getattr(self, name))
            if a.ndim != 1:
                raise ValueError("diagonal and off-diagonal must be 1-d")
            if not np.isfinite(a).all():  # as eigh_tridiagonal's finiteness check
                raise ValueError("array must not contain infs or NaNs")
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


def assemble_hamiltonian(mode: ModeSpec, grid: Grid,
                         flat_potential: float | None = None) -> Tridiagonal:
    """Mode Hamiltonian -d^2/drho^2 + V^2 +- V' on the grid's geometry, Dirichlet ends.

    The sign is the mode's chirality.  ``flat_potential`` replaces V by that
    constant c, so V' = 0 and the potential is c^2 at every point.
    """
    if flat_potential is not None:
        return tridiagonal_from_potential(np.full(grid.n, flat_potential * flat_potential), grid.h)
    rho = grid.rho_values
    v = np.asarray(potential(grid.geometry, mode, rho), dtype=float)
    vp = np.asarray(potential_derivative(grid.geometry, mode, rho), dtype=float)
    sign = float(mode.chirality.value)
    return tridiagonal_from_potential(v * v + sign * vp, grid.h)


def partner_minus_hamiltonian(mode: ModeSpec, grid: Grid) -> Tridiagonal:
    """The minus-chirality operator with its supersymmetric wall condition.

    Squaring the mode Dirac operator with Dirichlet data on the plus
    component forces the Robin condition u' + V u = 0 on the minus component
    at the wall; realizing that condition (ghost-node elimination, then a
    diagonal similarity restoring symmetry) makes -d^2/drho^2 + V^2 - V'
    isospectral to the plus operator away from zero modes.  At t = 0 the wall
    is the shallow end of the cusp, ``rho_max``; the deep end keeps Dirichlet,
    which is invisible under the confining potential.
    """
    geom = grid.geometry
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


# dstebz's constants (LAPACK 3.12): dlamch('P'), dlamch('S'), and its FUDGE and RELFAC
_ULP, _SAFEMN, _FUDGE, _RELFAC = 2.0**-52, sys.float_info.min, 2.1, 2.0


def _pivmin(e2: np.ndarray) -> float:
    """dstebz's PIVMIN for a matrix that does not split: DBL_MIN * max(1, e_j^2)."""
    return _SAFEMN * max(1.0, float(e2.max(initial=0.0)))


def _itmax(width: float, pivmin: float) -> int:
    """dstebz's iteration limit for bisecting an interval ``width`` wide."""
    return int((math.log(width + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2


def _laebz(d: np.ndarray, e: np.ndarray, e2: np.ndarray, pivmin: float, ab: np.ndarray,
           nab: np.ndarray, c=None, nval=None) -> Callable[[int, int, int, int], tuple[int, int]]:
    """dlaebz on T = (d, e) with dstebz's tolerances: (IJOB, NITMAX, MMAX, MINP) -> (MOUT, INFO).

    AB and NAB hold MMAX rows in Fortran order, row j's ends (counts) at j
    and MMAX + j; C (IJOB = 3's search points) and NVAL (its wanted counts)
    have a place for each row AB can hold.  NBMIN = 0, dstebz's scalar
    bisection, so WORK and IWORK go unread.
    """
    c = np.empty(ab.size // 2) if c is None else c
    nval = np.zeros(ab.size // 2, np.intc) if nval is None else nval
    n, mout, info = ctypes.c_int(len(d)), ctypes.c_int(), ctypes.c_int()
    unread, unread_int = np.zeros(1), np.zeros(1, np.intc)
    bound = (ctypes.c_int(0), ctypes.c_double(EIGEN_TOL), ctypes.c_double(_ULP * _RELFAC),
             ctypes.c_double(pivmin), _ptr(d), _ptr(e), _ptr(e2), _ptr(nval), _ptr(ab), _ptr(c),
             mout, _ptr(nab), _ptr(unread), _ptr(unread_int), info)

    def call(ijob: int, nitmax: int, mmax: int, minp: int) -> tuple[int, int]:
        _dlaebz(ctypes.c_int(ijob), ctypes.c_int(nitmax), n, ctypes.c_int(mmax),
                ctypes.c_int(minp), *bound)
        return mout.value, info.value

    return call


def _stebz(d: np.ndarray, e: np.ndarray, order: bytes, count: int):
    """dstebz("I")'s (values, IBLOCK, ISPLIT) for levels 1..count, in ``order`` b"E" or b"B"."""
    n = len(d)
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, iblock, isplit = np.empty(n), np.empty(n, np.intc), np.empty(n, np.intc)
    work, iwork = np.empty(4 * n), np.empty(3 * n, np.intc)
    _dstebz(b"I", order, ctypes.c_int(n), ctypes.c_double(0.0), ctypes.c_double(0.0),
            ctypes.c_int(1), ctypes.c_int(count), ctypes.c_double(EIGEN_TOL), _ptr(d), _ptr(e),
            m, nsplit, _ptr(w), _ptr(iblock), _ptr(isplit), _ptr(work), _ptr(iwork), info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dstebz failed with info = {info.value}")
    return w[: max(m.value, 0)], iblock, isplit  # M < 0 only where the counts are not monotone


def _root(d: np.ndarray, e: np.ndarray, count: int) -> tuple[float, float, float, int] | None:
    """(WL, WU, PIVMIN, ITMAX): the root of dstebz("I")'s bisection tree for levels 1..count.

    This is dstebz's own set-up, in the same floating-point operations:
    PIVMIN, the Gershgorin bounds, the dlaebz IJOB = 3 search for WL and WU,
    and its block loop's IJOB = 1 recount at them, with that loop's ITMAX
    for bisecting (WL, WU].  None where that does not hold: n < 2, count = n
    (dstebz then takes every level), a matrix that splits (or comes within a
    factor 2 of splitting), an intermediate that overflows, a search or
    recount that does not end on N(WL) = 0 and N(WU) = count, or Gershgorin
    bounds that would clip (WL, WU].
    """
    n = len(d)
    if n < 2 or count == n:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = e * e
        if np.any(np.abs(d[1:] * d[:-1]) * _ULP**2 + _SAFEMN > 0.5 * e2):
            return None
        s = np.sqrt(e2)  # = |e|, as no e_j^2 under- or overflows here
        gl = float(np.min(d - np.append(0.0, s) - np.append(s, 0.0)))
        gu = float(np.max(d + np.append(0.0, s) + np.append(s, 0.0)))
    pivmin, tnorm = _pivmin(e2), max(abs(gl), abs(gu))
    if not (math.isfinite(pivmin) and math.isfinite(tnorm)):
        return None
    # dstebz("I") widens the bounds by 2 PIVMIN below, its block loop by PIVMIN
    gl, gu = gl - _FUDGE * tnorm * _ULP * n, gu + _FUDGE * tnorm * _ULP * n
    ab = np.array([gl - _FUDGE * 2.0 * pivmin] * 2 + [gu + _FUDGE * pivmin] * 2)  # AB(2, 2)
    nab = np.array([-1, -1, n + 1, n + 1], np.intc)
    nval = np.array([0, count], np.intc)
    laebz = _laebz(d, e, e2, pivmin, ab, nab, ab[1:3].copy(), nval)  # first counts at GL, GU
    laebz(3, _itmax(tnorm, pivmin), 2, 2)
    # dlaebz moves a converged search first, with its NVAL
    low, high = (0, 3) if nval[1] == count else (1, 2)
    wl, wu = float(ab[low]), float(ab[high])
    if not (nab[low] == 0 and nab[high] == count
            and gl - _FUDGE * pivmin <= wl and wu <= gu + _FUDGE * pivmin):
        return None
    ab[[0, 2]] = wl, wu
    laebz(1, 0, 2, 1)
    if (nab[0], nab[2]) != (0, count):
        return None
    return wl, wu, pivmin, _itmax(wu - wl, pivmin)


def _walk(d: np.ndarray, e: np.ndarray, pivmin: float, itmax: int,
          node: tuple[float, float, int, int, int], read: tuple[int, ...] | range,
          pool: Executor | None = None) -> dict[int, float]:
    """Each level in ``read`` to its value, down dstebz("I")'s bisection tree.

    ``node`` is (low, high, N(low), N(high), depth), the root (WL, WU, 0,
    count, 0) or a node below it.  dstebz's dlaebz IJOB = 2 steps every
    unconverged node once an iteration, each on its own ends and counts, so
    an IJOB = 2 call with NITMAX = 1 is one node's step: LAPACK's midpoint,
    count clamp and convergence test.  The walk steps the root once.  Below
    it, a node whose levels are all read runs to convergence in one call,
    with the ITMAX - depth iterations dstebz leaves it; a node holding a
    level read is stepped; any other is dropped.  A level's value is its
    converged node's midpoint, as dstebz gives it, and levels that converge
    in one node share it.  The root's upper child is offered to ``pool``,
    then taken back with ``cancel`` and walked here unless a worker has
    started it.  The pool's queue keeps a cancelled offer until a worker
    reaches it, so taking the offer back also drops its arguments: queued
    behind every solve of a grid, the offers would otherwise hold each
    solve's d and e until the grid's last solve starts.
    """
    e2 = e * e  # per walk: an offered walk that waits in the queue holds only d and e
    rows = max(2, node[3] - node[2])
    ab, nab = np.empty(2 * rows), np.empty(2 * rows, np.intc)
    laebz = _laebz(d, e, e2, pivmin, ab, nab)
    values, nodes, offered, job = {}, [node], None, []
    try:
        while nodes:
            low, high, below, upto, depth = nodes.pop()
            held = [i for i in read if below < i <= upto]
            whole = depth > 0 and len(held) == upto - below
            m = upto - below if whole else 2  # MMAX: row 1 the node, row 2 a split's upper part
            ab[0], ab[m], nab[0], nab[m] = low, high, below, upto
            mout, info = laebz(2, itmax - depth if whole else 1, m, 1)
            if whole and info != 0:
                raise NonConvergenceError("LAPACK dlaebz left a level unconverged")
            for j in range(mout):  # dlaebz moves the converged nodes first
                lo, up = int(nab[j]), int(nab[m + j])
                mine = range(lo + 1, up + 1) if whole else [i for i in held if lo < i <= up]
                if j < mout - info:
                    values.update(dict.fromkeys(mine, 0.5 * (ab[j] + ab[m + j])))
                elif mine:
                    nodes.append((ab[j], ab[m + j], lo, up, depth + 1))
            if depth == 0 and pool is not None and len(nodes) == 2:
                upper = nodes.pop()
                job = [d, e, pivmin, itmax, upper, read]
                offered = pool.submit(lambda: _walk(*job))
    finally:
        taken_back = offered is None or offered.cancel()
        if taken_back:
            job.clear()
    if offered is not None:
        values.update(_walk(d, e, pivmin, itmax, upper, read) if taken_back else offered.result())
    return values


def _lowest_vector(d: np.ndarray, e: np.ndarray, w: np.ndarray, iblock: np.ndarray,
                   isplit: np.ndarray) -> np.ndarray:
    """dstein's vector of the last value of ``w``, in the plain l^2 norm.

    dstein draws one random start per value in the order given: the values
    up to the lowest (one unless T splits) give its vector the bits of
    eigh_tridiagonal's column 0.  A vector that is not finite raises
    NonConvergenceError (dstein returns NaN with info = 0 near 2/h^2 = 1e149).
    """
    n, m = len(d), len(w)
    info = ctypes.c_int()
    vecs, ifail = np.empty((n, m), order="F"), np.empty(m, np.intc)
    work, iwork = np.empty(5 * n), np.empty(n, np.intc)
    _dstein(ctypes.c_int(n), _ptr(d), _ptr(e), ctypes.c_int(m), _ptr(w), _ptr(iblock),
            _ptr(isplit), _ptr(vecs), ctypes.c_int(n), _ptr(work), _ptr(iwork), _ptr(ifail),
            info)
    if info.value != 0:
        raise NonConvergenceError(f"LAPACK dstein failed with info = {info.value}")
    v = vecs[:, -1]
    if not np.isfinite(v).all():
        raise NonConvergenceError("LAPACK dstein returned a vector that is not finite")
    return v


def _check_int(value, name: str) -> int:
    """``value`` as an int; TypeError for a bool, a float or anything else not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return int(value)


def eigen_lowest(T: Tridiagonal, count: int, vector: bool = False,
                 pool: Executor | None = None, read: tuple[int, ...] | None = None):
    """Lowest eigenvalues of T by Sturm-sequence bisection, to absolute ``EIGEN_TOL``.

    With ``vector``, also the eigenvector of the lowest one (inverse
    iteration), in the plain l^2 norm.  Returns the ascending eigenvalues,
    or (values, vector) with ``vector``.  ``read``, a tuple of distinct
    1-based levels up to ``count``, returns only those levels' values, in
    its order, and computes only them where it can; with ``vector`` it must
    hold level 1.  Every argument is checked before any LAPACK call: a
    ``count`` or level that is not an integer raises TypeError.

    The values have the bits of one dstebz("I") call, the one scipy's
    eigh_tridiagonal(select="i") makes.  Where ``_root`` finds that call's
    root, ``_walk`` walks its bisection tree to the levels read (all of
    them without ``read``).  Its offer to ``pool`` means a job waits only
    on a subtree that is running, whatever the pool's size, and the pool
    starts no thread beyond its own.  With ``vector``, dstein runs on level
    1's walked value alone: a level 1 that converges in one node with level
    2 shares that node's midpoint, the value dstebz gives both, and the
    vector keeps the bits of the full call's (Wilkinson's -W21+ is such a
    tie).  Elsewhere the one dstebz("I") call runs and ``read`` picks its
    levels.
    """
    n = T.dimension
    count = _check_int(count, "count")
    if not 1 <= count <= n:
        raise ValueError("count must lie between 1 and the dimension")
    if read is not None:
        if not isinstance(read, tuple):
            raise TypeError(f"read must be a tuple of levels, got {read!r}")
        read = tuple(_check_int(i, "a read level") for i in read)
        if not read or len(set(read)) != len(read) or not all(1 <= i <= count for i in read):
            raise ValueError(f"read must hold distinct levels in 1..{count}, got {read!r}")
        if vector and 1 not in read:
            raise ValueError(f"the vector is level 1's, and read {read!r} does not hold it")
    d, e = T.diagonal, T.offdiagonal
    levels = range(1, count + 1) if read is None else read
    root = _root(d, e, count)
    if root is not None:
        wl, wu, pivmin, itmax = root
        walked = _walk(d, e, pivmin, itmax, (wl, wu, 0, count, 0), levels, pool)
        w = np.array([walked[i] for i in levels])
        if not vector:
            return w
        lowest = np.array([walked[1]])  # one value in one block
        return w, _lowest_vector(d, e, lowest, np.ones(1, np.intc), np.array([n], np.intc))
    # values in matrix order, or in block order for dstein and sorted afterwards
    w, iblock, isplit = _stebz(d, e, b"B" if vector else b"E", count)
    v = None
    if vector:
        order = np.argsort(w)
        v = _lowest_vector(d, e, w[: int(order[0]) + 1], iblock, isplit)
        w = w[order]
    if read is not None:
        w = w[np.array(read) - 1]
    return w if v is None else (w, v)


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
    # AB's rows are the shift pairs, an odd last shift filling its row; NAB gets their counts
    ab = np.asfortranarray(np.reshape(shifts + shifts[-1:] * (len(shifts) % 2), (-1, 2)))
    nab = np.empty_like(ab, dtype=np.intc)
    _laebz(T.diagonal, T.offdiagonal, e2, _pivmin(e2), ab, nab)(1, 0, len(ab), len(ab))
    return nab.ravel()[: len(shifts)].tolist()


def convergence_order(mode: ModeSpec, grid: Grid, flat_potential: float | None = None) -> float:
    """Observed discretization order of the lowest eigenvalue on ``grid`` and its halving.

    Richardson-style estimate log2(|mu_h - mu_ref| / |mu_h/2 - mu_ref|)
    against a reference at spacing h/8; the finer grids are nested refinements of ``grid``.
    ``flat_potential`` is passed on to ``assemble_hamiltonian``.
    """

    def mu(g: Grid) -> float:
        return float(eigen_lowest(assemble_hamiltonian(mode, g, flat_potential), 1)[0])

    half = grid.halved()
    mu_ref = mu(half.halved().halved())
    return math.log2(abs(mu(grid) - mu_ref) / abs(mu(half) - mu_ref))
