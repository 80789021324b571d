"""Spectral sweeps over the pinching parameter, window counts, masses, and resolvent traces."""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from cusplab.dirac_lab.geometry import WALL_PHI, Chirality, ModeSpec, NeckGeometry, phi
from cusplab.dirac_lab.solver import (
    MIN_POINTS,
    Grid,
    assemble_hamiltonian,
    eigen_lowest,
    sturm_counts,
)
from cusplab.refusal import RunRefusedError

COLLISION_TOL = 1e-9  # an eigenvalue this close to a resolvent point is a collision

# Largest work estimate ``check_grids`` accepts: over the t grid, the sum of
# solves * levels * n for the first step at each t.  The criterion-12
# dataset (25 t, 11 modes, 40 levels, n = 3999) is 4.4e7, so this is about
# 23 times that; k_max = 100000 is 3.2e9 per t.
MAX_WORK = 10**9

# Finest grid spacing the solver resolves.  LAPACK's dstebz multiplies
# neighbouring diagonal entries, about 2 / h^2 each; below this h the product
# overflows, dstebz splits the matrix into 1 x 1 blocks and returns its
# diagonal as the eigenvalues.  Squaring the off-diagonal -1 / h^2 overflows
# at a spacing sqrt(2) finer, where dstebz fails outright.
MIN_SPACING = (4.0 / sys.float_info.max) ** 0.25

# Largest double whose square is finite, which bounds how thin a neck may be.
# The assembly squares cosh(rho) in V' = -q sinh(rho) / (t cosh(rho)^2), up to
# (phi_wall / t)^2 ~ (2 / t)^2 at the walls, and V = q / phi in V^2, up to
# (q / t)^2 at the waist, q = k + 1/2.  Past this base either square
# overflows: V' reads -0 near the walls, or V^2 is inf.
SQRT_MAX = math.sqrt(sys.float_info.max)


class SpectralCollisionError(ValueError):
    """A resolvent point fell on (or numerically too close to) an eigenvalue."""

    def __init__(self, mu: float, lam: float) -> None:
        self.mu = mu
        self.lam = lam
        super().__init__(f"eigenvalue {mu!r} collides with resolvent point {lam!r}")


class ResolventAboveLevelsError(ValueError):
    """A resolvent point not below the highest computed level of a mode.

    The tail model continues each mode's spectrum above its computed levels,
    so a point up there lies among the model's poles and the trace would be
    meaningless; more levels are needed.
    """

    def __init__(self, k: int, lam: float, top: float) -> None:
        self.k = k
        self.lam = lam
        self.top = top
        super().__init__(f"resolvent point {lam!r} is not below {top!r}, "
                         f"the highest computed level of mode {k}")


@dataclass(frozen=True)
class SpectrumParams:
    """Parameters of a spectral computation.

    ``k_max`` bounds the mode index (modes k and -k-1 form a degenerate
    pair, so only k = 0..k_max are solved), ``levels`` is the eigenvalue
    count per mode, ``h``/``n`` fix the grid (default spacing length/4000),
    and ``rho_margin_factor`` controls the t = 0 cusp truncation depth.
    ``k_max``, ``levels`` and ``n`` must be ``int``s: a float or a bool
    raises ``TypeError``.
    Callers rely on the checks here and repeat none of them.
    """

    k_max: int = 2
    levels: int = 8
    h: float | None = None
    n: int | None = None
    rho_margin_factor: float = 50.0

    def __post_init__(self) -> None:
        for name in ("k_max", "levels", "n"):
            value = getattr(self, name)
            if value is None and name == "n":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.k_max < 0 or self.levels < 1:
            raise ValueError("need k_max >= 0 and levels >= 1")
        if self.h is not None and not 0.0 < self.h < math.inf:  # nan fails too
            raise ValueError(f"h must be finite and positive, got {self.h!r}")
        if self.n is not None and self.n < MIN_POINTS:
            raise ValueError(f"n must be at least {MIN_POINTS}, got {self.n!r}")
        if self.n is not None and self.h is not None:
            raise ValueError("give n or h, not both")
        if not 50.0 <= self.rho_margin_factor < math.inf:
            raise ValueError(f"rho_margin_factor must be finite and at least 50, "
                             f"got {self.rho_margin_factor!r}")


@dataclass(frozen=True)
class SpectrumRow:
    """One eigenvalue: pinching parameter t, mode k, level j (1-based)."""

    t: float
    k: int
    j: int
    mu: float
    lam: float


@dataclass(frozen=True)
class VectorHandle:
    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Eigenvalues per pinching parameter t.

    ``mu`` maps each t, kept in descending order, to a (k_max + 1, levels)
    array whose row k holds the ascending eigenvalues of mode pair k.  The
    table holds no eigenvector; ``ground_states`` solves the ground state.
    """

    mu: Mapping[float, np.ndarray]

    def __post_init__(self) -> None:
        for m in self.mu.values():
            m.setflags(write=False)
        object.__setattr__(self, "mu", dict(sorted(self.mu.items(), key=lambda kv: -kv[0])))

    @property
    def rows(self) -> tuple[SpectrumRow, ...]:
        """Every eigenvalue as a row, sorted by (-t, lam, k, j)."""
        return tuple(r for t in self.mu for r in self.rows_at(t))

    def rows_at(self, t: float) -> list[SpectrumRow]:
        """The rows at t sorted by (lam, k, j); KeyError if the table lacks t."""
        rows = [SpectrumRow(t=t, k=k, j=j, mu=m, lam=math.sqrt(max(m, 0.0)))
                for k, levels in enumerate(self.mu[t].tolist())
                for j, m in enumerate(levels, start=1)]
        return sorted(rows, key=lambda r: (r.lam, r.k, r.j))

    def eigen_count(self, a: float, b: float, t: float) -> int:
        """The table's rows with lam in (a, b) at parameter t, pair multiplicity 2.

        Only the computed rows count (k <= k_max, j <= levels), so a window
        reaching above a mode's top computed level or into an omitted mode
        is undercounted; ``window_counts`` counts every mode exactly.
        """
        return 2 * sum(1 for r in self.rows_at(t) if a < r.lam < b)

    def lowest(self, t: float) -> SpectrumRow:
        return self.rows_at(t)[0]


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chiralities(t: float) -> tuple[Chirality, ...]:
    """The chiralities solved per mode: plus at t > 0, both at t = 0.

    At t = 0 the pair's spectrum is their union on the right cusp, so each
    step of the cusp-depth search costs twice the solves of a neck.
    """
    return (Chirality.PLUS, Chirality.MINUS) if t == 0 else (Chirality.PLUS,)


def _modes(t: float, params: SpectrumParams, ground: bool = False) -> int:
    """How many modes t solves: mode 0 alone at a neck in a ground-state run, else k <= k_max."""
    return 1 if ground and t > 0 else params.k_max + 1


def _queue_modes(pool: ThreadPoolExecutor, geom: NeckGeometry, grid: Grid,
                 params: SpectrumParams, ground: bool = False):
    """Queue ``_modes``'s solves on ``grid``: one list of futures per k, one per chirality.

    Each solve gives (eigenvalues, vector): mode 0's lowest vector in a
    ground-state run (``ground``), else None.
    """

    def solve(mode: ModeSpec):
        H = assemble_hamiltonian(geom, mode, grid)
        if ground and mode.k == 0:
            return eigen_lowest(H, params.levels, vector=True, h=grid.h)
        return eigen_lowest(H, params.levels), None

    return grid, [[pool.submit(solve, ModeSpec(k, chi)) for chi in _chiralities(geom.t)]
                  for k in range(_modes(geom.t, params, ground))]


def _collect_modes(params: SpectrumParams, queued):
    """Wait for a geometry's queued solves and merge each mode's chiralities.

    Returns the lowest ``levels`` eigenvalues of each queued mode as a
    (modes, levels) array, mode 0's ground state (None unless the solves
    were queued for a ground-state run), and the largest eigenvalue any one
    solve returned.  The ground state is the vector of the chirality whose
    first level is lower, plus on a tie.
    """
    grid, modes = queued
    mu, mu_max = np.empty((len(modes), params.levels)), 0.0
    for k, jobs in enumerate(modes):
        parts = [job.result() for job in jobs]
        if k == 0:
            vector = min(parts, key=lambda part: part[0][0])[1]
            ground = None if vector is None else VectorHandle(grid, vector)
        mu_k = np.concatenate([w for w, _ in parts])
        mu[k], mu_max = np.sort(mu_k, kind="stable")[: params.levels], max(mu_max, mu_k.max())
    return mu, ground, float(mu_max)


def _cusp_depth(params: SpectrumParams, mu_max: float) -> float:
    """The rho_min at which V of mode k = 0 reaches margin * sqrt(mu_max)."""
    return -math.log(params.rho_margin_factor * math.sqrt(mu_max) / 0.5)


def _check_squares(geom: NeckGeometry, grid: Grid, params: SpectrumParams,
                   top: float | None = None, error: type[Exception] = RunRefusedError) -> None:
    """Raise ``error`` where the assembly on ``grid`` would square a number above ``SQRT_MAX``.

    For the highest mode k, ``k_max`` for a solve (``top`` None) and the last below
    ``_mode_bound`` for a count, a neck squares cosh(rho) ~ 2 / t at its walls (tested first:
    below it the mode bound may overflow) and V = (k + 1/2) / t at its waist; the cusp squares
    V = -V' = (k + 1/2) e^-rho at its deepest grid point, rho = rho_min + h.
    """
    t, q = geom.t, math.inf  # q stays inf past the wall test, which refuses the neck
    if not (t > 0 and WALL_PHI / t > SQRT_MAX):
        try:
            q = params.k_max + 0.5 if top is None else _mode_bound(geom, top) - 0.5
        except OverflowError:  # a k_max beyond the float range
            pass
    if t > 0 and q / t > SQRT_MAX:
        raise error(f"the neck at t = {t!r} is too thin: max(2, k + 1/2) / t exceeds "
                    f"{SQRT_MAX!r} for the highest mode k it assembles, so cosh(rho)^2 or "
                    f"((k + 1/2) / t)^2 overflows")
    if t == 0 and q > SQRT_MAX * math.exp(grid.rho_min + grid.h):
        raise error(f"the cusp at t = {t!r} with rho_min = {geom.rho_min!r} is too deep for the "
                    f"highest mode k it assembles: (k + 1/2) e^-rho exceeds {SQRT_MAX!r}, so V^2 "
                    f"overflows")


def _grids(t_grid: Sequence[float], params: SpectrumParams,
           top: float | None = None) -> dict[float, tuple[NeckGeometry, Grid]]:
    """Each t's geometry and grid before any work: a solve's, or a count's up to ``top``.

    Keyed by t in descending order, -0.0 as 0.0: every check and solve reads
    its t from here, so every entry point refuses a faulty grid at one t.
    The geometry is the neck at t > 0; at t = 0 the cusp the depth search
    accepts for a largest eigenvalue max(200, ``top``): a solve's (``top``
    None) first depth, or the one a count's top window end needs.  Raises
    RunRefusedError unless the t are nonempty, finite, >= 0 and distinct,
    where a t or ``h`` gives a grid too large to count or a spacing below
    ``MIN_SPACING``, and where ``_check_squares`` refuses the geometry.
    """
    ts = sorted(t_grid, reverse=True)
    if not ts:
        raise RunRefusedError("need at least one pinching parameter t")
    grids = {}
    for t in ts:
        if not 0.0 <= t < math.inf:  # nan fails this too
            raise RunRefusedError(f"pinching parameter t must be finite and >= 0, got {t!r}")
        try:
            geom = (NeckGeometry.neck(t) if t > 0
                    else NeckGeometry.cusp(_cusp_depth(params, max(200.0, top or 0.0))))
            grid = Grid.for_geometry(geom, n=params.n, h=params.h)
        except (ArithmeticError, ValueError) as exc:  # sinh(t / 2) or length / h overflows
            raise RunRefusedError(f"no grid can be counted at t = {t!r}: {exc}") from exc
        if not grid.h >= MIN_SPACING:
            raise RunRefusedError(f"the grid spacing {grid.h!r} at t = {t!r} is below "
                                  f"{MIN_SPACING!r}, where the solver's (2 / h^2)^2 overflows")
        _check_squares(geom, grid, params, top)
        grids[t + 0.0] = (geom, grid)  # -0.0 + 0.0 is 0.0: the split neck has one key
    if len(grids) != len(ts):
        raise RunRefusedError(f"pinching parameters must be distinct, got {ts!r}")
    return grids


def check_grids(t_grid: Sequence[float], params: SpectrumParams) -> dict[float, tuple[int, Grid]]:
    """Each t of ``_grids`` to the solves of its first step and its grid, before any solve.

    Raises RunRefusedError where ``_grids`` refuses the t (a spacing below
    ``MIN_SPACING`` is every t above 340.3827 at the default spacing), where
    ``levels`` exceeds a grid's points, and where the work estimate exceeds
    ``MAX_WORK``.  The cusp-depth search only deepens the cusp, which keeps
    ``n`` or, at a fixed ``h``, adds points, so its first depth bounds every
    later one.
    """
    plan = {}
    for t, (_, grid) in _grids(t_grid, params).items():
        if params.levels > grid.n:
            raise RunRefusedError(f"levels = {params.levels} exceeds the {grid.n} grid points "
                                  f"at t = {t!r}")
        plan[t] = (_modes(t, params) * len(_chiralities(t)), grid)
    work = params.levels * sum(solves * grid.n for solves, grid in plan.values())
    if work > MAX_WORK:
        raise RunRefusedError(f"work estimate {work} (the sum over t_grid of solves * levels * "
                              f"grid points, with k_max + 1 solves at t > 0 and twice that "
                              f"at t = 0) exceeds {MAX_WORK}")
    return plan


def _window(t: float, rho: np.ndarray, w: float) -> np.ndarray:
    """The grid points inside |x| <= w.

    For t > 0 the window maps to |rho| <= asinh(w / t); at t = 0 the profile
    itself is |x|, so the window is phi(rho) <= w.
    """
    if t > 0:
        return np.abs(rho) <= math.asinh(w / t)
    return np.exp(rho) <= w  # the right cusp: |x| = e^rho


def check_windows(t_grid: Sequence[float], params: SpectrumParams,
                  widths: Sequence[float]) -> dict[float, tuple[int, Grid]]:
    """Each t of ``_grids`` to the solves of ``ground_states``'s first step there, and its grid.

    That is ``_modes``'s for a ground-state run, on ``check_grids``'s grids,
    before any solve.  Raises RunRefusedError where ``check_grids`` refuses
    the run, with the full ``k_max``, where a width w is not positive, or
    where a window |x| <= w holds no point of a t > 0 grid.  At t = 0 the
    cusp search fixes the grid's depth by solving, so ``neck_mass`` checks.
    """
    plan = {t: (_modes(t, params, ground=True) * len(_chiralities(t)), grid)
            for t, (_, grid) in check_grids(t_grid, params).items()}
    for w in widths:
        if not w > 0:
            raise RunRefusedError(f"window |x| <= {w!r} needs a width w > 0")
    for t, (_, grid) in plan.items():
        for w in widths:
            if t > 0 and not np.any(_window(t, grid.rho_values, w)):
                raise RunRefusedError(f"window |x| <= {w!r} contains no grid points at t = {t!r}")
    return plan


def _cusp_geometry(params: SpectrumParams, pool: ThreadPoolExecutor, ground: bool = False):
    """Truncated cusp deep enough that V(rho_min) >= margin * sqrt(mu_max).

    V is that of the most permissive mode (k = 0, smallest V) and mu_max is
    the top of the ``levels`` solved for every mode and chirality; the
    domain is deepened until the requirement holds, and deepening only
    lowers eigenvalues, so the loop terminates.  The first depth and grid
    are ``_grids``'s, and only a deeper step builds a grid, which
    ``_check_squares`` must admit.  Each depth's solves go to ``pool``; the
    loop runs on the calling thread, so no worker waits on another.  Returns
    the geometry with the eigenvalues and, for a ground-state run
    (``ground``), the ground state of its last depth (else None).
    """
    [(geom, grid)] = _grids([0.0], params).values()
    for _ in range(8):
        mu, state, mu_max = _collect_modes(params, _queue_modes(pool, geom, grid, params, ground))
        needed = _cusp_depth(params, mu_max)
        if geom.rho_min <= needed:
            return geom, mu, state
        geom = NeckGeometry.cusp(needed - 0.5)
        grid = Grid.for_geometry(geom, n=params.n, h=params.h)
        _check_squares(geom, grid, params, error=RuntimeError)
    raise RuntimeError("cusp truncation depth did not stabilize")


def _solve_grid(t: float | Sequence[float], params: SpectrumParams,
                ground: bool) -> dict[float, tuple[np.ndarray, VectorHandle | None]]:
    """Each t's (eigenvalues, ground state) from ``_collect_modes``, every solve on one pool.

    ``t`` is one t or many, keyed as ``check_grids`` keys them.  That refuses
    the t and ``params`` before any solve, and each neck is solved on the
    grid it planned, in a ground-state run (``ground``) or a full one.  The
    pool has one thread per CPU and starts one only when a job finds none
    idle, so never more threads than jobs.
    """
    plan = check_grids([t] if np.ndim(t) == 0 else t, params)
    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        try:
            queued = {s: _queue_modes(pool, NeckGeometry.neck(s), grid, params, ground)
                      for s, (_, grid) in plan.items() if s > 0}
            # the necks are collected first, in the order they were queued,
            # so a failed solve reaches the caller before the rest have run
            slabs = {s: _collect_modes(params, q)[:2] for s, q in queued.items()}
            if 0.0 in plan:  # the last key, so the slabs keep the plan's order
                slabs[0.0] = _cusp_geometry(params, pool, ground)[1:]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # fail now, not after the rest of the grid
            raise
    return slabs


def dirac_spectrum(t: float | Sequence[float], params: SpectrumParams) -> SpectrumTable:
    """Squared-Dirac eigenvalues at one t or at each of distinct t >= 0, with no eigenvector.

    One row per (t, mode pair, level).  Modes k and -k-1 form a degenerate
    pair (parity on the symmetric neck for t > 0, where the plus operator
    suffices; at t = 0 the left cusp mirrors the right one, so the pair's
    spectrum is the union of the plus and minus spectra on the right cusp),
    so each row carries multiplicity 2 wherever counts or traces are formed.
    Every solve of every t runs on one pool of at most one thread per CPU;
    ``check_grids`` refuses the t, in descending order, and parameters before any solve.
    """
    return SpectrumTable({s: mu for s, (mu, _) in _solve_grid(t, params, False).items()})


def ground_states(t: float | Sequence[float], params: SpectrumParams) -> dict[float, VectorHandle]:
    """Mode 0's ground state at one t or at each of distinct t >= 0, keyed by descending t.

    H_k <= H_{k+1} pointwise (see ``window_counts``), so mode 0's first level
    is the lowest of all, the row ``SpectrumTable.lowest`` returns, and at
    each t > 0 only mode 0 is solved, to ``params.levels`` as
    ``dirac_spectrum`` solves it.  At t = 0 the cusp-depth search solves
    every mode and both chiralities, since its depth reads the top of them
    all, and the vector is mode 0's at the last depth.  Each depth step
    computes mode 0's two vectors, one per chirality, and only the last
    step's are read; every config tried takes one step.  ``check_grids``
    refuses the t, in descending order, and parameters with the full
    ``k_max``, an upper bound on this work; every solve runs on one pool.
    """
    return {s: ground for s, (_, ground) in _solve_grid(t, params, True).items()}


def _window_shifts(windows) -> list[tuple[float | None, float | None]]:
    """Each lam-window (a, b) as the mu-shifts (low, high) of its count.

    The window holds the eigenvalues mu with lam = sqrt(max(mu, 0)) in (a, b),
    as ``SpectrumTable.eigen_count`` counts them: those with low < mu <= high,
    where low is a^2 for a >= 0 (so a = 0 counts mu > 0) and absent for
    a < 0 (every mu, negative ones included, has lam > a), and high is b^2,
    absent for b <= 0 (an empty window).  The top end is closed because a
    Sturm count at a shift counts the eigenvalues at or below it; it differs
    from lam < b only for an eigenvalue equal to b^2 in floating point.
    """
    shifts = []
    for a, b in windows:
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise RunRefusedError(f"window ({a!r}, {b!r}) must be finite with a < b")
        if not math.isfinite(b * b):
            raise RunRefusedError(f"window ({a!r}, {b!r}): b^2 overflows")
        shifts.append((a * a if a >= 0 else None, b * b if b > 0 else None))
    return shifts


def _mode_bound(geom: NeckGeometry, top: float) -> int:
    """The first mode k from which no eigenvalue of H_k lies at or below ``top``.

    With q = k + 1/2, w = V^2 +- V' = (q^2 -+ q phi') / phi^2 >= (q^2 - 2q) / phi_wall^2
    for q >= 2, since |phi'| <= 2 and phi <= phi_wall on these geometries; that
    bound reaches ``top`` once q >= 1 + sqrt(1 + top * phi_wall^2), and every
    eigenvalue exceeds min w (Gershgorin, strictly for an irreducible matrix).
    """
    phi_wall = phi(geom, geom.rho_max)
    return math.ceil(0.5 + math.hypot(1.0, math.sqrt(top) * phi_wall))  # no overflow in top


@dataclass(frozen=True)
class WindowCounts:
    """Exact window counts per t, and the work they took.

    ``counts`` maps each t, in descending order, to one count per window,
    with pair multiplicity 2 as in ``SpectrumTable.eigen_count``; ``modes``
    maps it to the number of modes k whose Hamiltonians were factorised, and
    ``factorisations`` is the number of LDL^T factorisations over all t.
    """

    counts: Mapping[float, tuple[int, ...]]
    modes: Mapping[float, int]
    factorisations: int


def window_counts(t_grid: Sequence[float], params: SpectrumParams,
                  windows: Sequence[tuple[float, float]]) -> WindowCounts:
    """Exact counts of eigenvalues with lam in each window (a, b) at each t of ``_grids``, no solve.

    Each count is the Sturm inertia of H_k - mu for the window's mu-ends (see
    ``_window_shifts``), summed over the modes k and, at t = 0, both
    chiralities on one cusp of the depth ``_grids`` plans for the top end.
    The potential w = V^2 +- V' grows pointwise in k (w_{k+1} - w_k =
    (2k + 2 -+ phi') / phi^2 and |phi'| <= 2), so H_k <= H_{k+1} and every
    eigenvalue grows with k: the modes are visited from k = 0 until one has
    no eigenvalue at or below the top window end b^2, which ends the count.
    Before any factorisation, RunRefusedError is raised where a window is not
    finite with a < b, where ``_grids`` refuses the t, and where the work
    estimate, the sum over t of ``_mode_bound`` * chiralities * grid points *
    distinct window ends, exceeds ``MAX_WORK``.  So the counts depend on
    neither ``k_max`` nor ``levels``.
    """
    pairs = _window_shifts(windows)
    shifts = sorted({s for pair in pairs for s in pair if s is not None})
    top = shifts[-1] if shifts else 0.0
    grids = _grids(t_grid, params, top)
    bounds = {t: _mode_bound(geom, top) if shifts else 0 for t, (geom, _) in grids.items()}
    work = len(shifts) * sum(bounds[t] * len(_chiralities(t)) * grid.n
                             for t, (_, grid) in grids.items())
    if work > MAX_WORK:
        raise RunRefusedError(f"work estimate {work} (the sum over t_grid of modes * "
                              f"chiralities * grid points * distinct window ends, with the modes "
                              f"that can reach the window top {math.sqrt(top)!r}) exceeds "
                              f"{MAX_WORK}")
    counts, modes, factorisations = {}, {}, 0
    for t, (geom, grid) in grids.items():
        below = dict.fromkeys(shifts, 0)  # eigenvalues at or below each shift, over modes
        visited = 0
        for k in range(bounds[t]):
            hams = [assemble_hamiltonian(geom, ModeSpec(k, chi), grid) for chi in _chiralities(t)]
            before = below[shifts[-1]]
            for H in hams:
                for s, c in zip(shifts, sturm_counts(H, shifts)):
                    below[s] += c
            visited += 1
            factorisations += len(hams) * len(shifts)
            if below[shifts[-1]] == before:
                break  # no eigenvalue of mode k reaches the top, so none of a later mode does
        counts[t] = tuple(2 * (below[high] - (below[low] if low is not None else 0))
                          if high is not None else 0 for low, high in pairs)
        modes[t] = visited
    return WindowCounts(counts, modes, factorisations)


def neck_mass(t: float, vector: "VectorHandle", w: float) -> float:
    """Fraction of discrete L^2 mass of an eigenvector inside |x| <= w."""
    if not w > 0:  # nan fails this too
        raise ValueError("window width must be positive")
    inside = _window(t, vector.grid.rho_values, w)
    if not np.any(inside):
        raise ValueError("window contains no grid points")
    dens = vector.values**2
    return float(np.sum(dens[inside]) / np.sum(dens))


@dataclass(frozen=True)
class TraceValue:
    """A relative-resolvent trace: level-truncated sum plus a tail estimate."""

    value: float
    bare_sum: float
    tail_estimate: float


def _inverse_square_tail(n: int, q: float) -> float:
    """Sum of 1/(j^2 + q) over j >= n in closed form; no j^2 + q may be 0.

    With a^2 = q the sum is (psi(n + ia) - psi(n - ia)) / (2ia) (DLMF 5.7).
    The terms j < w are added directly (the recurrence 5.5.2), which puts
    both digamma arguments at least 16 from the origin; the rest is the
    asymptotic series 5.11.2, each term's difference quotient written as a
    real function of q, so a^2 <= 0 needs no complex root and no division by a.
    Its powers (w + ia)^(-2m) come from repeated products with 1/(w + ia)^2,
    whose parts shrink as q grows, so no power overflows at any finite q;
    q = inf gives 0.0, the limit.
    """
    if q == math.inf:
        return 0.0
    w = max(n, 16 + math.ceil(math.sqrt(max(-q, 0.0))))
    x = math.sqrt(abs(q)) / w
    log_term = math.atan(x) / x if q > 0 else math.atanh(x) / x if q < 0 else 1.0
    r2 = w * w + q
    total = float(np.sum(1.0 / (np.arange(n, w) ** 2 + q))) + log_term / w + 0.5 / r2
    u, v = (w / r2) ** 2 - q / r2 / r2, -2.0 * w / r2 / r2  # 1/(w + ia)^2 = u + ia * v
    re, im = 1.0, 0.0  # (w + ia)^(-2m) = re + ia * im
    for c in (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132):  # B_2m / 2m
        re, im = re * u - q * im * v, re * v + im * u
        total -= c * im
    return total


def _mode_tail(mu: np.ndarray, lam: float, lam0: float) -> float:
    """Sum over the levels j > J beyond the computed ones for one mode.

    The top of the computed spectrum fixes a Weyl-type model
    mu_j ~ A j^2 + c through the largest two eigenvalues; the tail is the
    exact sum of 1/(mu_j - lam) - 1/(mu_j - lam0) over that model.  ``mu``
    holds at least two levels.  The model is formed in Python floats, so a
    lam near -DBL_MAX makes (c - lam) / A overflow to inf, whose tail is 0.
    """
    J = len(mu)
    top, below = float(mu[-1]), float(mu[-2])
    A = (top - below) / (2 * J - 1)
    if A <= 0:
        return 0.0
    c = top - A * J**2
    return (_inverse_square_tail(J + 1, (c - lam) / A)
            - _inverse_square_tail(J + 1, (c - lam0) / A)) / A


def check_trace(lam: float, lam0: float, levels: int) -> None:
    """Refuse a trace before any solve unless lam and lam0 are finite and levels >= 2.

    Two levels are the fewest the tail model is fitted through.  Both
    ``relative_resolvent_trace`` and the ``trace`` command call this.
    """
    if not (math.isfinite(lam) and math.isfinite(lam0)):
        raise RunRefusedError(f"the resolvent points must be finite, got {lam!r} and {lam0!r}")
    if levels < 2:
        raise RunRefusedError(f"the trace's tail model needs levels >= 2, got {levels}")


def relative_resolvent_trace(
    t: float,
    lam: float,
    lam0: float,
    params: SpectrumParams,
    table: SpectrumTable | None = None,
) -> TraceValue:
    """Trace of the resolvent difference at spectral points lam, lam0.

    Sums 1/(mu - lam) - 1/(mu - lam0) over the table rows with the pair
    multiplicity 2 and adds the per-mode tail of the Weyl model anchored at
    the largest computed eigenvalues.  ``check_trace`` refuses the points
    and the levels, the given ``table``'s at t, else ``params.levels``,
    before the spectrum at t is solved with ``params``.  Both points must
    lie below every mode's highest computed level
    (``ResolventAboveLevelsError``), and a trace that is not finite raises
    RuntimeError instead of being returned.
    """
    if table is not None and t not in table.mu:
        raise ValueError(f"table has no rows at t = {t}")
    check_trace(lam, lam0, params.levels if table is None else table.mu[t].shape[1])
    if table is None:
        table = dirac_spectrum(t, params)
    for k, mu in enumerate(table.mu[t]):
        for point in (lam, lam0):
            if not point < mu[-1]:
                raise ResolventAboveLevelsError(k, point, float(mu[-1]))
    if lam == lam0:
        return TraceValue(0.0, 0.0, 0.0)
    for r in table.rows_at(t):
        if min(abs(r.mu - lam), abs(r.mu - lam0)) < COLLISION_TOL:
            raise SpectralCollisionError(r.mu, lam if abs(r.mu - lam) < abs(r.mu - lam0) else lam0)
    bare = tail = 0.0
    for mu in table.mu[t]:
        bare += 2.0 * float(np.sum(1.0 / (mu - lam) - 1.0 / (mu - lam0)))
        tail += 2.0 * _mode_tail(mu, lam, lam0)
    if not math.isfinite(bare + tail):
        raise RuntimeError(f"the trace at t = {t!r} is not finite: {bare!r} + {tail!r}")
    return TraceValue(bare + tail, bare, tail)
