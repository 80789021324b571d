"""Spectral sweeps over the pinching parameter, window counts, masses, and resolvent traces."""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from cusplab.dirac_lab.geometry import (WALL_PHI, Chirality, ModeSpec, NeckGeometry, phi,
                                        read_only_copy)
from cusplab.dirac_lab.solver import Grid, assemble_hamiltonian, eigen_lowest, sturm_counts
from cusplab.refusal import RunRefusedError

COLLISION_TOL = 1e-9  # an eigenvalue this close to a resolvent point is a collision

# Largest share of a trace's bare sum that its rounding bound may reach
# (``relative_resolvent_trace``); above it the sum has cancelled.
CANCELLATION_TOL = 1e-8

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
    count per mode, ``h`` is the grid spacing, the one spacing option
    (default length/4000, which is 3999 points at every t), and
    ``rho_margin_factor`` controls the t = 0 cusp truncation depth.
    ``k_max`` and ``levels`` must be ``int``s: a float or a bool raises
    ``TypeError``.  A run with exactly n points at one t passes
    h = length / (n + 1), which ``Grid.for_geometry`` turns back into n.
    Callers rely on the checks here and repeat none of them.
    """

    k_max: int = 2
    levels: int = 8
    h: float | None = None
    rho_margin_factor: float = 50.0

    def __post_init__(self) -> None:
        for name in ("k_max", "levels"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.k_max < 0 or self.levels < 1:
            raise ValueError("need k_max >= 0 and levels >= 1")
        if self.h is not None and not 0.0 < self.h < math.inf:  # nan fails too
            raise ValueError(f"h must be finite and positive, got {self.h!r}")
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
    """An eigenvector's values at the points of ``grid``, L^2(d rho)-normalised there.

    The grid carries its geometry, so the handle knows its t and, at t = 0,
    the cusp depth the search accepted.  The values are a read-only copy,
    so the caller's array stays its own.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", read_only_copy(self.values))


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Eigenvalues per pinching parameter t.

    ``mu`` maps each t, kept in descending order, to a (k_max + 1, levels)
    array whose row k holds the ascending eigenvalues of mode pair k, a
    read-only copy of the caller's.  The table holds no eigenvector;
    ``ground_states`` solves the ground state.
    """

    mu: Mapping[float, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", {t: read_only_copy(m) for t, m in
                                        sorted(self.mu.items(), key=lambda kv: -kv[0])})

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
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _chiralities(t: float) -> tuple[Chirality, ...]:
    """The chiralities solved per mode: plus at t > 0, both at t = 0.

    At t = 0 the pair's spectrum is their union on the right cusp, so each
    step of the cusp-depth search costs twice the solves of a neck.
    """
    return (Chirality.PLUS, Chirality.MINUS) if t == 0 else (Chirality.PLUS,)


def _modes(t: float, params: SpectrumParams, ground: bool) -> Sequence[int]:
    """The modes k a run solves at t, in ascending order, mode 0 first.

    A full run solves every k <= ``k_max``.  A ground-state run (``ground``)
    reads mode 0's level 1 and vector, and at t = 0 also the top level that
    sets the cusp's depth.  H_k <= H_{k+1} pointwise in each chirality (see
    ``window_counts``), so that top level is mode ``k_max``'s: the run
    solves mode 0 alone at a neck, and modes 0 and ``k_max`` (one mode when
    ``k_max`` = 0) at the cusp.  ``_queue_modes`` solves these modes and
    ``_plan`` counts them.
    """
    if not ground:
        return range(params.k_max + 1)
    return (0,) if t > 0 else tuple(dict.fromkeys((0, params.k_max)))


def _queue_modes(pool: ThreadPoolExecutor, grid: Grid, params: SpectrumParams, ground: bool):
    """Queue ``_modes``'s solves on ``grid``: one list of futures per mode, one per chirality.

    Each solve gives (eigenvalues, vector).  A full run solves the lowest
    ``levels`` of each mode, with no vector.  A ground-state run
    (``ground``) reads only the levels it uses (``eigen_lowest``'s
    ``read``), with the bits of the full solve: mode 0's level 1 and its
    vector, and at the cusp mode ``k_max``'s top level, which the depth
    search reads; with ``k_max`` = 0 that is mode 0's own top level, read
    beside its level 1.  Each solve offers the upper subtree of its
    bisection back to ``pool`` (see ``eigen_lowest``).
    """
    top, t = params.levels, grid.geometry.t

    def solve(mode: ModeSpec):
        H = assemble_hamiltonian(mode, grid)
        if not ground:
            return eigen_lowest(H, top, pool=pool), None
        if mode.k == 0:
            read = (1,) if t > 0 or params.k_max > 0 else tuple(dict.fromkeys((1, top)))
            w, v = eigen_lowest(H, top, vector=True, pool=pool, read=read)
            return w, v / np.sqrt(grid.h * np.sum(v**2))  # in the discrete L^2(d rho) norm
        return eigen_lowest(H, top, pool=pool, read=(top,)), None

    return grid, [[pool.submit(solve, ModeSpec(k, chi)) for chi in _chiralities(t)]
                  for k in _modes(t, params, ground)]


def _collect_modes(params: SpectrumParams, queued):
    """Wait for a grid's queued solves and merge each mode's chiralities.

    Returns (eigenvalues, ground state, the largest eigenvalue any one solve
    returned).  A full run gives the lowest ``levels`` of each queued mode
    as a (modes, levels) array, and no ground state.  A ground-state run's
    solves read only some levels (``_queue_modes``), so it gives no array,
    and as ground state the vector of mode 0's chirality whose first level
    is lower, plus on a tie.  Its largest eigenvalue is mode 0's level 1 at
    a neck, and at the cusp mode ``k_max``'s top level, the one a full run's
    largest eigenvalue is.
    """
    grid, modes = queued
    solves = [[job.result() for job in jobs] for jobs in modes]
    mu_max = float(max(0.0, *(w.max() for jobs in solves for w, _ in jobs)))
    vector = min(solves[0], key=lambda solve: solve[0][0])[1]
    if vector is not None:
        return None, VectorHandle(grid, vector), mu_max
    mu = np.array([np.sort(np.concatenate([w for w, _ in jobs]), kind="stable")[: params.levels]
                   for jobs in solves])
    return mu, None, mu_max


def _cusp_depth(params: SpectrumParams, mu_max: float) -> float:
    """The rho_min at which V of mode k = 0 reaches margin * sqrt(mu_max)."""
    return -math.log(params.rho_margin_factor * math.sqrt(mu_max) / 0.5)


def _check_squares(grid: Grid, params: SpectrumParams, top: float | None = None,
                   error: type[Exception] = RunRefusedError) -> None:
    """Raise ``error`` where the assembly on ``grid`` would square a number above ``SQRT_MAX``.

    For the highest mode k, ``k_max`` for a solve (``top`` None) and the last below
    ``_mode_bound`` for a count, a neck squares cosh(rho) ~ 2 / t at its walls (tested first:
    below it the mode bound may overflow) and V = (k + 1/2) / t at its waist; the cusp squares
    V = -V' = (k + 1/2) e^-rho at its deepest grid point, rho = rho_min + h.
    """
    t, q = grid.geometry.t, math.inf  # q stays inf past the wall test, which refuses the neck
    if not (t > 0 and WALL_PHI / t > SQRT_MAX):
        try:
            q = params.k_max + 0.5 if top is None else _mode_bound(grid.geometry, top) - 0.5
        except OverflowError:  # a k_max beyond the float range
            pass
    if t > 0 and q / t > SQRT_MAX:
        raise error(f"the neck at t = {t!r} is too thin: max(2, k + 1/2) / t exceeds "
                    f"{SQRT_MAX!r} for the highest mode k it assembles, so cosh(rho)^2 or "
                    f"((k + 1/2) / t)^2 overflows")
    if t == 0 and q > SQRT_MAX * math.exp(grid.rho_min + grid.h):
        raise error(f"the cusp at t = {t!r} with rho_min = {grid.rho_min!r} is too deep for the "
                    f"highest mode k it assembles: (k + 1/2) e^-rho exceeds {SQRT_MAX!r}, so V^2 "
                    f"overflows")


def _grids(t_grid: Sequence[float], params: SpectrumParams,
           top: float | None = None) -> dict[float, Grid]:
    """Each t's grid before any work: a solve's, or a count's up to ``top``.

    Keyed by t in descending order, -0.0 as 0.0: every check and solve reads
    its t from here, so every entry point refuses a faulty grid at one t.
    The grid's geometry is the neck at t > 0; at t = 0 the cusp the depth
    search accepts for a largest eigenvalue max(200, ``top``): a solve's
    (``top`` None) first depth, on which ``_solve_grid`` queues the first
    step that ``_cusp_geometry`` deepens, or the one a count's top window
    end needs.  Raises RunRefusedError unless the t are nonempty, finite,
    >= 0 and distinct, where a t or ``h`` gives a grid too large to count,
    fewer than 16 points (an ``h`` above length / 17 may) or a spacing below
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
            grid = Grid.for_geometry(
                NeckGeometry.neck(t) if t > 0
                else NeckGeometry.cusp(_cusp_depth(params, max(200.0, top or 0.0))), params.h)
        except (ArithmeticError, ValueError) as exc:  # sinh(t / 2) or length / h overflows,
            # or h leaves fewer than MIN_POINTS points, which Grid's message says how to mend
            spacing = "" if params.h is None else f" with h = {params.h!r}"
            raise RunRefusedError(f"no grid can be counted at t = {t!r}{spacing}: {exc}") from exc
        if not grid.h >= MIN_SPACING:
            raise RunRefusedError(f"the grid spacing {grid.h!r} at t = {t!r} is below "
                                  f"{MIN_SPACING!r}, where the solver's (2 / h^2)^2 overflows")
        _check_squares(grid, params, top)
        grids[t + 0.0] = grid  # -0.0 + 0.0 is 0.0: the split neck has one key
    if len(grids) != len(ts):
        raise RunRefusedError(f"pinching parameters must be distinct, got {ts!r}")
    return grids


def _plan(t_grid: Sequence[float], params: SpectrumParams,
          ground: bool) -> dict[float, tuple[int, Grid]]:
    """Each t of ``_grids`` to the solves of its first step and its grid, before any solve.

    The solves are ``_modes``'s modes times ``_chiralities``, for a
    ground-state run (``ground``) or a full one.  Raises RunRefusedError
    where ``_grids`` refuses the t, where ``levels`` exceeds a grid's
    points, where a ground-state run's grid lies where ``dstein`` fails
    (below), and where the work estimate, ``levels`` times the sum over t of
    solves * grid points, exceeds ``MAX_WORK``.  The estimate counts every
    level of a solve, so it bounds a ground-state run's solves, which read
    one or two levels, even where ``eigen_lowest`` bisects them all.  The
    cusp-depth search only deepens the cusp, which keeps the 3999 points of
    the default spacing or, at a fixed ``h``, adds points, so its first
    depth bounds every later one's ``levels`` rule; each further step
    repeats the first step's solves.

    Each t's ground state calls LAPACK's ``dstein``, which returns a vector
    of NaN with info = 0 once n^(3/2) * 2 / h^2 passes 1.70 * ``SQRT_MAX``
    (n = 16) to 1.77 * ``SQRT_MAX`` (n = 400 to 16000).  That held for modes
    0, 2 and 5 in both chiralities on necks, and for the bare difference
    matrix (2 / h^2, -1 / h^2) those matrices round to at such h.  A
    ground-state run is refused where the product exceeds ``SQRT_MAX``,
    which at the default spacing is every t above 327.94.  No cusp
    reaches it: a cusp's rho_min is at most -7.25 (``_cusp_depth`` with a
    margin >= 50 and mu_max >= 200), so it is at least 7.9 long and the
    product is below n^3.5 / 31, under 1e31 for every n ``MAX_WORK`` admits.
    """
    plan = {}
    for t, grid in _grids(t_grid, params).items():
        if params.levels > grid.n:
            raise RunRefusedError(f"levels = {params.levels} exceeds the {grid.n} grid points "
                                  f"at t = {t!r}")
        if ground and grid.n**1.5 * (2.0 / grid.h**2) > SQRT_MAX:
            raise RunRefusedError(f"the grid at t = {t!r} (n = {grid.n}, h = {grid.h!r}) has "
                                  f"n^(3/2) * 2 / h^2 above {SQRT_MAX!r}: LAPACK's dstein "
                                  f"returns a ground state of NaN from about 1.7 times that")
        try:
            solves = len(_modes(t, params, ground)) * len(_chiralities(t))
        except OverflowError:  # len() stops at sys.maxsize: a full run's range(k_max + 1)
            raise RunRefusedError(f"work estimate above {MAX_WORK}: k_max = {params.k_max} "
                                  f"gives more solves at t = {t!r} than can be counted") from None
        plan[t] = (solves, grid)
    work = params.levels * sum(solves * grid.n for solves, grid in plan.values())
    if work > MAX_WORK:
        raise RunRefusedError(f"work estimate {work} (levels times the sum over t_grid of "
                              f"solves * grid points, with the solves of a "
                              f"{'ground-state' if ground else 'full'} run at each t) "
                              f"exceeds {MAX_WORK}")
    return plan


def check_grids(t_grid: Sequence[float], params: SpectrumParams) -> dict[float, tuple[int, Grid]]:
    """Each t of ``_grids`` to the solves of a full run's first step there, and its grid.

    That is ``_plan``'s plan for ``dirac_spectrum``, which solves every mode
    k <= ``k_max``, in both chiralities at t = 0: it raises RunRefusedError
    where ``_grids`` refuses the t (a spacing below ``MIN_SPACING`` is every
    t above 340.3827 at the default spacing), where ``levels`` exceeds a
    grid's points, and where the work estimate exceeds ``MAX_WORK``.
    """
    return _plan(t_grid, params, ground=False)


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

    That is ``_plan``'s plan for a ground-state run, before any solve: one
    solve of mode 0 at each t > 0, and at t = 0 modes 0 and ``k_max`` in
    both chiralities, four solves (two with ``k_max`` = 0).  Raises
    RunRefusedError where ``_plan`` refuses the run, where a width w is not
    positive, or where a window |x| <= w holds no point of a t > 0 grid.
    At t = 0 the cusp search fixes the grid's depth by solving, so
    ``neck_mass`` checks there.
    """
    plan = _plan(t_grid, params, ground=True)
    for w in widths:
        if not w > 0:
            raise RunRefusedError(f"window |x| <= {w!r} needs a width w > 0")
    for t, (_, grid) in plan.items():
        for w in widths:
            if t > 0 and not np.any(_window(t, grid.rho_values, w)):
                raise RunRefusedError(f"window |x| <= {w!r} contains no grid points at t = {t!r}")
    return plan


def _cusp_geometry(params: SpectrumParams, pool: ThreadPoolExecutor, ground: bool, queued):
    """Collect the cusp's ``queued`` first step; deepen until V(rho_min) >= margin * sqrt(mu_max).

    V is that of the most permissive mode (k = 0, smallest V) and mu_max is
    the top of the ``levels`` solved for every mode and chirality, which is
    mode ``k_max``'s (``_modes``); the domain is deepened until the
    requirement holds, and deepening only lowers eigenvalues, so the loop
    terminates.  ``_solve_grid`` queues the first step on ``_plan``'s grid
    beside the necks; each deeper step builds its grid, which
    ``_check_squares`` must admit, and queues its solves (a ground-state
    run's, ``ground``, or a full one's) on ``pool``.  The loop runs on the
    calling thread, so no worker waits on another.  Returns
    ``_collect_modes``'s eigenvalues and ground state on the accepted grid,
    which a ground state's handle carries.  A ground-state run solves modes
    0 and ``k_max`` alone, reading mode 0's level 1 and its vector and mode
    ``k_max``'s top level, all that mu_max needs, so it reaches the depth a
    full run reaches and no eigenvalue array comes back.
    """
    for _ in range(8):
        mu, state, mu_max = _collect_modes(params, queued)
        needed = _cusp_depth(params, mu_max)
        if queued[0].rho_min <= needed:  # the collected step's grid
            return mu, state
        grid = Grid.for_geometry(NeckGeometry.cusp(needed - 0.5), params.h)
        _check_squares(grid, params, error=RuntimeError)
        queued = _queue_modes(pool, grid, params, ground)
    raise RuntimeError("cusp truncation depth did not stabilize")


def _solve_grid(t: float | Sequence[float], params: SpectrumParams,
                ground: bool) -> dict[float, tuple[np.ndarray, VectorHandle | None]]:
    """Each t's (eigenvalues, ground state) from ``_collect_modes``, every solve on one pool.

    ``t`` is one t or many, keyed as ``_plan`` keys them.  That refuses the
    t and ``params`` before any solve, by the rules of a ground-state run
    (``ground``) or a full one.  The first step of every t, necks and cusp
    alike, is queued at once on the grid ``_plan`` planned, in the plan's
    descending order, and collected in that order, so a failed solve reaches
    the caller before the rest have run; the cusp, last, goes to
    ``_cusp_geometry``, which collects it and queues any deeper step.  The
    pool has one thread per CPU and starts one only when a job finds none
    idle; each solve offers it the upper subtree of its bisection
    (``eigen_lowest``), so it holds at most one thread per CPU and never
    more than the solves and their subtrees.
    """
    plan = _plan([t] if np.ndim(t) == 0 else t, params, ground)
    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        try:
            queued = {s: _queue_modes(pool, grid, params, ground) for s, (_, grid) in plan.items()}
            slabs = {s: _collect_modes(params, q)[:2] if s > 0
                     else _cusp_geometry(params, pool, ground, q) for s, q in queued.items()}
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
    each t > 0 only mode 0 is solved, and only its level 1 and vector are
    read (``eigen_lowest``'s ``read``), with the bits ``dirac_spectrum``'s
    solve to ``params.levels`` gives them.  At t = 0 the cusp-depth search
    reads the top level of every mode, which is mode ``k_max``'s, so each
    depth step solves modes 0 and ``k_max`` alone, in both chiralities:
    mode ``k_max``'s solves read their top level, and mode 0's read level 1
    and its vector (and the top level too when ``k_max`` = 0).  So the
    depth and the vector are a full run's.  The vector is mode 0's at the
    last depth.  Each depth step computes mode 0's two vectors, one per
    chirality, and only the last step's are read; at the default spacing
    (``k_max``, ``levels``) = (2, 8) takes one step, and (4, 8), (4, 20) and
    (10, 40) take two.  ``_plan`` refuses the t, in descending order, and
    parameters before any solve, with the work estimate of these solves
    and the bound on ``dstein``'s grids.  Every solve runs on one pool: the
    first step of each t, the cusp's included, is queued on its planned
    grid before any is collected (``_solve_grid``).
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
    bounds = {t: _mode_bound(grid.geometry, top) if shifts else 0 for t, grid in grids.items()}
    work = len(shifts) * sum(bounds[t] * len(_chiralities(t)) * grid.n
                             for t, grid in grids.items())
    if work > MAX_WORK:
        raise RunRefusedError(f"work estimate {work} (the sum over t_grid of modes * "
                              f"chiralities * grid points * distinct window ends, with the modes "
                              f"that can reach the window top {math.sqrt(top)!r}) exceeds "
                              f"{MAX_WORK}")
    counts, modes = {}, {}
    for t, grid in grids.items():
        below = dict.fromkeys(shifts, 0)  # eigenvalues at or below each shift, over modes
        modes[t] = 0
        for k in range(bounds[t]):
            before = below[shifts[-1]]
            for chi in _chiralities(t):
                H = assemble_hamiltonian(ModeSpec(k, chi), grid)
                for s, c in zip(shifts, sturm_counts(H, shifts)):
                    below[s] += c
            modes[t] = k + 1
            if below[shifts[-1]] == before:
                break  # no eigenvalue of mode k reaches the top, so none of a later mode does
        counts[t] = tuple(2 * (below[high] - (below[low] if low is not None else 0))
                          if high is not None else 0 for low, high in pairs)
    factorisations = len(shifts) * sum(modes[t] * len(_chiralities(t)) for t in modes)
    return WindowCounts(counts, modes, factorisations)


def neck_mass(vector: VectorHandle, w: float) -> float:
    """Fraction of an eigenvector's discrete L^2 mass inside |x| <= w.

    The window is read at the t of the vector's grid, whose geometry it is.
    """
    if not w > 0:  # nan fails this too
        raise ValueError("window width must be positive")
    inside = _window(vector.grid.geometry.t, vector.grid.rho_values, w)
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
    (``ResolventAboveLevelsError``).  A trace raises RuntimeError instead of
    being returned where it is not finite, and where the bare sum has
    cancelled: where its rounding bound, epsilon times the sum over rows of
    2 (1/|mu - lam| + 1/|mu - lam0|), exceeds ``CANCELLATION_TOL`` times
    its size.  With ``k_max`` = 1, 4 levels, the default spacing, lam = -1
    and lam0 = -2, that share is 8e-12 at t = 10, which passes, and 1.8e-7
    at t = 20, which is refused; from t = 40 the bare sum is exactly 0.
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
    mu_t = table.mu[t]
    near = np.minimum(np.abs(mu_t - lam), np.abs(mu_t - lam0)) < COLLISION_TOL
    if near.any():  # report the first colliding row in rows_at's (lam, k, j) order
        k, j = min(zip(*np.nonzero(near)), key=lambda kj: (math.sqrt(max(mu_t[kj], 0.0)), kj))
        mu = float(mu_t[k, j])
        raise SpectralCollisionError(mu, lam if abs(mu - lam) < abs(mu - lam0) else lam0)
    bare = tail = 0.0
    for mu in mu_t:
        bare += 2.0 * float(np.sum(1.0 / (mu - lam) - 1.0 / (mu - lam0)))
        tail += 2.0 * _mode_tail(mu, lam, lam0)
    sizes = 2.0 * float(np.sum(1.0 / abs(mu_t - lam) + 1.0 / abs(mu_t - lam0)))  # sum of |terms|
    if sys.float_info.epsilon * sizes > CANCELLATION_TOL * abs(bare):
        raise RuntimeError(f"the trace at t = {t!r} has cancelled: its bare sum {bare!r} is under "
                           f"{1 / CANCELLATION_TOL:.0e} times its rounding bound eps * {sizes!r}")
    if not math.isfinite(bare + tail):
        raise RuntimeError(f"the trace at t = {t!r} is not finite: {bare!r} + {tail!r}")
    return TraceValue(bare + tail, bare, tail)
