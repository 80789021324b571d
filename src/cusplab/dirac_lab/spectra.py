"""Spectral sweeps over the pinching parameter, masses, and resolvent traces."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from cusplab.dirac_lab.geometry import Chirality, ModeSpec, NeckGeometry
from cusplab.dirac_lab.solver import MIN_POINTS, Grid, assemble_hamiltonian, eigen_lowest

COLLISION_TOL = 1e-9  # an eigenvalue this close to a resolvent point is a collision


class SpectralCollisionError(ValueError):
    """A resolvent point fell on (or numerically too close to) an eigenvalue."""

    def __init__(self, mu: float, lam: float) -> None:
        self.mu = mu
        self.lam = lam
        super().__init__(f"eigenvalue {mu!r} collides with resolvent point {lam!r}")


class ResolventAboveLevelsError(ValueError):
    """A resolvent point not below the highest computed level of a mode, or nan.

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
    ``rho_margin_factor`` controls the t = 0 cusp truncation depth, and
    ``keep_vectors`` stores eigenvectors for levels j <= keep_vectors.
    Callers rely on the checks here and repeat none of them.
    """

    k_max: int = 2
    levels: int = 8
    h: float | None = None
    n: int | None = None
    rho_margin_factor: float = 50.0
    keep_vectors: int = 0

    def __post_init__(self) -> None:
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
    """Eigenvalues per pinching parameter t, with the stored eigenvectors.

    ``mu`` maps each t, kept in descending order, to a (k_max + 1, levels)
    array whose row k holds the ascending eigenvalues of mode pair k;
    ``vectors`` maps (t, k, j) to the eigenvector of level j (1-based).
    """

    mu: Mapping[float, np.ndarray]
    vectors: Mapping[tuple[float, int, int], VectorHandle]

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
        """Eigenvalues with lam in (a, b) at parameter t, pair multiplicity 2."""
        return 2 * sum(1 for r in self.rows_at(t) if a < r.lam < b)

    def lowest(self, t: float) -> SpectrumRow:
        return self.rows_at(t)[0]

    def vector(self, t: float, k: int, j: int) -> VectorHandle:
        return self.vectors[(t, k, j)]


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _solve_modes(geom: NeckGeometry, params: SpectrumParams, chis: tuple[Chirality, ...]):
    """Solve each (k, chirality) once on the geometry's grid, at most one thread per CPU.

    Returns the grid, the lowest ``levels`` eigenvalues of each mode over
    ``chis`` as a (k_max + 1, levels) array, the kept eigenvectors keyed by
    (k, j), and the largest eigenvalue any one solve returned.
    """
    grid = Grid.for_geometry(geom, n=params.n, h=params.h)
    keep = params.keep_vectors > 0

    def solve(mode: ModeSpec):
        out = eigen_lowest(assemble_hamiltonian(geom, mode, grid), params.levels,
                           vectors=keep, h=grid.h)
        # a mode's j lowest levels over chis are among each solve's j lowest
        return (out[0], [v.copy() for v in out[1][:, : params.keep_vectors].T]) if keep else out

    jobs = [ModeSpec(k, chi) for k in range(params.k_max + 1) for chi in chis]
    with ThreadPoolExecutor(max_workers=min(len(jobs), _cpu_count())) as pool:
        solved = list(pool.map(solve, jobs))
    mu = np.empty((params.k_max + 1, params.levels))
    vectors, mu_max = {}, 0.0
    for k in range(params.k_max + 1):
        parts = solved[k * len(chis): (k + 1) * len(chis)]
        mu_k = np.concatenate([w for w, _ in parts] if keep else parts)
        order = np.argsort(mu_k, kind="stable")[: params.levels]
        mu[k], mu_max = mu_k[order], max(mu_max, float(mu_k.max()))
        for j, i in enumerate(order[: params.keep_vectors], start=1):
            # entry i of mu_k is level i % levels of solve number i // levels
            vectors[(k, j)] = parts[i // params.levels][1][i % params.levels]
    return grid, mu, vectors, mu_max


def _cusp_depth(params: SpectrumParams, mu_max: float) -> float:
    """The rho_min at which V of mode k = 0 reaches margin * sqrt(mu_max)."""
    return -math.log(params.rho_margin_factor * math.sqrt(mu_max) / 0.5)


def _first_geometry(t: float, params: SpectrumParams) -> NeckGeometry:
    """The neck at t > 0; at t = 0 the shallowest cusp the depth search tries."""
    return NeckGeometry.neck(t) if t > 0 else NeckGeometry.cusp(_cusp_depth(params, 200.0))


def check_grids(t_grid: Sequence[float], params: SpectrumParams) -> list[int]:
    """Interior grid points of the first solve at each t, before any solve.

    Raises ValueError where they are fewer than ``levels``.  The cusp-depth
    search only deepens the cusp, which keeps ``n`` or, at a fixed ``h``,
    adds points, so its first depth bounds every later one.
    """
    points = []
    for t in t_grid:
        n = Grid.points_for(_first_geometry(t, params), n=params.n, h=params.h)
        if params.levels > n:
            raise ValueError(f"levels = {params.levels} exceeds the {n} grid points at t = {t!r}")
        points.append(n)
    return points


def _cusp_geometry(params: SpectrumParams):
    """Truncated cusp deep enough that V(rho_min) >= margin * sqrt(mu_max).

    V is that of the most permissive mode (k = 0, smallest V) and mu_max is
    the top of the ``levels`` solved for every mode and chirality; the
    domain is deepened until the requirement holds, and deepening only
    lowers eigenvalues, so the loop terminates.  Returns the geometry with
    the grid, eigenvalues and eigenvectors of its last ``_solve_modes``.
    """
    geom = _first_geometry(0.0, params)
    for _ in range(8):
        grid, mu, vectors, mu_max = _solve_modes(geom, params, (Chirality.PLUS, Chirality.MINUS))
        needed = _cusp_depth(params, mu_max)
        if geom.rho_min <= needed:
            return geom, grid, mu, vectors
        geom = NeckGeometry.cusp(needed - 0.5)
    raise RuntimeError("cusp truncation depth did not stabilize")


def dirac_spectrum(t: float, params: SpectrumParams) -> SpectrumTable:
    """Squared-Dirac eigenvalues at parameter t, one row per (mode pair, level).

    Modes k and -k-1 form a degenerate pair (parity on the symmetric neck for
    t > 0, where the plus operator suffices; the mirror cusp at t = 0, where
    the pair's spectrum is the union of the plus and minus spectra on one
    cusp branch), so each row carries multiplicity 2 wherever counts or
    traces are formed.
    """
    if not t >= 0:
        raise ValueError(f"pinching parameter t must be >= 0, got {t!r}")
    check_grids([t], params)
    if t > 0:
        grid, mu, vectors, _ = _solve_modes(NeckGeometry.neck(t), params, (Chirality.PLUS,))
    else:
        _, grid, mu, vectors = _cusp_geometry(params)
    return SpectrumTable({t: mu}, {(t, *kj): VectorHandle(grid, v) for kj, v in vectors.items()})


def spectral_sweep(t_grid: Sequence[float], params: SpectrumParams) -> SpectrumTable:
    """Solve every t in a sweep grid (descending, ending at 0) into one table."""
    ts = list(t_grid)
    if any(a <= b for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be strictly descending")
    if ts[-1] != 0.0:
        raise ValueError("t grid must end at 0 (the split-neck limit)")
    check_grids(ts, params)
    slabs = [dirac_spectrum(t, params) for t in ts]
    return SpectrumTable({t: s.mu[t] for t, s in zip(ts, slabs)},
                         {key: v for s in slabs for key, v in s.vectors.items()})


def neck_mass(t: float, vector: "VectorHandle", w: float) -> float:
    """Fraction of discrete L^2 mass of an eigenvector inside |x| <= w.

    For t > 0 the window maps to |rho| <= asinh(w / t); at t = 0 the profile
    itself is |x|, so the window is phi(rho) <= w.
    """
    if w <= 0:
        raise ValueError("window width must be positive")
    rho = vector.grid.rho_values
    if t > 0:
        inside = np.abs(rho) <= math.asinh(w / t)
    else:
        inside = np.exp(rho) <= w  # right-cusp branch: |x| = e^rho
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

    def __float__(self) -> float:
        return self.value


def _inverse_square_tail(n: int, q: float) -> float:
    """Sum of 1/(j^2 + q) over j >= n in closed form; no j^2 + q may be 0.

    With a^2 = q the sum is (psi(n + ia) - psi(n - ia)) / (2ia) (DLMF 5.7).
    The terms j < w are added directly (the recurrence 5.5.2), which puts
    both digamma arguments at least 16 from the origin; the rest is the
    asymptotic series 5.11.2, each term's difference quotient written as a
    real function of q, so a^2 <= 0 needs no complex root and no division by a.
    """
    w = max(n, 16 + math.ceil(math.sqrt(max(-q, 0.0))))
    x = math.sqrt(abs(q)) / w
    log_term = math.atan(x) / x if q > 0 else math.atanh(x) / x if q < 0 else 1.0
    r2 = w * w + q
    total = float(np.sum(1.0 / (np.arange(n, w) ** 2 + q))) + log_term / w + 0.5 / r2
    re, im = 1.0, 0.0  # (w + ia)^(2m) = re + ia * im
    for m, c in enumerate((1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132), start=1):  # B_2m / 2m
        re, im = re * (w * w - q) - 2 * w * q * im, 2 * w * re + (w * w - q) * im
        total += c * im / r2 ** (2 * m)
    return total


def _mode_tail(mu: np.ndarray, lam: float, lam0: float) -> float:
    """Sum over the levels j > J beyond the computed ones for one mode.

    The top of the computed spectrum fixes a Weyl-type model
    mu_j ~ A j^2 + c through the largest two eigenvalues; the tail is the
    exact sum of 1/(mu_j - lam) - 1/(mu_j - lam0) over that model.  ``mu``
    holds at least two levels.
    """
    J = len(mu)
    A = (mu[-1] - mu[-2]) / (2 * J - 1)
    if A <= 0:
        return 0.0
    c = mu[-1] - A * J**2
    return (_inverse_square_tail(J + 1, (c - lam) / A)
            - _inverse_square_tail(J + 1, (c - lam0) / A)) / A


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
    the largest computed eigenvalues, so it needs ``levels >= 2``; a given
    ``table`` holds the spectrum at t computed with ``params``.  Both points
    must lie below every mode's highest computed level
    (``ResolventAboveLevelsError``).
    """
    if params.levels < 2:
        raise ValueError(f"the trace's tail model needs levels >= 2, got {params.levels}")
    if table is None:
        table = dirac_spectrum(t, params)
    if t not in table.mu:
        raise ValueError(f"table has no rows at t = {t}")
    for k, mu in enumerate(table.mu[t]):
        for point in (lam, lam0):
            if not point < mu[-1]:  # nan fails this too
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
    return TraceValue(bare + tail, bare, tail)
