"""Profiles of the pinching neck, mode data, and the indicial bound."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WALL_PHI = 2.0  # profile value at the Dirichlet walls closing off the neck


def read_only_copy(a) -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``a``: the caller's array stays its own."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


class Chirality(enum.Enum):
    PLUS = 1
    MINUS = -1


class SpinStructure(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


@dataclass(frozen=True)
class NeckGeometry:
    """Arclength model of the neck at pinching parameter t.

    For t > 0 the profile is ``phi(rho) = t cosh(rho)`` on the symmetric
    interval with ``rho_max = asinh(1 / sinh(t/2))`` so that phi reaches
    sqrt(halfwidth^2 + t^2) ~ 2 at the walls.  At t = 0 the neck splits into
    two mirror-image hyperbolic cusps.  The lab keeps the right one,
    ``phi = e^rho`` truncated at ``rho_min``, and carries the left one through
    the minus chirality.  Both profiles have Gauss curvature -1.
    """

    t: float
    rho_min: float
    rho_max: float

    def __post_init__(self) -> None:
        if not self.t >= 0:  # nan fails this too
            raise ValueError(f"pinching parameter must be nonnegative, got {self.t!r}")
        if not (math.isfinite(self.rho_min) and math.isfinite(self.rho_max)):
            raise ValueError(f"arclength domain must be finite, got rho in "
                             f"({self.rho_min!r}, {self.rho_max!r})")
        if not self.rho_min < self.rho_max:
            raise ValueError("empty arclength domain")

    @classmethod
    def neck(cls, t: float) -> "NeckGeometry":
        """The full neck at t > 0, walls at phi = sqrt(a^2 + t^2)."""
        if t <= 0:
            raise ValueError("use NeckGeometry.cusp for t = 0")
        r = math.asinh(1.0 / math.sinh(t / 2))
        return cls(t=t, rho_min=-r, rho_max=r)

    @classmethod
    def cusp(cls, rho_min: float) -> "NeckGeometry":
        """The right cusp of the split (t = 0) neck, truncated at rho_min."""
        if rho_min >= math.log(WALL_PHI):
            raise ValueError("truncation must lie below the wall")
        return cls(t=0.0, rho_min=rho_min, rho_max=math.log(WALL_PHI))

    @property
    def length(self) -> float:
        return self.rho_max - self.rho_min

    def contains(self, rho) -> np.ndarray:
        r = np.asarray(rho, dtype=float)
        return (r >= self.rho_min) & (r <= self.rho_max)


def _check_domain(geom: NeckGeometry, rho) -> np.ndarray:
    r = np.asarray(rho, dtype=float)
    if not np.all(geom.contains(r)):
        raise ValueError("rho outside the arclength domain")
    return r


def phi(geom: NeckGeometry, rho):
    """Profile radius of the neck metric d rho^2 + phi^2 dy^2."""
    r = _check_domain(geom, rho)
    if geom.t > 0:
        out = geom.t * np.cosh(r)
    else:
        out = np.exp(r)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModeSpec:
    """Fourier mode of the antiperiodic spin structure; frequency k + 1/2."""

    k: int
    chirality: Chirality = Chirality.PLUS

    @property
    def frequency(self) -> float:
        return self.k + 0.5


def potential(geom: NeckGeometry, mode: ModeSpec, rho):
    """Mode potential V = (k + 1/2) / phi."""
    r = _check_domain(geom, rho)
    out = mode.frequency / np.asarray(phi(geom, r), dtype=float)
    return out if out.ndim else float(out)


def potential_derivative(geom: NeckGeometry, mode: ModeSpec, rho):
    """Closed-form dV/drho for the active profile branch."""
    r = _check_domain(geom, rho)
    q = mode.frequency
    if geom.t > 0:
        out = -q * np.sinh(r) / (geom.t * np.cosh(r) ** 2)
    else:
        out = -q * np.exp(-r)
    return out if out.ndim else float(out)


def circle_spectrum(spin: SpinStructure, K: int) -> list[Fraction]:
    """Dirac eigenvalues on the unit circle for Fourier modes |k| <= K.

    The spin structure that does not close up acts as 1/2 + i d/dy, giving
    half-integers; the trivial one gives integers (and is not invertible).
    """
    if K < 1:
        raise ValueError("need K >= 1")
    if spin is SpinStructure.NONTRIVIAL:
        vals = [Fraction(1, 2) - k for k in range(-K, K + 1)]
    else:
        vals = [Fraction(-k) for k in range(-K, K + 1)]
    return sorted(vals)


@dataclass(frozen=True)
class IndicialScan:
    """Grid evaluation of 1/4 + xi^2 (1 + sin^2 theta)^2 / 8, values a read-only copy."""

    xi_grid: tuple[float, ...]
    theta_grid: tuple[float, ...]
    values: np.ndarray  # shape (len(xi_grid), len(theta_grid))

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", read_only_copy(self.values))


def indicial_scan(xi_grid, theta_grid) -> IndicialScan:
    xi = np.asarray(xi_grid, dtype=float)
    th = np.asarray(theta_grid, dtype=float)
    if xi.size == 0 or th.size == 0:
        raise ValueError("grids must be nonempty")
    if not np.any(xi == 0.0):
        raise ValueError("xi grid must contain 0 (where the bound is attained)")
    vals = 0.25 + np.outer(xi**2, (1.0 + np.sin(th) ** 2) ** 2) / 8.0
    return IndicialScan(tuple(xi), tuple(th), vals)


def indicial_min(xi_grid, theta_grid) -> tuple[float, tuple[float, float]]:
    """Minimum of the squared indicial family bound over the grid, with argmin."""
    scan = indicial_scan(xi_grid, theta_grid)
    flat = int(np.argmin(scan.values))
    i, j = divmod(flat, len(scan.theta_grid))
    return float(scan.values[i, j]), (scan.xi_grid[i], scan.theta_grid[j])
