"""Least-squares fitting of sampled traces against polyhomogeneous bases.

A basis is a list of monomials t^z log^k t; fitting is plain linear least
squares through an orthogonal decomposition (SVD), never normal equations.
Model comparison reports the residual ratio between a smooth basis and one
augmented by a logarithmic monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CONDITION_LIMIT = 1e12


class RankDeficientError(ValueError):
    """The design matrix is numerically rank deficient."""


@dataclass(frozen=True)
class BasisSpec:
    """Monomials (exponent, log power), evaluated as t^z log^k t."""

    monomials: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        canon = tuple((Fraction(z), int(k)) for z, k in self.monomials)
        if len(set(canon)) != len(canon):
            raise RankDeficientError("duplicate monomials in basis")
        for _, k in canon:
            if k < 0:
                raise ValueError("log powers must be natural numbers")
        object.__setattr__(self, "monomials", canon)

    @property
    def min_samples(self) -> int:
        """Fewest samples ``fit_basis`` accepts: two more than the monomials."""
        return len(self.monomials) + 2

    def design_matrix(self, ts: np.ndarray) -> np.ndarray:
        """One column t^z log^k t per monomial, at samples t > 0."""
        cols = []
        for z, k in self.monomials:
            col = ts ** float(z)
            if k:
                col = col * np.log(ts) ** k
            cols.append(col)
        return np.column_stack(cols)


def smooth_even_basis(max_power: int = 4) -> BasisSpec:
    """Default smooth basis {1, t^2, t^4, ...}; the model is even in t."""
    return BasisSpec(tuple((2 * i, 0) for i in range(max_power // 2 + 1)))


def log_even_basis(max_power: int = 4) -> BasisSpec:
    """The smooth basis augmented by the t^2 log t monomial."""
    return BasisSpec(smooth_even_basis(max_power).monomials + ((2, 1),))


@dataclass(frozen=True)
class FitReport:
    coefficients: tuple[float, ...]
    rms_residual: float
    condition_estimate: float


def fit_basis(ts, ys, basis: BasisSpec) -> FitReport:
    """Linear least squares of samples at t > 0 against the basis; deterministic."""
    t = np.asarray(ts, dtype=float)
    y = np.asarray(ys, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("ts and ys must be 1-d arrays of equal length")
    if len(t) < basis.min_samples:
        raise ValueError(f"need at least {basis.min_samples} samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    if np.any(t <= 0):
        raise ValueError("samples must have t > 0")
    M = basis.design_matrix(t)
    sv = np.linalg.svd(M, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > CONDITION_LIMIT:
        raise RankDeficientError(f"condition estimate {cond:.3g} exceeds {CONDITION_LIMIT:g}")
    coef, _, _, _ = np.linalg.lstsq(M, y, rcond=None)
    resid = y - M @ coef
    return FitReport(tuple(coef), float(np.sqrt(np.mean(resid**2))), cond)


@dataclass(frozen=True)
class ModelComparison:
    smooth: FitReport
    log: FitReport

    @property
    def ratio(self) -> float:
        """The smooth fit's rms residual over the log fit's."""
        smooth, log = self.smooth.rms_residual, self.log.rms_residual
        if log == 0.0:
            return np.inf if smooth > 0 else 1.0
        return smooth / log


def compare_models(ts, ys, smooth_basis: BasisSpec, log_basis: BasisSpec) -> ModelComparison:
    """Fit both bases and report the smooth/log residual ratio."""
    return ModelComparison(fit_basis(ts, ys, smooth_basis),
                           fit_basis(ts, ys, log_basis))
