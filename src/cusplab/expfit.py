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
    """Monomials (exponent, log power), evaluated as t^z log^k t.

    A basis needs at least one monomial (``ValueError``).  An exponent must
    be exact, an ``int``, ``str`` or ``Fraction``: a float such as ``0.1``
    is not the rational it is written as, so a float or a bool raises
    ``TypeError``.  A log power must be an ``int`` (a float or a bool raises
    ``TypeError``) and at least 0.
    """

    monomials: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if not self.monomials:
            raise ValueError("a basis needs at least one monomial")
        for z, k in self.monomials:
            if isinstance(z, (float, bool)):
                raise TypeError(f"an exponent must be an int, str or Fraction, got {z!r}")
            if not isinstance(k, int) or isinstance(k, bool):
                raise TypeError(f"a log power must be an int, got {k!r}")
            if k < 0:
                raise ValueError("log powers must be natural numbers")
        canon = tuple((Fraction(z), int(k)) for z, k in self.monomials)
        if len(set(canon)) != len(canon):
            raise RankDeficientError("duplicate monomials in basis")
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


def smooth_even_basis() -> BasisSpec:
    """Default smooth basis {1, t^2, t^4}; the model is even in t."""
    return BasisSpec(((0, 0), (2, 0), (4, 0)))


def log_even_basis() -> BasisSpec:
    """The smooth basis augmented by the t^2 log t monomial."""
    return BasisSpec(smooth_even_basis().monomials + ((2, 1),))


@dataclass(frozen=True)
class FitReport:
    coefficients: tuple[float, ...]
    rms_residual: float
    condition_estimate: float


def check_fit(ts, basis: BasisSpec) -> tuple[np.ndarray, float]:
    """The design matrix of ``basis`` at the samples ``ts`` and its condition estimate.

    Raises ValueError unless there are at least ``basis.min_samples``
    samples, each finite with t > 0, and each monomial finite at each t
    (t^4 overflows above DBL_MAX^(1/4), about 1.34e77); and
    RankDeficientError where the condition estimate exceeds
    ``CONDITION_LIMIT``.  These rules read the t alone, so a caller can
    check a fit before it computes the values.
    """
    t = np.asarray(ts, dtype=float)
    if len(t) < basis.min_samples:
        raise ValueError(f"need at least {basis.min_samples} samples, got {len(t)}")
    if not np.all(np.isfinite(t)):
        raise ValueError("samples must be finite")
    if np.any(t <= 0):
        raise ValueError("samples must have t > 0")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        M = basis.design_matrix(t)
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        i, j = bad[0]
        z, k = basis.monomials[j]
        name = f"t^{z}" + (f" log^{k} t" if k else "")
        raise ValueError(f"the monomial {name} is not finite at t = {float(t[i])!r}")
    sv = np.linalg.svd(M, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > CONDITION_LIMIT:
        raise RankDeficientError(f"condition estimate {cond:.3g} exceeds {CONDITION_LIMIT:g}")
    return M, cond


def fit_basis(ts, ys, basis: BasisSpec) -> FitReport:
    """Linear least squares of samples at t > 0 against the basis; deterministic.

    ``check_fit`` refuses the t; the values must be finite.
    """
    t = np.asarray(ts, dtype=float)
    y = np.asarray(ys, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("ts and ys must be 1-d arrays of equal length")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    M, cond = check_fit(t, basis)
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
