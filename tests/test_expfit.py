"""Tests for polyhomogeneous basis fitting and model comparison."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cusplab.expfit import (
    BasisSpec,
    RankDeficientError,
    compare_models,
    fit_basis,
    log_even_basis,
    smooth_even_basis,
)


def test_default_bases():
    assert smooth_even_basis().monomials == ((Fraction(0), 0), (Fraction(2), 0),
                                             (Fraction(4), 0))
    assert log_even_basis().monomials[-1] == (Fraction(2), 1)


def test_exact_model_recovery():
    ts = np.linspace(0.5 / 20, 0.5, 20)
    ys = 1.0 + 0.5 * ts**2 * np.log(ts)
    report = fit_basis(ts, ys, BasisSpec(((0, 0), (2, 1))))
    assert report.coefficients[0] == pytest.approx(1.0, abs=1e-8)
    assert report.coefficients[1] == pytest.approx(0.5, abs=1e-8)
    assert report.rms_residual < 1e-12


def test_zero_data_gives_zero_fit():
    ts = np.linspace(0.1, 1.0, 10)
    report = fit_basis(ts, np.zeros_like(ts), smooth_even_basis())
    assert all(c == 0.0 for c in report.coefficients)
    assert report.rms_residual == 0.0


def test_duplicate_monomial_is_rank_deficient():
    with pytest.raises(RankDeficientError):
        BasisSpec(((2, 0), (2, 0)))
    ts = np.geomspace(1.0, 1.0 + 1e-13, 8)  # nearly identical samples
    with pytest.raises(RankDeficientError):
        fit_basis(ts, np.ones_like(ts), BasisSpec(((0, 0), (2, 0), (4, 0))))


def test_preconditions():
    basis = smooth_even_basis()
    with pytest.raises(ValueError):
        fit_basis([0.1, 0.2, 0.3], [1, 2, 3], basis)  # too few samples
    ts = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    for b in (basis, log_even_basis()):  # t = 0 and t < 0 are refused by any basis
        for bad in (0.0, -0.1):
            ts[0] = bad
            with pytest.raises(ValueError, match="t > 0"):
                fit_basis(ts, np.ones_like(ts), b)
    ts[0] = 0.05
    fit_basis(ts, np.ones_like(ts), basis)


@pytest.mark.parametrize("where,bad", [("t", np.nan), ("y", np.nan), ("t", np.inf)])
def test_non_finite_samples_fail_before_the_svd(monkeypatch, capfd, where, bad):
    # a nan t once passed as t = 0, a nan y gave nan coefficients, and an
    # inf t reached LAPACK, which printed an illegal-value warning
    ts = np.linspace(0.05, 0.5, 10)
    ys = 1.0 + ts**2
    (ts if where == "t" else ys)[3] = bad
    svd_calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a))
    for basis in (smooth_even_basis(), log_even_basis()):
        with pytest.raises(ValueError, match="finite"):
            fit_basis(ts, ys, basis)
    with pytest.raises(ValueError, match="finite"):
        compare_models(ts, ys, smooth_even_basis(), log_even_basis())
    assert svd_calls == []
    assert capfd.readouterr().err == ""


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    ts = np.geomspace(0.01, 0.5, 16)
    ys = 2.0 - 0.3 * ts**2 + 0.05 * ts**2 * np.log(ts)
    base = fit_basis(ts, ys, log_even_basis())
    perm = rng.permutation(len(ts))
    shuffled = fit_basis(ts[perm], ys[perm], log_even_basis())
    assert np.allclose(base.coefficients, shuffled.coefficients, rtol=1e-9)
    assert base.rms_residual == pytest.approx(shuffled.rms_residual, rel=1e-9)


def test_nested_model_never_increases_residual():
    rng = random.Random(12)
    ts = np.geomspace(0.02, 0.5, 18)
    for _ in range(25):
        coeffs = [rng.uniform(-2, 2) for _ in range(3)]
        noise = np.array([rng.gauss(0, 1e-3) for _ in ts])
        ys = coeffs[0] + coeffs[1] * ts**2 + coeffs[2] * ts**4 + noise
        small = fit_basis(ts, ys, smooth_even_basis())
        big = fit_basis(ts, ys, log_even_basis())
        assert big.rms_residual <= small.rms_residual + 1e-15


def test_coefficient_recovery_randomized():
    rng = random.Random(77)
    ts = np.geomspace(1e-3, 0.5, 25)
    basis = log_even_basis()
    for _ in range(40):
        want = [rng.choice([-1, 1]) * rng.uniform(0.1, 10) for _ in basis.monomials]
        M = basis.design_matrix(ts)
        ys = M @ np.array(want)
        got = fit_basis(ts, ys, basis).coefficients
        assert np.allclose(got, want, rtol=1e-8)


def test_compare_models_detects_injected_log_term():
    # the part of t^2 log t orthogonal to the smooth basis has rms ~4e-3 per
    # unit coefficient on this grid; keep it well above the noise floor
    ts = np.geomspace(1e-3, 0.5, 25)
    rng = np.random.default_rng(5)
    noise = 1e-5 * rng.standard_normal(len(ts))
    ys = 1.0 + 0.8 * ts**2 + 0.5 * ts**2 * np.log(ts) + noise
    cmp = compare_models(ts, ys, smooth_even_basis(), log_even_basis())
    assert cmp.ratio >= 10
    smooth_only = 1.0 + 0.8 * ts**2
    cmp2 = compare_models(ts, smooth_only, smooth_even_basis(), log_even_basis())
    assert cmp2.ratio == pytest.approx(1.0, abs=0.5) or cmp2.smooth.rms_residual < 1e-12
