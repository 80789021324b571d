"""Numerical model of the Dirac operator on a degenerating hyperbolic neck.

The pinching metric is reduced per Fourier mode (half-integer frequencies,
antiperiodic spin structure) to a pair of 1D Schroedinger operators
``-d^2/drho^2 + V^2 +- V'`` with ``V = (k + 1/2) / phi``; this subpackage
provides the exact profiles, the tridiagonal eigensolver, spectral sweeps in
the pinching parameter, localization masses, and relative resolvent traces.
"""

from cusplab.dirac_lab.geometry import (
    Chirality,
    IndicialScan,
    ModeSpec,
    NeckGeometry,
    SpinStructure,
    circle_spectrum,
    indicial_min,
    indicial_scan,
    phi,
    potential,
    potential_derivative,
)
from cusplab.dirac_lab.solver import (
    Grid,
    NonConvergenceError,
    Tridiagonal,
    assemble_hamiltonian,
    convergence_order,
    eigen_lowest,
    partner_minus_hamiltonian,
    sturm_counts,
    tridiagonal_from_potential,
)
from cusplab.dirac_lab.spectra import (
    ResolventAboveLevelsError,
    RunRefusedError,
    SpectralCollisionError,
    SpectrumParams,
    SpectrumRow,
    SpectrumTable,
    TraceValue,
    WindowCounts,
    check_grids,
    check_trace,
    check_windows,
    dirac_spectrum,
    ground_states,
    neck_mass,
    relative_resolvent_trace,
    window_counts,
)

__all__ = [
    "Chirality", "IndicialScan", "ModeSpec", "NeckGeometry",
    "SpinStructure", "circle_spectrum", "indicial_min", "indicial_scan",
    "phi", "potential", "potential_derivative",
    "Grid", "NonConvergenceError", "Tridiagonal", "assemble_hamiltonian",
    "convergence_order", "eigen_lowest", "partner_minus_hamiltonian", "sturm_counts",
    "tridiagonal_from_potential",
    "ResolventAboveLevelsError", "RunRefusedError", "SpectralCollisionError", "SpectrumParams",
    "SpectrumRow", "SpectrumTable", "TraceValue", "WindowCounts", "check_grids", "check_trace",
    "check_windows", "dirac_spectrum", "ground_states", "neck_mass", "relative_resolvent_trace",
    "window_counts",
]
