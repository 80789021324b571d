"""Exact boundary-calculus combinatorics and a spectral lab for a pinching hyperbolic neck."""

__version__ = "0.1.0"
