"""Derivative-free optimization (NLopt substitute; paper §VI).

ExaGeoStat maximizes the Gaussian log-likelihood with NLopt's
derivative-free local optimizers. This subpackage provides a from-scratch
bound-constrained Nelder-Mead simplex implementation with the same role:
maximize a black-box objective over a box, no gradients, tolerance-based
termination. :func:`multistart_points` draws the start list of the
multistart search that guards against the simplex stalling on anisotropic
likelihood surfaces (one leg per start: ``MLEstimator.run_leg``).
"""

from .result import HistoryEntry, OptimizeResult
from .neldermead import (
    SimplexState,
    multistart_points,
    nelder_mead,
)
from .bounds import clip_to_bounds, default_matern_bounds, empirical_start

__all__ = [
    "HistoryEntry",
    "OptimizeResult",
    "SimplexState",
    "nelder_mead",
    "multistart_points",
    "clip_to_bounds",
    "default_matern_bounds",
    "empirical_start",
]
