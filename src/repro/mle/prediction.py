"""Kriging prediction of unknown measurements (paper §III, eqs. (2)-(4)).

With known observations ``Z2`` at ``n`` locations and ``m`` target
locations, the conditional mean under the fitted Gaussian model is

    Z1_hat = Sigma_12 Sigma_22^{-1} Z2                      (eq. 4)

computed — exactly as the paper describes — through the Cholesky factor
of ``Sigma_22`` followed by forward/backward substitutions. The dominant
cost is the factorization (``m`` is small, e.g. 100), which is why the
paper's Figure 5 prediction curves mirror the Figure 4 MLE curves.

The TLR variant factorizes ``Sigma_22`` in TLR form; ``Sigma_12`` stays
dense (it is ``m x n`` with small ``m``).

This module is the one-shot functional facade. Both entry points are
thin wrappers over :class:`~repro.mle.prediction_engine.PredictionEngine`,
which is the right interface for *repeated* prediction against one
fitted model: it caches distance blocks and the ``Sigma_22``
factorization across calls, fuses tile/TLR generation into the
factorization task graph when a runtime is attached, and supports
batched multi-RHS prediction. The wrappers build a fresh engine per
call, so their values match the engine's exactly.
"""

from __future__ import annotations

import numpy as np

from ..kernels.covariance import CovarianceModel
from .prediction_engine import PredictionEngine

__all__ = ["predict", "conditional_variance"]


def predict(
    locations: np.ndarray,
    z: np.ndarray,
    new_locations: np.ndarray,
    model: CovarianceModel,
    **engine_options: object,
) -> np.ndarray:
    """Conditional-mean prediction ``Z1 = Sigma_12 Sigma_22^{-1} Z2``.

    Parameters
    ----------
    locations:
        ``(n, d)`` observed locations.
    z:
        ``(n,)`` observed values (zero-mean), or ``(n, k)`` for batched
        multi-RHS prediction (``k`` realizations against one
        factorization).
    new_locations:
        ``(m, d)`` prediction targets.
    model:
        Fitted covariance model (defines both ``Sigma_22`` and
        ``Sigma_12``).
    **engine_options:
        Substrate and generation-pipeline keywords of
        :class:`~repro.mle.prediction_engine.PredictionEngine`. For
        repeated predictions hold a ``PredictionEngine`` instead so its
        caches actually amortize.

    Returns
    -------
    ``(m,)`` predicted values (``(m, k)`` for a batched ``z``).
    """
    return PredictionEngine(locations, z, model, **engine_options).predict(new_locations)


def conditional_variance(
    locations: np.ndarray,
    new_locations: np.ndarray,
    model: CovarianceModel,
    **engine_options: object,
) -> np.ndarray:
    """Diagonal of the conditional covariance (eq. (3)), any substrate.

    ``diag(Sigma_11 - Sigma_12 Sigma_22^{-1} Sigma_21)`` — the pointwise
    kriging variance. Exposed for the examples' uncertainty maps; the
    paper's evaluation uses only the conditional mean. ``engine_options``
    are as for :func:`predict` (TLR variances carry the factor's
    compression accuracy). A non-positive-definite covariance raises
    :class:`~repro.exceptions.NotPositiveDefiniteError` rather than
    propagating NaNs.
    """
    engine = PredictionEngine(locations, None, model, **engine_options)
    return engine.conditional_variance(new_locations)
