"""Gaussian log-likelihood (paper eq. (1)) over the engine's seam.

    l(theta) = -(n/2) log(2 pi) - (1/2) log|Sigma| - (1/2) ||L^{-1} z||^2

One evaluation = generate ``Sigma(theta)`` + Cholesky + half-solve +
log-determinant — the same generate -> factor -> solve pipeline as
kriging, so :class:`LikelihoodEvaluator` owns none of it: it drives a
:class:`~repro.mle.prediction_engine.PredictionEngine`
(:meth:`~repro.mle.prediction_engine.PredictionEngine.factor_at`, then
``half_solve`` and ``logdet``) and keeps only what is the likelihood's
own — the observation vector, the constant, the evaluation/failure
counters and the non-SPD penalty. Substrates (``full-block`` /
``full-tile`` / ``tlr``), generation from coordinates, fused task-parallel
generation and per-stage times (generation / factorization / solve, the
paper's "time of one iteration") are the engine's; see its module
docstring.

Because the engine keeps the factor of the last evaluated ``theta``, a
prediction at that ``theta`` through the same engine
(:meth:`~repro.mle.estimator.MLEstimator.predictor`) pays no second
generation or factorization.
"""

from __future__ import annotations

import math
import numpy as np
import scipy.linalg as sla

from ..exceptions import NotPositiveDefiniteError
from ..kernels.covariance import CovarianceModel
from ..linalg.blocklapack import block_cholesky, block_logdet_from_factor
from ..telemetry import spans as _telemetry
from ..utils.validation import as_float_array, check_locations, check_vector
from .prediction_engine import PredictionEngine

__all__ = ["exact_loglikelihood", "LikelihoodEvaluator"]

#: Log-likelihood assigned when a trial theta yields a non-SPD covariance
#: (the optimizer treats it as an infinitely bad point and moves on).
PENALTY_LOGLIK = -1e12


def exact_loglikelihood(
    locations: np.ndarray,
    z: np.ndarray,
    model: CovarianceModel,
) -> float:
    """Reference dense evaluation of eq. (1) (used by tests and baselines).

    Parameters
    ----------
    locations:
        ``(n, d)`` spatial locations.
    z:
        ``(n,)`` observation vector.
    model:
        Covariance model evaluated at its own ``theta``.

    Returns
    -------
    The scalar log-likelihood value.
    """
    x = check_locations(locations, "locations")
    z = check_vector(as_float_array(z, "z"), x.shape[0], "z")
    sigma = model.matrix(x)
    factor = block_cholesky(sigma, overwrite=True)
    half = sla.solve_triangular(factor, z, lower=True, check_finite=False)
    logdet = block_logdet_from_factor(factor)
    n = x.shape[0]
    return float(-0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * (half @ half))


def _engine_attr(name: str) -> property:
    """Read-only view of one of the engine's resolved settings."""
    return property(lambda self: getattr(self.engine, name), doc=f"The engine's ``{name}``.")


class LikelihoodEvaluator:
    """Callable objective ``theta -> loglik`` with a fixed substrate.

    Parameters
    ----------
    locations:
        ``(n, d)`` spatial locations, already ordered (callers typically
        apply Morton ordering once, outside the optimization loop).
    z:
        ``(n,)`` observations.
    model:
        Template covariance model; each evaluation rebinds ``theta`` via
        ``model.with_theta``.
    **engine_options:
        Substrate and generation-pipeline keywords (``variant``, ``acc``,
        ``tile_size``, ``truncation``, ``runtime``, ...) of the
        :class:`~repro.mle.prediction_engine.PredictionEngine` this
        evaluator builds as :attr:`engine`; the resolved values read
        back as attributes of the evaluator.

    Notes
    -----
    A non-positive-definite trial covariance yields the penalty value
    rather than an exception, so the optimizer can continue searching —
    the behaviour of ExaGeoStat's objective wrapper. Every call factors
    once (also at a repeated ``theta``) and leaves the engine holding
    that factor, or no factor after a failed evaluation.
    """

    substrate = _engine_attr("substrate")
    acc = _engine_attr("acc")
    tile_size = _engine_attr("tile_size")
    compression_method = _engine_attr("compression_method")
    truncation_rule = _engine_attr("truncation_rule")
    compression_batch = _engine_attr("compression_batch")
    parallel_generation = _engine_attr("parallel_generation")
    distance_cache = _engine_attr("distance_cache")
    times = _engine_attr("times")

    def __init__(
        self,
        locations: np.ndarray,
        z: np.ndarray,
        model: CovarianceModel,
        **engine_options: object,
    ) -> None:
        self.locations = check_locations(locations, "locations")
        self.z = check_vector(as_float_array(z, "z"), self.locations.shape[0], "z")
        self.model = model
        #: The generate -> factor -> solve pipeline every evaluation runs on.
        self.engine = PredictionEngine(self.locations, self.z, model, **engine_options)
        self.n_evals = 0
        self.n_failures = 0
        self._const = -0.5 * self.z.shape[0] * math.log(2.0 * math.pi)

    def __call__(self, theta: np.ndarray) -> float:
        """Evaluate the log-likelihood at parameter vector ``theta``."""
        model = self.model.with_theta(theta)
        engine = self.engine
        self.n_evals += 1
        try:
            # factor_at's stages (generation/factorization) and the solve
            # stage emit per-phase child spans under this one.
            with _telemetry.span("loglik.eval", variant=engine.variant):
                engine.factor_at(model)
                with engine.times.stage("solve"):
                    # self.z, not engine.z: a predictor may have rebound
                    # the engine's observations.
                    half = engine.half_solve(self.z)
        except NotPositiveDefiniteError:
            self.n_failures += 1
            return PENALTY_LOGLIK
        return float(self._const - 0.5 * engine.logdet() - 0.5 * float(half @ half))

    def negative(self, theta: np.ndarray) -> float:
        """``-loglik(theta)`` for minimizers."""
        return -self(theta)
