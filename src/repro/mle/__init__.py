"""Maximum likelihood estimation and prediction (paper §III; the core).

The paper's pipeline: build ``Sigma(theta)`` from the Matérn kernel over
the (Morton-ordered) locations, evaluate the Gaussian log-likelihood

    l(theta) = -(n/2) log(2 pi) - (1/2) log|Sigma| - (1/2) z' Sigma^{-1} z

inside a derivative-free optimizer to obtain ``theta_hat``, then predict
unknown measurements via the conditional mean
``Z1 = Sigma_12 Sigma_22^{-1} Z2`` (eq. (4)).

Three computation variants, as in the paper's evaluation: ``full-block``
(LAPACK), ``full-tile`` (dense tile algorithms), and ``tlr`` at a chosen
accuracy threshold.
"""

from .loglik import LikelihoodEvaluator, exact_loglikelihood
from .estimator import FitPlan, FitResult, MLEstimator
from .prediction import conditional_variance, predict
from .prediction_engine import PredictionEngine
from .metrics import mean_squared_error, mean_absolute_error, root_mean_squared_error
from .montecarlo import MonteCarloResult, run_monte_carlo
from .fisher import FisherInformation, observed_information

__all__ = [
    "LikelihoodEvaluator",
    "exact_loglikelihood",
    "MLEstimator",
    "FitPlan",
    "FitResult",
    "predict",
    "conditional_variance",
    "PredictionEngine",
    "mean_squared_error",
    "mean_absolute_error",
    "root_mean_squared_error",
    "run_monte_carlo",
    "MonteCarloResult",
    "FisherInformation",
    "observed_information",
]
