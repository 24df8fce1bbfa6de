"""TLR ExaGeoStat reproduction: parallel approximate MLE for geostatistics.

Reproduction of *Parallel Approximation of the Maximum Likelihood
Estimation for the Prediction of Large-Scale Geostatistics Simulations*
(Abdulah et al., IEEE CLUSTER 2018). The package provides:

* :mod:`repro.kernels` — Matérn covariance family, Euclidean/great-circle
  metrics;
* :mod:`repro.data` — synthetic generators, Morton ordering, GP sampling,
  substitutes for the paper's soil-moisture and wind-speed datasets;
* :mod:`repro.runtime` — StarPU-style task runtime (handles, access
  modes, dependency inference, thread-pool execution);
* :mod:`repro.linalg` — dense block / dense tile / TLR linear algebra
  (compression, TLR Cholesky, solves);
* :mod:`repro.optim` — bound-constrained Nelder-Mead (NLopt substitute);
* :mod:`repro.mle` — likelihood evaluators, the MLE driver, kriging
  prediction, Monte-Carlo harness;
* :mod:`repro.serving` — persisted model bundles, a warm-engine
  registry, an async micro-batching prediction service, and a
  multi-process HTTP server/client with hot-reload;
* :mod:`repro.fitting` — durable fit jobs: checkpoint/resume
  Nelder-Mead, process-parallel multistart orchestration, and
  refit-to-hot-reload integration with the serving layer;
* :mod:`repro.resilience` — deterministic fault injection, unified
  retry/deadline policies, and circuit breakers shared by the serving
  and fitting layers;
* :mod:`repro.telemetry` — end-to-end observability: request tracing
  (``X-Repro-Trace``), per-phase spans, a unified metrics registry,
  and Prometheus/JSONL export across serving, fitting, and the runtime;
* :mod:`repro.perfmodel` — machine/cluster models and the performance
  estimator standing in for the paper's Intel servers and Shaheen-2,
  plus host micro-calibration and the self-tuning planner
  (:func:`repro.plan`, ``GET /v1/plan``);
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Quickstart
----------
>>> from repro import MLEstimator, MaternCovariance
>>> from repro.data import generate_irregular_grid, sample_gaussian_field
>>> locs = generate_irregular_grid(400, seed=0)
>>> z = sample_gaussian_field(locs, MaternCovariance(1.0, 0.1, 0.5), seed=1)
>>> fit = MLEstimator(locs, z, variant="tlr", acc=1e-9).fit()
"""

from .version import __version__
from .config import Config, get_config, set_config, use_config
from .substrate import Substrate
from .kernels import (
    CovarianceModel,
    ExponentialCovariance,
    GaussianCovariance,
    MaternCovariance,
    WhittleCovariance,
)
from .runtime import AccessMode, Runtime
from .linalg import (
    LowRank,
    TileDistanceCache,
    TileMatrix,
    TLRMatrix,
    tile_cholesky,
    tlr_cholesky,
)
from .mle import (
    FitResult,
    LikelihoodEvaluator,
    MLEstimator,
    PredictionEngine,
    exact_loglikelihood,
    mean_squared_error,
    predict,
    run_monte_carlo,
)
from .optim import nelder_mead
from .fitting import FitJobSpec, FitOrchestrator, JobStore
from .resilience import (
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    arm,
    disarm,
    fault_point,
)
from .telemetry import (
    MetricsRegistry,
    TraceContext,
    annotate,
    configure_telemetry,
    get_registry,
    span,
)
from .perfmodel.planner import plan
from .serving import (
    ModelBundle,
    ModelRegistry,
    PredictionService,
    ServingClient,
    ServingServer,
    load_model,
    save_model,
)

__all__ = [
    "__version__",
    "Config",
    "get_config",
    "set_config",
    "use_config",
    "Substrate",
    "CovarianceModel",
    "MaternCovariance",
    "ExponentialCovariance",
    "WhittleCovariance",
    "GaussianCovariance",
    "AccessMode",
    "Runtime",
    "LowRank",
    "TileDistanceCache",
    "TileMatrix",
    "TLRMatrix",
    "tile_cholesky",
    "tlr_cholesky",
    "MLEstimator",
    "FitResult",
    "PredictionEngine",
    "LikelihoodEvaluator",
    "exact_loglikelihood",
    "predict",
    "mean_squared_error",
    "run_monte_carlo",
    "nelder_mead",
    "FitJobSpec",
    "FitOrchestrator",
    "JobStore",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "arm",
    "disarm",
    "fault_point",
    "MetricsRegistry",
    "TraceContext",
    "annotate",
    "configure_telemetry",
    "get_registry",
    "span",
    "plan",
    "ModelBundle",
    "ModelRegistry",
    "PredictionService",
    "ServingClient",
    "ServingServer",
    "load_model",
    "save_model",
]
