"""Gaussian log-likelihood evaluators (paper eq. (1)).

One evaluation = generate ``Sigma(theta)`` + Cholesky + half-solve +
log-determinant. The three variants differ only in the linear-algebra
substrate:

* ``full-block`` — dense LAPACK (the paper's MKL baseline);
* ``full-tile``  — dense tile Cholesky, optionally task-parallel;
* ``tlr``        — TLR compression + TLR Cholesky at accuracy ``acc``.

The evaluator records per-stage times (generation / factorization /
solve) and evaluation counts; the benchmark harness reports the paper's
"time of one iteration" from these numbers.

Generation pipeline (``cache_distances`` / ``parallel_generation``)
-------------------------------------------------------------------
Locations are fixed for a whole fit, so per-tile distance blocks are
cached across evaluations (:class:`~repro.linalg.generation.TileDistanceCache`;
the full-block variant caches the full distance matrix) — after the
first evaluation, generation reduces to applying the correlation
function to cached distances. When a :class:`~repro.runtime.Runtime` is
attached and ``parallel_generation`` is on, tile/TLR generation is
additionally *fused* into the factorization task graph: one generation
task per tile column (full-tile) or one generate+compress task per tile
(TLR), and the Cholesky tasks depend on the generation task of the data
they touch instead of a global barrier. In fused mode the ``generation`` stage time is task-submission
time only — the generation work itself overlaps the factorization and
is accounted in the ``factorization`` stage wait. Both knobs preserve
values: cached tiles are bit-identical, and fused execution computes the
same factorization.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..config import get_config
from ..exceptions import ConfigurationError, NotPositiveDefiniteError
from ..kernels.covariance import CovarianceModel
from ..kernels.distance import pairwise_distance
from ..linalg.blocklapack import (
    block_cholesky,
    block_logdet_from_factor,
)
from ..linalg.generation import (
    TileDistanceCache,
    generate_and_factor_tile_matrix,
    generate_and_factor_tlr_matrix,
)
from ..linalg.tile_cholesky import logdet_from_tile_factor
from ..linalg.tile_solve import tile_solve_triangular
from ..linalg.tlr_cholesky import logdet_from_tlr_factor
from ..linalg.tlr_solve import tlr_solve_triangular
from ..runtime import Runtime
from ..telemetry import spans as _telemetry
from ..utils.timer import StageTimes
from ..utils.validation import as_float_array, check_locations, check_vector
import scipy.linalg as sla

__all__ = ["exact_loglikelihood", "LikelihoodEvaluator", "VARIANTS"]

#: Supported computation variants.
VARIANTS = ("full-block", "full-tile", "tlr")

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
    variant:
        ``"full-block"``, ``"full-tile"`` or ``"tlr"``.
    acc:
        TLR accuracy threshold (TLR variant only; default configured).
    tile_size:
        Tile size ``nb`` (tile/TLR variants; default configured).
    runtime:
        Optional task runtime shared across evaluations (tile/TLR).
    compression_method:
        Per-tile compressor for the TLR variant.
    cache_distances:
        Reuse distance blocks across evaluations (default: configured
        ``cache_distances``). Values are bit-identical either way.
    parallel_generation:
        With a runtime attached, generate (and compress) tiles as tasks
        fused into the factorization graph (default: configured
        ``parallel_generation``). No effect without a runtime or for the
        full-block variant.
    compression_batch:
        TLR tiles compressed per fused generation task (default:
        configured ``compression_batch``); amortizes per-task overhead
        when ``nb`` is small relative to ``nt``. Values are identical
        for any batch size.
    keep_last_factor:
        Retain a reference to the most recent successful evaluation's
        Cholesky factor (``last_factor``/``last_theta``). Costs no extra
        compute — the factor would otherwise be garbage-collected — but
        keeps one factor's memory (O(n^2) for the dense substrates)
        alive between evaluations. Default False;
        :class:`~repro.mle.estimator.MLEstimator` opts in so its
        prediction path can adopt the fit's final factorization and skip
        re-factorizing ``Sigma_22`` when predicting at the fitted theta.

    Notes
    -----
    A non-positive-definite trial covariance yields the penalty value
    rather than an exception, so the optimizer can continue searching —
    the behaviour of ExaGeoStat's objective wrapper.
    """

    def __init__(
        self,
        locations: np.ndarray,
        z: np.ndarray,
        model: CovarianceModel,
        *,
        variant: str = "full-block",
        acc: Optional[float] = None,
        tile_size: Optional[int] = None,
        runtime: Optional[Runtime] = None,
        compression_method: Optional[str] = None,
        cache_distances: Optional[bool] = None,
        parallel_generation: Optional[bool] = None,
        compression_batch: Optional[int] = None,
        keep_last_factor: bool = False,
    ) -> None:
        if variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")
        cfg = get_config()
        self.locations = check_locations(locations, "locations")
        self.z = check_vector(as_float_array(z, "z"), self.locations.shape[0], "z")
        self.model = model
        self.variant = variant
        self.acc = cfg.tlr_accuracy if acc is None else float(acc)
        self.tile_size = cfg.tile_size if tile_size is None else int(tile_size)
        self.runtime = runtime
        self.compression_method = compression_method or cfg.compression_method
        self.truncation_rule = cfg.truncation
        # Resolved here (not at insert time): evaluations may run on
        # threads whose thread-local config never saw the caller's value.
        self.compression_batch = (
            cfg.compression_batch if compression_batch is None else max(1, int(compression_batch))
        )
        self.cache_distances = (
            cfg.cache_distances if cache_distances is None else bool(cache_distances)
        )
        self.parallel_generation = (
            cfg.parallel_generation if parallel_generation is None else bool(parallel_generation)
        )
        self.n_evals = 0
        self.n_failures = 0
        self.times = StageTimes()
        self._n = self.locations.shape[0]
        self._const = -0.5 * self._n * math.log(2.0 * math.pi)
        self.distance_cache: Optional[TileDistanceCache] = None
        if self.cache_distances and variant in ("full-tile", "tlr"):
            self.distance_cache = TileDistanceCache(
                self.locations, self.tile_size, metric=model.metric
            )
        self._full_distances: Optional[np.ndarray] = None  # full-block cache
        self.keep_last_factor = bool(keep_last_factor)
        #: Cholesky factor of the most recent successful evaluation
        #: (ndarray / TileMatrix / TLRMatrix per variant), and its theta.
        self.last_factor: Optional[object] = None
        self.last_theta: Optional[np.ndarray] = None
        self._pending_factor: Optional[object] = None

    # ------------------------------------------------------------- calls
    def __call__(self, theta: np.ndarray) -> float:
        """Evaluate the log-likelihood at parameter vector ``theta``."""
        model = self.model.with_theta(theta)
        self.n_evals += 1
        try:
            # The stage() calls inside each variant emit per-phase child
            # spans (generation/factorization/solve) under this one.
            with _telemetry.span("loglik.eval", variant=self.variant):
                if self.variant == "full-block":
                    logdet, quad = self._eval_full_block(model)
                elif self.variant == "full-tile":
                    logdet, quad = self._eval_full_tile(model)
                else:
                    logdet, quad = self._eval_tlr(model)
        except NotPositiveDefiniteError:
            self.n_failures += 1
            self._pending_factor = None
            self.last_factor = None
            self.last_theta = None
            return PENALTY_LOGLIK
        if self.keep_last_factor:
            self.last_factor = self._pending_factor
            self.last_theta = model.theta.copy()
        self._pending_factor = None
        return float(self._const - 0.5 * logdet - 0.5 * quad)

    def negative(self, theta: np.ndarray) -> float:
        """``-loglik(theta)`` for minimizers."""
        return -self(theta)

    # ----------------------------------------------------------- plumbing
    def _tile_generator(self, model: CovarianceModel):
        """Tile generator for ``model``: cached distances when enabled."""
        if self.distance_cache is not None:
            return self.distance_cache.generator(model)
        return lambda rs, cs: model.tile(self.locations, rs, cs)

    @property
    def _fused(self) -> bool:
        """True when generation is fused into the factorization graph."""
        return self.runtime is not None and self.parallel_generation

    # ---------------------------------------------------------- variants
    def _eval_full_block(self, model: CovarianceModel) -> tuple[float, float]:
        with self.times.stage("generation"):
            if self.cache_distances:
                if self._full_distances is None:
                    self._full_distances = pairwise_distance(
                        self.locations, metric=model.metric
                    )
                sigma = model.matrix_from_distances(self._full_distances)
            else:
                sigma = model.matrix(self.locations)
        with self.times.stage("factorization"):
            factor = block_cholesky(sigma, overwrite=True)
        self._pending_factor = factor
        with self.times.stage("solve"):
            half = sla.solve_triangular(factor, self.z, lower=True, check_finite=False)
            logdet = block_logdet_from_factor(factor)
        return logdet, float(half @ half)

    def _eval_full_tile(self, model: CovarianceModel) -> tuple[float, float]:
        tiles = generate_and_factor_tile_matrix(
            self._n,
            self.tile_size,
            self._tile_generator(model),
            runtime=self.runtime,
            fused=self._fused,
            times=self.times,
        )
        self._pending_factor = tiles
        with self.times.stage("solve"):
            half = tile_solve_triangular(tiles, self.z, trans=False)
            logdet = logdet_from_tile_factor(tiles)
        return logdet, float(half @ half)

    def _eval_tlr(self, model: CovarianceModel) -> tuple[float, float]:
        tlr = generate_and_factor_tlr_matrix(
            self._n,
            self.tile_size,
            self._tile_generator(model),
            self.acc,
            method=self.compression_method,
            rule=self.truncation_rule,
            runtime=self.runtime,
            fused=self._fused,
            times=self.times,
            compression_batch=self.compression_batch,
        )
        self._pending_factor = tlr
        with self.times.stage("solve"):
            half = tlr_solve_triangular(tlr, self.z, trans=False)
            logdet = logdet_from_tlr_factor(tlr)
        return logdet, float(half @ half)
