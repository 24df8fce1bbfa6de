"""The one owner of ``Sigma_22``: generate -> factor -> solve (paper §III).

The paper's two operations — the Gaussian log-likelihood (eq. (1)) and
the kriging predictor (eqs. (2)-(4)) — are the same pipeline: generate
``Sigma_22(theta)`` on a substrate, Cholesky it, substitute (its Figure 5
prediction curves mirror the Figure 4 MLE curves for exactly this
reason). :class:`PredictionEngine` is that pipeline, bound to one
training set and one substrate, and everything above it is a client:

* :class:`~repro.mle.loglik.LikelihoodEvaluator` calls
  :meth:`~PredictionEngine.factor_at` once per trial ``theta`` and reads
  ``l(theta)`` off :meth:`~PredictionEngine.half_solve` and
  :meth:`~PredictionEngine.logdet`;
* :meth:`~PredictionEngine.predict` / :meth:`~PredictionEngine.predict_many`
  / :meth:`~PredictionEngine.conditional_variance` go through the cached
  :meth:`~PredictionEngine.factor`, so many target sets, batched
  realizations (``z`` of shape ``(n, k)``) and variances share one
  factorization per parameter vector;
* a persisted bundle hands its factor back with
  :meth:`~PredictionEngine.adopt_factor`.

This module holds the only ``variant`` dispatch for generate+factor,
triangular solve and log-determinant, so a numerics change (a new
substrate, a jitter fallback, a concentrated likelihood) lands once.

**Generation.** ``Sigma_22``'s distances are computed in the task, from
coordinates, on every factorization, and nothing of them is kept: the
tile and TLR substrates generate through
:attr:`~PredictionEngine.distance_cache`'s generator
(:class:`~repro.linalg.generation.TileDistanceCache`, which holds the
locations only), and full-block builds ``model.matrix(locations)``.
Small target sets' cross distances are cached by a content digest of
the targets (:class:`~repro.linalg.generation.CrossDistanceCache`,
bounded in bytes). Neither a prediction nor a variance forms
``Sigma_12``: it is generated and used in row blocks of about
:data:`PREDICT_BLOCK_ENTRIES` entries, so the working set is a few
blocks whatever the number of targets. Generation runs inside the
Cholesky task graph, with no barrier before the factorization: the TLR
Cholesky's tasks always generate their own tiles (each DIAG/OFFDIAG task
generates, updates and compresses its tile), and with a
:class:`~repro.runtime.Runtime` attached and ``parallel_generation`` on,
the full-tile graph starts with one generation task per tile column,
which writes the whole column panel in place. The ``generation`` stage
time is then the allocation only, and the work is accounted in the
``factorization`` stage. The knob preserves values: the fused graph
computes the same factorization.

**Options.** The substrate (variant, ``nb``, accuracy, compressor,
truncation rule, compression batch) is one
:class:`~repro.substrate.Substrate`, resolved and checked once, in the
constructor; the layers above forward ``**engine_options`` or hand a
resolved one over as ``variant=``. ``runtime``, ``cache_distances`` and
``parallel_generation`` are the engine's own.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg as sla

from ..exceptions import ConfigurationError, ShapeError
from ..kernels.covariance import CovarianceModel
from ..kernels.distance import pairwise_distance
from ..linalg.blocklapack import block_cholesky, block_logdet_from_factor
from ..linalg.generation import (
    CrossDistanceCache,
    TileDistanceCache,
    generate_and_factor_tile_matrix,
    generate_and_factor_tlr_matrix,
)
from ..linalg.tile_cholesky import logdet_from_tile_factor
from ..linalg.tile_matrix import TileMatrix
from ..linalg.tile_solve import tile_solve_triangular
from ..linalg.tlr_cholesky import logdet_from_tlr_factor
from ..linalg.tlr_matrix import TLRMatrix
from ..linalg.tlr_solve import tlr_solve_triangular
from ..runtime import Runtime
from ..substrate import Substrate, substrate_view
from ..telemetry import spans as _telemetry
from ..utils.timer import StageTimes
from ..utils.validation import as_float_array, check_locations

__all__ = ["PredictionEngine"]

#: Entries of ``Sigma_12`` a prediction generates and applies per row
#: block (512 KiB of float64; a predict's working set is a few blocks).
PREDICT_BLOCK_ENTRIES = 1 << 16

#: A Sigma_22 Cholesky factor in any of the three substrate formats.
Factor = Union[np.ndarray, TileMatrix, TLRMatrix]

#: Per variant: the factor's type and its ``log |A|`` (which also guards
#: the factor's diagonal, raising NotPositiveDefiniteError).
_SUBSTRATES = {
    "full-block": (np.ndarray, block_logdet_from_factor),
    "full-tile": (TileMatrix, logdet_from_tile_factor),
    "tlr": (TLRMatrix, logdet_from_tlr_factor),
}


def _check_rhs(z: object, n: int, name: str = "z") -> np.ndarray:
    """Validate a ``(n,)`` or ``(n, k)`` right-hand side."""
    arr = as_float_array(z, name)
    if arr.ndim not in (1, 2):
        raise ShapeError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] != n:
        raise ShapeError(f"{name} must have leading dimension {n}, got {arr.shape[0]}")
    return arr


def _row_blocks(m: int, n: int) -> Iterator[slice]:
    """Row blocks of an ``(m, n)`` cross-covariance, about
    :data:`PREDICT_BLOCK_ENTRIES` entries each.

    A block is a multiple of 8 rows and a one-row tail joins the block
    before it: BLAS GEMV kernels unroll over output rows, and numpy
    hands one-row products to other kernels, so each row meets the
    kernel it would meet in the unblocked product and (on one BLAS
    thread) the result is bit-identical to it.
    """
    rows = max(8, PREDICT_BLOCK_ENTRIES // n // 8 * 8)
    starts = list(range(0, m, rows))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [m]):
        yield slice(start, stop)


class PredictionEngine:
    """Kriging engine bound to one training set and one substrate.

    Parameters
    ----------
    locations:
        ``(n, d)`` observed locations (order fixed; callers that Morton-
        order for the fit must pass the reordered locations).
    z:
        Observations: ``(n,)`` for one realization, ``(n, k)`` for a
        batch, or ``None`` for variance-only use. Rebindable per call via
        :meth:`predict`'s ``z=`` argument.
    model:
        Fitted covariance model (defines ``Sigma_22`` and ``Sigma_12``).
        Rebindable via :meth:`set_model` — the cross-distance cache
        survives a theta change, the factorization cache does not.
    variant, acc, tile_size, compression_method, truncation, compression_batch:
        The substrate (:class:`~repro.substrate.Substrate` documents and
        checks each field). ``None`` takes the constructing thread's
        ``Config`` default; ``variant`` defaults to ``"full-block"`` and
        may be a whole ``Substrate``. Read back as :attr:`substrate` and
        same-named read-only attributes (``truncation_rule``).
    runtime:
        Optional task runtime shared across factorizations (tile/TLR).
    cache_distances:
        Cache the ``Sigma_12`` cross-distance matrices of small target
        sets across predictions (up to the
        :class:`~repro.linalg.generation.CrossDistanceCache` budget).
        ``Sigma_22``'s distances are computed in the task, from
        coordinates, either way. Values are bit-identical either way.
    parallel_generation:
        With a runtime attached, generate full-tile tiles as tasks fused
        into the Cholesky task graph instead of a serial loop with a
        barrier before the factorization. No effect without a runtime,
        for the full-block variant, or for TLR, whose Cholesky always
        generates (and compresses) each tile inside its own task.

    Examples
    --------
    >>> from repro.data import generate_irregular_grid, sample_gaussian_field
    >>> from repro.kernels import MaternCovariance
    >>> locs = generate_irregular_grid(64, seed=0)
    >>> model = MaternCovariance(1.0, 0.1, 0.5)
    >>> z = sample_gaussian_field(locs, model, seed=1)
    >>> engine = PredictionEngine(locs, z, model)
    >>> engine.predict(locs[:4]).shape   # factors Sigma_22 once
    (4,)
    >>> engine.predict(locs[4:8]).shape  # reuses the factorization
    (4,)
    >>> engine.n_factorizations
    1
    """

    variant = substrate_view("variant")
    tile_size = substrate_view("tile_size")
    acc = substrate_view("acc")
    compression_method = substrate_view("compression_method")
    truncation_rule = substrate_view("truncation")
    compression_batch = substrate_view("compression_batch")

    def __init__(
        self,
        locations: np.ndarray,
        z: Optional[np.ndarray],
        model: CovarianceModel,
        *,
        variant: Union[str, Substrate] = "full-block",
        acc: Optional[float] = None,
        tile_size: Optional[int] = None,
        runtime: Optional[Runtime] = None,
        compression_method: Optional[str] = None,
        cache_distances: bool = True,
        parallel_generation: bool = True,
        compression_batch: Optional[int] = None,
        truncation: Optional[str] = None,
    ) -> None:
        # The one read of the config, on the constructing thread: every
        # later factor()/predict() — on whatever thread — uses this.
        self.substrate = Substrate.resolve(
            variant, tile_size=tile_size, acc=acc, compression_method=compression_method,
            truncation=truncation, compression_batch=compression_batch,
        )
        self.locations = check_locations(locations, "locations")
        self._n = self.locations.shape[0]
        self.z = None if z is None else _check_rhs(z, self._n, "z")
        self.model = model
        self.runtime = runtime
        self.cache_distances = bool(cache_distances)
        self.parallel_generation = bool(parallel_generation)

        # The tile/TLR generator object: the locations, never distances.
        self.distance_cache: Optional[TileDistanceCache] = None
        self.cross_cache: Optional[CrossDistanceCache] = None
        self._bind_metric(model.metric)

        self._factor: Optional[Factor] = None
        self._factor_key: Optional[Tuple] = None
        self._logdet: Optional[float] = None  # log|Sigma_22| of the current factor
        self._alpha: Optional[np.ndarray] = None  # Sigma_22^{-1} z for the bound z
        self.n_factorizations = 0
        self.n_predicts = 0
        self.times = StageTimes()

    # ---------------------------------------------------------- model state
    @staticmethod
    def _model_key(model: CovarianceModel) -> Tuple:
        """Cache key of everything ``Sigma_22`` depends on besides locations."""
        return (type(model).__name__, model.theta.tobytes(), model.nugget, model.metric)

    def set_model(self, model: CovarianceModel) -> "PredictionEngine":
        """Rebind the fitted model; invalidates factor/solve caches on change.

        The cross-distance cache is theta-independent and survives a
        parameter change; a *metric* change rebuilds it and the
        generator object (distances are measured in the model's metric).
        """
        if self._model_key(model) != self._model_key(self.model):
            self.clear()
        if model.metric != self.model.metric:
            self._bind_metric(model.metric)
        self.model = model
        return self

    def _bind_metric(self, metric: str) -> None:
        if self.variant != "full-block":
            self.distance_cache = TileDistanceCache(self.locations, self.tile_size, metric=metric)
        if self.cache_distances:
            self.cross_cache = CrossDistanceCache(self.locations, metric=metric)

    def set_observations(self, z: Optional[np.ndarray]) -> "PredictionEngine":
        """Rebind the default observation vector/batch (drops its cached solve)."""
        self.z = None if z is None else _check_rhs(z, self._n, "z")
        self._alpha = None
        return self

    def adopt_factor(self, factor: Factor, model: CovarianceModel) -> "PredictionEngine":
        """Install an existing ``Sigma_22`` Cholesky factor for ``model``.

        Used by :meth:`~repro.serving.store.ModelBundle.build_engine` to
        hand a persisted factorization back. The factor must come from
        this engine's substrate (``variant``/``tile_size``/``acc``);
        ownership transfers to the engine (the factor must not be
        mutated afterwards).
        """
        if not isinstance(factor, _SUBSTRATES[self.variant][0]):
            raise ConfigurationError(
                f"adopted factor type {type(factor).__name__} does not match "
                f"variant {self.variant!r}"
            )
        self.clear()
        self.set_model(model)
        self._install(factor)
        return self

    # -------------------------------------------------------- factorization
    def factor(self) -> Factor:
        """The Cholesky factor of ``Sigma_22`` at the current model (cached)."""
        if self._factor is None or self._factor_key != self._model_key(self.model):
            self.factor_at(self.model)
        return self._factor

    def factor_at(self, model: CovarianceModel) -> Factor:
        """Generate and factor ``Sigma_22`` at ``model`` — always recomputes.

        The likelihood evaluator's entry point: the previous factor is
        dropped *before* generation (two factors are never resident),
        and the result becomes the engine's current factor for
        ``model``, so a following :meth:`predict` at the same parameters
        pays no second factorization. On
        :class:`~repro.exceptions.NotPositiveDefiniteError` the engine
        is left with no factor.
        """
        self.clear()
        self.set_model(model)
        with _telemetry.span("engine.factor", variant=self.variant):
            factor = self._compute_factor(model)
        self._install(factor)
        self.n_factorizations += 1
        return factor

    def _install(self, factor: Factor) -> None:
        """Make ``factor`` the current one for ``self.model``.

        Taking the log-determinant first is the diagonal guard: a factor
        with a non-positive (or NaN) diagonal raises
        :class:`~repro.exceptions.NotPositiveDefiniteError` here instead
        of silently producing NaN/Inf solves later.
        """
        self._logdet = _SUBSTRATES[self.variant][1](factor)
        self._factor = factor
        self._factor_key = self._model_key(self.model)

    def _compute_factor(self, model: CovarianceModel) -> Factor:
        if self.variant == "full-block":
            with self.times.stage("generation"):
                sigma = model.matrix(self.locations)
            with self.times.stage("factorization"):
                return block_cholesky(sigma, overwrite=True)
        generate = self.distance_cache.generator(model)
        sub, fused = self.substrate, self.runtime is not None and self.parallel_generation
        if sub.variant == "full-tile":
            return generate_and_factor_tile_matrix(
                self._n, sub.tile_size, generate,
                runtime=self.runtime, fused=fused, times=self.times,
            )
        return generate_and_factor_tlr_matrix(
            self._n, sub.tile_size, generate, sub.acc, method=sub.compression_method,
            rule=sub.truncation, compression_batch=sub.compression_batch,
            runtime=self.runtime, fused=fused, times=self.times,
        )

    # --------------------------------------------------------------- solves
    def _tri_solve(self, factor: Factor, b: np.ndarray, trans: bool) -> np.ndarray:
        """``L^{-1} b`` (or ``L^{-T} b`` with ``trans``) against ``factor``."""
        if self.variant == "full-block":
            return sla.solve_triangular(
                factor, b, lower=True, trans="T" if trans else "N", check_finite=False
            )
        if self.variant == "full-tile":
            return tile_solve_triangular(factor, b, trans=trans)
        return tlr_solve_triangular(factor, b, trans=trans)

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """``L^{-1} b`` via the cached factor: ``||L^{-1} z||^2 = z' Sigma_22^{-1} z``."""
        return self._tri_solve(self.factor(), _check_rhs(b, self._n, "b"), False)

    def logdet(self) -> float:
        """``log |Sigma_22|`` at the current model, from the cached factor."""
        self.factor()
        return self._logdet

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``Sigma_22^{-1} b`` via the cached factor; ``b`` is ``(n,)`` or ``(n, k)``."""
        b = _check_rhs(b, self._n, "b")
        factor = self.factor()
        with self.times.stage("solve"):
            return self._tri_solve(factor, self._tri_solve(factor, b, False), True)

    def _weights(self) -> np.ndarray:
        """``Sigma_22^{-1} z`` for the bound observations (cached per factor)."""
        if self.z is None:
            raise ConfigurationError(
                "engine has no bound observations; pass z= to predict() or "
                "bind one with set_observations()"
            )
        if self._alpha is None:
            self._alpha = self.solve(self.z)
        return self._alpha

    # ---------------------------------------------------------- predictions
    def _cross_rows(self, xnew: np.ndarray) -> Iterator[Tuple[slice, np.ndarray]]:
        """``Sigma_12`` in row blocks: ``(rows, Sigma_12[rows])`` pairs.

        Each block is distances (a cached target set's stored rows, else
        freshly computed), then the covariance, inside the ``cross``
        stage — no ``(m, n)`` array is formed beyond a cached set's
        distances.
        """
        with self.times.stage("cross"):
            d12 = None if self.cross_cache is None else self.cross_cache.lookup(xnew)
        for rows in _row_blocks(xnew.shape[0], self._n):
            with self.times.stage("cross"):
                d = (
                    d12[rows] if d12 is not None
                    else pairwise_distance(xnew[rows], self.locations, metric=self.model.metric)
                )
                block = self.model(d)
            yield rows, block

    def _apply_cross(self, xnew: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """``Sigma_12 @ alpha``: a GEMV/GEMM per row block into its rows
        of the output."""
        out = np.empty(xnew.shape[:1] + alpha.shape[1:])
        for rows, sigma12 in self._cross_rows(xnew):
            with self.times.stage("cross"):
                np.matmul(sigma12, alpha, out=out[rows])
        return out

    def predict(
        self, new_locations: np.ndarray, *, z: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Conditional mean ``Sigma_12 Sigma_22^{-1} z`` (eq. (4)).

        ``Sigma_12`` is streamed: generated and applied to
        ``Sigma_22^{-1} z`` in row blocks of about
        :data:`PREDICT_BLOCK_ENTRIES` entries inside the ``cross`` stage,
        so memory does not grow with the number of targets.

        Parameters
        ----------
        new_locations:
            ``(m, d)`` prediction targets.
        z:
            Optional observation override: ``(n,)`` or, for batched
            multi-RHS prediction, ``(n, k)`` — ``k`` realizations solved
            against one factorization. Defaults to the bound ``z``
            (whose solve is additionally cached across calls).

        Returns
        -------
        ``(m,)`` predictions, or ``(m, k)`` for a batched ``z``.
        """
        with _telemetry.span("engine.predict", variant=self.variant):
            xnew = check_locations(new_locations, "new_locations")
            alpha = self._weights() if z is None else self.solve(z)
            self.n_predicts += 1
            return self._apply_cross(xnew, alpha)

    def predict_many(
        self,
        target_sets: Sequence[np.ndarray],
        *,
        z: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Serve several target sets in one coalesced kriging pass.

        The micro-batching primitive of
        :class:`~repro.serving.service.PredictionService`: one engine
        call resolves the factor and the observation solve ``alpha``
        once and serves every target set against them, so a group of
        coalesced requests pays one dispatch, one factor lookup, and one
        (cached) solve instead of one each.

        Per-request results are **bit-identical** to calling
        :meth:`predict` once per target set: each set is streamed
        through the same row blocks a standalone call would use.
        (Deliberately *not* stacked into one tall matrix: the block
        boundaries would move, and BLAS GEMV blocks by row count.)

        Counts as one predict (``n_predicts += 1``): it is one pass over
        one request group.
        """
        if len(target_sets) == 0:
            return []
        checked = [check_locations(t, f"target_sets[{k}]") for k, t in enumerate(target_sets)]
        dim = checked[0].shape[1]
        for k, t in enumerate(checked[1:], start=1):
            if t.shape[1] != dim:
                raise ShapeError(
                    f"target_sets[{k}] has dimension {t.shape[1]}, expected {dim}"
                )
        with _telemetry.span(
            "engine.predict", variant=self.variant, target_sets=len(checked)
        ):
            alpha = self._weights() if z is None else self.solve(z)
            self.n_predicts += 1
            return [self._apply_cross(t, alpha) for t in checked]

    def conditional_variance(self, new_locations: np.ndarray) -> np.ndarray:
        """Pointwise kriging variance (eq. (3)) on any substrate.

        ``diag(Sigma_11 - Sigma_12 Sigma_22^{-1} Sigma_21)`` through the
        cached factor: per row block of ``Sigma_12`` (the blocks
        :meth:`predict` streams), a half-solve ``L^{-1} Sigma_21[:, rows]``
        and its column norms, so no ``(n, m)`` half-solve is formed. TLR
        results carry the compression accuracy of the factor.
        """
        xnew = check_locations(new_locations, "new_locations")
        factor = self.factor()  # outside the solve stage: may generate+factorize
        reduction = np.empty(xnew.shape[0])
        for rows, sigma12 in self._cross_rows(xnew):
            with self.times.stage("solve"):
                half = self._tri_solve(factor, sigma12.T, False)
                reduction[rows] = np.einsum("ij,ij->j", half, half)
        var_marginal = float(self.model(np.zeros(1))[0]) + self.model.nugget
        return np.maximum(var_marginal - reduction, 0.0)

    # -------------------------------------------------------------- serving
    @classmethod
    def from_bundle(cls, bundle: object) -> "PredictionEngine":
        """Build an engine from a persisted model bundle — no re-fit.

        ``bundle`` is a :class:`~repro.serving.store.ModelBundle` or a
        path to one; this is its
        :meth:`~repro.serving.store.ModelBundle.build_engine`.
        """
        from ..serving.store import ModelBundle, load_model  # local: serving imports mle

        if not isinstance(bundle, ModelBundle):
            bundle = load_model(bundle)
        return bundle.build_engine()

    # ------------------------------------------------------------- plumbing
    def stats(self) -> dict:
        """Counters and cache statistics (for benchmarks and tests)."""
        out = {
            "n_factorizations": self.n_factorizations,
            "n_predicts": self.n_predicts,
            "stage_times": dict(self.times.stages),
        }
        if self.cross_cache is not None:
            out["cross_cache"] = {
                "hits": self.cross_cache.hits,
                "misses": self.cross_cache.misses,
                "nbytes": self.cross_cache.nbytes,
            }
        return out

    def clear(self) -> None:
        """Drop the factorization and solve caches (the cross-distance cache is kept)."""
        self._factor = None
        self._factor_key = None
        self._logdet = None
        self._alpha = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictionEngine(n={self._n}, variant={self.variant!r}, "
            f"nb={self.tile_size}, cached_factor={self._factor is not None})"
        )
