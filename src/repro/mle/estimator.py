"""The MLE driver: fit a Matérn model to data, then predict (paper §III).

:class:`MLEstimator` wires together the pieces exactly as ExaGeoStat
does: (1) Morton-order the locations, (2) wrap a
:class:`~repro.mle.loglik.LikelihoodEvaluator` for the chosen substrate
(full-block / full-tile / TLR), (3) maximize with the bound-constrained
Nelder-Mead optimizer, (4) predict at new locations through the fitted
model.

A fit is three steps, stated here once: :meth:`MLEstimator.plan_fit`
resolves the settings into a :class:`FitPlan` (box, start list, seed,
tolerances), :meth:`MLEstimator.run_leg` runs the optimizer from one of
the plan's starts, :meth:`MLEstimator.merge_legs` keeps the best leg and
assembles the :class:`FitResult`. :meth:`MLEstimator.fit` runs every leg
in a loop; the fit service (:mod:`repro.fitting`) runs each leg in its
own process with a checkpoint stream and merges in a last one. Both
reach the optimizer and build their result through these same three
functions, so they agree bit for bit by construction.

Fit and prediction run on **one**
:class:`~repro.mle.prediction_engine.PredictionEngine` — the
evaluator's. :meth:`MLEstimator.predictor` only rebinds that engine's
model to ``fit.theta``, so prediction inherits the fit's cross-distance
cache, runtime and knobs with nothing handed over, and when the last
likelihood evaluation was at ``fit.theta`` the engine's own cache key
makes the first predict skip generation and factorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..config import get_config
from ..data.datasets import GeoDataset
from ..data.morton import morton_order
from ..exceptions import FittingError
from ..kernels.covariance import CovarianceModel, MaternCovariance
from ..optim.bounds import default_matern_bounds, empirical_start, validate_bounds
from ..optim.neldermead import SimplexState, multistart_points, nelder_mead
from ..optim.result import OptimizeResult
from ..substrate import Substrate, substrate_view
from ..utils.validation import as_float_array, check_locations, check_vector
from .loglik import LikelihoodEvaluator
from .prediction_engine import PredictionEngine

__all__ = ["MLEstimator", "FitPlan", "FitResult"]


@dataclass(frozen=True)
class FitPlan:
    """A fit's settings, resolved: what :meth:`MLEstimator.plan_fit` returns.

    Everything a leg needs besides the estimator, and a pure function of
    the data and the requested settings — every process working on one
    fit job rebuilds the identical plan and claims one index of
    ``starts``.

    Attributes
    ----------
    lower, upper:
        The optimization box.
    x0, seed:
        Starting ``theta`` (as given or derived; ``starts[0]`` is its
        projection into the box) and the seed of the multistart draw.
    starts:
        One point per leg
        (:func:`~repro.optim.neldermead.multistart_points`).
    maxiter, ftol, xtol:
        Optimizer controls of every leg.
    use_morton, warm_start:
        Recorded with the fit: whether the estimator Morton-reordered
        its data, and whether ``x0`` is a previous fit's ``theta``.
    """

    lower: np.ndarray
    upper: np.ndarray
    x0: np.ndarray
    seed: int
    starts: List[np.ndarray]
    maxiter: int
    ftol: float
    xtol: float
    use_morton: bool
    warm_start: bool = False

    def options(self) -> dict:
        """The reproducibility record a bundle persists as
        ``info["fit"]`` (:attr:`FitResult.options` adds ``best_start``)."""
        return {
            "x0": [float(v) for v in self.x0],
            "bounds": {
                "lower": [float(v) for v in self.lower],
                "upper": [float(v) for v in self.upper],
            },
            "maxiter": self.maxiter,
            "ftol": self.ftol,
            "xtol": self.xtol,
            "n_starts": len(self.starts),
            "seed": self.seed,
            "use_morton": self.use_morton,
            "warm_start": self.warm_start,
        }


@dataclass
class FitResult:
    """Outcome of an MLE fit.

    Attributes
    ----------
    theta:
        Estimated parameter vector (order given by the model family).
    loglik:
        Log-likelihood at ``theta``.
    optimizer:
        Full optimizer result (iterations, evaluations, history).
    n_evals:
        Likelihood evaluations this fit performed, summed over its legs.
    time_total:
        Wall-clock seconds of the fit, summed over its legs.
    time_per_iteration:
        Mean wall-clock seconds per likelihood evaluation — the
        quantity the paper's Figures 3 and 4 report.
    stage_times:
        Generation / factorization / solve seconds spent during this
        fit (empty for a fit job, whose legs ran in other processes).
    substrate:
        The resolved :class:`~repro.substrate.Substrate` every
        evaluation ran on; ``variant`` and ``acc`` read it back.
    options:
        The optimizer settings the fit actually ran with —
        :meth:`FitPlan.options` plus ``best_start``, the index of the
        winning leg — recorded so a persisted bundle can state exactly
        how to reproduce its fit (see
        :func:`~repro.serving.store.bundle_from_fit`).
    """

    theta: np.ndarray
    loglik: float
    optimizer: OptimizeResult
    n_evals: int
    time_total: float
    time_per_iteration: float
    stage_times: dict = field(default_factory=dict)
    substrate: Optional[Substrate] = None
    options: dict = field(default_factory=dict)

    variant = substrate_view("variant")
    acc = substrate_view("acc")

    @property
    def history(self):
        """Per-iteration ``(iteration, theta, fun)`` trajectory of the
        winning optimizer run (``fun`` is the *negative* log-likelihood),
        straight off :attr:`optimizer` — fit-progress reporting needs no
        side channel."""
        return self.optimizer.history


class MLEstimator:
    """Maximum-likelihood estimation of a spatial covariance model.

    Parameters
    ----------
    locations:
        ``(n, d)`` spatial locations.
    z:
        ``(n,)`` observations (zero-mean residuals).
    model:
        Template covariance model; defaults to Matérn with the data's
        metric. Its current ``theta`` is irrelevant — only the family,
        metric, and nugget matter.
    variant, acc, tile_size:
        Substrate keywords of the
        :class:`~repro.mle.prediction_engine.PredictionEngine`; left
        unset with ``Config.auto_tune`` on, ``tile_size`` is planned.
    metric:
        Distance metric when no template model is given.
    use_morton:
        Reorder locations along the Morton curve before assembling
        covariances (ExaGeoStat always does; disabling it is an ablation).
    **engine_options:
        The remaining keywords of the fit's
        :class:`~repro.mle.prediction_engine.PredictionEngine` —
        ``runtime`` (shared task runtime for parallel factorizations
        and fused generation), ``compression_method``, ``truncation``,
        ``compression_batch``, ``cache_distances``,
        ``parallel_generation``. The substrate keywords are resolved
        once, here, into :attr:`substrate`.

    Examples
    --------
    >>> from repro.data import generate_irregular_grid, sample_gaussian_field
    >>> from repro.kernels import MaternCovariance
    >>> locs = generate_irregular_grid(100, seed=0)
    >>> truth = MaternCovariance(1.0, 0.1, 0.5)
    >>> z = sample_gaussian_field(locs, truth, seed=1)
    >>> est = MLEstimator(locs, z, variant="full-block")
    >>> fit = est.fit(maxiter=40)
    >>> fit.theta.shape
    (3,)
    """

    variant = substrate_view("variant")
    acc = substrate_view("acc")

    def __init__(
        self,
        locations: np.ndarray,
        z: np.ndarray,
        *,
        model: Optional[CovarianceModel] = None,
        variant: Union[str, Substrate] = "full-block",
        acc: Optional[float] = None,
        tile_size: Optional[int] = None,
        metric: str = "euclidean",
        use_morton: bool = True,
        **engine_options: object,
    ) -> None:
        locations = check_locations(locations, "locations")
        z = check_vector(as_float_array(z, "z"), locations.shape[0], "z")
        self.use_morton = bool(use_morton)
        self._perm: Optional[np.ndarray] = None
        if use_morton:
            perm = morton_order(locations)
            locations, z = locations[perm], z[perm]
            self._perm = perm
        self.locations = locations
        self.z = z
        self.model = model or MaternCovariance(metric=metric)
        others = ("compression_method", "truncation", "compression_batch")
        self.substrate = Substrate.resolve(
            variant, acc=acc, tile_size=tile_size, n=locations.shape[0],
            **{key: engine_options.pop(key, None) for key in others},
        )
        self.evaluator = LikelihoodEvaluator(
            locations, z, self.model, variant=self.substrate, **engine_options
        )

    @classmethod
    def from_dataset(cls, dataset: GeoDataset, **kwargs: object) -> "MLEstimator":
        """Build an estimator from a :class:`GeoDataset` (metric inherited)."""
        kwargs.setdefault("metric", dataset.metric)
        if "model" not in kwargs:
            kwargs["model"] = MaternCovariance(metric=dataset.metric)
        return cls(dataset.locations, dataset.values, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ fit
    def default_bounds(self) -> tuple:
        """The optimization box :meth:`fit` uses when none is given.

        :func:`~repro.optim.bounds.default_matern_bounds` scaled to the
        metric (unit square vs GCD degrees), truncated to the variance +
        range box for two-parameter families.
        """
        max_range = 60.0 if self.model.metric in ("gcd", "great_circle") else 5.0
        lo3, hi3 = default_matern_bounds(self.z, max_range=max_range)
        if len(self.model.param_names) == 3:
            return lo3, hi3
        # Two-parameter families: variance + range box.
        return lo3[:2], hi3[:2]

    def fit(
        self,
        *,
        x0: Optional[Sequence[float]] = None,
        bounds: Optional[tuple] = None,
        maxiter: int = 200,
        ftol: float = 1e-6,
        xtol: float = 1e-6,
        n_starts: int = 1,
        seed: Optional[int] = None,
    ) -> FitResult:
        """Maximize the log-likelihood; returns a :class:`FitResult`.

        Plan, run every leg in turn, merge.

        Parameters
        ----------
        x0:
            Starting ``theta``; defaults to empirical values from the data
            (paper §IV's recommendation).
        bounds:
            ``(lower, upper)`` arrays; defaults to :meth:`default_bounds`.
        maxiter, ftol, xtol:
            Optimizer controls (see
            :func:`~repro.optim.neldermead.nelder_mead`).
        n_starts:
            With ``n_starts > 1``, run a multistart search (first start
            at ``x0``, the rest log-uniform in the box) — useful for the
            weakly identified strong-correlation regimes of Tables I/II.
        seed:
            Seed for the multistart draw (``None`` uses the configured
            ``rng_seed``). Recorded in :attr:`FitResult.options` either
            way, so the fit is reproducible from its result alone.
        """
        plan = self.plan_fit(
            x0=x0,
            bounds=bounds,
            maxiter=maxiter,
            ftol=ftol,
            xtol=xtol,
            n_starts=n_starts,
            seed=seed,
        )
        stages = self.evaluator.times.stages
        before = dict(stages)
        legs = [self.run_leg(plan, i) for i in range(len(plan.starts))]
        return self.merge_legs(
            plan,
            legs,
            stage_times={k: v - before.get(k, 0.0) for k, v in stages.items()},
        )

    def plan_fit(
        self,
        *,
        x0: Optional[Sequence[float]],
        bounds: Optional[tuple],
        maxiter: int,
        ftol: float,
        xtol: float,
        n_starts: int,
        seed: Optional[int],
        warm_start: bool = False,
    ) -> FitPlan:
        """Resolve :meth:`fit`'s settings into a :class:`FitPlan`.

        ``None`` means what it means to :meth:`fit` (default box,
        empirical start, configured seed); ``warm_start`` only records
        that ``x0`` is a previous fit's ``theta``.
        """
        if bounds is None:
            lower, upper = self.default_bounds()
        else:
            lower, upper = validate_bounds(*bounds)
        if x0 is None:
            x0 = empirical_start(self.z, lower, upper)
        x0 = np.asarray(x0, dtype=np.float64)
        seed = get_config().rng_seed if seed is None else int(seed)
        return FitPlan(
            lower=lower,
            upper=upper,
            x0=x0,
            seed=seed,
            starts=multistart_points(lower, upper, n_starts=n_starts, x0=x0, seed=seed),
            maxiter=int(maxiter),
            ftol=float(ftol),
            xtol=float(xtol),
            use_morton=self.use_morton,
            warm_start=bool(warm_start),
        )

    def run_leg(
        self,
        plan: FitPlan,
        i: int,
        *,
        state: Optional[SimplexState] = None,
        callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
        state_callback: Optional[Callable[[SimplexState], None]] = None,
    ) -> OptimizeResult:
        """Run the optimizer from ``plan.starts[i]`` — or on from
        ``state``, a snapshot an earlier process of this leg left — to
        termination.

        ``callback`` / ``state_callback`` are
        :func:`~repro.optim.neldermead.nelder_mead`'s per-iteration and
        checkpoint hooks. The leg's clock lives here: snapshots and the
        result carry the seconds spent *including* those ``state``
        brought along, so a resumed leg reports its whole cost beside
        its whole ``nfev``.
        """
        spent = 0.0 if state is None else state.elapsed
        t0 = time.perf_counter()

        def stamped(snapshot: SimplexState) -> None:
            snapshot.elapsed = spent + time.perf_counter() - t0
            state_callback(snapshot)

        result = nelder_mead(
            self.evaluator.negative,
            plan.starts[i],
            plan.lower,
            plan.upper,
            ftol=plan.ftol,
            xtol=plan.xtol,
            maxiter=plan.maxiter,
            callback=callback,
            state=state,
            state_callback=None if state_callback is None else stamped,
        )
        result.elapsed = spent + time.perf_counter() - t0
        return result

    def merge_legs(
        self,
        plan: FitPlan,
        legs: Sequence[Optional[OptimizeResult]],
        *,
        stage_times: Optional[dict] = None,
    ) -> FitResult:
        """Combine one finished leg per start of ``plan`` into the fit.

        Strictly-better ``fun`` wins and ties keep the earliest start,
        whatever order the legs finished in; evaluations, iterations
        and seconds are summed over all legs, and the winner's history
        is the fit's.
        """
        if len(legs) != len(plan.starts) or any(leg is None for leg in legs):
            raise FittingError("cannot merge: not every start has a result")
        best = min(range(len(legs)), key=lambda i: legs[i].fun)
        nfev = sum(leg.nfev for leg in legs)
        elapsed = float(sum(leg.elapsed for leg in legs))
        optimizer = replace(
            legs[best], nfev=nfev, nit=sum(leg.nit for leg in legs), elapsed=elapsed
        )
        return FitResult(
            theta=optimizer.x.copy(),
            loglik=-optimizer.fun,
            optimizer=optimizer,
            n_evals=nfev,
            time_total=elapsed,
            time_per_iteration=elapsed / max(1, nfev),
            stage_times=dict(stage_times or {}),
            substrate=self.substrate,
            options={**plan.options(), "best_start": best},
        )

    # -------------------------------------------------------------- predict
    def predictor(self, fit: FitResult) -> PredictionEngine:
        """The fit's own :class:`PredictionEngine`, bound to ``fit.theta``.

        This is the engine every likelihood evaluation ran on, so it
        already holds the fit's cross-distance cache, runtime and knobs — and
        the factor of the last evaluated ``theta``. If that was
        ``fit.theta`` the first ``predict`` skips generation *and*
        factorization of ``Sigma_22``; otherwise it factors once.
        Subsequent calls — new target sets, batched realizations,
        conditional variances — reuse that one factor until ``theta``
        changes (a further likelihood evaluation changes it).
        """
        return self.evaluator.engine.set_model(self.model.with_theta(fit.theta))

    def predict(
        self,
        fit: FitResult,
        new_locations: np.ndarray,
        *,
        variant: Optional[str] = None,
        acc: Optional[float] = None,
        tile_size: Optional[int] = None,
        z: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predict values at ``new_locations`` using the fitted model.

        With no substrate overrides this goes through :meth:`predictor`,
        so repeated calls against one fit reuse the fit's cross-distance
        cache and a single ``Sigma_22`` factorization (pass ``z`` with shape
        ``(n, k)`` for batched multi-RHS prediction). A ``z`` override
        follows the *constructor's* row order — when the estimator
        Morton-reordered the training locations, the override is
        permuted the same way before the solve. ``variant``/``acc``/
        ``tile_size`` override those fields of :attr:`substrate` for a
        fresh engine on this estimator's training data; values are
        identical either way.
        """
        if z is not None and self._perm is not None:
            z = np.asarray(z, dtype=np.float64)[self._perm]
        sub = Substrate.resolve(variant, acc=acc, tile_size=tile_size, base=self.substrate)
        if sub == self.substrate:
            return self.predictor(fit).predict(new_locations, z=z)
        model, z = self.model.with_theta(fit.theta), self.z if z is None else z
        return PredictionEngine(self.locations, z, model, variant=sub).predict(new_locations)

    def conditional_variance(self, fit: FitResult, new_locations: np.ndarray) -> np.ndarray:
        """Pointwise kriging variance at ``new_locations`` (eq. (3)).

        Runs on this estimator's substrate through :meth:`predictor`,
        reusing the same cached ``Sigma_22`` factorization as
        :meth:`predict`.
        """
        return self.predictor(fit).conditional_variance(new_locations)

    # ---------------------------------------------------------------- serve
    def save_fit(
        self,
        fit: FitResult,
        path: object,
        *,
        include_factor: bool = True,
    ):
        """Persist this fit as a serving bundle (``meta.json`` + ``.npz``).

        Captures everything :class:`~repro.serving.ModelRegistry` needs
        to serve predictions from a fresh process without re-fitting:
        the fitted model, the (Morton-ordered) training locations and
        observations, the substrate configuration, and — with
        ``include_factor`` (default) — the ``Sigma_22`` Cholesky factor
        of :meth:`predictor`, so the loaded engine's predictions are
        bit-identical to this process's and its first request skips
        factorization.

        Returns the bundle path. See :func:`repro.serving.store.save_model`.
        """
        from ..serving.store import bundle_from_fit  # local: serving imports mle

        return bundle_from_fit(self, fit, include_factor=include_factor).save(path)
