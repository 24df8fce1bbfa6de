"""Tests for the MLE driver and kriging prediction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    GeoDataset,
    generate_irregular_grid,
    sample_gaussian_field,
)
from repro.kernels import ExponentialCovariance, MaternCovariance
from repro.mle.estimator import MLEstimator
from repro.mle.metrics import (
    mean_absolute_error,
    mean_squared_error,
    root_mean_squared_error,
)
from repro.mle.prediction import conditional_variance, predict


@pytest.fixture(scope="module")
def fitted_problem():
    locs = generate_irregular_grid(225, seed=21)
    truth = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, truth, seed=22)
    return locs, z, truth


class TestMLEstimatorFit:
    def test_recovers_parameters_fullblock(self, fitted_problem):
        locs, z, truth = fitted_problem
        est = MLEstimator(locs, z, variant="full-block")
        fit = est.fit(maxiter=150)
        # Small-n estimates are noisy; require the right ballpark.
        assert 0.3 < fit.theta[0] < 3.0
        assert 0.02 < fit.theta[1] < 0.5
        assert 0.25 < fit.theta[2] < 1.2
        assert fit.loglik > -1e11
        assert fit.n_evals > 10
        assert fit.time_per_iteration > 0

    def test_counts_and_times_are_of_this_fit_not_of_the_estimator(
        self, fitted_problem
    ):
        """A second fit — or a fit after direct evaluations — on one
        estimator reports its own evaluations, seconds per evaluation
        (the quantity of Figs 3-4) and stage seconds, not the
        evaluator's lifetime totals."""
        locs, z, _ = fitted_problem
        est = MLEstimator(locs, z, variant="full-tile", tile_size=75)
        first = est.fit(maxiter=10)
        est.evaluator(first.theta)  # a direct evaluation between the fits
        second = est.fit(maxiter=10, n_starts=2, seed=4)
        for fit in (first, second):
            assert fit.n_evals == fit.optimizer.nfev
            assert fit.time_per_iteration == fit.time_total / fit.n_evals
            assert 0.0 < sum(fit.stage_times.values()) <= fit.time_total
        assert est.evaluator.n_evals == first.n_evals + 1 + second.n_evals

    def test_resumed_leg_equals_uninterrupted_and_keeps_its_seconds(
        self, fitted_problem
    ):
        """run_leg from a snapshot: same optimizer outcome as the leg
        that never stopped, and its clock continues from the seconds the
        snapshot brought along (stamped on every snapshot it emits)."""
        locs, z, _ = fitted_problem
        est = MLEstimator(locs, z, variant="full-block")
        plan = est.plan_fit(
            x0=None, bounds=None, maxiter=12, ftol=1e-6, xtol=1e-6, n_starts=2, seed=9
        )
        states = []
        whole = est.run_leg(plan, 1, state_callback=states.append)
        stamps = [s.elapsed for s in states]
        assert stamps == sorted(stamps) and 0.0 < stamps[0] and stamps[-1] <= whole.elapsed

        states[4].elapsed = 100.0  # as if an earlier process had spent 100 s
        later = []
        resumed = est.run_leg(plan, 1, state=states[4], state_callback=later.append)
        np.testing.assert_array_equal(resumed.x, whole.x)
        assert (resumed.fun, resumed.nfev, resumed.nit) == (whole.fun, whole.nfev, whole.nit)
        assert 100.0 < later[0].elapsed <= later[-1].elapsed <= resumed.elapsed

    def test_tlr_matches_fullblock_fit(self, fitted_problem):
        locs, z, truth = fitted_problem
        fit_fb = MLEstimator(locs, z, variant="full-block").fit(maxiter=120)
        fit_tlr = MLEstimator(locs, z, variant="tlr", acc=1e-9, tile_size=45).fit(
            maxiter=120
        )
        np.testing.assert_allclose(fit_tlr.theta, fit_fb.theta, rtol=0.05)

    def test_fixed_start_and_bounds(self, fitted_problem):
        locs, z, _ = fitted_problem
        est = MLEstimator(locs, z, variant="full-block")
        lower = np.array([0.5, 0.05, 0.4])
        upper = np.array([2.0, 0.2, 0.6])
        fit = est.fit(x0=[1.0, 0.1, 0.5], bounds=(lower, upper), maxiter=60)
        assert np.all(fit.theta >= lower) and np.all(fit.theta <= upper)

    def test_from_dataset_inherits_metric(self, fitted_problem):
        locs, z, _ = fitted_problem
        ds = GeoDataset(locs, z, metric="euclidean", name="t")
        est = MLEstimator.from_dataset(ds, variant="full-block")
        assert est.model.metric == "euclidean"

    def test_morton_toggle(self, fitted_problem):
        locs, z, _ = fitted_problem
        est_m = MLEstimator(locs, z, use_morton=True)
        est_n = MLEstimator(locs, z, use_morton=False)
        # Same multiset of locations, different order.
        assert not np.array_equal(est_m.locations, est_n.locations)
        assert sorted(map(tuple, est_m.locations.tolist())) == sorted(
            map(tuple, est_n.locations.tolist())
        )

    def test_two_parameter_family(self, fitted_problem):
        locs, z, _ = fitted_problem
        est = MLEstimator(locs, z, model=ExponentialCovariance(), variant="full-block")
        fit = est.fit(maxiter=80)
        assert fit.theta.shape == (2,)


class TestPrediction:
    def test_kriging_interpolates_training_points(self, fitted_problem):
        locs, z, truth = fitted_problem
        pred = predict(locs, z, locs[:10], truth, variant="full-block")
        np.testing.assert_allclose(pred, z[:10], atol=1e-6)

    @pytest.mark.parametrize("variant,acc", [("full-tile", None), ("tlr", 1e-10)])
    def test_variants_agree_with_fullblock(self, fitted_problem, variant, acc):
        locs, z, truth = fitted_problem
        new = generate_irregular_grid(25, seed=30) * 0.8 + 0.1
        base = predict(locs, z, new, truth, variant="full-block")
        got = predict(locs, z, new, truth, variant=variant, acc=acc, tile_size=45)
        np.testing.assert_allclose(got, base, atol=1e-4)

    def test_prediction_better_than_mean(self, fitted_problem):
        locs, z, truth = fitted_problem
        train, test = slice(0, 200), slice(200, 225)
        pred = predict(locs[train], z[train], locs[test], truth, variant="full-block")
        mse_pred = mean_squared_error(z[test], pred)
        mse_mean = mean_squared_error(z[test], np.zeros(25))
        assert mse_pred < mse_mean

    def test_estimator_predict_roundtrip(self, fitted_problem):
        locs, z, _ = fitted_problem
        est = MLEstimator(locs[:200], z[:200], variant="full-block")
        fit = est.fit(maxiter=80)
        pred = est.predict(fit, locs[200:])
        assert pred.shape == (25,)
        assert mean_squared_error(z[200:], pred) < np.var(z)

    def test_conditional_variance_properties(self, fitted_problem):
        locs, z, truth = fitted_problem
        var_obs = conditional_variance(locs[:100], locs[:5], truth)
        np.testing.assert_allclose(var_obs, 0.0, atol=1e-6)  # observed points
        far = np.array([[5.0, 5.0]])  # far outside the domain
        var_far = conditional_variance(locs[:100], far, truth)
        assert var_far[0] == pytest.approx(truth.variance, rel=1e-3)


class TestMetrics:
    def test_values(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 1.0])
        assert mean_squared_error(a, b) == pytest.approx(5.0 / 3.0)
        assert root_mean_squared_error(a, b) == pytest.approx(np.sqrt(5.0 / 3.0))
        assert mean_absolute_error(a, b) == pytest.approx(1.0)

    def test_shape_guards(self):
        with pytest.raises(Exception):
            mean_squared_error(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(Exception):
            mean_squared_error(np.array([]), np.array([]))
