"""Tests for the from-scratch bound-constrained Nelder-Mead optimizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizationError
from repro.optim.bounds import (
    clip_to_bounds,
    default_matern_bounds,
    empirical_start,
    validate_bounds,
)
from repro.optim.neldermead import nelder_mead


def sphere(x):
    return float(np.sum((x - 0.3) ** 2))


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestNelderMead:
    def test_quadratic_convergence(self):
        res = nelder_mead(sphere, [0.9, 0.9, 0.9], [0.0] * 3, [1.0] * 3, maxiter=400)
        assert res.converged
        np.testing.assert_allclose(res.x, 0.3, atol=1e-3)
        assert res.fun < 1e-6

    def test_rosenbrock(self):
        res = nelder_mead(
            rosenbrock, [-0.5, 0.5], [-2.0, -2.0], [2.0, 2.0], maxiter=2000, ftol=1e-12, xtol=1e-12
        )
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=5e-3)

    def test_optimum_outside_box_clamps_to_boundary(self):
        # Minimum at 0.3 but box is [0.5, 1]; solution must sit on 0.5.
        res = nelder_mead(sphere, [0.8, 0.8], [0.5, 0.5], [1.0, 1.0], maxiter=300)
        np.testing.assert_allclose(res.x, 0.5, atol=1e-4)

    def test_all_iterates_respect_bounds(self):
        seen = []

        def spy(x):
            seen.append(x.copy())
            return sphere(x)

        nelder_mead(spy, [0.9, 0.1], [0.05, 0.05], [0.95, 0.95], maxiter=150)
        arr = np.array(seen)
        assert arr.min() >= 0.05 - 1e-12
        assert arr.max() <= 0.95 + 1e-12

    def test_maxiter_cap(self):
        res = nelder_mead(sphere, [0.9, 0.9], [0.0, 0.0], [1.0, 1.0], maxiter=3)
        assert res.nit == 3
        assert not res.converged
        assert "maximum" in res.message

    def test_history_monotone_nonincreasing(self):
        res = nelder_mead(rosenbrock, [0.0, 0.0], [-2, -2], [2, 2], maxiter=200)
        hist = np.array(res.history_fun)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_history_carries_iteration_theta_fun(self):
        res = nelder_mead(sphere, [0.9, 0.9], [0, 0], [1, 1], maxiter=30)
        assert len(res.history) == res.nit
        for k, entry in enumerate(res.history, start=1):
            assert entry.iteration == k
            assert entry.theta.shape == (2,)
            assert entry.fun == sphere(entry.theta)
        # The last entry is the trajectory's arrival at the returned optimum.
        assert res.history[-1].fun >= res.fun

    def test_history_matches_callback_stream(self):
        calls = []
        res = nelder_mead(
            rosenbrock,
            [0.0, 0.0],
            [-2, -2],
            [2, 2],
            maxiter=50,
            callback=lambda it, x, f: calls.append((it, x.copy(), f)),
        )
        assert len(calls) == len(res.history)
        for (cit, cx, cf), entry in zip(calls, res.history):
            assert cit == entry.iteration
            assert cf == entry.fun
            np.testing.assert_array_equal(cx, entry.theta)

    def test_nan_objective_treated_as_worst(self):
        def nan_hole(x):
            if x[0] > 0.6:
                return float("nan")
            return sphere(x)

        res = nelder_mead(nan_hole, [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], maxiter=200)
        assert np.isfinite(res.fun)
        assert res.x[0] <= 0.6 + 1e-6

    def test_penalty_inf_objective(self):
        def cliff(x):
            if x[0] < 0.2:
                return float("inf")
            return sphere(x)

        res = nelder_mead(cliff, [0.8, 0.5], [0.0, 0.0], [1.0, 1.0], maxiter=300)
        np.testing.assert_allclose(res.x, [0.3, 0.3], atol=1e-2)

    def test_callback_invoked_each_iteration(self):
        calls = []
        nelder_mead(
            sphere,
            [0.9, 0.9],
            [0, 0],
            [1, 1],
            maxiter=25,
            callback=lambda it, x, f: calls.append((it, f)),
        )
        assert len(calls) >= 1
        assert calls[0][0] == 1

    def test_nfev_counted(self):
        res = nelder_mead(sphere, [0.9], [0.0], [1.0], maxiter=50)
        assert res.nfev >= res.nit

    def test_invalid_inputs(self):
        with pytest.raises(OptimizationError):
            nelder_mead(sphere, [0.5], [0.0], [1.0], maxiter=0)
        with pytest.raises(Exception):
            nelder_mead(sphere, [0.5, 0.5], [0.0, 1.0], [1.0, 0.5])

    @settings(max_examples=15)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_property_never_worse_than_start(self, x0, y0):
        start_val = sphere(np.array([x0, y0]))
        res = nelder_mead(sphere, [x0, y0], [0, 0], [1, 1], maxiter=60)
        assert res.fun <= start_val + 1e-12


class TestResumableState:
    """The state/state_callback pair must make any checkpoint a perfect
    resume point — same final vertex, counters, and history, bit for bit."""

    def _run_full(self, maxiter=250):
        states = []
        res = nelder_mead(
            rosenbrock,
            [-0.5, 0.5],
            [-2.0, -2.0],
            [2.0, 2.0],
            maxiter=maxiter,
            ftol=1e-10,
            xtol=1e-10,
            state_callback=states.append,
        )
        return res, states

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_property_resume_from_any_checkpoint_is_bit_identical(self, frac):
        full, states = self._run_full()
        assert states, "expected at least one emitted state"
        k = min(len(states) - 1, int(frac * len(states)))
        resumed = nelder_mead(
            rosenbrock,
            None,
            [-2.0, -2.0],
            [2.0, 2.0],
            maxiter=250,
            ftol=1e-10,
            xtol=1e-10,
            state=states[k],
        )
        np.testing.assert_array_equal(resumed.x, full.x)
        assert resumed.fun == full.fun
        assert resumed.nfev == full.nfev
        assert resumed.nit == full.nit
        assert resumed.converged == full.converged
        assert len(resumed.history) == len(full.history)
        for a, b in zip(resumed.history, full.history):
            assert a.iteration == b.iteration and a.fun == b.fun
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_state_snapshots_own_their_arrays(self):
        _, states = self._run_full(maxiter=40)
        frozen = states[0].simplex.copy()
        # Later iterations must not have mutated the earlier snapshot.
        np.testing.assert_array_equal(states[0].simplex, frozen)
        assert states[0].iteration == 1
        assert [s.iteration for s in states] == list(range(1, len(states) + 1))

    def test_resume_past_maxiter_returns_checkpoint_best(self):
        _, states = self._run_full(maxiter=30)
        last = states[-1]
        res = nelder_mead(
            rosenbrock, None, [-2.0, -2.0], [2.0, 2.0], maxiter=last.iteration,
            state=last,
        )
        assert res.nit == last.iteration
        assert res.fun == float(np.min(last.fvals))
        assert res.nfev == last.nfev

    def test_resume_requires_x0_or_state(self):
        with pytest.raises(OptimizationError):
            nelder_mead(sphere, None, [0.0], [1.0])

    def test_bad_state_shape_rejected(self):
        from repro.optim.neldermead import SimplexState

        state = SimplexState(
            simplex=np.zeros((3, 2)), fvals=np.zeros(3), iteration=1, nfev=3,
            history=[],
        )
        with pytest.raises(OptimizationError):
            nelder_mead(sphere, None, [0.0], [1.0], state=state)


def multistart_fit(fn, lower, upper, **fit_kwargs):
    """``MLEstimator.fit`` — plan, one Nelder-Mead leg per start, merge
    — with the synthetic ``fn`` standing in for the likelihood."""
    from repro.mle import MLEstimator

    est = MLEstimator(np.random.default_rng(0).random((4, 2)), np.zeros(4))
    est.evaluator.negative = fn
    return est.fit(bounds=(lower, upper), **fit_kwargs)


class TestMultistart:
    def test_finds_global_of_two_basin_function(self):
        # Local minimum near 0.1 (value 0.5), global near 0.8 (value 0).
        def two_basins(x):
            return float(
                min(0.5 + 20 * (x[0] - 0.1) ** 2, 40 * (x[0] - 0.8) ** 2)
            )

        kwargs = dict(x0=[0.1], seed=3, maxiter=100)  # x0 sits in the local basin
        stuck = multistart_fit(two_basins, [0.0], [1.0], n_starts=1, **kwargs)
        assert stuck.optimizer.fun == pytest.approx(0.5)
        fit = multistart_fit(two_basins, [0.0], [1.0], n_starts=8, **kwargs)
        assert fit.optimizer.fun < 0.1
        np.testing.assert_allclose(fit.theta, [0.8], atol=0.05)
        assert fit.options["best_start"] > 0

    def test_x0_is_first_start(self):
        fit = multistart_fit(
            sphere, [0.0, 0.0], [1.0, 1.0], x0=[0.3, 0.3], n_starts=1, maxiter=5
        )
        assert fit.optimizer.fun <= 1e-10  # started at the optimum
        assert fit.options["best_start"] == 0

    def test_aggregated_counts(self):
        one = multistart_fit(sphere, [0.0], [1.0], n_starts=1, maxiter=20, seed=0)
        fit = multistart_fit(sphere, [0.0], [1.0], n_starts=3, maxiter=20, seed=0)
        assert fit.n_evals == fit.optimizer.nfev > one.optimizer.nfev > 20
        assert fit.optimizer.nit > one.optimizer.nit  # more than one run's worth

    def test_multistart_points_deterministic_and_match_sequential(self):
        from repro.optim.neldermead import multistart_points

        lo, hi = [1e-3, 1e-3], [2.0, 5.0]
        pts_a = multistart_points(lo, hi, n_starts=5, x0=[0.5, 0.5], seed=7)
        pts_b = multistart_points(lo, hi, n_starts=5, x0=[0.5, 0.5], seed=7)
        assert len(pts_a) == 5
        np.testing.assert_array_equal(pts_a[0], [0.5, 0.5])
        for a, b in zip(pts_a, pts_b):
            np.testing.assert_array_equal(a, b)

        # Running each start independently and merging with the strict-<
        # rule reproduces the multistart fit exactly.
        fit = multistart_fit(
            sphere, lo, hi, n_starts=5, x0=[0.5, 0.5], seed=7, maxiter=60
        )
        best = None
        for start in pts_a:
            res = nelder_mead(sphere, start, lo, hi, maxiter=60, ftol=1e-6, xtol=1e-6)
            if best is None or res.fun < best.fun:
                best = res
        np.testing.assert_array_equal(best.x, fit.theta)
        assert best.fun == fit.optimizer.fun
        assert fit.optimizer.history_fun == best.history_fun  # the winner's history


class TestBoundsHelpers:
    def test_clip(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        np.testing.assert_array_equal(
            clip_to_bounds(np.array([-1.0, 2.0]), lo, hi), [0.0, 1.0]
        )

    def test_validate_bounds_errors(self):
        with pytest.raises(Exception):
            validate_bounds([0.0, 1.0], [1.0])
        with pytest.raises(Exception):
            validate_bounds([1.0], [1.0])

    def test_default_matern_bounds_scale_with_data(self, rng):
        z = rng.normal(0, 3.0, 500)
        lo, hi = default_matern_bounds(z)
        assert lo[0] < 9.0 < hi[0]  # sample variance inside the box
        assert lo.shape == (3,) and hi.shape == (3,)

    def test_empirical_start_inside_box(self, rng):
        z = rng.normal(0, 2.0, 100)
        lo, hi = default_matern_bounds(z, max_range=10.0)
        x0 = empirical_start(z, lo, hi)
        assert np.all(x0 >= lo) and np.all(x0 <= hi)
        assert x0[0] == pytest.approx(np.var(z), rel=1e-6)
