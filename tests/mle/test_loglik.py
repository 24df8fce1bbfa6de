"""Tests for the Gaussian log-likelihood evaluators (eq. (1))."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.kernels import MaternCovariance
from repro.mle.loglik import PENALTY_LOGLIK, LikelihoodEvaluator, exact_loglikelihood
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def problem():
    from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations

    locs = generate_irregular_grid(196, seed=3)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=4)
    return locs, z, model


class TestExactLoglikelihood:
    def test_matches_multivariate_normal_formula(self, problem):
        locs, z, model = problem
        sigma = model.matrix(locs)
        n = len(z)
        ref = (
            -0.5 * n * math.log(2 * math.pi)
            - 0.5 * np.linalg.slogdet(sigma)[1]
            - 0.5 * z @ np.linalg.solve(sigma, z)
        )
        assert exact_loglikelihood(locs, z, model) == pytest.approx(ref, rel=1e-10)

    def test_matches_scipy_multivariate_normal(self, problem):
        from scipy.stats import multivariate_normal

        locs, z, model = problem
        sigma = model.matrix(locs)
        ref = multivariate_normal(mean=np.zeros(len(z)), cov=sigma).logpdf(z)
        assert exact_loglikelihood(locs, z, model) == pytest.approx(ref, rel=1e-9)


#: Substrate, TLR accuracy, and the relative bound on |l - l_exact| it buys.
SUBSTRATE_BOUNDS = [
    ("full-block", None, 1e-9),
    ("full-tile", None, 1e-6),
    ("tlr", 1e-9, 1e-3),
    ("tlr", 1e-12, 1e-6),
]
#: A range so long that Sigma is numerically singular on every substrate.
NPD_THETA = np.array([1.0, 50.0, 2.5])


class TestEvaluatorVariants:
    @pytest.mark.parametrize("variant,acc,tol", SUBSTRATE_BOUNDS)
    def test_agreement_with_exact(self, problem, variant, acc, tol):
        locs, z, model = problem
        exact = exact_loglikelihood(locs, z, model)
        ev = LikelihoodEvaluator(locs, z, model, variant=variant, acc=acc, tile_size=49)
        assert ev(model.theta) == pytest.approx(exact, abs=abs(exact) * tol + tol)

    def test_accuracy_ladder(self, problem):
        locs, z, model = problem
        exact = exact_loglikelihood(locs, z, model)
        errs = []
        for acc in (1e-3, 1e-6, 1e-9, 1e-12):
            ev = LikelihoodEvaluator(locs, z, model, variant="tlr", acc=acc, tile_size=49)
            errs.append(abs(ev(model.theta) - exact))
        # Tighter accuracy must not be (much) worse.
        assert errs[-1] <= errs[0] + 1e-9
        assert errs[-1] < 1e-4

    def test_negative_is_negated(self, problem):
        locs, z, model = problem
        ev = LikelihoodEvaluator(locs, z, model, variant="full-block")
        assert ev.negative(model.theta) == pytest.approx(-ev(model.theta))

    def test_counters_and_stage_times(self, problem):
        locs, z, model = problem
        ev = LikelihoodEvaluator(locs, z, model, variant="full-tile", tile_size=49)
        ev(model.theta)
        ev(model.theta * 1.1)
        assert ev.n_evals == 2
        assert set(ev.times.stages) == {"generation", "factorization", "solve"}
        assert sum(ev.times.stages.values()) > 0.0

    def test_penalty_on_singular_covariance(self):
        # Duplicate locations make Sigma exactly singular for any theta.
        locs = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        z = np.array([0.3, 0.3, -0.1, 0.2])
        model = MaternCovariance(1.0, 0.1, 0.5)
        ev = LikelihoodEvaluator(locs, z, model, variant="full-block")
        assert ev(model.theta) == PENALTY_LOGLIK
        assert ev.n_failures == 1

    def test_shared_runtime_consistency(self, problem):
        locs, z, model = problem
        serial = LikelihoodEvaluator(locs, z, model, variant="tlr", acc=1e-8, tile_size=49)
        want = serial(model.theta)
        with Runtime(num_workers=4) as rt:
            par = LikelihoodEvaluator(
                locs, z, model, variant="tlr", acc=1e-8, tile_size=49, runtime=rt
            )
            got = par(model.theta)
            got2 = par(model.theta)
        assert got == pytest.approx(want, rel=1e-12)
        assert got2 == pytest.approx(want, rel=1e-12)

    def test_invalid_variant(self, problem):
        locs, z, model = problem
        with pytest.raises(ConfigurationError):
            LikelihoodEvaluator(locs, z, model, variant="sparse")

    def test_z_never_mutated(self, problem):
        locs, z, model = problem
        z0 = z.copy()
        for variant, acc in (("full-block", None), ("full-tile", None), ("tlr", 1e-9)):
            ev = LikelihoodEvaluator(locs, z, model, variant=variant, acc=acc, tile_size=49)
            ev(model.theta)
        np.testing.assert_array_equal(z, z0)


class TestEngineSeam:
    """The evaluator runs on its engine's generate -> factor -> solve seam."""

    @pytest.mark.parametrize("variant,acc,tol", SUBSTRATE_BOUNDS)
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_agreement_with_exact_on_a_runtime(self, problem, variant, acc, tol, fused):
        locs, z, model = problem
        exact = exact_loglikelihood(locs, z, model)
        with Runtime(num_workers=2) as rt:
            ev = LikelihoodEvaluator(
                locs, z, model, variant=variant, acc=acc, tile_size=49,
                runtime=rt, parallel_generation=fused,
            )
            assert ev(model.theta) == pytest.approx(exact, abs=abs(exact) * tol + tol)

    @pytest.mark.parametrize("variant", ["full-block", "full-tile", "tlr"])
    def test_every_call_factors_exactly_once(self, problem, variant):
        locs, z, model = problem
        ev = LikelihoodEvaluator(locs, z, model, variant=variant, acc=1e-9, tile_size=49)
        values = []
        # The same theta twice in a row must not be served from the cache:
        # one evaluation is one generation + factorization.
        for k, theta in enumerate([model.theta, model.theta, model.theta * 1.1], start=1):
            values.append(ev(theta))
            assert ev.engine.n_factorizations == k
        assert values[0] == values[1] != values[2]
        assert ev.n_evals == 3

    @pytest.mark.parametrize("variant", ["full-block", "full-tile", "tlr"])
    def test_failed_evaluation_leaves_no_factor(self, problem, variant):
        locs, z, model = problem
        ev = LikelihoodEvaluator(locs, z, model, variant=variant, acc=1e-9, tile_size=49)
        ev(model.theta)
        assert ev(NPD_THETA) == PENALTY_LOGLIK
        assert (ev.n_evals, ev.n_failures) == (2, 1)
        engine = ev.engine
        # A predict after the failure factors afresh at the model it is
        # given; it never solves against the earlier theta's factor.
        nfact = engine.n_factorizations
        got = engine.set_model(model).predict(locs[:5] + 0.01)
        assert engine.n_factorizations == nfact + 1
        fresh = LikelihoodEvaluator(locs, z, model, variant=variant, acc=1e-9, tile_size=49)
        np.testing.assert_array_equal(got, fresh.engine.predict(locs[:5] + 0.01))

    def test_evaluator_keeps_its_own_observations(self, problem):
        locs, z, model = problem
        ev = LikelihoodEvaluator(locs, z, model, variant="full-tile", tile_size=49)
        want = ev(model.theta)
        ev.engine.set_observations(2.0 * z)  # what a predictor sharing the engine may do
        assert ev(model.theta) == want


class TestSubstratesAgreeOnTheDiagonal:
    """Regression: tile substrates saw ~1e-8 instead of 0 on Sigma's diagonal."""

    @pytest.fixture(scope="class")
    def values(self, problem):
        locs, z, model = problem

        def at(theta):
            return {
                variant: LikelihoodEvaluator(
                    locs, z, model, variant=variant, acc=1e-12, tile_size=49
                )(np.asarray(theta))
                for variant in ("full-block", "full-tile", "tlr")
            }

        return at

    def test_full_tile_matches_full_block_to_rounding(self, values):
        got = values([1.0, 0.1, 0.5])
        # Was ~4e-10 relative apart; now only summation order differs.
        assert got["full-tile"] == pytest.approx(got["full-block"], rel=1e-13)

    def test_full_tile_matches_full_block_at_a_tabled_smoothness(self, values):
        # ν = 0.8 takes the per-ν Chebyshev table: tiles and the full block
        # must still get bit-identical entries, zero diagonal included.
        got = values([1.0, 0.1, 0.8])
        assert got["full-tile"] == pytest.approx(got["full-block"], rel=1e-13)

    def test_tiny_range_is_not_a_false_penalty(self, values):
        # exp(-1e-8 / 1e-300) = 0 on the diagonal made tile/TLR "non-SPD"
        # where Sigma is simply sigma^2 I.
        got = values([1.0, 1e-300, 0.5])
        assert got["full-block"] > PENALTY_LOGLIK
        assert got["full-tile"] == got["tlr"] == got["full-block"]
