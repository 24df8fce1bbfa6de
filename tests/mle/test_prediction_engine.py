"""Parity harness for the PredictionEngine across all substrates.

Every configuration of the engine — (full-block | full-tile | tlr) x
(distance cache on/off) x (task-parallel generation on/off) — must
reproduce the *seed path*: the pre-engine implementation that
regenerated every covariance block serially and from scratch on each
call. The seed path is replicated verbatim in :func:`seed_predict` /
:func:`seed_conditional_variance` below so the engine refactor is
checked against an independent reference, not against itself.

Dense substrates must be bit-identical; TLR uses the deterministic SVD
compressor at a tight accuracy, so it is also held to near-bitwise
agreement with its own seed path (and to ``acc``-level agreement with
the dense answer). The suite also covers the engine-only behaviors:
multi-RHS batching vs. looped single-RHS solves, factorization reuse
across predict calls, and reuse of the fit's last factor.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.exceptions import ConfigurationError, NotPositiveDefiniteError
from repro.kernels import MaternCovariance
from repro.kernels.distance import pairwise_distance
from repro.linalg.blocklapack import block_cholesky, block_cholesky_solve
from repro.linalg.tile_cholesky import tile_cholesky
from repro.linalg.tile_matrix import TileMatrix
from repro.linalg.tile_solve import tile_cholesky_solve
from repro.linalg.tlr_cholesky import tlr_cholesky
from repro.linalg.tlr_matrix import TLRMatrix
from repro.linalg.tlr_solve import tlr_cholesky_solve
from repro.mle import (
    FitResult,
    MLEstimator,
    PredictionEngine,
    conditional_variance,
    predict,
)
from repro.runtime import Runtime

N, M, NB, ACC = 192, 20, 48, 1e-10
VARIANTS = ("full-block", "full-tile", "tlr")


# --------------------------------------------------------------------------
# Seed-path references: the original prediction.py code, kept verbatim.
# --------------------------------------------------------------------------


def seed_predict(locations, z, new_locations, model, variant, acc=ACC, tile_size=NB):
    """The pre-engine ``predict``: serial regenerate-everything kriging."""
    n = locations.shape[0]
    if variant == "full-block":
        sigma = model.matrix(locations)
        factor = block_cholesky(sigma, overwrite=True)
        alpha = np.asarray(block_cholesky_solve(factor, z))
    elif variant == "full-tile":
        tiles = TileMatrix.from_generator(
            n, tile_size, lambda rs, cs: model.tile(locations, rs, cs), symmetric_lower=True
        )
        tile_cholesky(tiles)
        alpha = tile_cholesky_solve(tiles, z)
    else:
        tlr = TLRMatrix.from_generator(
            n, tile_size, lambda rs, cs: model.tile(locations, rs, cs), acc=acc
        )
        tlr_cholesky(tlr)
        alpha = tlr_cholesky_solve(tlr, z)
    d12 = pairwise_distance(new_locations, locations, metric=model.metric)
    return model(d12) @ alpha


def seed_conditional_variance(locations, new_locations, model):
    """The pre-engine dense-only ``conditional_variance``."""
    sigma22 = model.matrix(locations)
    factor = block_cholesky(sigma22, overwrite=True)
    d12 = pairwise_distance(new_locations, locations, metric=model.metric)
    sigma12 = model(d12)
    half = sla.solve_triangular(factor, sigma12.T, lower=True, check_finite=False)
    var_marginal = float(model(np.zeros(1))[0]) + model.nugget
    reduction = np.einsum("ij,ij->j", half, half)
    return np.maximum(var_marginal - reduction, 0.0)


@pytest.fixture(scope="module")
def problem():
    locs = generate_irregular_grid(N + M, seed=5)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=6)
    return locs[:N], z[:N], locs[N:], model


def make_engine(problem, variant, cache, runtime=None, parallel=False, z="bound"):
    locs, zv, _, model = problem
    return PredictionEngine(
        locs,
        zv if z == "bound" else z,
        model,
        variant=variant,
        acc=ACC,
        tile_size=NB,
        runtime=runtime,
        cache_distances=cache,
        parallel_generation=parallel,
    )


def assert_variant_close(got, ref, variant):
    if variant == "tlr":
        # Deterministic SVD compression: same pipeline order -> same values;
        # tolerate last-bit drift from task-thread BLAS scheduling.
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
    else:
        np.testing.assert_array_equal(got, ref)


# --------------------------------------------------------------------------
# Parity: every (variant, cache, parallel) cell vs. the seed path.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_predict_parity_vs_seed_path(problem, variant, cache, parallel):
    locs, z, xnew, model = problem
    ref = seed_predict(locs, z, xnew, model, variant)
    if parallel:
        with Runtime(num_workers=2) as rt:
            engine = make_engine(problem, variant, cache, runtime=rt, parallel=True)
            got = engine.predict(xnew)
            again = engine.predict(xnew)  # cached factor, same runtime
    else:
        engine = make_engine(problem, variant, cache)
        got = engine.predict(xnew)
        again = engine.predict(xnew)
    assert_variant_close(got, ref, variant)
    np.testing.assert_array_equal(got, again)
    assert engine.n_factorizations == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_functional_wrapper_matches_seed_path(problem, variant):
    """The refactored module-level predict() is value-preserving."""
    locs, z, xnew, model = problem
    ref = seed_predict(locs, z, xnew, model, variant)
    got = predict(locs, z, xnew, model, variant=variant, acc=ACC, tile_size=NB)
    assert_variant_close(got, ref, variant)


def test_tlr_within_acc_of_dense(problem):
    locs, z, xnew, model = problem
    dense = seed_predict(locs, z, xnew, model, "full-block")
    tlr = make_engine(problem, "tlr", True).predict(xnew)
    np.testing.assert_allclose(tlr, dense, atol=1e-5)


# --------------------------------------------------------------------------
# Batched multi-RHS prediction.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_multi_rhs_matches_looped_single_rhs(problem, variant):
    locs, z, xnew, model = problem
    rng = np.random.default_rng(11)
    batch = np.column_stack([z, z + 0.1 * rng.standard_normal(N), rng.standard_normal(N)])
    engine = make_engine(problem, variant, True)
    got = engine.predict(xnew, z=batch)
    assert got.shape == (M, batch.shape[1])
    singles = np.column_stack(
        [engine.predict(xnew, z=batch[:, j]) for j in range(batch.shape[1])]
    )
    np.testing.assert_allclose(got, singles, rtol=1e-12, atol=1e-12)
    assert engine.n_factorizations == 1  # one factorization served every RHS


def test_multiple_target_sets_one_factorization(problem):
    locs, z, xnew, model = problem
    engine = make_engine(problem, "full-tile", True)
    p1 = engine.predict(xnew)
    p2 = engine.predict(locs[:7])
    assert p1.shape == (M,) and p2.shape == (7,)
    assert engine.n_factorizations == 1
    # Kriging interpolates at training points.
    np.testing.assert_allclose(p2, z[:7], atol=1e-5)
    # Repeating a target set hits the cross-distance cache.
    hits_before = engine.cross_cache.hits
    p1_again = engine.predict(xnew)
    assert engine.cross_cache.hits == hits_before + 1
    np.testing.assert_array_equal(p1, p1_again)


# --------------------------------------------------------------------------
# fit -> predict reuse.
# --------------------------------------------------------------------------


def test_predict_after_fit_skips_generation(problem):
    locs, z, xnew, _ = problem
    est = MLEstimator(locs, z, variant="full-tile", tile_size=NB)
    fit = est.fit(maxiter=40)
    p1 = est.predict(fit, xnew)
    engine = est.predictor(fit)
    nfact = engine.n_factorizations
    gen_before = engine.times.stages.get("generation", 0.0)
    misses_before = engine.distance_cache.misses if engine.distance_cache else None
    p2 = est.predict(fit, xnew)
    assert engine.n_factorizations == nfact  # factor reused, not recomputed
    assert engine.times.stages.get("generation", 0.0) == gen_before
    if engine.distance_cache is not None:
        assert engine.distance_cache.misses == misses_before
    np.testing.assert_array_equal(p1, p2)
    # Fit and prediction ran on one engine, so on one distance cache.
    assert engine is est.evaluator.engine
    assert engine.distance_cache is est.evaluator.distance_cache


def test_factor_adoption_from_evaluator(problem):
    """Predicting at the last evaluated theta reuses that evaluation's factor."""
    locs, z, xnew, model = problem
    theta = np.array([1.0, 0.1, 0.5])
    for variant in VARIANTS:
        est = MLEstimator(
            locs, z, variant=variant, acc=ACC, tile_size=NB, use_morton=False
        )
        ll = est.evaluator(theta)
        assert np.isfinite(ll)
        fit = FitResult(
            theta=theta, loglik=ll, optimizer=None, n_evals=1, time_total=0.0,
            time_per_iteration=0.0,
        )
        engine = est.predictor(fit)
        assert engine is est.evaluator.engine  # one owner of Sigma_22
        assert engine.n_factorizations == 1  # the evaluation's
        factorization_s = engine.times.stages["factorization"]
        pred = est.predict(fit, xnew)
        # No further generation or factorization: the engine's cache key
        # recognised the evaluation's factor.
        assert engine.n_factorizations == 1
        assert engine.times.stages["factorization"] == factorization_s
        ref = predict(
            locs, z, xnew, model.with_theta(theta), variant=variant, acc=ACC, tile_size=NB
        )
        np.testing.assert_array_equal(pred, ref)
        # A later evaluation elsewhere moves the factor with it; predicting
        # at the fit's theta then refactors (once) to the same answer.
        est.evaluator(theta * 1.05)
        np.testing.assert_array_equal(est.predict(fit, xnew), ref)
        assert engine.n_factorizations == 3


def test_estimator_predict_substrate_override_falls_back(problem):
    locs, z, xnew, model = problem
    est = MLEstimator(locs, z, variant="full-block", use_morton=False)
    theta = np.array([1.0, 0.1, 0.5])
    fit = FitResult(
        theta=theta, loglik=0.0, optimizer=None, n_evals=1, time_total=0.0,
        time_per_iteration=0.0,
    )
    via_engine = est.predict(fit, xnew)
    overridden = est.predict(fit, xnew, variant="full-tile", tile_size=NB)
    np.testing.assert_allclose(overridden, via_engine, atol=1e-8)


def test_z_override_respects_morton_reordering(problem):
    """A z= override follows the constructor's row order (regression).

    With use_morton=True the estimator permutes its training rows; an
    override equal to the constructor's z must yield the same
    predictions as the bound z.
    """
    locs, z, xnew, _ = problem
    rng = np.random.default_rng(13)
    shuffled = rng.permutation(N)  # ensure the Morton permutation is non-trivial
    est = MLEstimator(locs[shuffled], z[shuffled], variant="full-block", use_morton=True)
    assert est._perm is not None and not np.array_equal(est._perm, np.arange(N))
    theta = np.array([1.0, 0.1, 0.5])
    fit = FitResult(
        theta=theta, loglik=0.0, optimizer=None, n_evals=1, time_total=0.0,
        time_per_iteration=0.0,
    )
    bound = est.predict(fit, xnew)
    overridden = est.predict(fit, xnew, z=z[shuffled])
    np.testing.assert_array_equal(overridden, bound)


def test_set_model_metric_change_rebuilds_distance_caches(problem):
    locs, z, xnew, model = problem
    engine = make_engine(problem, "full-tile", True)
    engine.predict(xnew)
    gcd_model = MaternCovariance(1.0, 5.0, 0.5, metric="gcd")
    engine.set_model(gcd_model)
    assert engine.distance_cache.metric == "gcd"
    assert engine.cross_cache.metric == "gcd"
    got = engine.predict(xnew)
    fresh = PredictionEngine(
        locs, z, gcd_model, variant="full-tile", tile_size=NB, cache_distances=True
    ).predict(xnew)
    np.testing.assert_array_equal(got, fresh)


def test_theta_change_invalidates_factor(problem):
    locs, z, xnew, model = problem
    engine = make_engine(problem, "full-block", True)
    p1 = engine.predict(xnew)
    engine.set_model(model.with_theta(np.array([1.2, 0.12, 0.5])))
    p2 = engine.predict(xnew)
    assert engine.n_factorizations == 2
    assert not np.array_equal(p1, p2)
    # Distance caches survive the theta change: no new cross misses.
    assert engine.cross_cache.misses == 1


# --------------------------------------------------------------------------
# Conditional variance across substrates.
# --------------------------------------------------------------------------


def test_conditional_variance_dense_matches_seed_path(problem):
    locs, _, xnew, model = problem
    ref = seed_conditional_variance(locs, xnew, model)
    got = conditional_variance(locs, xnew, model)
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("variant", ["full-tile", "tlr"])
def test_conditional_variance_variants_agree_with_dense(problem, variant):
    locs, _, xnew, model = problem
    ref = seed_conditional_variance(locs, xnew, model)
    got = conditional_variance(
        locs, xnew, model, variant=variant, acc=ACC, tile_size=NB
    )
    np.testing.assert_allclose(got, ref, atol=1e-6)
    # Observed points have (near-)zero kriging variance on every substrate.
    at_obs = conditional_variance(
        locs, locs[:5], model, variant=variant, acc=ACC, tile_size=NB
    )
    np.testing.assert_allclose(at_obs, 0.0, atol=1e-6)


def test_conditional_variance_shares_predict_factorization(problem):
    locs, z, xnew, model = problem
    engine = make_engine(problem, "full-tile", True)
    engine.predict(xnew)
    var = engine.conditional_variance(xnew)
    assert var.shape == (M,)
    assert np.all(var >= 0.0)
    assert engine.n_factorizations == 1


# --------------------------------------------------------------------------
# Guards.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["full-block", "full-tile"])
def test_not_positive_definite_raises(problem, variant):
    # Duplicated locations with zero nugget -> exactly singular Sigma_22.
    locs = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.5], [0.9, 0.4]])
    model = MaternCovariance(1.0, 0.1, 0.5)
    with pytest.raises(NotPositiveDefiniteError):
        conditional_variance(locs, np.array([[0.3, 0.3]]), model, variant=variant, tile_size=2)


def test_predict_without_observations_raises(problem):
    locs, _, xnew, model = problem
    engine = PredictionEngine(locs, None, model, variant="full-block")
    with pytest.raises(ConfigurationError):
        engine.predict(xnew)
    # But variance-only use works.
    assert engine.conditional_variance(xnew).shape == (M,)


@pytest.mark.parametrize(
    "kwargs",
    [dict(variant="bogus"), dict(compression_method="bogus"), dict(compression_method="aca")],
)
def test_unknown_substrate_name_fails_at_construction(problem, kwargs):
    """An unknown variant or compressor is a ConfigurationError from the
    constructor, not a late error from the first factorization."""
    locs, z, _, model = problem
    kwargs = {"variant": "tlr", **kwargs}
    with pytest.raises(ConfigurationError, match="bogus|aca"):
        PredictionEngine(locs, z, model, tile_size=16, **kwargs)
