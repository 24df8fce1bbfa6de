"""``Sigma_22`` generated from coordinates, and the variance streamed.

Every factorization computes its distances in the task, from the
locations, and keeps none of them. These tests hold the engine's
log-likelihood bit for bit to a reference factored from stored distance
blocks (a warmed :class:`~repro.linalg.generation.TileDistanceCache`,
the whole distance matrix for full-block), bound what an engine holds
after :meth:`~repro.mle.PredictionEngine.factor_at` to its factor, and
check that :meth:`~repro.mle.PredictionEngine.conditional_variance`
walks ``Sigma_12`` in the row blocks :meth:`predict` uses.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import ExponentialCovariance, MaternCovariance
from repro.kernels.distance import pairwise_distance
from repro.linalg import (
    TileDistanceCache,
    TileGrid,
    TileMatrix,
    block_cholesky,
    generate_and_factor_tlr_matrix,
    tile_cholesky,
)
from repro.mle import PredictionEngine
from repro.mle import prediction_engine as pe
from repro.mle.loglik import LikelihoodEvaluator
from repro.runtime import Runtime

NB, ACC = 40, 1e-9
VARIANTS = ("full-block", "full-tile", "tlr")
#: Exponential: the in-place kernel; Matérn with a nugget: the table path
#: and the nugget on the top tile of every column panel.
MODELS = (ExponentialCovariance(1.0, 0.1), MaternCovariance(1.0, 0.1, 1.2, nugget=1e-3))


def _field(n: int):
    locs, _, _ = sort_locations(generate_irregular_grid(n, seed=n))
    return locs, sample_gaussian_field(locs, MaternCovariance(1.0, 0.1, 0.5), seed=1)


def _reference_factor(variant: str, locs: np.ndarray, model, ev: LikelihoodEvaluator):
    """``Sigma_22``'s factor from stored distances, one tile at a time."""
    if variant == "full-block":
        return block_cholesky(model.matrix_from_distances(pairwise_distance(locs)))
    generate = TileDistanceCache(locs, NB).warm().generator(model)
    n = locs.shape[0]
    if variant == "tlr":
        return generate_and_factor_tlr_matrix(
            n, NB, generate, ACC, method=ev.compression_method, rule=ev.truncation_rule
        )
    a = TileMatrix(TileGrid(n, NB), symmetric_lower=True)
    for i, j, _ in a.iter_stored():
        a.set_tile(i, j, generate(a.grid.tile_slice(i), a.grid.tile_slice(j)))
    return tile_cholesky(a)


def _loglik_of(factor, locs, z, model, ev) -> float:
    """What the evaluator computes, on an engine that adopted ``factor``."""
    engine = PredictionEngine(locs, z, model, variant=ev.substrate)
    engine.adopt_factor(factor, model)
    half = engine.half_solve(z)
    return float(ev._const - 0.5 * engine.logdet() - 0.5 * float(half @ half))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [150, 160])  # 150 = 3 * 40 + 30: a remainder tile
@pytest.mark.parametrize("model", MODELS, ids=["exp", "matern-nugget"])
def test_loglik_matches_a_reference_from_stored_distances(variant, workers, n, model):
    locs, z = _field(n)
    thetas = [model.theta * s for s in (1.0, 1.3, 0.8)]
    with Runtime(num_workers=workers) as rt:
        ev = LikelihoodEvaluator(
            locs, z, model, variant=variant, tile_size=NB, acc=ACC, runtime=rt
        )
        got = [ev(theta) for theta in thetas]
    expected = []
    for theta in thetas:
        m = model.with_theta(theta)
        expected.append(_loglik_of(_reference_factor(variant, locs, m, ev), locs, z, m, ev))
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    if ev.distance_cache is not None:
        assert ev.distance_cache.n_blocks == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_holds_its_factor_and_no_distances(variant):
    """After ``factor_at`` the engine holds the factor plus a small
    constant: no distance data survives a factorization."""
    locs, z = _field(960)
    model = ExponentialCovariance(1.0, 0.1)
    tracemalloc.start()
    try:
        engine = PredictionEngine(locs, z, model, variant=variant, tile_size=120, acc=ACC)
        engine.factor_at(model)
        engine.factor_at(model.with_theta([1.2, 0.08]))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor_bytes = engine.factor().nbytes
    assert factor_bytes > 1_000_000
    assert held <= factor_bytes + 256 * 1024, (held, factor_bytes)


@pytest.fixture(scope="module")
def grid_problem():
    locs = generate_irregular_grid(1600, seed=0)
    model = ExponentialCovariance(1.0, 0.1)
    z = sample_gaussian_field(locs, model, seed=1)
    side = (np.arange(18) + 0.5) / 18
    targets = np.stack(np.meshgrid(side, side, indexing="ij"), -1).reshape(-1, 2)
    return locs, z, model, targets


@pytest.mark.parametrize("variant", VARIANTS)
def test_conditional_variance_streams_sigma12(grid_problem, variant):
    """324 targets against 1 600 locations: the variance's working set is
    a few row blocks, not the (1 600, 324) half-solve."""
    locs, z, model, targets = grid_problem
    engine = PredictionEngine(locs, z, model, variant=variant, tile_size=200, acc=ACC)
    engine.factor()
    tracemalloc.start()
    try:
        engine.conditional_variance(targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("rows", [8, 40, 128])
def test_blocked_variance_matches_the_whole_half_solve(variant, rows, monkeypatch):
    """Row blocks of the half-solve against one ``(n, m)`` half-solve over
    every target: the same bits on full-block (LAPACK's triangular solve
    does not round by the number of right-hand sides); within rounding on
    the tile and TLR solves, whose GEMM updates round a narrow block of
    right-hand sides differently from a wide one in the last bit."""
    locs, z = _field(192)
    model = MaternCovariance(1.0, 0.1, 0.8)
    targets = np.random.default_rng(7).random((324, 2))
    monkeypatch.setattr(pe, "PREDICT_BLOCK_ENTRIES", rows * locs.shape[0])
    engine = PredictionEngine(locs, z, model, variant=variant, tile_size=48, acc=ACC)
    got = engine.conditional_variance(targets)
    sigma12 = model(pairwise_distance(targets, locs))
    half = engine._tri_solve(engine.factor(), sigma12.T, False)
    whole = np.maximum(float(model(np.zeros(1))[0]) - np.einsum("ij,ij->j", half, half), 0.0)
    if variant == "full-block":
        np.testing.assert_array_equal(got, whole)
    else:
        np.testing.assert_allclose(got, whole, rtol=1e-12, atol=1e-15)
