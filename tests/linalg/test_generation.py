"""Tests for the generation pipeline: the distance caches, and the
generate-and-factor graphs fed from a tile generator (the fused graph ≡
the serial generate-then-factor loop, bit for bit)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import use_config
from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import (
    ExponentialCovariance,
    GaussianCovariance,
    MaternCovariance,
)
from repro.exceptions import ConfigurationError
from repro.linalg.generation import TileDistanceCache, generate_and_factor_tlr_matrix
from repro.linalg.tile_cholesky import tile_cholesky, tile_cholesky_from_source
from repro.linalg.tile_matrix import TileGrid, TileMatrix, tile_source
from repro.mle.loglik import LikelihoodEvaluator
from repro.runtime import Runtime

N, NB = 196, 49


@pytest.fixture(scope="module")
def locs():
    pts = generate_irregular_grid(N, seed=11)
    pts, _, _ = sort_locations(pts)
    return pts


@pytest.fixture(scope="module")
def gcd_locs(locs):
    # Scale the unit square into a (lon, lat) window for the GCD metric.
    return np.column_stack([locs[:, 0] * 10.0 - 100.0, locs[:, 1] * 10.0 + 30.0])


def _models(locs, gcd_locs):
    return [
        (locs, MaternCovariance(1.3, 0.12, 0.8)),
        (locs, ExponentialCovariance(0.9, 0.2, nugget=0.01)),
        (locs, GaussianCovariance(1.0, 0.15)),
        (gcd_locs, MaternCovariance(1.0, 3.0, 0.5, metric="gcd")),
    ]


class TestTileDistanceCache:
    def test_bit_identical_tiles_across_models_and_metrics(self, locs, gcd_locs):
        for x, model in _models(locs, gcd_locs):
            cache = TileDistanceCache(x, NB, metric=model.metric)
            gen = cache.generator(model)
            grid = cache.grid
            for i in range(grid.nt):
                for j in range(i + 1):
                    rs, cs = grid.tile_slice(i), grid.tile_slice(j)
                    direct = model.tile(x, rs, cs)
                    np.testing.assert_array_equal(gen(rs, cs), direct)

    def test_second_pass_hits_cache(self, locs):
        # Generation keeps nothing: every block is computed from the
        # coordinates; only warm() stores blocks, and a pass after it hits.
        model = MaternCovariance(1.0, 0.1, 0.5)
        cache = TileDistanceCache(locs, NB)
        gen = cache.generator(model)
        grid = cache.grid
        lower = [(grid.tile_slice(i), grid.tile_slice(j)) for i in range(grid.nt) for j in range(i + 1)]
        cold = [gen(rs, cs) for rs, cs in lower]
        assert cache.misses == len(lower) and cache.hits == 0
        assert cache.n_blocks == 0 and cache.nbytes == 0
        cache.warm()
        assert cache.misses == 2 * len(lower) and cache.nbytes > 0
        for (rs, cs), tile in zip(lower, cold):
            np.testing.assert_array_equal(gen(rs, cs), tile)
        assert cache.hits == len(lower)

    def test_warm_and_clear(self, locs):
        cache = TileDistanceCache(locs, NB).warm()
        expected = cache.grid.nt * (cache.grid.nt + 1) // 2
        assert cache.n_blocks == expected
        cache.clear()
        assert cache.n_blocks == 0 and cache.nbytes == 0

    def test_full_matrix_from_distances_matches_matrix(self, locs):
        from repro.kernels.distance import pairwise_distance

        model = MaternCovariance(1.1, 0.2, 1.5, nugget=1e-3)
        d = pairwise_distance(locs)
        np.testing.assert_array_equal(model.matrix_from_distances(d), model.matrix(locs))


class TestFusedGeneration:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fused_tile_cholesky_matches_serial(self, locs, workers):
        # nt = 7 tiles per side, and a generator that yields the GIL
        # (as the GIL-free task bodies do) for 1 ms per tile: a GEN task
        # that lost its column's dependency edge is then overtaken by a
        # PANEL or UPDATE of that column on every run, serial or not.
        nb = 28
        model = MaternCovariance(1.0, 0.1, 0.5)

        def gen(rs, cs):
            time.sleep(1e-3)
            return model.tile(locs, rs, cs)

        reference = tile_cholesky(TileMatrix.from_generator(N, nb, gen, symmetric_lower=True))
        grid = TileGrid(N, nb)
        assert grid.nt == 7
        with Runtime(num_workers=workers) as rt:
            fused = tile_cholesky_from_source(
                TileMatrix(grid, symmetric_lower=True), tile_source(grid, gen), runtime=rt
            )
        np.testing.assert_array_equal(fused.to_dense(), reference.to_dense())

    def test_fused_tlr_cholesky_matches_serial(self, locs):
        from repro.linalg.generation import generate_and_factor_tlr_matrix

        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        reference = generate_and_factor_tlr_matrix(
            N, NB, gen, 1e-9, method="svd", rule="relative"
        )
        with Runtime(num_workers=4) as rt:
            fused = generate_and_factor_tlr_matrix(
                N, NB, gen, 1e-9, method="svd", rule="relative", runtime=rt, fused=True
            )
        np.testing.assert_array_equal(fused.to_dense(), reference.to_dense())


class TestEvaluatorPipeline:
    @pytest.fixture(scope="class")
    def problem(self, locs):
        model = MaternCovariance(1.0, 0.1, 0.5)
        z = sample_gaussian_field(locs, model, seed=5)
        return locs, z, model

    @pytest.mark.parametrize("variant", ["full-block", "full-tile", "tlr"])
    def test_cached_loglik_identical_to_seed_path(self, problem, variant):
        locs, z, model = problem
        seed_ev = LikelihoodEvaluator(
            locs, z, model, variant=variant, acc=1e-9, tile_size=NB,
            cache_distances=False, parallel_generation=False,
        )
        cached = LikelihoodEvaluator(
            locs, z, model, variant=variant, acc=1e-9, tile_size=NB,
            cache_distances=True,
        )
        for theta_scale in (1.0, 1.3, 0.8):
            theta = model.theta * theta_scale
            assert cached(theta) == seed_ev(theta)

    @pytest.mark.parametrize("variant", ["full-tile", "tlr"])
    def test_fused_loglik_identical_to_seed_path(self, problem, variant):
        locs, z, model = problem
        seed_ev = LikelihoodEvaluator(
            locs, z, model, variant=variant, acc=1e-9, tile_size=NB,
            cache_distances=False, parallel_generation=False,
        )
        with Runtime(num_workers=4) as rt:
            fused = LikelihoodEvaluator(
                locs, z, model, variant=variant, acc=1e-9, tile_size=NB,
                runtime=rt, cache_distances=True, parallel_generation=True,
            )
            for theta_scale in (1.0, 1.2):
                theta = model.theta * theta_scale
                assert fused(theta) == seed_ev(theta)
            assert set(fused.times.stages) == {"generation", "factorization", "solve"}

    def test_config_knobs_respected(self, problem):
        locs, z, model = problem
        # Substrate defaults come from the constructing thread's config ...
        with use_config(tile_size=NB, tlr_accuracy=1e-6, compression_batch=3):
            ev = LikelihoodEvaluator(locs, z, model, variant="tlr")
        assert (ev.tile_size, ev.acc, ev.compression_batch) == (NB, 1e-6, 3)
        assert ev.engine.cross_cache is not None and ev.parallel_generation
        # ... the generation switches are constructor keywords only.
        ev = LikelihoodEvaluator(
            locs, z, model, variant="tlr", tile_size=NB,
            cache_distances=False, parallel_generation=False,
        )
        assert ev.engine.cross_cache is None and not ev.parallel_generation
        # Either way the generator object holds the locations, no distances.
        ev(model.theta)
        assert ev.distance_cache.n_blocks == 0

    def test_penalty_path_survives_fusion(self):
        # Duplicate locations -> exactly singular covariance for any theta.
        from repro.mle.loglik import PENALTY_LOGLIK

        locs = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.5], [0.9, 0.9], [0.3, 0.7], [0.7, 0.3]])
        z = np.array([0.3, 0.3, -0.1, 0.2, 0.05, -0.2])
        model = MaternCovariance(1.0, 0.1, 0.5)
        with Runtime(num_workers=2) as rt:
            ev = LikelihoodEvaluator(
                locs, z, model, variant="full-tile", tile_size=3, runtime=rt
            )
            assert ev(model.theta) == PENALTY_LOGLIK
            assert ev.n_failures == 1


class TestBatchedCompression:
    """compression_batch: several tiles' SVDs per runtime task, same values."""

    def test_fused_cholesky_with_batching_matches_serial(self, locs):
        from repro.linalg.generation import generate_and_factor_tlr_matrix

        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        reference = generate_and_factor_tlr_matrix(
            N, NB, gen, 1e-9, method="svd", rule="relative"
        )
        with Runtime(num_workers=4) as rt:
            fused = generate_and_factor_tlr_matrix(
                N, NB, gen, 1e-9, method="svd", rule="relative",
                runtime=rt, fused=True, compression_batch=3,
            )
        np.testing.assert_array_equal(fused.to_dense(), reference.to_dense())

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_raises(self, locs, batch):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        with Runtime(num_workers=2) as rt:
            with pytest.raises(ConfigurationError, match="compression_batch"):
                generate_and_factor_tlr_matrix(
                    N, NB, gen, 1e-9, method="svd", rule="relative",
                    runtime=rt, compression_batch=batch,
                )

    def test_evaluator_loglik_identical_with_batching(self, locs):
        model = MaternCovariance(1.0, 0.1, 0.5)
        z = sample_gaussian_field(locs, model, seed=5)
        seed_ev = LikelihoodEvaluator(
            locs, z, model, variant="tlr", acc=1e-9, tile_size=NB,
            cache_distances=False, parallel_generation=False,
        )
        with Runtime(num_workers=4) as rt:
            batched_ev = LikelihoodEvaluator(
                locs, z, model, variant="tlr", acc=1e-9, tile_size=NB,
                runtime=rt, cache_distances=True, parallel_generation=True,
                compression_batch=4,
            )
            for theta_scale in (1.0, 1.2):
                theta = model.theta * theta_scale
                assert batched_ev(theta) == seed_ev(theta)
