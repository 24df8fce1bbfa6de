"""Tests for the generation pipeline: distance cache + parallel/fused generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import use_config
from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import (
    ExponentialCovariance,
    GaussianCovariance,
    MaternCovariance,
)
from repro.linalg.generation import (
    TileDistanceCache,
    empty_tile_matrix,
    empty_tlr_matrix,
    insert_tile_generation_tasks,
    insert_tlr_generation_tasks,
)
from repro.linalg.tile_cholesky import tile_cholesky
from repro.linalg.tile_matrix import TileGrid, TileMatrix
from repro.linalg.tlr_cholesky import tlr_cholesky
from repro.linalg.tlr_matrix import TLRMatrix
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
        model = MaternCovariance(1.0, 0.1, 0.5)
        cache = TileDistanceCache(locs, NB)
        gen = cache.generator(model)
        grid = cache.grid
        for i in range(grid.nt):
            for j in range(i + 1):
                gen(grid.tile_slice(i), grid.tile_slice(j))
        n_blocks = cache.n_blocks
        assert cache.misses == n_blocks and cache.hits == 0
        # A new theta reuses every block.
        gen2 = cache.generator(model.with_theta([2.0, 0.3, 1.0]))
        for i in range(grid.nt):
            for j in range(i + 1):
                gen2(grid.tile_slice(i), grid.tile_slice(j))
        assert cache.misses == n_blocks
        assert cache.hits == n_blocks
        assert cache.nbytes > 0

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


class TestParallelGeneration:
    def test_tile_matrix_serial_vs_threads_identical(self, locs):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        serial = TileMatrix.from_generator(N, NB, gen, symmetric_lower=True)
        with Runtime(num_workers=4) as rt:
            parallel = TileMatrix.from_generator(
                N, NB, gen, symmetric_lower=True, runtime=rt
            )
        for i, j, tile in serial.iter_stored():
            np.testing.assert_array_equal(parallel.tile(i, j), tile)

    @pytest.mark.parametrize("engine", ["threads", "serial"])
    def test_tlr_serial_vs_runtime_identical(self, locs, engine):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        serial = TLRMatrix.from_generator(N, NB, gen, acc=1e-8, method="svd")
        with Runtime(num_workers=4, engine=engine) as rt:
            parallel = TLRMatrix.from_generator(
                N, NB, gen, acc=1e-8, method="svd", runtime=rt
            )
        for k in range(serial.nt):
            np.testing.assert_array_equal(parallel.diag[k], serial.diag[k])
        assert set(parallel.low) == set(serial.low)
        for key, lr in serial.low.items():
            np.testing.assert_array_equal(parallel.low[key].u, lr.u)
            np.testing.assert_array_equal(parallel.low[key].v, lr.v)

    def test_tlr_rsvd_respects_configured_seed(self, locs):
        # rsvd seeds itself from the config; workers have their own
        # thread-local config, so the seed must be resolved at submission.
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        with use_config(rng_seed=777):
            serial = TLRMatrix.from_generator(N, NB, gen, acc=1e-6, method="rsvd")
            with Runtime(num_workers=4) as rt:
                parallel = TLRMatrix.from_generator(
                    N, NB, gen, acc=1e-6, method="rsvd", runtime=rt
                )
        for key, lr in serial.low.items():
            np.testing.assert_array_equal(parallel.low[key].u, lr.u)
            np.testing.assert_array_equal(parallel.low[key].v, lr.v)


class TestFusedGeneration:
    def test_fused_tile_cholesky_matches_serial(self, locs):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        reference = TileMatrix.from_generator(N, NB, gen, symmetric_lower=True)
        tile_cholesky(reference)
        with Runtime(num_workers=4) as rt:
            fused = empty_tile_matrix(N, NB, symmetric_lower=True)
            handles = insert_tile_generation_tasks(rt, fused, gen)
            tile_cholesky(fused, runtime=rt, handles=handles)
        np.testing.assert_allclose(fused.to_dense(), reference.to_dense(), atol=1e-12)

    def test_fused_tlr_cholesky_matches_serial(self, locs):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        reference = TLRMatrix.from_generator(N, NB, gen, acc=1e-9, method="svd")
        tlr_cholesky(reference)
        with Runtime(num_workers=4) as rt:
            fused = empty_tlr_matrix(N, NB, 1e-9)
            handles = insert_tlr_generation_tasks(
                rt, fused, gen, method="svd", rule="relative"
            )
            tlr_cholesky(fused, runtime=rt, handles=handles)
        np.testing.assert_allclose(fused.to_dense(), reference.to_dense(), atol=1e-10)

    def test_handles_require_runtime(self):
        from repro.exceptions import ShapeError

        tm = empty_tile_matrix(8, 4)
        with pytest.raises(ShapeError):
            tile_cholesky(tm, handles={})
        tlr = empty_tlr_matrix(8, 4, 1e-8)
        with pytest.raises(ShapeError):
            tlr_cholesky(tlr, handles=({}, {}))


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
        assert ev.distance_cache is not None and ev.parallel_generation
        # ... the generation switches are constructor keywords only.
        ev = LikelihoodEvaluator(
            locs, z, model, variant="tlr", tile_size=NB,
            cache_distances=False, parallel_generation=False,
        )
        assert ev.distance_cache is None and not ev.parallel_generation

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


class TestCacheRehydration:
    """export_blocks/load_blocks: the serving-store persistence hooks."""

    def test_round_trip_blocks_identical_and_hit_only(self, locs):
        src = TileDistanceCache(locs, NB).warm()
        blocks = src.export_blocks()
        assert len(blocks) == src.n_blocks

        dst = TileDistanceCache(locs, NB)
        installed = dst.load_blocks(blocks)
        assert installed == src.n_blocks
        assert dst.misses == 0 and dst.hits == 0  # rehydration is neither
        grid = dst.grid
        for i in range(grid.nt):
            for j in range(i + 1):
                rs, cs = grid.tile_slice(i), grid.tile_slice(j)
                np.testing.assert_array_equal(dst.block(rs, cs), src.block(rs, cs))
        assert dst.misses == 0  # every block came from the rehydrated set

    def test_load_blocks_rejects_wrong_shape(self, locs):
        from repro.exceptions import ShapeError

        cache = TileDistanceCache(locs, NB)
        with pytest.raises(ShapeError):
            cache.load_blocks({(0, NB, 0, NB): np.zeros((NB, NB - 1))})


class TestBatchedCompression:
    """compression_batch: several tiles' SVDs per runtime task, same values."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 5, 7, 64])
    def test_batched_generation_bit_identical(self, locs, batch):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        serial = TLRMatrix.from_generator(N, NB, gen, acc=1e-8, method="svd")
        with Runtime(num_workers=4, trace=True) as rt:
            batched = empty_tlr_matrix(N, NB, 1e-8)
            insert_tlr_generation_tasks(
                rt, batched, gen, method="svd", rule="relative",
                compression_batch=batch,
            )
            rt.wait_all()
            names = [e.name for e in rt.trace]
        for k in range(serial.nt):
            np.testing.assert_array_equal(batched.diag[k], serial.diag[k])
        assert set(batched.low) == set(serial.low)
        for key, lr in serial.low.items():
            np.testing.assert_array_equal(batched.low[key].u, lr.u)
            np.testing.assert_array_equal(batched.low[key].v, lr.v)
        # Task-count amortization: ceil(n_offdiag / batch) batch tasks.
        n_batch_tasks = sum(1 for name in names if name.startswith("genb"))
        assert n_batch_tasks == -(-len(serial.low) // batch)

    def test_fused_cholesky_with_batching_matches_serial(self, locs):
        from repro.linalg.generation import generate_and_factor_tlr_matrix

        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        reference = TLRMatrix.from_generator(N, NB, gen, acc=1e-9, method="svd")
        tlr_cholesky(reference)
        with Runtime(num_workers=4) as rt:
            fused = generate_and_factor_tlr_matrix(
                N, NB, gen, 1e-9, method="svd", rule="relative",
                runtime=rt, fused=True, compression_batch=3,
            )
        np.testing.assert_allclose(fused.to_dense(), reference.to_dense(), atol=1e-10)

    def test_config_knob_reaches_task_insertion(self, locs):
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        with use_config(compression_batch=5):
            with Runtime(num_workers=2, trace=True) as rt:
                tlr = empty_tlr_matrix(N, NB, 1e-8)
                insert_tlr_generation_tasks(rt, tlr, gen, method="svd", rule="relative")
                rt.wait_all()
                names = [e.name for e in rt.trace]
        n_off = len(tlr.low)
        assert sum(1 for n in names if n.startswith("genb")) == -(-n_off // 5)

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
