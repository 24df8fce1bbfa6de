"""Tests for low-rank compression: SVD, RSVD and dispatch.

``svd_compress`` is held against an exact oracle kept here only: a full
``np.linalg.svd`` truncated by ``truncation_rank``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import use_config
from repro.exceptions import CompressionError, ShapeError
from repro.linalg import compression
from repro.linalg.compression import (
    ETA,
    LowRank,
    compress,
    rsvd_compress,
    svd_compress,
    truncation_rank,
)


def random_lowrank_matrix(rng, m, n, rank, noise=0.0):
    """Exactly rank-``rank`` matrix plus optional dense noise."""
    u = rng.standard_normal((m, rank))
    v = rng.standard_normal((rank, n))
    a = u @ v
    if noise:
        a = a + noise * rng.standard_normal((m, n))
    return a


def covariance_tile(rng, m=60, n=60, range_=0.3):
    """A realistic smooth (hence compressible) off-diagonal tile."""
    from repro.kernels.covariance import MaternCovariance

    x = np.sort(rng.random(m))[:, None]
    y = np.sort(rng.random(n))[:, None] + 2.0  # well-separated clusters
    return MaternCovariance(1.0, range_, 1.5).matrix(x, y)


def exact_svd_compress(a, acc, *, rule=None, **_):
    """The oracle: a full SVD truncated by :func:`truncation_rank`."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = truncation_rank(s, acc, rule or "relative")
    return LowRank(np.ascontiguousarray(u[:, :k] * s[:k]), np.ascontiguousarray(vt[:k]))


def assert_matches_oracle(a, acc, rule):
    """The certified contract with no slack, and the oracle's rank (+1
    only on a singular value within ``ETA`` of the threshold)."""
    lr = svd_compress(a, acc, rule=rule)
    s = np.linalg.svd(a, compute_uv=False)
    thresh = acc * s[0] if rule == "relative" else acc
    err = np.linalg.norm(a - lr.to_dense(), 2)
    assert err <= thresh, (err / thresh, lr.rank)
    k = truncation_rank(s, acc, rule)
    assert lr.rank == k or (lr.rank == k + 1 and s[k] > (1.0 - ETA) * thresh), (lr.rank, k)
    # The U / V shape of the contract: V has orthonormal rows.
    np.testing.assert_allclose(lr.v @ lr.v.T, np.eye(lr.rank), atol=1e-12)
    return lr


def morton_tiles(model, nb, m=None, n=None):
    """Tiles (i, 0), i = 1, 2, 3, of a Morton-ordered field: near, middle
    and far, ``m x n`` (``nb x nb`` by default)."""
    from repro.data import generate_irregular_grid, sort_locations

    m, n = m or nb, n or nb
    locs = sort_locations(generate_irregular_grid(4 * nb, seed=1))[0]
    return [model.tile(locs, slice(i * nb, i * nb + m), slice(0, n)) for i in (1, 2, 3)]


class TestTruncationRank:
    def test_relative(self):
        s = np.array([10.0, 1.0, 0.1, 0.01])
        assert truncation_rank(s, 0.05, "relative") == 2
        assert truncation_rank(s, 1e-4, "relative") == 4

    def test_absolute(self):
        s = np.array([10.0, 1.0, 0.1, 0.01])
        assert truncation_rank(s, 0.5, "absolute") == 2
        assert truncation_rank(s, 0.001, "absolute") == 4

    def test_empty_and_bad_rule(self):
        assert truncation_rank(np.array([]), 0.1, "relative") == 0
        with pytest.raises(ShapeError):
            truncation_rank(np.array([1.0]), 0.1, "weird")


class TestLowRank:
    def test_basic_properties(self, rng):
        lr = LowRank(rng.random((10, 3)), rng.random((3, 8)))
        assert lr.shape == (10, 8)
        assert lr.rank == 3
        assert lr.nbytes == (30 + 24) * 8
        assert lr.to_dense().shape == (10, 8)

    def test_rank_zero(self):
        lr = LowRank(np.zeros((5, 0)), np.zeros((0, 7)))
        assert lr.rank == 0
        np.testing.assert_array_equal(lr.to_dense(), np.zeros((5, 7)))

    def test_incompatible_factors(self, rng):
        with pytest.raises(ShapeError):
            LowRank(rng.random((5, 3)), rng.random((2, 5)))

    def test_set_factors_shape_guard(self, rng):
        lr = LowRank(rng.random((6, 2)), rng.random((2, 6)))
        lr.set_factors(rng.random((6, 4)), rng.random((4, 6)))  # rank change ok
        assert lr.rank == 4
        with pytest.raises(ShapeError):
            lr.set_factors(rng.random((5, 2)), rng.random((2, 6)))

    def test_copy_independent(self, rng):
        lr = LowRank(rng.random((4, 2)), rng.random((2, 4)))
        dup = lr.copy()
        dup.u[:] = 0
        assert lr.u.max() > 0


class TestSVDCompress:
    def test_exact_rank_recovery(self, rng):
        a = random_lowrank_matrix(rng, 40, 30, 5)
        lr = svd_compress(a, 1e-10, rule="relative")
        assert lr.rank == 5
        np.testing.assert_allclose(lr.to_dense(), a, atol=1e-8)

    @pytest.mark.parametrize("acc", [1e-2, 1e-5, 1e-9])
    def test_relative_error_contract(self, acc, rng):
        a = covariance_tile(rng)
        lr = svd_compress(a, acc, rule="relative")
        err = np.linalg.norm(a - lr.to_dense(), 2)
        assert err <= acc * np.linalg.norm(a, 2) + 1e-14

    def test_absolute_rule(self, rng):
        a = covariance_tile(rng)
        lr = svd_compress(a, 1e-6, rule="absolute")
        assert np.linalg.norm(a - lr.to_dense(), 2) <= 1e-6 + 1e-12

    def test_rank_monotone_in_accuracy(self, rng):
        a = covariance_tile(rng)
        ranks = [svd_compress(a, acc).rank for acc in (1e-2, 1e-5, 1e-9, 1e-13)]
        assert ranks == sorted(ranks)

    def test_zero_matrix(self):
        lr = svd_compress(np.zeros((10, 10)), 1e-8)
        assert lr.rank == 0

    @settings(max_examples=15)
    @given(st.integers(1, 8), st.floats(1e-10, 1e-2))
    def test_property_svd_contract_on_noisy_lowrank(self, rank, acc):
        rng = np.random.default_rng(rank)
        a = random_lowrank_matrix(rng, 30, 25, rank, noise=1e-12)
        lr = svd_compress(a, acc, rule="relative")
        err = np.linalg.norm(a - lr.to_dense(), 2)
        assert err <= acc * np.linalg.norm(a, 2) + 1e-11


class TestSVDCompressAgainstExactSVD:
    """The pivoted-QR front end changes the cost, not the answer."""

    @pytest.mark.parametrize("beta", [0.03, 0.1, 0.3])
    @pytest.mark.parametrize("nb", [64, 128, 200])
    @pytest.mark.parametrize("kernel", ["exponential", "matern"])
    def test_sweep(self, kernel, nb, beta):
        from repro.kernels import ExponentialCovariance, MaternCovariance

        model = (
            ExponentialCovariance(1.0, beta)
            if kernel == "exponential"
            else MaternCovariance(1.0, beta, 1.0)
        )
        for a in morton_tiles(model, nb):
            for acc in (1e-5, 1e-7, 1e-9):
                for rule in ("relative", "absolute"):
                    assert_matches_oracle(a, acc, rule)

    @pytest.mark.parametrize("shape", [(150, 90), (90, 150)], ids=["tall", "wide"])
    @pytest.mark.parametrize("rule", ["relative", "absolute"])
    def test_rectangular_edge_tiles(self, shape, rule):
        from repro.kernels import ExponentialCovariance

        for a in morton_tiles(ExponentialCovariance(1.0, 0.1), 200, *shape):
            for acc in (1e-5, 1e-9):
                lr = assert_matches_oracle(a, acc, rule)
                assert lr.shape == shape

    @pytest.mark.parametrize("shape", [(12, 7), (7, 12), (0, 5)])
    def test_zero_tile(self, shape):
        for rule in ("relative", "absolute"):
            lr = svd_compress(np.zeros(shape), 1e-8, rule=rule)
            assert lr.rank == 0 and lr.shape == shape

    @pytest.mark.parametrize("rule", ["relative", "absolute"])
    def test_exactly_rank_five(self, rng, rule):
        a = random_lowrank_matrix(rng, 60, 45, 5)
        lr = assert_matches_oracle(a, 1e-9, rule)
        assert lr.rank == 5

    @pytest.mark.parametrize("shape", [(50, 50), (50, 30), (30, 50)])
    def test_full_rank_keeps_every_row(self, rng, shape):
        # No tail of R is below the threshold: j = min(m, n).
        a = rng.standard_normal(shape)
        lr = assert_matches_oracle(a, 1e-9, "relative")
        assert lr.rank == min(shape)

    def test_fortran_order_input(self, rng):
        a = covariance_tile(rng, 70, 50)
        f = np.asfortranarray(a)
        ref, got = svd_compress(a, 1e-9), svd_compress(f, 1e-9)
        np.testing.assert_array_equal(got.u, ref.u)
        np.testing.assert_array_equal(got.v, ref.v)
        np.testing.assert_array_equal(f, a)  # the input is not overwritten
        assert got.u.flags.c_contiguous and got.v.flags.c_contiguous

    def test_absolute_rule_below_threshold_is_rank_zero(self, rng):
        a = covariance_tile(rng)
        acc = 1e-6
        # ||a||_F <= ETA acc: no row of R is kept.
        tiny = a * (0.5 * ETA * acc / np.linalg.norm(a))
        assert svd_compress(tiny, acc, rule="absolute").rank == 0
        # ETA acc < ||a||_F but ||a||_2 < acc / 2: rows are kept, no value is.
        small = a * (0.4 * acc / np.linalg.norm(a))
        assert svd_compress(small, acc, rule="absolute").rank == 0


class TestNonFiniteTile:
    """Every compressor ends a NaN or infinite tile in a typed error."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["svd", "rsvd"])
    def test_typed_error(self, rng, method, bad):
        for base in (covariance_tile(rng, 30, 20), np.zeros((20, 30))):
            for pos in [(0, 0), (base.shape[0] - 1, base.shape[1] - 1), (5, 3)]:
                a = base.copy()
                a[pos] = bad
                with pytest.raises(CompressionError):
                    compress(a, 1e-8, method=method, rule="relative")


class TestFactorUnchanged:
    """Where it counts — the TLR factor of an MLE evaluation — the pivoted-QR
    compressor keeps the exact SVD's ranks and the likelihood."""

    def test_fused_evaluator_ranks_and_loglik(self, monkeypatch):
        from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
        from repro.kernels import ExponentialCovariance
        from repro.mle import LikelihoodEvaluator, exact_loglikelihood
        from repro.runtime import Runtime

        locs = sort_locations(generate_irregular_grid(800, seed=1))[0]
        model = ExponentialCovariance(1.0, 0.1)
        z = sample_gaussian_field(locs, model, seed=2)

        def evaluate():
            with Runtime(num_workers=2) as rt:
                ev = LikelihoodEvaluator(
                    locs, z, model, variant="tlr", acc=1e-9, tile_size=200,
                    compression_method="svd", runtime=rt, parallel_generation=True,
                )
                return ev(model.theta), ev.engine.factor().rank_matrix()

        loglik, ranks = evaluate()
        calls = []

        def oracle(a, acc, **kwargs):
            calls.append(a.shape)
            return exact_svd_compress(a, acc, **kwargs)

        monkeypatch.setitem(compression._METHODS, "svd", oracle)
        oracle_loglik, oracle_ranks = evaluate()

        assert len(calls) == 6  # every off-diagonal tile of the 4 x 4 grid
        np.testing.assert_array_equal(ranks, oracle_ranks)
        exact = exact_loglikelihood(locs, z, model)
        for value in (loglik, oracle_loglik):
            # tests/mle/test_loglik.py's bound for TLR at 1e-9.
            assert value == pytest.approx(exact, abs=abs(exact) * 1e-3 + 1e-3)


@pytest.fixture(scope="module")
def morton_exponential_tiles():
    """Near and far 200 x 200 tiles of Morton-ordered exponential
    covariances at ranges 0.1 and 0.3 — the tiles whose small singular
    values an unorthonormalised power step loses."""
    from repro.data import generate_irregular_grid, sort_locations
    from repro.kernels import ExponentialCovariance

    nb = 200
    locs, _, _ = sort_locations(generate_irregular_grid(4 * nb, seed=1))
    tiles = []
    for beta in (0.1, 0.3):
        model = ExponentialCovariance(1.0, beta)
        for i in (1, 3):
            tiles.append(model.tile(locs, slice(i * nb, (i + 1) * nb), slice(0, nb)))
    return tiles


class TestRSVDCompress:
    @pytest.mark.parametrize("acc", [1e-3, 1e-6, 1e-9])
    def test_error_contract(self, acc, rng, morton_exponential_tiles):
        for a in [covariance_tile(rng)] + morton_exponential_tiles:
            lr = rsvd_compress(a, acc, seed=0)
            err = np.linalg.norm(a - lr.to_dense(), 2)
            # Randomized bound: allow modest slack over the target.
            assert err <= 10 * acc * np.linalg.norm(a, 2)

    def test_adaptivity_grows_rank(self, rng):
        a = random_lowrank_matrix(rng, 80, 80, 40)
        lr = rsvd_compress(a, 1e-9, seed=1)  # sketches of rank 8, 16, 32, 64
        assert lr.rank >= 39
        np.testing.assert_allclose(lr.to_dense(), a, atol=1e-5)

    def test_full_rank_fallback(self, rng):
        a = rng.standard_normal((20, 20))  # incompressible
        lr = rsvd_compress(a, 1e-12, seed=2)
        np.testing.assert_allclose(lr.to_dense(), a, atol=1e-8)


class TestDispatchAndConfig:
    def test_compress_dispatch(self, rng):
        a = covariance_tile(rng)
        for method in ("svd", "rsvd"):
            lr = compress(a, 1e-5, method=method)
            assert lr.rank >= 1

    def test_config_default_method(self, rng):
        a = covariance_tile(rng)
        with use_config(compression_method="rsvd"):
            lr = compress(a, 1e-5, seed=0)
        assert lr.rank >= 1

    def test_unknown_method(self, rng):
        with pytest.raises(ShapeError):
            compress(covariance_tile(rng), 1e-5, method="magic")
