"""Edge-case tests for the TLR pipeline: ragged tiles, rank-0 blocks,
alternative compressors, and truncation rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import use_config
from repro.data import generate_irregular_grid, sort_locations
from repro.kernels import GaussianCovariance, MaternCovariance
from repro.linalg.tlr_cholesky import tlr_cholesky
from repro.linalg.tlr_matrix import TLRMatrix
from repro.linalg.tlr_solve import tlr_cholesky_solve


@pytest.fixture(scope="module")
def ragged_problem():
    # 217 = 4 * 50 + 17: last tile is ragged.
    locs = generate_irregular_grid(217, seed=31)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    return locs, model, model.matrix(locs)


class TestRaggedTiles:
    def test_construction_and_reconstruction(self, ragged_problem):
        _, _, sigma = ragged_problem
        tlr = TLRMatrix.from_dense(sigma, 50, acc=1e-9)
        assert tlr.nt == 5
        assert tlr.diag[4].shape == (17, 17)
        assert np.abs(tlr.to_dense() - sigma).max() < 1e-7

    def test_cholesky_and_solve(self, ragged_problem, rng):
        _, _, sigma = ragged_problem
        tlr = TLRMatrix.from_dense(sigma, 50, acc=1e-10)
        tlr_cholesky(tlr)
        b = rng.random(217)
        x = tlr_cholesky_solve(tlr, b)
        np.testing.assert_allclose(sigma @ x, b, atol=1e-5)

    def test_logdet_ragged(self, ragged_problem):
        from repro.linalg.tlr_cholesky import logdet_from_tlr_factor

        _, _, sigma = ragged_problem
        _, ref = np.linalg.slogdet(sigma)
        tlr = TLRMatrix.from_dense(sigma, 50, acc=1e-10)
        tlr_cholesky(tlr)
        assert logdet_from_tlr_factor(tlr) == pytest.approx(ref, abs=1e-4)


class TestRankZeroTiles:
    def test_far_apart_clusters_compress_to_rank_zero(self):
        # Two distant clusters under a short-range Gaussian kernel: the
        # cross tile is numerically zero -> rank 0 under absolute rule.
        rng = np.random.default_rng(0)
        a = rng.random((40, 2)) * 0.05
        b = rng.random((40, 2)) * 0.05 + 10.0
        locs = np.vstack([a, b])
        model = GaussianCovariance(1.0, 0.05, nugget=1e-8)
        sigma = model.matrix(locs)
        tlr = TLRMatrix.from_dense(sigma, 40, acc=1e-10, rule="absolute")
        assert tlr.rank(1, 0) == 0

    def test_cholesky_with_rank_zero_offdiag(self, rng):
        # Block-diagonal SPD matrix: off-diagonal tile is exactly zero.
        blocks = []
        for _ in range(2):
            x = rng.random((30, 30))
            blocks.append(x @ x.T + 30 * np.eye(30))
        sigma = np.zeros((60, 60))
        sigma[:30, :30] = blocks[0]
        sigma[30:, 30:] = blocks[1]
        tlr = TLRMatrix.from_dense(sigma, 30, acc=1e-10, rule="absolute")
        assert tlr.rank(1, 0) == 0
        tlr_cholesky(tlr)
        b = rng.random(60)
        x = tlr_cholesky_solve(tlr, b)
        np.testing.assert_allclose(sigma @ x, b, atol=1e-6)


class TestAlternativeCompressors:
    @pytest.mark.parametrize("method", ["rsvd"])
    def test_end_to_end_with_method(self, ragged_problem, method, rng):
        _, _, sigma = ragged_problem
        tlr = TLRMatrix.from_dense(sigma, 50, acc=1e-9, method=method)
        assert np.abs(tlr.to_dense() - sigma).max() < 1e-5
        tlr_cholesky(tlr)
        b = rng.random(217)
        x = tlr_cholesky_solve(tlr, b)
        np.testing.assert_allclose(sigma @ x, b, atol=1e-3)

    def test_config_method_flows_through(self, ragged_problem):
        _, _, sigma = ragged_problem
        with use_config(compression_method="rsvd"):
            tlr = TLRMatrix.from_dense(sigma, 50, acc=1e-8)
        assert np.abs(tlr.to_dense() - sigma).max() < 1e-4


class TestTruncationRules:
    def test_absolute_rule_end_to_end(self, ragged_problem):
        _, _, sigma = ragged_problem
        rel = TLRMatrix.from_dense(sigma, 50, acc=1e-8, rule="relative")
        ab = TLRMatrix.from_dense(sigma, 50, acc=1e-8, rule="absolute")
        # Both satisfy their contracts against the dense matrix.
        assert np.abs(rel.to_dense() - sigma).max() < 1e-6
        assert np.abs(ab.to_dense() - sigma).max() < 1e-6

    def test_accuracy_attribute_recorded(self, ragged_problem):
        _, _, sigma = ragged_problem
        tlr = TLRMatrix.from_dense(sigma, 50, acc=1e-7)
        assert tlr.acc == 1e-7
        # The factorization defaults to the construction accuracy.
        tlr_cholesky(tlr)  # must not raise
