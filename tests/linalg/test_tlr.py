"""Tests for the TLR matrix format, Cholesky and solves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sort_locations
from repro.exceptions import NotPositiveDefiniteError, ShapeError
from repro.kernels import MaternCovariance
from repro.linalg.tlr_cholesky import logdet_from_tlr_factor, tlr_cholesky
from repro.linalg.tlr_matrix import TLRMatrix
from repro.linalg.tlr_solve import tlr_cholesky_solve, tlr_solve_triangular
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def setup():
    locs = generate_irregular_grid(225, seed=17)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    sigma = model.matrix(locs)
    return locs, model, sigma


class TestTLRMatrix:
    @pytest.mark.parametrize("acc", [1e-5, 1e-9])
    def test_reconstruction_error(self, setup, acc):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=acc)
        err = np.abs(tlr.to_dense() - sigma).max()
        # Per-tile spectral contract implies elementwise closeness.
        assert err <= 20 * acc

    def test_from_kernel_matches_from_dense(self, setup):
        locs, model, sigma = setup
        t1 = TLRMatrix.from_dense(sigma, 50, acc=1e-8)
        t2 = TLRMatrix.from_generator(
            225, 50, lambda rs, cs: model.tile(locs, rs, cs), acc=1e-8
        )
        # Tile-wise kernel evaluation and dense slicing differ by float
        # rounding, which can flip a near-threshold singular value; both
        # must satisfy the accuracy contract against the true matrix.
        np.testing.assert_allclose(t1.to_dense(), sigma, atol=2e-7)
        np.testing.assert_allclose(t2.to_dense(), sigma, atol=2e-7)

    def test_rank_matrix_symmetric(self, setup):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-7)
        rm = tlr.rank_matrix()
        np.testing.assert_array_equal(rm, rm.T)
        assert np.all(np.diag(rm) == -1)
        assert rm.max() == tlr.max_rank()

    def test_rank_decays_with_separation(self, setup):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-7)
        rm = tlr.rank_matrix()
        nt = tlr.nt
        near = np.mean([rm[i, i - 1] for i in range(1, nt)])
        far = rm[nt - 1, 0]
        assert far <= near

    def test_ranks_grow_with_accuracy(self, setup):
        _, _, sigma = setup
        loose = TLRMatrix.from_dense(sigma, 45, acc=1e-3)
        tight = TLRMatrix.from_dense(sigma, 45, acc=1e-11)
        assert tight.mean_rank() > loose.mean_rank()
        assert tight.nbytes > loose.nbytes

    def test_memory_accounting(self, setup):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-7)
        assert tlr.dense_nbytes() == sum(
            tlr.grid.tile_size(i) * tlr.grid.tile_size(j) * 8
            for i in range(tlr.nt)
            for j in range(i + 1)
        )
        assert tlr.nbytes > 0
        assert tlr.compression_ratio() == pytest.approx(
            tlr.dense_nbytes() / tlr.nbytes
        )

    def test_rank_accessor(self, setup):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-7)
        assert tlr.rank(1, 0) == tlr.rank(0, 1)
        with pytest.raises(ShapeError):
            tlr.rank(2, 2)

    def test_copy_independent(self, setup):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-7)
        dup = tlr.copy()
        dup.diag[0][:] = 0.0
        assert tlr.diag[0].max() > 0.0

    def test_bad_generator_shape(self):
        with pytest.raises(ShapeError):
            TLRMatrix.from_generator(20, 5, lambda rs, cs: np.zeros((1, 1)), acc=1e-6)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            TLRMatrix.from_dense(rng.random((4, 5)), 2, acc=1e-6)


class TestTLRCholesky:
    @pytest.mark.parametrize("acc,tol", [(1e-6, 1e-4), (1e-9, 1e-7)])
    def test_factor_accuracy(self, setup, acc, tol):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=acc)
        tlr_cholesky(tlr)
        ldense = np.tril(_tlr_factor_to_dense(tlr))
        recon = ldense @ ldense.T
        err = np.abs(recon - sigma).max() / np.abs(sigma).max()
        assert err <= tol * 50

    def test_logdet_close_to_exact(self, setup):
        _, _, sigma = setup
        _, ref = np.linalg.slogdet(sigma)
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-9)
        tlr_cholesky(tlr)
        assert logdet_from_tlr_factor(tlr) == pytest.approx(ref, abs=1e-3)

    def test_parallel_matches_serial_exactly(self, setup):
        _, _, sigma = setup
        t_ser = TLRMatrix.from_dense(sigma, 45, acc=1e-8)
        tlr_cholesky(t_ser)
        t_par = TLRMatrix.from_dense(sigma, 45, acc=1e-8)
        with Runtime(num_workers=6) as rt:
            tlr_cholesky(t_par, runtime=rt)
        for k in range(t_ser.nt):
            np.testing.assert_array_equal(t_ser.diag[k], t_par.diag[k])
        for key in t_ser.low:
            np.testing.assert_array_equal(t_ser.low[key].u, t_par.low[key].u)
            np.testing.assert_array_equal(t_ser.low[key].v, t_par.low[key].v)

    def test_non_spd_raises(self):
        bad = -np.eye(60)
        tlr = TLRMatrix.from_dense(bad, 20, acc=1e-8)
        with pytest.raises(NotPositiveDefiniteError):
            tlr_cholesky(tlr)

    def test_single_tile_matrix(self, rng):
        x = rng.random((30, 30))
        spd = x @ x.T + 30 * np.eye(30)
        tlr = TLRMatrix.from_dense(spd, 64, acc=1e-9)
        tlr_cholesky(tlr)
        ref = np.linalg.cholesky(spd)
        np.testing.assert_allclose(tlr.diag[0], ref, atol=1e-8)


class TestTLRSolve:
    def test_solve_vector(self, setup, rng):
        _, _, sigma = setup
        b = rng.random(225)
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-10)
        tlr_cholesky(tlr)
        x = tlr_cholesky_solve(tlr, b)
        np.testing.assert_allclose(sigma @ x, b, atol=1e-5)

    def test_solve_multi_rhs(self, setup, rng):
        _, _, sigma = setup
        b = rng.random((225, 4))
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-10)
        tlr_cholesky(tlr)
        x = tlr_cholesky_solve(tlr, b)
        np.testing.assert_allclose(sigma @ x, b, atol=1e-5)

    def test_triangular_consistency(self, setup, rng):
        _, _, sigma = setup
        b = rng.random(225)
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-11)
        tlr_cholesky(tlr)
        y = tlr_solve_triangular(tlr, b, trans=False)
        x = tlr_solve_triangular(tlr, y, trans=True)
        np.testing.assert_allclose(sigma @ x, b, atol=1e-5)

    def test_rhs_not_mutated(self, setup, rng):
        _, _, sigma = setup
        b = rng.random(225)
        b0 = b.copy()
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-9)
        tlr_cholesky(tlr)
        tlr_cholesky_solve(tlr, b)
        np.testing.assert_array_equal(b, b0)

    def test_wrong_length_raises(self, setup, rng):
        _, _, sigma = setup
        tlr = TLRMatrix.from_dense(sigma, 45, acc=1e-9)
        with pytest.raises(ShapeError):
            tlr_solve_triangular(tlr, rng.random(7))


def _tlr_factor_to_dense(tlr: TLRMatrix) -> np.ndarray:
    """Assemble the lower factor (avoids to_dense's symmetric mirror)."""
    g = tlr.grid
    out = np.zeros((g.n, g.n))
    for i in range(g.nt):
        out[g.tile_slice(i), g.tile_slice(i)] = tlr.diag[i]
    for (i, j), lr in tlr.low.items():
        out[g.tile_slice(i), g.tile_slice(j)] = lr.to_dense()
    return out
