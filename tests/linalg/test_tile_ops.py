"""Direct unit tests for the dense and TLR codelets."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from repro.exceptions import NotPositiveDefiniteError
from repro.linalg.compression import LowRank, svd_compress
from repro.linalg.tile_ops import panel_codelet, potrf_codelet, update_codelet
from repro.linalg.tlr_ops import tlr_syrk_codelet, tlr_trsm_codelet, tlr_update_codelet


@pytest.fixture()
def spd_tile(rng):
    x = rng.random((24, 24))
    return x @ x.T + 24 * np.eye(24)


class TestDenseCodelets:
    def test_potrf_in_place_lower(self, spd_tile):
        expected = np.linalg.cholesky(spd_tile)
        tile = spd_tile.copy()
        potrf_codelet(tile)
        np.testing.assert_allclose(tile, expected, atol=1e-10)
        assert np.allclose(tile, np.tril(tile))

    def test_potrf_raises_on_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            potrf_codelet(-np.eye(4))

    def test_trsm_right_solve(self, spd_tile, rng):
        """PANEL: POTRF of the diagonal tile + one TRSM over everything below."""
        lkk = np.linalg.cholesky(spd_tile)
        a = rng.random((40, 24))  # 1 2/3 tiles tall: stacked, ragged
        panel = np.vstack([spd_tile, a])
        panel_codelet(panel)
        np.testing.assert_allclose(panel[:24], lkk, atol=1e-10)
        np.testing.assert_allclose(panel[24:], a @ np.linalg.inv(lkk).T, atol=1e-9)

    def test_panel_single_tile_and_indefinite(self, spd_tile):
        panel = spd_tile.copy()
        panel_codelet(panel)  # nothing below the diagonal tile
        np.testing.assert_allclose(panel, np.linalg.cholesky(spd_tile), atol=1e-10)
        with pytest.raises(NotPositiveDefiniteError):
            panel_codelet(np.vstack([-np.eye(4), np.ones((4, 4))]))

    def test_syrk_update(self, rng):
        """UPDATE on the diagonal tile of column j is the SYRK."""
        pk = rng.random((30, 12))  # column k from row (k) down; column j starts at row 6
        pj = rng.random((24, 12))
        expected = pj[:12] - pk[6:18] @ pk[6:18].T
        update_codelet(pk, pj, 6)
        np.testing.assert_allclose(pj[:12], expected, atol=1e-12)

    def test_gemm_update(self, rng):
        """UPDATE below the diagonal tile is every GEMM of the column at once."""
        pk = rng.random((30, 8))
        pj = rng.random((20, 5))  # ragged: narrower than column k
        before = pj.copy()
        update_codelet(pk, pj, 10)
        np.testing.assert_allclose(pj, before - pk[10:] @ pk[10:15].T, atol=1e-12)

    def test_codelets_write_in_place(self, spd_tile, rng):
        """Both kernels mutate the caller's storage, including row-slice views."""
        column = np.vstack([spd_tile, rng.random((48, 24))])
        view = column[:]  # what TileMatrix.panel hands out
        panel_codelet(view)
        assert np.allclose(column[:24], np.tril(column[:24]))
        target = np.zeros((48, 24))
        update_codelet(column, target[:], 24)
        np.testing.assert_allclose(target, -column[24:] @ column[24:48].T, atol=1e-12)


class TestTLRCodelets:
    def test_tlr_potrf_matches_dense(self, spd_tile):
        """TLR DIAG factors with the dense PANEL's POTRF codelet: same bits."""
        tile, panel = spd_tile.copy(), spd_tile.copy()
        potrf_codelet(tile)
        panel_codelet(panel)
        np.testing.assert_array_equal(tile, panel)
        np.testing.assert_allclose(tile, np.linalg.cholesky(spd_tile), atol=1e-10)

    def test_tlr_trsm_only_touches_v(self, spd_tile, rng):
        lkk = np.linalg.cholesky(spd_tile)
        dense = rng.random((24, 24))
        block = svd_compress(dense, 1e-12)
        u_before = block.u.copy()
        expected = block.to_dense() @ np.linalg.inv(lkk).T
        tlr_trsm_codelet(lkk, block)
        np.testing.assert_array_equal(block.u, u_before)  # U untouched
        np.testing.assert_allclose(block.to_dense(), expected, atol=1e-8)

    def test_tlr_trsm_rank_zero_noop(self, spd_tile):
        lkk = np.linalg.cholesky(spd_tile)
        z = LowRank(np.zeros((24, 0)), np.zeros((0, 24)))
        tlr_trsm_codelet(lkk, z)
        assert z.rank == 0

    def test_tlr_syrk_matches_dense_syrk(self, rng):
        dense = rng.random((20, 20)) * 0.1
        block = svd_compress(dense, 1e-13)
        d = rng.random((20, 20))
        expected = d - dense @ dense.T
        out = d.copy()
        tlr_syrk_codelet(block, out)
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_tlr_syrk_rank_zero_noop(self, rng):
        z = LowRank(np.zeros((8, 0)), np.zeros((0, 8)))
        d = rng.random((8, 8))
        d0 = d.copy()
        tlr_syrk_codelet(z, d)
        np.testing.assert_array_equal(d, d0)

    def test_tlr_gemm_matches_dense_update(self, rng):
        # The left-looking TLR GEMM: a low-rank product into a dense tile.
        a_dense = rng.random((16, 16)) * 0.5
        il_dense = rng.random((16, 16)) * 0.3
        kl_dense = rng.random((16, 16)) * 0.3
        ail = svd_compress(il_dense, 1e-13)
        akl = svd_compress(kl_dense, 1e-13)
        out = a_dense.copy()
        tlr_update_codelet(out, ail, akl)
        np.testing.assert_allclose(out, a_dense - il_dense @ kl_dense.T, atol=1e-10)

    def test_tlr_gemm_zero_operand_noop(self, rng):
        dense = rng.random((8, 8))
        before = dense.copy()
        z = LowRank(np.zeros((8, 0)), np.zeros((0, 8)))
        tlr_update_codelet(dense, z, svd_compress(rng.random((8, 8)), 1e-12))
        tlr_update_codelet(dense, svd_compress(rng.random((8, 8)), 1e-12), z)
        np.testing.assert_array_equal(dense, before)
