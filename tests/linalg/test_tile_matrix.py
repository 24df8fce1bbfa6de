"""Tests for TileGrid index arithmetic and TileMatrix storage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.linalg.tile_matrix import TileGrid, TileMatrix


class TestTileGrid:
    def test_even_division(self):
        g = TileGrid(100, 25)
        assert g.nt == 4
        assert [g.tile_size(i) for i in range(4)] == [25, 25, 25, 25]
        assert g.tile_slice(2) == slice(50, 75)

    def test_ragged_last_tile(self):
        g = TileGrid(103, 25)
        assert g.nt == 5
        assert g.tile_size(4) == 3
        assert g.tile_slice(4) == slice(100, 103)

    def test_single_tile(self):
        g = TileGrid(10, 64)
        assert g.nt == 1
        assert g.tile_size(0) == 10

    def test_index_bounds(self):
        g = TileGrid(10, 5)
        with pytest.raises(ShapeError):
            g.tile_size(2)
        with pytest.raises(ShapeError):
            g.offset(-1)

    def test_invalid_construction(self):
        with pytest.raises(ShapeError):
            TileGrid(0, 5)
        with pytest.raises(ShapeError):
            TileGrid(5, 0)

    def test_partition_returns_copies(self, rng):
        g = TileGrid(20, 7)
        x = rng.random(20)
        blocks = g.partition(x)
        blocks[0][:] = -99.0
        assert x[0] != -99.0  # caller's array untouched

    def test_partition_unpartition_roundtrip(self, rng):
        g = TileGrid(23, 5)
        x = rng.random((23, 3))
        np.testing.assert_array_equal(g.unpartition(g.partition(x)), x)

    def test_partition_wrong_length(self, rng):
        g = TileGrid(10, 5)
        with pytest.raises(ShapeError):
            g.partition(rng.random(11))
        with pytest.raises(ShapeError):
            g.unpartition([rng.random(5)])

    @given(st.integers(1, 200), st.integers(1, 50))
    def test_property_sizes_sum_to_n(self, n, nb):
        g = TileGrid(n, nb)
        assert sum(g.tile_size(i) for i in range(g.nt)) == n


class TestTileMatrix:
    def test_from_dense_roundtrip(self, rng):
        a = rng.random((37, 37))
        tm = TileMatrix.from_dense(a, 10)
        np.testing.assert_allclose(tm.to_dense(), a, atol=1e-15)
        assert tm.nbytes == a.nbytes

    def test_symmetric_lower_storage(self, rng):
        x = rng.random((30, 30))
        a = x @ x.T
        tm = TileMatrix.from_dense(a, 8, symmetric_lower=True)
        # Upper tiles are not stored but are reachable via the mirror.
        assert tm.nbytes < a.nbytes
        np.testing.assert_allclose(tm.tile(0, 1), a[0:8, 8:16], atol=1e-12)
        np.testing.assert_allclose(tm.to_dense(), a, atol=1e-12)

    def test_set_tile_validation(self, rng):
        tm = TileMatrix(TileGrid(20, 8), symmetric_lower=True)
        with pytest.raises(ShapeError):
            tm.set_tile(0, 1, rng.random((8, 8)))  # upper tile forbidden
        with pytest.raises(ShapeError):
            tm.set_tile(0, 0, rng.random((4, 4)))  # wrong shape

    def test_from_generator_matches_from_dense(self, rng):
        a = rng.random((25, 25))
        tm1 = TileMatrix.from_dense(a, 7)
        tm2 = TileMatrix.from_generator(25, 7, lambda rs, cs: a[rs, cs])
        np.testing.assert_array_equal(tm1.to_dense(), tm2.to_dense())

    def test_from_generator_bad_shape(self):
        with pytest.raises(ShapeError):
            TileMatrix.from_generator(10, 4, lambda rs, cs: np.zeros((1, 1)))

    def test_copy_independent(self, rng):
        a = rng.random((16, 16))
        tm = TileMatrix.from_dense(a, 8)
        dup = tm.copy()
        dup.tile(0, 0)[:] = 0.0
        assert tm.tile(0, 0).max() > 0.0

    def test_iter_stored_lower_count(self, rng):
        a = rng.random((30, 30))
        tm = TileMatrix.from_dense(a + a.T, 10, symmetric_lower=True)
        stored = list(tm.iter_stored())
        assert len(stored) == 6  # nt=3 -> 3 diag + 3 lower

    # ---------------------------------------------- column-storage contract
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_tile_views_are_contiguous_and_write_through(self, rng, symmetric):
        x = rng.random((37, 37))
        tm = TileMatrix.from_dense(x + x.T, 10, symmetric_lower=symmetric)
        for i, j, tile in tm.iter_stored():
            assert tile.flags["C_CONTIGUOUS"] and tile.flags["WRITEABLE"]
            assert tile.dtype == np.float64
            assert tile.shape == (tm.grid.tile_size(i), tm.grid.tile_size(j))
        tm.tile(3, 1)[...] = -7.0  # ragged last row of tiles
        assert (tm.to_dense()[30:37, 10:20] == -7.0).all()
        assert (tm.tile(3, 1) == -7.0).all()
        assert np.shares_memory(tm.tile(3, 1), tm.panel(1))

    def test_panel_is_the_column_from_its_diagonal_down(self, rng):
        x = rng.random((37, 37))
        a = x + x.T
        for symmetric in (False, True):
            tm = TileMatrix.from_dense(a, 10, symmetric_lower=symmetric)
            for j in range(tm.nt):
                panel = tm.panel(j)
                assert panel.flags["C_CONTIGUOUS"]
                np.testing.assert_array_equal(panel, a[10 * j :, tm.grid.tile_slice(j)])
                # stacked tiles are one contiguous run of the panel
                np.testing.assert_array_equal(panel[: tm.grid.tile_size(j)], tm.tile(j, j))

    def test_set_tile_copies_and_never_aliases(self, rng):
        tm = TileMatrix(TileGrid(20, 8), symmetric_lower=True)
        src = rng.random((8, 8))
        tm.set_tile(1, 0, src)
        assert not np.shares_memory(tm.tile(1, 0), src)
        src[:] = 0.0
        assert tm.tile(1, 0).min() > 0.0
        tm.set_tile(2, 2, np.arange(16).reshape(4, 4))  # integer input is cast
        assert tm.tile(2, 2).dtype == np.float64 and tm.tile(2, 2)[3, 3] == 15.0

    def test_from_dense_does_not_alias_a_single_tile_input(self, rng):
        a = rng.random((6, 6))
        tm = TileMatrix.from_dense(a, 8, symmetric_lower=True)
        assert not np.shares_memory(tm.tile(0, 0), a)

    def test_copy_is_deep_per_column(self, rng):
        x = rng.random((30, 30))
        tm = TileMatrix.from_dense(x + x.T, 8, symmetric_lower=True)
        dup = tm.copy()
        for j in range(tm.nt):
            assert not np.shares_memory(dup.panel(j), tm.panel(j))
        np.testing.assert_array_equal(dup.to_dense(), tm.to_dense())

    def test_nbytes_is_the_stored_tiles(self, rng):
        n, nb = 37, 10
        x = rng.random((n, n))
        tm = TileMatrix.from_dense(x + x.T, nb, symmetric_lower=True)
        sizes = [tm.grid.tile_size(i) for i in range(tm.nt)]
        lower = sum(sizes[i] * sizes[j] for i in range(tm.nt) for j in range(i + 1))
        assert tm.nbytes == 8 * lower
        assert tm.nbytes == sum(tile.nbytes for _, _, tile in tm.iter_stored())

    @given(st.integers(4, 40), st.integers(2, 15))
    def test_property_roundtrip(self, n, nb):
        rng = np.random.default_rng(n * 100 + nb)
        a = rng.random((n, n))
        tm = TileMatrix.from_dense(a, nb)
        np.testing.assert_allclose(tm.to_dense(), a, atol=1e-15)
