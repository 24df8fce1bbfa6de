"""Tests for distance metrics (Euclidean and great-circle)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ShapeError
from repro.kernels.distance import (
    EARTH_RADIUS_KM,
    euclidean_distance_matrix,
    great_circle_distance_matrix,
    haversine,
    pairwise_distance,
    pairwise_distance_block,
)


class TestEuclidean:
    def test_matches_bruteforce(self, rng):
        x = rng.random((40, 2))
        y = rng.random((25, 2))
        d = euclidean_distance_matrix(x, y)
        brute = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1))
        np.testing.assert_allclose(d, brute, atol=1e-12)

    def test_symmetric_zero_diagonal(self, rng):
        x = rng.random((30, 2))
        d = euclidean_distance_matrix(x)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) == 0.0)

    def test_non_negative_despite_cancellation(self, rng):
        # Nearly identical points stress the expanded-square identity.
        base = rng.random((10, 2))
        x = np.vstack([base, base + 1e-12])
        d = euclidean_distance_matrix(x)
        assert np.all(d >= 0.0)

    def test_1d_and_3d(self, rng):
        x1 = rng.random((10, 1))
        assert euclidean_distance_matrix(x1).shape == (10, 10)
        x3 = rng.random((10, 3))
        assert euclidean_distance_matrix(x3).shape == (10, 10)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            euclidean_distance_matrix(rng.random((5, 2)), rng.random((5, 3)))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.just(2)),
            elements=st.floats(-100, 100),
        )
    )
    def test_metric_axioms(self, x):
        d = euclidean_distance_matrix(x)
        assert np.all(d >= 0)
        np.testing.assert_allclose(d, d.T, atol=1e-9)
        # Triangle inequality on all triples. The tolerance must scale
        # with the coordinate magnitude: the expanded-square identity
        # loses ~sqrt(||x||^2 * eps) absolute accuracy for nearly
        # coincident points far from the origin (e.g. points 1e-7 apart
        # at coordinate 8 come out ~1e-7 off), so a flat 1e-7 is tighter
        # than the documented algorithm can honor.
        tol = 1e-6 * (1.0 + float(np.abs(x).max()))
        n = d.shape[0]
        for i in range(n):
            assert np.all(d[i, :][None, :] <= d[i, :][:, None] + d + tol)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine(10.0, 20.0, 10.0, 20.0) == pytest.approx(0.0)

    def test_equator_degrees(self):
        # Along the equator, the central angle equals the longitude gap.
        assert haversine(0.0, 0.0, 90.0, 0.0, unit="deg") == pytest.approx(90.0)

    def test_poles_km(self):
        # Pole to pole is half the great circle.
        d = haversine(0.0, 90.0, 0.0, -90.0, unit="km")
        assert d == pytest.approx(np.pi * EARTH_RADIUS_KM, rel=1e-6)

    def test_known_city_pair(self):
        # Paris (2.3522E, 48.8566N) to New York (-74.0060, 40.7128): ~5837 km.
        d = haversine(2.3522, 48.8566, -74.0060, 40.7128, unit="km")
        assert d == pytest.approx(5837.0, rel=0.01)

    def test_radians_unit(self):
        assert haversine(0.0, 0.0, 180.0, 0.0, unit="rad") == pytest.approx(np.pi)

    def test_bad_unit(self):
        with pytest.raises(ShapeError):
            haversine(0.0, 0.0, 1.0, 1.0, unit="miles")

    @given(
        st.floats(-180, 180), st.floats(-89, 89), st.floats(-180, 180), st.floats(-89, 89)
    )
    def test_symmetry_and_range(self, lon1, lat1, lon2, lat2):
        d12 = haversine(lon1, lat1, lon2, lat2, unit="deg")
        d21 = haversine(lon2, lat2, lon1, lat1, unit="deg")
        assert d12 == pytest.approx(d21, abs=1e-9)
        assert 0.0 <= d12 <= 180.0 + 1e-9


class TestGreatCircleMatrix:
    def test_shape_and_diag(self, rng):
        pts = np.column_stack([rng.uniform(-90, 90, 20), rng.uniform(-45, 45, 20)])
        d = great_circle_distance_matrix(pts)
        assert d.shape == (20, 20)
        assert np.all(np.diag(d) == 0.0)
        np.testing.assert_allclose(d, d.T, atol=1e-9)

    def test_requires_lonlat(self, rng):
        with pytest.raises(ShapeError):
            great_circle_distance_matrix(rng.random((5, 3)))

    def test_cross_matrix(self, rng):
        a = np.column_stack([rng.uniform(0, 10, 6), rng.uniform(0, 10, 6)])
        b = np.column_stack([rng.uniform(0, 10, 4), rng.uniform(0, 10, 4)])
        assert great_circle_distance_matrix(a, b).shape == (6, 4)


class TestDispatch:
    def test_registry(self, rng):
        x = rng.random((8, 2))
        np.testing.assert_allclose(
            pairwise_distance(x, metric="euclidean"), euclidean_distance_matrix(x)
        )
        np.testing.assert_allclose(
            pairwise_distance(x, metric="gcd"), great_circle_distance_matrix(x)
        )

    def test_unknown_metric(self, rng):
        with pytest.raises(ShapeError, match="unknown metric"):
            pairwise_distance(rng.random((4, 2)), metric="chebyshev")


class TestBlock:
    def test_diagonal_block_has_exact_zero_self_distances(self, rng):
        # The GEMM-trick rounding leaves ~1e-8 on a tile's own diagonal;
        # Sigma's diagonal must not depend on the substrate (regression).
        x = rng.random((60, 2))
        full = pairwise_distance(x)
        for rows in (slice(0, 20), slice(20, 60)):
            d = pairwise_distance_block(x, rows, rows)
            assert np.all(np.diagonal(d) == 0.0)
            np.testing.assert_allclose(d, full[rows, rows], atol=1e-7)

    def test_column_panel_is_its_tiles_stacked_with_zero_self_distances(self, rng):
        # 70 = 4 * 16 + 6: the last tile has 6 rows. A panel computed in
        # place has the bits of its tiles, and 0 wherever rows meet columns.
        x, n, nb = rng.random((70, 2)), 70, 16
        for j in range(5):
            cols = slice(nb * j, min(n, nb * (j + 1)))
            panel = np.empty((n - nb * j, cols.stop - cols.start))
            assert pairwise_distance_block(x, slice(nb * j, n), cols, out=panel) is panel
            tiles = [
                pairwise_distance_block(x, slice(nb * i, min(n, nb * (i + 1))), cols)
                for i in range(j, 5)
            ]
            np.testing.assert_array_equal(panel, np.vstack(tiles))
            assert np.all(np.diagonal(panel) == 0.0)

    @pytest.mark.parametrize("metric", ["euclidean", "gcd"])
    def test_out_is_the_fresh_result(self, rng, metric):
        x, y = rng.random((33, 2)) * 10, rng.random((20, 2)) * 10
        for a, b in ((x, y), (x, None)):
            fresh = pairwise_distance(a, b, metric=metric)
            out = np.full(fresh.shape, np.nan)
            assert pairwise_distance(a, b, metric=metric, out=out) is out
            np.testing.assert_array_equal(out, fresh)

    def test_other_blocks_are_the_plain_two_operand_distance(self, rng):
        x, y = rng.random((40, 2)), rng.random((40, 2))
        rows, cols = slice(0, 20), slice(20, 40)
        np.testing.assert_array_equal(
            pairwise_distance_block(x, rows, cols), pairwise_distance(x[rows], x[cols])
        )
        # Same slices over a *different* point set: not self-distances.
        np.testing.assert_array_equal(
            pairwise_distance_block(x, rows, rows, y), pairwise_distance(x[rows], y[rows])
        )
