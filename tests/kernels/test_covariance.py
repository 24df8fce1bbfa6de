"""Tests for covariance model classes and tile generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.kernels import (
    ExponentialCovariance,
    GaussianCovariance,
    MaternCovariance,
    PoweredExponentialCovariance,
    WhittleCovariance,
)
from repro.kernels.distance import pairwise_distance_block


class TestMaternCovariance:
    def test_matrix_symmetric_psd(self, small_locations):
        cov = MaternCovariance(2.0, 0.1, 0.5)
        sigma = cov.matrix(small_locations)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() > -1e-8
        np.testing.assert_allclose(np.diag(sigma), 2.0)

    def test_call_scales_by_variance(self):
        cov = MaternCovariance(3.0, 0.1, 0.5)
        assert float(cov(np.array(0.0))) == pytest.approx(3.0)

    def test_with_theta_returns_new_model(self):
        cov = MaternCovariance(1.0, 0.1, 0.5, metric="gcd", nugget=0.01)
        cov2 = cov.with_theta([2.0, 0.2, 1.0])
        assert cov2 is not cov
        assert cov2.variance == 2.0 and cov2.range_ == 0.2 and cov2.smoothness == 1.0
        assert cov2.metric == "gcd" and cov2.nugget == 0.01
        # Original untouched.
        assert cov.variance == 1.0

    def test_with_theta_wrong_length(self):
        with pytest.raises(ShapeError):
            MaternCovariance().with_theta([1.0, 0.1])

    def test_theta_roundtrip(self):
        cov = MaternCovariance(1.5, 0.25, 0.75)
        np.testing.assert_allclose(cov.theta, [1.5, 0.25, 0.75])

    def test_invalid_params(self):
        with pytest.raises(ShapeError):
            MaternCovariance(-1.0, 0.1, 0.5)
        with pytest.raises(ShapeError):
            MaternCovariance(1.0, 0.0, 0.5)


class TestTileGeneration:
    def test_tile_equals_matrix_block(self, small_locations):
        cov = MaternCovariance(1.0, 0.1, 0.5)
        sigma = cov.matrix(small_locations)
        tile = cov.tile(small_locations, slice(32, 96), slice(0, 32))
        np.testing.assert_allclose(tile, sigma[32:96, 0:32], atol=1e-12)

    def test_tile_with_nugget_diagonal_only(self, small_locations):
        cov = MaternCovariance(1.0, 0.1, 0.5, nugget=0.5)
        sigma = cov.matrix(small_locations)
        diag_tile = cov.tile(small_locations, slice(0, 64), slice(0, 64))
        np.testing.assert_allclose(diag_tile, sigma[:64, :64], atol=1e-12)
        off_tile = cov.tile(small_locations, slice(64, 128), slice(0, 64))
        np.testing.assert_allclose(off_tile, sigma[64:128, :64], atol=1e-12)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(0, 64), slice(0, 64)),  # diagonal
            (slice(None, 64), slice(None, 64)),  # diagonal, open start
            (slice(64, 128), slice(0, 64)),  # off-diagonal
            (slice(192, 256), slice(192, 256)),  # ragged last tile (nb = 60)
            (slice(240, 256), slice(180, 240)),  # ragged off-diagonal
            (slice(10, 50), slice(30, 90)),  # ranges that partly overlap
        ],
    )
    def test_nugget_lands_on_global_diagonal_bit_for_bit(self, small_locations, rows, cols):
        cov = MaternCovariance(1.0, 0.1, 0.8, nugget=0.37)
        d = pairwise_distance_block(small_locations, rows, cols)
        got = cov.tile_from_distances(d, rows, cols)
        want = MaternCovariance(1.0, 0.1, 0.8)(d)
        r = np.arange(rows.start or 0, rows.stop)
        c = np.arange(cols.start or 0, cols.stop)
        eq = r[:, None] == c[None, :]
        want[eq] += 0.37
        np.testing.assert_array_equal(got, want)

    def test_cross_covariance(self, small_locations, rng):
        cov = MaternCovariance(1.0, 0.1, 0.5, nugget=0.3)
        other = rng.random((10, 2))
        cross = cov.matrix(small_locations, other)
        assert cross.shape == (small_locations.shape[0], 10)
        # Nugget must not leak into cross-covariances.
        assert np.all(cross <= 1.0 + 1e-12)


class TestNamedFamilies:
    def test_exponential_is_matern_half(self, small_locations):
        e = ExponentialCovariance(1.3, 0.2)
        m = MaternCovariance(1.3, 0.2, 0.5)
        np.testing.assert_allclose(
            e.matrix(small_locations), m.matrix(small_locations), atol=1e-12
        )
        assert e.param_names == ("variance", "range_")
        np.testing.assert_allclose(e.theta, [1.3, 0.2])

    def test_whittle_is_matern_one(self, small_locations):
        w = WhittleCovariance(1.0, 0.15)
        m = MaternCovariance(1.0, 0.15, 1.0)
        np.testing.assert_allclose(
            w.matrix(small_locations), m.matrix(small_locations), atol=1e-12
        )

    def test_gaussian_model(self, small_locations):
        g = GaussianCovariance(2.0, 0.2)
        sigma = g.matrix(small_locations)
        np.testing.assert_allclose(np.diag(sigma), 2.0)
        assert np.linalg.eigvalsh(sigma).min() > -1e-6

    def test_powered_exponential(self):
        p1 = PoweredExponentialCovariance(1.0, 0.2, 1.0)
        e = ExponentialCovariance(1.0, 0.2)
        r = np.linspace(0, 1, 20)
        np.testing.assert_allclose(p1(r), e(r), atol=1e-12)
        with pytest.raises(ShapeError):
            PoweredExponentialCovariance(1.0, 0.2, 2.5)

    def test_two_param_with_theta(self):
        e = ExponentialCovariance(1.0, 0.1)
        e2 = e.with_theta([2.0, 0.3])
        assert isinstance(e2, ExponentialCovariance)
        assert e2.smoothness == 0.5
