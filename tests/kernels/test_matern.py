"""Tests for the Matérn correlation family (paper §IV)."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.exceptions import ShapeError
from repro.kernels import MaternCovariance, matern
from repro.kernels.distance import euclidean_distance_matrix
from repro.kernels.matern import (
    exponential_correlation,
    gaussian_correlation,
    matern_correlation,
    whittle_correlation,
)
from repro.linalg.tile_cholesky import tile_cholesky_from_source
from repro.linalg.tile_matrix import TileGrid, TileMatrix, tile_source
from repro.runtime import Runtime


def bessel_matern(r, range_, nu):
    """Direct eq. (5) evaluation (unit variance), one ``kv`` per entry.

    NaN where the terms leave double range (``x**ν`` below the smallest
    normal number or ``kv`` overflowing, at tiny ``x``); 0 where ``kv``
    flushes to zero (``x`` above about 700).
    """
    r = np.asarray(r, dtype=float)
    x = r / range_
    out = np.ones_like(x)
    pos = x > 0
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        x_nu = x[pos] ** nu
        vals = 2 ** (1 - nu) / special.gamma(nu) * x_nu * special.kv(nu, x[pos])
    vals[~np.isfinite(vals) | (x_nu < np.finfo(float).tiny)] = np.nan
    out[pos] = vals
    return out


class TestSpecialCases:
    def test_zero_distance_is_one(self):
        for nu in (0.3, 0.5, 1.0, 1.5, 2.5, 3.7):
            assert matern_correlation(np.array(0.0), 0.1, nu) == pytest.approx(1.0)

    def test_exponential_case(self, rng):
        r = rng.random(50) * 2
        np.testing.assert_allclose(
            matern_correlation(r, 0.17, 0.5), np.exp(-r / 0.17), rtol=1e-12
        )
        np.testing.assert_allclose(
            exponential_correlation(r, 0.17), np.exp(-r / 0.17), rtol=1e-12
        )

    def test_whittle_case_matches_bessel(self, rng):
        r = rng.random(30) + 0.01
        np.testing.assert_allclose(
            whittle_correlation(r, 0.2), bessel_matern(r, 0.2, 1.0), rtol=1e-9
        )
        np.testing.assert_allclose(
            matern_correlation(r, 0.2, 1.0), bessel_matern(r, 0.2, 1.0), rtol=1e-9
        )

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_polynomial_fast_paths(self, nu, rng):
        r = rng.random(40) * 3 + 1e-3
        np.testing.assert_allclose(
            matern_correlation(r, 0.3, nu), bessel_matern(r, 0.3, nu), rtol=1e-9
        )

    def test_general_nu_matches_bessel(self, rng):
        r = rng.random(25) * 2 + 1e-3
        for nu in (0.3, 0.75, 1.2, 3.3):
            np.testing.assert_allclose(
                matern_correlation(r, 0.15, nu), bessel_matern(r, 0.15, nu), rtol=1e-8
            )

    def test_large_nu_is_continuous_across_50(self):
        # Under eq. (5)'s r/θ2 scaling C -> 1 as ν grows, not exp(-x²/2):
        # a switch to the Gaussian above ν = 50 jumped 0.995 -> 0.607 at x = 1.
        x = np.array([0.1, 0.5, 1.0, 2.0])
        below = matern_correlation(x, 1.0, 50.0)
        above = matern_correlation(x, 1.0, 50.01)
        np.testing.assert_allclose(above, below, atol=1e-5)
        np.testing.assert_allclose(above, bessel_matern(x, 1.0, 50.01), rtol=1e-12)
        assert not np.allclose(above, gaussian_correlation(x, 1.0), atol=1e-3)


class TestNumericalRobustness:
    def test_huge_distances_underflow_to_zero(self):
        r = np.array([1e3, 1e6])
        for nu in (0.5, 1.0, 2.2):
            vals = matern_correlation(r, 0.01, nu)
            assert np.all(np.isfinite(vals))
            assert np.all(vals < 1e-10)

    def test_tiny_positive_distance(self):
        vals = matern_correlation(np.array([1e-14]), 0.1, 0.8)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(1.0, abs=1e-3)

    def test_values_in_unit_interval(self, rng):
        r = np.abs(rng.normal(0, 2, 200))
        for nu in (0.4, 0.5, 1.0, 1.5, 2.5, 4.0):
            vals = matern_correlation(r, 0.2, nu)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_monotone_decreasing_in_distance(self):
        r = np.linspace(0, 2, 100)
        for nu in (0.5, 1.0, 1.5, 3.0):
            vals = matern_correlation(r, 0.3, nu)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ShapeError):
            matern_correlation(np.array([1.0]), -0.1, 0.5)
        with pytest.raises(ShapeError):
            matern_correlation(np.array([1.0]), 0.1, 0.0)

    @pytest.mark.parametrize("x, expected", [(1e155, 0.0), (np.inf, 0.0), (np.nan, np.nan)])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8, 45.0])
    def test_far_and_nan_distances_on_every_path(self, nu, x, expected):
        # Closed forms, table and exact path alike: 0 where exp(-x) underflows
        # (not inf * 0), and a NaN distance is NaN (not perfect correlation).
        np.testing.assert_array_equal(matern_correlation(x, 1.0, nu), expected)
        got = matern_correlation(np.array([0.3, x, 2.0]), 1.0, nu)
        np.testing.assert_array_equal(got[1], expected)
        rest = matern_correlation(np.array([0.3, 2.0]), 1.0, nu)
        np.testing.assert_array_equal(got[[0, 2]], rest)

    def test_closed_forms_unchanged_where_finite(self):
        x = np.concatenate([np.linspace(0.0, 800.0, 4001), np.geomspace(800.0, 1e150, 50)])
        np.testing.assert_array_equal(matern_correlation(x, 1.0, 1.5), (1.0 + x) * np.exp(-x))
        np.testing.assert_array_equal(
            matern_correlation(x, 1.0, 2.5), (1.0 + x + x * x / 3.0) * np.exp(-x)
        )

    @given(
        st.floats(0.01, 5.0),
        st.floats(0.05, 2.0),
        st.floats(0.2, 4.0),
    )
    def test_property_bounded_and_finite(self, r, range_, nu):
        v = float(matern_correlation(np.array(r), range_, nu))
        assert np.isfinite(v)
        assert 0.0 <= v <= 1.0


class TestPositiveDefiniteness:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 0.8])
    def test_min_eigenvalue_nonnegative(self, nu, rng):
        pts = rng.random((40, 2))
        from repro.kernels.distance import euclidean_distance_matrix

        d = euclidean_distance_matrix(pts)
        c = matern_correlation(d, 0.2, nu)
        eigs = np.linalg.eigvalsh(c)
        assert eigs.min() > -1e-8


class TestTable:
    """The per-ν Chebyshev table that replaces one ``kv`` call per entry."""

    @settings(max_examples=200)
    @given(
        st.one_of(st.just(1.0), st.floats(0.1, 5.0)),
        st.lists(st.floats(0.0, 800.0), min_size=1, max_size=64),
    )
    def test_property_matches_kv_reference(self, nu, xs):
        self.assert_matches_kv_reference(np.array(xs), nu)

    @pytest.mark.parametrize("nu", [0.1, 0.37, 0.8, 1.0, 2.2, 3.3, 4.9, 5.0])
    def test_sweep_matches_kv_reference(self, nu):
        x = np.concatenate([[0.0], np.geomspace(1e-8, 800.0, 20_000)])
        self.assert_matches_kv_reference(x, nu)

    @staticmethod
    def assert_matches_kv_reference(x, nu):
        got = matern_correlation(x, 1.0, nu)
        ref = bessel_matern(x, 1.0, nu)
        assert np.all((got >= 0.0) & (got <= 1.0))
        ok = np.isfinite(ref)
        np.testing.assert_allclose(got[ok], ref[ok], rtol=0, atol=1e-13)
        big = ok & (ref >= 1e-300)
        np.testing.assert_allclose(got[big], ref[big], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("nu", [0.3, 0.8, 1.0, 3.3, 50.01])
    def test_zero_distance_is_exactly_one(self, nu, rng):
        assert matern_correlation(np.array(0.0), 0.1, nu) == 1.0
        d = euclidean_distance_matrix(rng.random((30, 2)))
        assert np.all(np.diag(matern_correlation(d, 0.1, nu)) == 1.0)

    @pytest.mark.parametrize("nu", [0.8, 1.0])
    def test_entry_does_not_depend_on_its_array(self, nu, rng):
        d = euclidean_distance_matrix(rng.random((60, 2)))
        ref = matern_correlation(d, 0.13, nu)
        same = np.testing.assert_array_equal
        same(matern_correlation(d.T, 0.13, nu), ref.T)
        same(matern_correlation(d[::7], 0.13, nu), ref[::7])
        same(matern_correlation(d[5:17, 3:], 0.13, nu), ref[5:17, 3:])
        same(matern_correlation(np.asfortranarray(d), 0.13, nu), ref)
        for i, j in [(0, 1), (5, 3), (59, 58), (17, 17)]:
            same(matern_correlation(d[i, j], 0.13, nu), ref[i, j])
            same(matern_correlation(float(d[i, j]), 0.13, nu), ref[i, j])
        # Many evaluation chunks: position within a chunk does not matter.
        big = np.tile(d.ravel(), 12)[7:]
        same(matern_correlation(big, 0.13, nu)[: d.size - 7], ref.ravel()[7:])

    def test_table_is_rebuilt_only_for_a_new_nu(self):
        matern._table.cache_clear()
        d = np.linspace(0.0, 2.0, 50)
        for nu in (0.8, 0.8, 1.3, 0.8):
            matern_correlation(d, 0.1, nu)
        info = matern._table.cache_info()
        assert (info.hits, info.misses) == (2, 2)


class TestTableEdges:
    """The domain ends, piece boundaries and the padded last piece."""

    @staticmethod
    def piece_boundaries(nu):
        coef, pieces_per_t = matern._table(nu)
        t = matern._T_MIN + np.arange(coef.shape[1]) / pieces_per_t
        return np.exp(t), coef.shape[1] - 1

    @pytest.mark.parametrize("nu", [0.1, 0.8, 1.0, 3.3])
    def test_domain_ends(self, nu):
        x = []
        for end in (matern._X_MIN, matern._X_MAX):
            x += [np.nextafter(end, 0.0), end, np.nextafter(end, np.inf)]
        TestTable.assert_matches_kv_reference(np.array(x), nu)

    @pytest.mark.parametrize("nu", [0.8, 3.3])
    def test_fitted_and_sub_piece_boundaries(self, nu):
        x, evaluation_pieces = self.piece_boundaries(nu)
        assert evaluation_pieces % matern._SPLIT == 0
        fitted = x[:: matern._SPLIT]
        x = x[(x >= matern._X_MIN) & (x <= matern._X_MAX)]
        for xs in (fitted, x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)):
            TestTable.assert_matches_kv_reference(xs, nu)

    @pytest.mark.parametrize("nu", [0.8, 3.3])
    def test_last_sub_piece(self, nu):
        x, last = self.piece_boundaries(nu)
        TestTable.assert_matches_kv_reference(np.geomspace(x[last - 1], matern._X_MAX, 500), nu)

    @pytest.mark.parametrize("nu", [0.8, 3.3, 45.0])
    def test_mixed_array_matches_each_value_alone(self, nu):
        x = np.concatenate(
            [
                [0.0, 1e-300, matern._X_MIN, matern._X_MAX, np.nextafter(matern._X_MAX, 0.0)],
                [np.nextafter(matern._X_MIN, 0.0), np.nextafter(matern._X_MAX, np.inf)],
                [800.0, 1e155, np.inf, np.nan],
                np.geomspace(1e-7, 750.0, 60),
            ]
        )
        x = np.random.default_rng(0).permutation(x)
        alone = [matern_correlation(v, 1.0, nu) for v in x]
        np.testing.assert_array_equal(matern_correlation(x, 1.0, nu), alone)


class TestAgainstMpmath:
    """The module docstring's bound against 40-digit ``mpmath``."""

    @pytest.mark.parametrize("nu", [0.1, 0.37, 0.8, 1.0, 3.3, 5.0, 15.0, 39.0])
    def test_relative_error_within_stated_bound(self, nu):
        mpmath = pytest.importorskip("mpmath")
        x = np.geomspace(1e-6, 700.0, 200)
        with mpmath.workdps(40):
            mnu = mpmath.mpf(nu)
            pref = 2 ** (1 - mnu) / mpmath.gamma(mnu)
            ref = np.array(
                [float(pref * mpmath.mpf(v) ** mnu * mpmath.besselk(mnu, v)) for v in x]
            )
        ok = ref >= 1e-300
        got = matern_correlation(x, 1.0, nu)
        assert np.max(np.abs(got[ok] - ref[ok]) / ref[ok]) <= 1.3e-13


class TestBesselCallGuard:
    """The per-entry Bessel call must not creep back into generation."""

    @pytest.fixture()
    def bessel_entries(self, monkeypatch):
        counts = {"entries": 0}
        for name in ("kv", "kve"):
            real = getattr(special, name)

            def counted(nu, x, _real=real):
                counts["entries"] += np.size(x)
                return _real(nu, x)

            monkeypatch.setattr(special, name, counted)
        matern._table.cache_clear()
        return counts

    def test_tile_costs_table_nodes_not_entries(self, bessel_entries, rng):
        locs = rng.random((400, 2))
        model = MaternCovariance(1.0, 0.1, 0.7311)
        model.tile(locs, slice(0, 200), slice(200, 400))
        first = bessel_entries["entries"]
        assert 0 < first <= 9 * 256 < 200 * 200 // 10
        # Same ν: the cached table serves another off-diagonal and a diagonal tile.
        model.tile(locs, slice(200, 400), slice(0, 200))
        model.tile(locs, slice(0, 200), slice(0, 200))
        assert bessel_entries["entries"] == first

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_building_tables_match_serial(self, workers, rng):
        """Generation tasks of the fused full-tile graph build the tables
        concurrently; the factor matches the serial one bit for bit."""
        locs = rng.random((160, 2))
        models = [MaternCovariance(1.0, 0.1, nu) for nu in (0.6131, 1.7717)]

        def gen(rows, cols):
            # The sum of two Matérn covariances is SPD; alternate which
            # table a tile asks for first (IEEE addition commutes).
            a, b = models[:: 1 if (rows.start // 40 + cols.start // 40) % 2 else -1]
            return a.tile(locs, rows, cols) + b.tile(locs, rows, cols)

        def factor(runtime):
            grid = TileGrid(160, 40)
            a = TileMatrix(grid, symmetric_lower=True)
            return tile_cholesky_from_source(a, tile_source(grid, gen), runtime=runtime)

        matern._table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Runtime(num_workers=workers) as rt:
                parallel = factor(rt)
        finally:
            sys.setswitchinterval(interval)
        matern._table.cache_clear()
        serial = factor(None)
        np.testing.assert_array_equal(parallel.to_dense(), serial.to_dense())
