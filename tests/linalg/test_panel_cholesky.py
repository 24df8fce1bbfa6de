"""The column-panel tile Cholesky and panel solves against their oracles.

The seed's per-tile right-looking algorithm (POTRF / TRSM / SYRK / GEMM,
one BLAS call per tile) and its per-tile block substitution no longer
exist in ``src/``; they live on here as the reference the panel
algorithms are held to.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.linalg as sla

from repro.data import generate_irregular_grid, sort_locations
from repro.exceptions import NotPositiveDefiniteError
from repro.kernels import MaternCovariance
from repro.linalg import (
    TileDistanceCache,
    TileGrid,
    TileMatrix,
    generate_and_factor_tile_matrix,
    logdet_from_tile_factor,
    tile_cholesky,
    tile_solve_triangular,
)
from repro.runtime import Runtime

NB = 16
#: n -> nt in {1, 2, 3, 7}, every last panel ragged.
RAGGED_SIZES = {13: 1, 30: 2, 45: 3, 100: 7}
#: None is the serial path (no runtime).
WORKERS = (None, 1, 2, 4)


# --------------------------------------------------------------------------
# oracles: the seed algorithms, one BLAS call per tile
# --------------------------------------------------------------------------
def seed_tile_cholesky(a: np.ndarray, nb: int) -> np.ndarray:
    """Per-tile right-looking Cholesky of dense ``a``; returns dense L."""
    n = a.shape[0]
    cuts = [slice(s, min(s + nb, n)) for s in range(0, n, nb)]
    t = {(i, j): a[ri, cj].copy() for i, ri in enumerate(cuts) for j, cj in enumerate(cuts[: i + 1])}
    nt = len(cuts)
    for k in range(nt):
        t[k, k][:] = np.tril(sla.cholesky(t[k, k], lower=True, check_finite=False))
        for i in range(k + 1, nt):
            t[i, k][:] = sla.solve_triangular(t[k, k], t[i, k].T, lower=True, check_finite=False).T
        for i in range(k + 1, nt):
            t[i, i] -= t[i, k] @ t[i, k].T
            for j in range(k + 1, i):
                t[i, j] -= t[i, k] @ t[j, k].T
    out = np.zeros_like(a)
    for (i, j), tile in t.items():
        out[cuts[i], cuts[j]] = tile
    return out


def seed_tile_solve(lower: np.ndarray, nb: int, b: np.ndarray, *, trans: bool) -> np.ndarray:
    """Per-tile block substitution against dense lower-triangular ``lower``."""
    n = lower.shape[0]
    cuts = [slice(s, min(s + nb, n)) for s in range(0, n, nb)]
    blocks = [np.array(b[c], dtype=np.float64) for c in cuts]
    nt = len(cuts)
    order = range(nt - 1, -1, -1) if trans else range(nt)
    for i in order:
        for j in range(i + 1, nt) if trans else range(i):
            tile = lower[cuts[j], cuts[i]].T if trans else lower[cuts[i], cuts[j]]
            blocks[i] -= tile @ blocks[j]
        blocks[i] = sla.solve_triangular(
            lower[cuts[i], cuts[i]], blocks[i], lower=True, trans="T" if trans else "N",
            check_finite=False,
        )
    return np.concatenate(blocks, axis=0)


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------
@pytest.fixture(scope="module", params=sorted(RAGGED_SIZES))
def problem(request):
    n = request.param
    locs, _, _ = sort_locations(generate_irregular_grid(n, seed=n))
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = np.random.default_rng(n).standard_normal(n)
    # Assembled from tiles: blocked distances round differently (~1e-8)
    # from the whole-matrix ``model.matrix(locs)``.
    sigma = TileMatrix.from_generator(
        n, NB, lambda rs, cs: model.tile(locs, rs, cs), symmetric_lower=True
    ).to_dense()
    return n, locs, model, sigma, z


def _loglik_terms(factor: TileMatrix, z: np.ndarray) -> tuple:
    half = tile_solve_triangular(factor, z, trans=False)
    return logdet_from_tile_factor(factor), float(half @ half)


# --------------------------------------------------------------------------
# factorization parity matrix
# --------------------------------------------------------------------------
class TestPanelCholeskyParity:
    def test_factor_and_loglik_bit_identical_across_the_matrix(self, problem):
        """serial == 1 == 2 == 4 workers, fused == unfused, bit for bit."""
        n, locs, model, sigma, z = problem
        assert -(-n // NB) == RAGGED_SIZES[n] and n % NB != 0
        generate = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        results = {}
        for workers in WORKERS:
            if workers is None:
                factor = generate_and_factor_tile_matrix(n, NB, generate)
                results[(None, False)] = factor
                continue
            with Runtime(num_workers=workers) as rt:
                for fused in (False, True):
                    results[(workers, fused)] = generate_and_factor_tile_matrix(
                        n, NB, generate, runtime=rt, fused=fused
                    )
        reference = results[(None, False)]
        ref_dense = np.tril(reference.to_dense())
        ref_terms = _loglik_terms(reference, z)
        for key, factor in results.items():
            np.testing.assert_array_equal(np.tril(factor.to_dense()), ref_dense, err_msg=str(key))
            assert _loglik_terms(factor, z) == ref_terms, key
        np.testing.assert_allclose(ref_dense, np.linalg.cholesky(sigma), rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref_dense, seed_tile_cholesky(sigma, NB), rtol=0, atol=1e-12)

    def test_cached_distance_generator_matches_direct(self, problem):
        """Fused column fills write each panel from the generator in place,
        keep no distances, and give the factor of a tile-by-tile fill."""
        n, locs, model, _, _ = problem
        cache = TileDistanceCache(locs, NB)
        direct = TileMatrix(TileGrid(n, NB), symmetric_lower=True)
        for i, j, _ in direct.iter_stored():
            rs, cs = direct.grid.tile_slice(i), direct.grid.tile_slice(j)
            direct.set_tile(i, j, model.tile(locs, rs, cs))
        tile_cholesky(direct)
        with Runtime(num_workers=2) as rt:
            fused = generate_and_factor_tile_matrix(
                n, NB, cache.generator(model), runtime=rt, fused=True
            )
        # One distance computation per column panel, none kept.
        assert cache.misses == RAGGED_SIZES[n] and cache.n_blocks == 0
        np.testing.assert_array_equal(fused.to_dense(), direct.to_dense())

    def test_divisible_and_single_column_sizes(self, rng):
        for n, nb in [(64, 16), (16, 16), (5, 1)]:
            x = rng.random((n, n))
            a = x @ x.T + n * np.eye(n)
            tm = tile_cholesky(TileMatrix.from_dense(a, nb, symmetric_lower=True))
            np.testing.assert_allclose(
                np.tril(tm.to_dense()), np.linalg.cholesky(a), rtol=0, atol=1e-12
            )

    def test_repeated_factorization_reproduces_itself(self, problem):
        n, _, _, sigma, _ = problem
        with Runtime(num_workers=2) as rt:
            runs = [
                tile_cholesky(
                    TileMatrix.from_dense(sigma, NB, symmetric_lower=True), runtime=rt
                ).to_dense()
                for _ in range(3)
            ]
        np.testing.assert_array_equal(runs[0], runs[1])
        np.testing.assert_array_equal(runs[0], runs[2])

    def test_oversubscribed_workers_fast_switching(self):
        """More workers than cores and a tiny switch interval: a lost or
        reordered update of a shared column would change the bits."""
        n, nb = 330, 16  # nt = 21
        locs, _, _ = sort_locations(generate_irregular_grid(n, seed=3))
        sigma = MaternCovariance(1.0, 0.1, 0.5).matrix(locs)
        serial = tile_cholesky(TileMatrix.from_dense(sigma, nb, symmetric_lower=True)).to_dense()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Runtime(num_workers=8) as rt:
                for _ in range(3):
                    tm = TileMatrix.from_dense(sigma, nb, symmetric_lower=True)
                    np.testing.assert_array_equal(tile_cholesky(tm, runtime=rt).to_dense(), serial)
        finally:
            sys.setswitchinterval(old)


class TestPanelGraph:
    def test_task_population_and_kinds(self, problem):
        """nt fills + nt panels + nt(nt-1)/2 updates, traced by kind."""
        n, locs, model, _, _ = problem
        nt = RAGGED_SIZES[n]
        with Runtime(num_workers=2, trace=True) as rt:
            generate_and_factor_tile_matrix(
                n, NB, lambda rs, cs: model.tile(locs, rs, cs), runtime=rt, fused=True
            )
            names = [e.name for e in rt.trace]
        kinds = {}
        for name in names:
            kinds[name.split("(")[0]] = kinds.get(name.split("(")[0], 0) + 1
        expected = {"gen": nt, "panel": nt}
        if nt > 1:
            expected["update"] = nt * (nt - 1) // 2
        assert kinds == expected
        assert "panel(0)" in names and "gen(0)" in names
        if nt > 1:
            assert f"update({nt - 1},0)" in names

    def test_npd_stops_the_graph_and_the_runtime_recovers(self):
        """An NPD first pivot at nt=8 must not pay for the whole graph."""
        nt, nb = 8, 8
        bad = TileMatrix.from_dense(-np.eye(nt * nb), nb, symmetric_lower=True)
        x = np.random.default_rng(0).random((nt * nb, nt * nb))
        good = x @ x.T + nt * nb * np.eye(nt * nb)
        with Runtime(num_workers=2, trace=True) as rt:
            with pytest.raises(NotPositiveDefiniteError):
                tile_cholesky(bad, runtime=rt)
            assert len(rt.trace) <= nt  # of nt + nt(nt-1)/2 = 36 tasks
            rt.trace.clear()
            tm = tile_cholesky(TileMatrix.from_dense(good, nb, symmetric_lower=True), runtime=rt)
            assert len(rt.trace) == nt + nt * (nt - 1) // 2
        np.testing.assert_allclose(
            np.tril(tm.to_dense()), np.linalg.cholesky(good), rtol=0, atol=1e-12
        )

    def test_npd_in_a_late_panel_serial_engine(self):
        """Same contract on the synchronous engine, failing mid-graph."""
        nt, nb = 4, 4
        a = np.eye(nt * nb)
        a[9, 9] = -1.0  # third diagonal tile
        with Runtime(engine="serial", trace=True) as rt:
            with pytest.raises(NotPositiveDefiniteError):
                tile_cholesky(TileMatrix.from_dense(a, nb, symmetric_lower=True), runtime=rt)
            # panel(0..2) and the updates of steps 0 and 1 ran; nothing after.
            assert len(rt.trace) == 3 + 3 + 2
            tm = tile_cholesky(
                TileMatrix.from_dense(np.eye(nt * nb), nb, symmetric_lower=True), runtime=rt
            )
        np.testing.assert_array_equal(tm.to_dense(), np.eye(nt * nb))


# --------------------------------------------------------------------------
# panel solves
# --------------------------------------------------------------------------
class TestPanelSolve:
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("n_rhs", [None, 1, 5])
    def test_matches_per_tile_oracle(self, problem, trans, n_rhs):
        n, _, _, sigma, _ = problem
        factor = tile_cholesky(TileMatrix.from_dense(sigma, NB, symmetric_lower=True))
        lower = np.tril(factor.to_dense())
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n) if n_rhs is None else rng.standard_normal((n, n_rhs))
        b0 = b.copy()
        x = tile_solve_triangular(factor, b, trans=trans)
        oracle = seed_tile_solve(lower, NB, b, trans=trans)
        assert x.shape == b.shape
        np.testing.assert_allclose(x, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())
        np.testing.assert_array_equal(b, b0)  # rhs untouched
        np.testing.assert_array_equal(tile_solve_triangular(factor, b, trans=trans), x)

    def test_full_storage_factor(self, rng):
        """A factor held in a non-symmetric TileMatrix solves the same."""
        n, nb = 37, 8
        lower = np.tril(rng.random((n, n))) + n * np.eye(n)
        b = rng.random((n, 2))
        sym = TileMatrix.from_dense(lower, nb, symmetric_lower=True)
        full = TileMatrix.from_dense(lower, nb)
        for trans in (False, True):
            np.testing.assert_array_equal(
                tile_solve_triangular(full, b, trans=trans),
                tile_solve_triangular(sym, b, trans=trans),
            )
