"""Property-based covariance tests (hypothesis).

The prediction-engine parity suite proves end-to-end value preservation
but cannot localize a failure to a single generation primitive. These
properties pin the primitives themselves on random location clouds and
random tilings:

* ``Sigma(theta)`` is symmetric positive semi-definite;
* ``tile_from_distances`` is bit-identical to direct ``tile`` generation
  (the contract the :class:`~repro.linalg.generation.TileDistanceCache`
  rides on), including nugget placement on off-diagonal slices;
* cross-covariance assembly ``model(d12)`` matches per-entry kernel
  evaluation;
* a warmed tile distance cache and the cross distance cache return
  exactly what direct computation returns for *every* block — catching
  cache-keying bugs
  (e.g. two blocks colliding on one key) that downstream parity tests
  can only detect, not localize.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    ExponentialCovariance,
    GaussianCovariance,
    MaternCovariance,
)
from repro.kernels.distance import pairwise_distance, pairwise_distance_block
from repro.linalg.generation import CrossDistanceCache, TileDistanceCache
from repro.linalg.tile_matrix import TileGrid

# Smoothness capped at 2.5: large nu with dense clouds drives Sigma's
# conditioning below float64 resolution, which is a numerics property,
# not an assembly property.
models = st.one_of(
    st.builds(
        MaternCovariance,
        variance=st.floats(0.1, 5.0),
        range_=st.floats(0.02, 0.8),
        smoothness=st.floats(0.3, 2.5),
        nugget=st.sampled_from([0.0, 1e-4, 1e-2]),
    ),
    st.builds(
        ExponentialCovariance,
        variance=st.floats(0.1, 5.0),
        range_=st.floats(0.02, 0.8),
        nugget=st.sampled_from([0.0, 1e-3]),
    ),
    st.builds(
        GaussianCovariance,
        variance=st.floats(0.1, 5.0),
        range_=st.floats(0.02, 0.4),
        nugget=st.sampled_from([1e-6, 1e-3]),
    ),
)


def cloud(seed: int, n: int, d: int = 2) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, d))


@given(model=models, seed=st.integers(0, 2**31 - 1), n=st.integers(2, 40))
def test_sigma_symmetric_psd(model, seed, n):
    x = cloud(seed, n)
    sigma = model.matrix(x)
    np.testing.assert_array_equal(sigma, sigma.T)
    assert np.all(np.diagonal(sigma) == model.variance + model.nugget)
    eigs = np.linalg.eigvalsh(sigma)
    assert eigs.min() >= -1e-8 * n * model.variance


@given(
    model=models,
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(4, 40),
    data=st.data(),
)
def test_tile_from_distances_consistent_with_tile(model, seed, n, data):
    x = cloud(seed, n)
    r0 = data.draw(st.integers(0, n - 1), label="row_start")
    r1 = data.draw(st.integers(r0 + 1, n), label="row_stop")
    c0 = data.draw(st.integers(0, n - 1), label="col_start")
    c1 = data.draw(st.integers(c0 + 1, n), label="col_stop")
    rows, cols = slice(r0, r1), slice(c0, c1)
    direct = model.tile(x, rows, cols)
    d = pairwise_distance_block(x, rows, cols, metric=model.metric)
    np.testing.assert_array_equal(model.tile_from_distances(d, rows, cols), direct)
    # The nugget lands exactly on global-diagonal entries, even for
    # offset (row != col) slices that merely straddle the diagonal.
    plain = model(d)
    tiled = model.tile_from_distances(d, rows, cols)
    ridx = np.arange(r0, r1)[:, None]
    cidx = np.arange(c0, c1)[None, :]
    eq = ridx == cidx
    np.testing.assert_array_equal(tiled[~eq], plain[~eq])
    np.testing.assert_array_equal(tiled[eq], plain[eq] + model.nugget)


@given(model=models, seed=st.integers(0, 2**31 - 1), n=st.integers(2, 25), m=st.integers(1, 10))
def test_cross_covariance_matches_per_entry_evaluation(model, seed, n, m):
    x = cloud(seed, n)
    y = cloud(seed + 1, m)
    sigma12 = model(pairwise_distance(y, x, metric=model.metric))
    assert sigma12.shape == (m, n)
    for i in range(m):
        for j in range(n):
            r = float(np.linalg.norm(y[i] - x[j]))
            expected = float(model(np.array([r]))[0])
            # The expanded-square distance formula loses ~sqrt(eps) near
            # coincident points; the kernel is 1-Lipschitz-bounded in r
            # at these scales.
            assert abs(sigma12[i, j] - expected) < 1e-6 * max(1.0, model.variance)


@given(
    model=models,
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(4, 60),
    nb=st.integers(2, 17),
)
def test_tile_distance_cache_keys_every_block_correctly(model, seed, n, nb):
    x = cloud(seed, n)
    cache = TileDistanceCache(x, nb, metric=model.metric).warm()
    grid = TileGrid(n, nb)
    # Every distinct (rows, cols) pair got its own stored block — a keying
    # collision would manifest as fewer stored blocks than tiles.
    assert cache.n_blocks == grid.nt * (grid.nt + 1) // 2
    misses = cache.misses
    gen = cache.generator(model)
    for i in range(grid.nt):
        for j in range(i + 1):
            rs, cs = grid.tile_slice(i), grid.tile_slice(j)
            direct_d = pairwise_distance_block(x, rs, cs, metric=model.metric)
            np.testing.assert_array_equal(cache.block(rs, cs), direct_d)
            np.testing.assert_array_equal(gen(rs, cs), model.tile(x, rs, cs))
    assert cache.misses == misses  # every lookup was a stored block


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 30),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
)
@settings(max_examples=25)
def test_cross_distance_cache_keys_by_content(seed, n, sizes):
    x = cloud(seed, n)
    cache = CrossDistanceCache(x, max_bytes=(len(sizes) + 1) * 12 * 30 * 8)
    targets = [cloud(seed + 1 + k, m) for k, m in enumerate(sizes)]
    for t in targets:
        np.testing.assert_array_equal(cache.matrix(t), pairwise_distance(t, x))
    misses = cache.misses
    for t in targets:
        np.testing.assert_array_equal(cache.matrix(t), pairwise_distance(t, x))
    assert cache.misses == misses  # replays are pure hits
    # An equal-shape but different-content target set must not collide.
    other = targets[0] + 0.25
    np.testing.assert_array_equal(cache.matrix(other), pairwise_distance(other, x))
    assert cache.misses == misses + 1


@given(model=models, seed=st.integers(0, 2**31 - 1), n=st.integers(2, 30))
def test_matrix_from_distances_consistent_with_matrix(model, seed, n):
    x = cloud(seed, n)
    d = pairwise_distance(x, metric=model.metric)
    np.testing.assert_array_equal(model.matrix_from_distances(d), model.matrix(x))
