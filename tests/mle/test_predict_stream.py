"""Streamed kriging: ``Sigma_12`` is generated and applied in row blocks.

:meth:`PredictionEngine.predict` never forms the ``(m, n)``
cross-covariance; it walks the targets in row blocks of about
``PREDICT_BLOCK_ENTRIES`` entries. These tests force ``m`` past one
block and hold the result bit for bit to the unblocked product
``model(pairwise_distance(t, locs)) @ alpha`` on every substrate, bound
the memory of a large predict, and check the byte-bounded
:class:`~repro.linalg.generation.CrossDistanceCache`.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import MaternCovariance
from repro.kernels.distance import pairwise_distance
from repro.linalg.generation import CrossDistanceCache
from repro.mle import PredictionEngine
from repro.mle import prediction_engine as pe

N, NB, ACC = 192, 48, 1e-10
VARIANTS = ("full-block", "full-tile", "tlr")


@pytest.fixture(scope="module")
def problem():
    locs, _, _ = sort_locations(generate_irregular_grid(N, seed=5))
    model = MaternCovariance(1.0, 0.1, 0.8)
    z = sample_gaussian_field(locs, model, seed=6)
    targets = np.random.default_rng(7).random((324, 2))
    return locs, z, targets, model


def engine_for(problem, variant, cache=True):
    locs, z, _, model = problem
    return PredictionEngine(
        locs, z, model, variant=variant, acc=ACC, tile_size=NB, cache_distances=cache
    )


def unblocked(engine, targets, alpha):
    """The seed path: the whole ``Sigma_12`` at once, then one product."""
    return engine.model(pairwise_distance(targets, engine.locations)) @ alpha


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("rows", [32, 64, 128])
@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("cache", [True, False])
def test_streamed_predict_is_the_unblocked_product(problem, monkeypatch, variant, rows, k, cache):
    locs, z, targets, _ = problem
    monkeypatch.setattr(pe, "PREDICT_BLOCK_ENTRIES", rows * N)
    assert len(list(pe._row_blocks(len(targets), N))) > 1
    engine = engine_for(problem, variant, cache)
    zk = z if k is None else np.column_stack([z * (j + 1) for j in range(k)])
    alpha = engine.solve(zk)
    got = engine.predict(targets, z=zk)
    assert got.shape == (len(targets),) + zk.shape[1:]
    np.testing.assert_array_equal(got, unblocked(engine, targets, alpha))
    np.testing.assert_array_equal(engine.predict(targets, z=zk), got)  # cached distances


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_many_is_per_set_predict(problem, monkeypatch, variant):
    _, z, targets, _ = problem
    monkeypatch.setattr(pe, "PREDICT_BLOCK_ENTRIES", 40 * N)
    engine = engine_for(problem, variant)
    sets = [targets, targets[:41], targets[100:107], targets[::2]]
    many = engine.predict_many(sets)
    for t, got in zip(sets, many):
        np.testing.assert_array_equal(got, engine.predict(t))
        np.testing.assert_array_equal(got, unblocked(engine, t, engine.solve(z)))


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 17, 33, 41])
def test_row_blocks_cover_the_targets_once(monkeypatch, m):
    monkeypatch.setattr(pe, "PREDICT_BLOCK_ENTRIES", 8 * 100)
    blocks = list(pe._row_blocks(m, 100))
    covered = [i for b in blocks for i in range(b.start, b.stop)]
    assert covered == list(range(m))
    assert all(b.stop - b.start >= 2 for b in blocks) or m == 1
    assert all((b.stop - b.start) % 8 == 0 for b in blocks[:-1])


def test_large_predict_peak_memory_is_a_few_blocks():
    """324 targets against 1 600 locations: the whole ``Sigma_12`` would
    be 4.1 MB, and the unblocked path held it plus three temporaries."""
    locs = generate_irregular_grid(1600, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.8)
    z = sample_gaussian_field(locs, model, seed=1)
    engine = PredictionEngine(locs, z, model, variant="full-block")
    rng = np.random.default_rng(2)
    engine.predict(rng.random((324, 2)))  # factor and solve outside the window
    grids = [rng.random((324, 2)) for _ in range(3)]
    tracemalloc.start()
    try:
        for t in grids:
            engine.predict(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"streamed predict peaked at {peak / 1e6:.1f} MB"
    assert engine.cross_cache.n_entries == 0  # 4.1 MB sets are streamed, not stored


# --------------------------------------------------------------------------
# CrossDistanceCache: a byte-bounded LRU.
# --------------------------------------------------------------------------


@pytest.fixture
def cloud():
    return np.random.default_rng(0).random((50, 2))


def sets(m, count, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.random((m, 2)) for _ in range(count)]


def test_cache_evicts_by_bytes(cloud):
    entry = 10 * 50 * 8
    cache = CrossDistanceCache(cloud, max_bytes=3 * entry)
    a, b, c, d = sets(10, 4)
    for t in (a, b, c):
        cache.lookup(t)
    assert cache.n_entries == 3 and cache.nbytes == 3 * entry
    cache.lookup(a)  # a is now the most recent; b the least
    cache.lookup(d)
    assert cache.n_entries == 3 and cache.nbytes == 3 * entry
    hits = cache.hits
    for t in (a, c, d):
        cache.lookup(t)
    assert cache.hits == hits + 3
    misses = cache.misses
    cache.lookup(b)  # evicted
    assert cache.misses == misses + 1


def test_cache_admits_nothing_above_its_budget(cloud):
    cache = CrossDistanceCache(cloud, max_bytes=10 * 50 * 8 - 1)
    (big,) = sets(10, 1)
    (small,) = sets(2, 1, seed=2)
    assert cache.lookup(big) is None
    assert cache.lookup(big) is None
    assert (cache.hits, cache.misses, cache.n_entries) == (0, 2, 0)
    np.testing.assert_array_equal(cache.matrix(big), pairwise_distance(big, cloud))
    assert cache.n_entries == 0 and cache.misses == 3
    np.testing.assert_array_equal(cache.matrix(small), pairwise_distance(small, cloud))
    np.testing.assert_array_equal(cache.matrix(small), pairwise_distance(small, cloud))
    assert (cache.hits, cache.misses, cache.n_entries) == (1, 4, 1)
    assert cache.nbytes == 2 * 50 * 8


def test_cache_rejects_a_negative_budget(cloud):
    with pytest.raises(ValueError):
        CrossDistanceCache(cloud, max_bytes=-1)


def test_stored_matrices_are_read_only(problem):
    """A write into a shared cached matrix raises instead of silently
    changing every later prediction at that target set."""
    _, _, targets, _ = problem
    engine = engine_for(problem, "full-block")
    t = targets[:10]
    before = engine.predict(t)
    d = engine.cross_cache.lookup(t)
    assert d is not None and not d.flags.writeable
    with pytest.raises(ValueError):
        d[0, 0] = 0.0
    with pytest.raises(ValueError):
        engine.cross_cache.matrix(t)[:] *= 2.0
    np.testing.assert_array_equal(engine.predict(t), before)
