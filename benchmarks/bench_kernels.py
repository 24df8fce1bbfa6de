"""Micro-benchmarks of the computational kernels.

Covers the per-call building blocks whose costs the performance model
aggregates: covariance generation (Matérn from its per-ν table),
pairwise distances, dense vs TLR Cholesky, and triangular solves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sort_locations
from repro.experiments.common import bench_scale
from repro.kernels import MaternCovariance
from repro.kernels.distance import euclidean_distance_matrix, great_circle_distance_matrix
from repro.kernels.matern import matern_correlation
from repro.linalg import (
    TLRMatrix,
    TileMatrix,
    block_cholesky,
    tile_cholesky,
    tlr_cholesky,
    tlr_cholesky_solve,
)


@pytest.fixture(scope="module")
def problem():
    n = 1600 if bench_scale() == "quick" else 4096
    locs = generate_irregular_grid(n, seed=0)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    sigma = model.matrix(locs)
    return n, locs, model, sigma


def test_bench_matern_general_nu(benchmark):
    """Matérn at a general ν (the per-ν Chebyshev table) on 1M distances."""
    r = np.linspace(0.0, 2.0, 1_000_000)
    out = benchmark(matern_correlation, r, 0.1, 0.7)
    assert out.shape == r.shape


def test_bench_matern_exponential_fastpath(benchmark):
    """Matérn ν=1/2 closed form on 1M distances."""
    r = np.linspace(0.0, 2.0, 1_000_000)
    out = benchmark(matern_correlation, r, 0.1, 0.5)
    assert out.shape == r.shape


def test_bench_euclidean_distance(benchmark, problem):
    n, locs, _, _ = problem
    d = benchmark(euclidean_distance_matrix, locs)
    assert d.shape == (n, n)


def test_bench_great_circle_distance(benchmark):
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-95, -80, 1000), rng.uniform(30, 41, 1000)])
    d = benchmark(great_circle_distance_matrix, pts)
    assert d.shape == (1000, 1000)


def test_bench_block_cholesky(benchmark, problem):
    _, _, _, sigma = problem
    L = benchmark(block_cholesky, sigma.copy())
    assert L.shape == sigma.shape


def test_bench_tile_cholesky_serial(benchmark, problem):
    _, _, _, sigma = problem

    def run():
        tm = TileMatrix.from_dense(sigma, 200, symmetric_lower=True)
        return tile_cholesky(tm)

    tm = benchmark(run)
    assert tm.nt >= 2


def test_bench_tlr_cholesky(benchmark, problem):
    n, locs, model, _ = problem

    def run():
        tlr = TLRMatrix.from_generator(
            n, 200, lambda rs, cs: model.tile(locs, rs, cs), acc=1e-7
        )
        return tlr_cholesky(tlr)

    tlr = benchmark.pedantic(run, rounds=2, iterations=1)
    assert tlr.max_rank() > 0


def test_bench_tlr_solve(benchmark, problem):
    n, locs, model, sigma = problem
    tlr = TLRMatrix.from_generator(
        n, 200, lambda rs, cs: model.tile(locs, rs, cs), acc=1e-9
    )
    tlr_cholesky(tlr)
    b = np.ones(n)
    x = benchmark(tlr_cholesky_solve, tlr, b)
    assert np.abs(sigma @ x - b).max() < 1e-4
