"""Ablation bench — parallel scaling of the task-parallel tile Cholesky."""

from __future__ import annotations

import pytest

from repro.data import generate_irregular_grid, sort_locations
from repro.experiments.common import bench_scale
from repro.kernels import MaternCovariance
from repro.linalg import TileMatrix, tile_cholesky
from repro.runtime import Runtime


@pytest.mark.parametrize("workers", [1, 4])
def test_parallel_tile_cholesky_scaling(benchmark, workers):
    """Task-parallel dense tile Cholesky at different worker counts."""
    n = 1024 if bench_scale() == "quick" else 2048
    locs = generate_irregular_grid(n, seed=0)
    locs, _, _ = sort_locations(locs)
    sigma = MaternCovariance(1.0, 0.1, 0.5).matrix(locs)

    def run():
        tiles = TileMatrix.from_dense(sigma, 128, symmetric_lower=True)
        with Runtime(num_workers=workers) as rt:
            tile_cholesky(tiles, runtime=rt)
        return tiles

    tiles = benchmark.pedantic(run, rounds=2, iterations=1)
    assert tiles.nt >= 2
