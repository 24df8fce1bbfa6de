"""Ablation bench — compression method (SVD vs RSVD, paper §V).

Both compressors must satisfy the accuracy contract; they differ in
rank and speed. The per-method compression of a realistic covariance
tile is the benchmarked kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sort_locations
from repro.experiments.ablation import compression_method_study
from repro.kernels import MaternCovariance
from repro.linalg import compress


def test_ablation_compression_table(benchmark, outdir):
    """Writes the method-comparison table."""
    table = benchmark.pedantic(compression_method_study, rounds=1, iterations=1)
    table.save("ablation_compression_methods")
    assert {row[1] for row in table.rows} == {"svd", "rsvd"}


@pytest.mark.parametrize("method", ["svd", "rsvd"])
def test_compression_kernel(benchmark, method):
    """pytest-benchmark timing of one 200x200 tile compression."""
    nb = 200
    locs = generate_irregular_grid(4 * nb, seed=0)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    tile = model.tile(locs, slice(0, nb), slice(2 * nb, 3 * nb))
    lr = benchmark(compress, tile, 1e-7, method=method)
    err = np.linalg.norm(tile - lr.to_dense()) / np.linalg.norm(tile)
    assert err < 1e-5
