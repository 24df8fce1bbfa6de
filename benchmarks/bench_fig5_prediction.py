"""Figure 5 bench — TLR prediction time (100 unknowns).

Paper-scale modeled series on Shaheen-2/256 nodes plus a measured
host-scale prediction benchmark across variants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.experiments.common import bench_scale
from repro.experiments.fig5 import measured_series, model_series
from repro.kernels import MaternCovariance
from repro.mle import predict


def test_fig5_model_series(benchmark, outdir):
    """Paper-scale modeled prediction table."""
    table = benchmark.pedantic(model_series, rounds=1, iterations=1)
    table.save("fig5_model_shaheen_256nodes")
    assert len(table.rows) >= 1


def test_fig5_measured_host(benchmark, outdir):
    """Measured host-scale prediction table."""
    table = benchmark.pedantic(measured_series, rounds=1, iterations=1)
    table.save("fig5_measured_host")
    assert len(table.rows) >= 1


@pytest.mark.parametrize("variant,acc", [("full-block", None), ("tlr", 1e-7)])
def test_fig5_prediction_kernel(benchmark, variant, acc):
    """pytest-benchmark timing of one 100-unknown prediction."""
    n, m = (1024, 100) if bench_scale() == "quick" else (2500, 100)
    model = MaternCovariance(1.0, 0.1, 0.5)
    locs = generate_irregular_grid(n + m, seed=0)
    locs, _, _ = sort_locations(locs)
    z = sample_gaussian_field(locs, model, seed=1)
    rng = np.random.default_rng(2)
    hold = rng.choice(n + m, size=m, replace=False)
    mask = np.ones(n + m, dtype=bool)
    mask[hold] = False

    pred = benchmark(
        predict,
        locs[mask],
        z[mask],
        locs[hold],
        model,
        variant=variant,
        acc=acc,
        tile_size=128,
    )
    assert pred.shape == (m,)
