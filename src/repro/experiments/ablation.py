"""Ablation studies for the design choices DESIGN.md calls out.

* **Tile size** (§VIII-C): the paper tunes nb=560 for dense and nb=1900
  for TLR — TLR kernels have low arithmetic intensity and need larger
  tiles. :func:`tile_size_sweep` measures factorization time vs nb on
  the host, and models it at paper scale.
* **Compression method** (§V): SVD vs RSVD — accuracy contract,
  resulting ranks, and compression time.
* **Morton ordering**: TLR compressibility with and without
  space-filling-curve ordering of the locations.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..data.fields import sample_gaussian_field
from ..data.morton import sort_locations
from ..data.synthetic import generate_irregular_grid
from ..kernels.covariance import MaternCovariance
from ..linalg.compression import compress
from ..linalg.tlr_cholesky import tlr_cholesky
from ..linalg.tlr_matrix import TLRMatrix
from ..perfmodel.analytic import estimate_mle_iteration
from ..perfmodel.cluster import shaheen2
from .common import ResultTable, bench_scale

__all__ = [
    "tile_size_sweep",
    "compression_method_study",
    "ordering_study",
]


def tile_size_sweep(
    *,
    n: Optional[int] = None,
    tile_sizes: Sequence[int] = (50, 100, 200, 400),
    acc: float = 1e-7,
    theta: Sequence[float] = (1.0, 0.1, 0.5),
) -> ResultTable:
    """Measured TLR factorization time vs nb, plus paper-scale model.

    Reproduces the §VIII-C observation that TLR wants much larger tiles
    than the dense variant.
    """
    n = (1600 if bench_scale() == "quick" else 4900) if n is None else n
    model = MaternCovariance(*theta)
    locs = generate_irregular_grid(n, seed=3)
    locs, _, _ = sort_locations(locs)
    table = ResultTable(
        title=f"Ablation — tile size sweep, TLR acc={acc:.0e}, n={n} (measured) "
        "and n=1M on Shaheen-2 256 nodes (modeled)",
        headers=["nb", "measured chol [s]", "mean rank", "modeled 1M chol [s]"],
    )
    cluster = shaheen2(256)
    for nb in tile_sizes:
        if nb >= n:
            continue
        tlr = TLRMatrix.from_generator(n, nb, lambda rs, cs: model.tile(locs, rs, cs), acc=acc)
        mean_rank = tlr.mean_rank()
        t0 = time.perf_counter()
        tlr_cholesky(tlr)
        elapsed = time.perf_counter() - t0
        scale_nb = max(200, nb * 5)  # model probes a proportional paper-scale nb
        est = estimate_mle_iteration(
            1_000_000, variant="tlr", nb=scale_nb, acc=acc, cluster=cluster
        )
        table.add_row(nb, elapsed, round(mean_rank, 1), est.breakdown["factorization"])
    table.add_note("paper: nb=560 (dense) vs nb=1900 (TLR) on Shaheen-2")
    return table


def compression_method_study(
    *,
    nb: int = 200,
    acc: float = 1e-7,
    theta: Sequence[float] = (1.0, 0.1, 0.5),
    seed: int = 5,
) -> ResultTable:
    """SVD vs RSVD on representative near/far covariance tiles."""
    n = 4 * nb
    locs = generate_irregular_grid(n, seed=seed)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(*theta)
    table = ResultTable(
        title=f"Ablation — compression methods on {nb}x{nb} Matérn tiles, acc={acc:.0e}",
        headers=["tile", "method", "rank", "rel. 2-norm error", "time [ms]"],
    )
    tiles = {
        "near (d=1)": model.tile(locs, slice(0, nb), slice(nb, 2 * nb)),
        "far (d=3)": model.tile(locs, slice(0, nb), slice(3 * nb, 4 * nb)),
    }
    for tname, dense in tiles.items():
        norm = np.linalg.norm(dense, 2)
        for method in ("svd", "rsvd"):
            t0 = time.perf_counter()
            lr = compress(dense, acc, method=method)
            elapsed = time.perf_counter() - t0
            err = float(np.linalg.norm(dense - lr.to_dense(), 2) / norm)
            table.add_row(tname, method, lr.rank, err, elapsed * 1e3)
    table.add_note(
        "both methods must satisfy the accuracy contract ||A - UV||_2 <= acc ||A||_2 "
        "(svd is certified; rsvd gets up to 10x slack); ranks/time differ"
    )
    return table


def ordering_study(
    *,
    n: Optional[int] = None,
    nb: int = 128,
    acc: float = 1e-7,
    theta: Sequence[float] = (1.0, 0.1, 0.5),
) -> ResultTable:
    """TLR compressibility with vs without Morton ordering of locations."""
    n = (1024 if bench_scale() == "quick" else 4096) if n is None else n
    model = MaternCovariance(*theta)
    locs = generate_irregular_grid(n, seed=7)
    variants = {
        "morton": sort_locations(locs)[0],
        "natural (row-major grid)": locs,
        "random permutation": locs[np.random.default_rng(0).permutation(n)],
    }
    table = ResultTable(
        title=f"Ablation — location ordering vs TLR compressibility (n={n}, nb={nb}, acc={acc:.0e})",
        headers=["ordering", "max rank", "mean rank", "TLR MB", "compression ratio"],
    )
    for name, pts in variants.items():
        tlr = TLRMatrix.from_generator(n, nb, lambda rs, cs: model.tile(pts, rs, cs), acc=acc)
        table.add_row(
            name,
            tlr.max_rank(),
            round(tlr.mean_rank(), 1),
            round(tlr.nbytes / 1e6, 3),
            round(tlr.compression_ratio(), 2),
        )
    table.add_note("ExaGeoStat Morton-orders locations so tile separation tracks distance")
    return table
