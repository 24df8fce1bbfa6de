"""Figure 5 — TLR prediction time on Shaheen-2 with 256 nodes.

The prediction operation (eq. (4), 100 unknown measurements) is
dominated by the Cholesky factorization of ``Sigma_22``; the paper notes
its curves mirror the Figure 4(a) MLE curves. Both a modeled paper-scale
series and measured host-scale predictions are produced.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..data.fields import sample_gaussian_field
from ..data.morton import sort_locations
from ..data.synthetic import generate_irregular_grid
from ..kernels.covariance import MaternCovariance
from ..mle.prediction import predict
from ..perfmodel.analytic import estimate_prediction
from ..perfmodel.cluster import shaheen2
from ..perfmodel.rankmodel import DEFAULT_RANK_MODEL, RankModel
from .common import ResultTable, bench_scale
from .fig4 import PAPER_ACCURACIES, PAPER_N_256

__all__ = ["model_series", "measured_series"]


def model_series(
    *,
    n_nodes: int = 256,
    n_values: Sequence[int] = PAPER_N_256,
    accuracies: Sequence[float] = PAPER_ACCURACIES,
    m: int = 100,
    nb_dense: int = 560,
    nb_tlr: int = 1900,
    rank_model: RankModel = DEFAULT_RANK_MODEL,
) -> ResultTable:
    """Modeled Fig. 5: prediction of ``m`` unknowns on 256 nodes."""
    cluster = shaheen2(n_nodes)
    headers = ["n", "Full-tile"] + [f"TLR-acc({a:.0e})" for a in accuracies]
    table = ResultTable(
        title=(
            f"Figure 5 — modeled TLR prediction time ({m} unknowns) on "
            f"Shaheen-2, {n_nodes} nodes [s]"
        ),
        headers=headers,
    )
    for n in n_values:
        row: list[object] = [n]
        est = estimate_prediction(
            n, m, variant="full-tile", nb=nb_dense, cluster=cluster, rank_model=rank_model
        )
        row.append(None if est.oom else est.time_s)
        for acc in accuracies:
            est = estimate_prediction(
                n, m, variant="tlr", nb=nb_tlr, acc=acc, cluster=cluster, rank_model=rank_model
            )
            row.append(None if est.oom else est.time_s)
        table.add_row(*row)
    table.add_note("factorization dominates (m is small), so curves track Figure 4(a)")
    return table


def measured_series(
    *,
    n_values: Optional[Sequence[int]] = None,
    accuracies: Sequence[float] = (1e-9, 1e-7, 1e-5),
    m: int = 100,
    tile_size: int = 200,
    theta: Sequence[float] = (1.0, 0.1, 0.5),
) -> ResultTable:
    """Measured host-scale prediction wall-clock (full variants + TLR)."""
    if n_values is None:
        n_values = (1600, 2500) if bench_scale() == "quick" else (2500, 4900, 8100)
    model = MaternCovariance(*theta)
    headers = ["n", "Full-block", "Full-tile"] + [f"TLR-acc({a:.0e})" for a in accuracies]
    table = ResultTable(
        title=f"Figure 5 (host) — measured prediction time ({m} unknowns) [s]",
        headers=headers,
    )
    for n in n_values:
        locs = generate_irregular_grid(n + m, seed=0)
        locs, _, _ = sort_locations(locs)
        z = sample_gaussian_field(locs, model, seed=1)
        rng = np.random.default_rng(2)
        holdout = rng.choice(n + m, size=m, replace=False)
        mask = np.ones(n + m, dtype=bool)
        mask[holdout] = False
        row: list[object] = [n]
        variants: list[tuple[str, Optional[float]]] = [("full-block", None), ("full-tile", None)]
        variants += [("tlr", a) for a in accuracies]
        for variant, acc in variants:
            t0 = time.perf_counter()
            predict(
                locs[mask], z[mask], locs[holdout], model,
                variant=variant, acc=acc, tile_size=tile_size,
            )
            row.append(time.perf_counter() - t0)
        table.add_row(*row)
    return table
