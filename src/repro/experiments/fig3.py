"""Figure 3 — time of one MLE iteration on four Intel machines.

Two complementary reproductions:

* :func:`model_series` — the paper-scale series (n = 55225..112225) from
  the calibrated performance model, one table per machine, columns
  Full-block / Full-tile / TLR at four accuracies. This is where the
  figure's *shape* (ordering of variants, growth with n, per-machine
  differences) is reproduced.
* :func:`measured_series` — real wall-clock per-iteration times on the
  host at Python-feasible n, same variant set, demonstrating the same
  ordering where the Python substrate allows.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..data.morton import sort_locations
from ..data.synthetic import generate_irregular_grid
from ..data.fields import sample_gaussian_field
from ..kernels.covariance import MaternCovariance
from ..mle.loglik import LikelihoodEvaluator
from ..perfmodel.analytic import estimate_mle_iteration
from ..perfmodel.machine import get_machine
from ..perfmodel.rankmodel import DEFAULT_RANK_MODEL, RankModel
from ..runtime import Runtime
from .common import ResultTable, bench_scale

__all__ = ["PAPER_N_VALUES", "PAPER_ACCURACIES", "model_series", "measured_series"]

#: The x-axis of the paper's Figure 3.
PAPER_N_VALUES = (55225, 63001, 71289, 79524, 87616, 96100, 104329, 112225)

#: Accuracy thresholds swept in Figure 3.
PAPER_ACCURACIES = (1e-12, 1e-9, 1e-7, 1e-5)

#: Figure 3's machines, in the paper's panel order (a)-(d).
PAPER_MACHINES = ("haswell", "broadwell", "knl", "skylake")


def model_series(
    machine_name: str,
    *,
    n_values: Sequence[int] = PAPER_N_VALUES,
    accuracies: Sequence[float] = PAPER_ACCURACIES,
    nb_dense: int = 560,
    nb_tlr: int = 1150,
    rank_model: RankModel = DEFAULT_RANK_MODEL,
) -> ResultTable:
    """Paper-scale modeled series for one machine (one Fig. 3 panel)."""
    machine = get_machine(machine_name)
    headers = ["n", "Full-block", "Full-tile"] + [f"TLR-acc({a:.0e})" for a in accuracies]
    table = ResultTable(
        title=f"Figure 3 ({machine_name}) — modeled time of one MLE iteration [s]",
        headers=headers,
    )
    for n in n_values:
        row: list[object] = [n]
        for variant, nb, acc in [("full-block", nb_dense, 0.0), ("full-tile", nb_dense, 0.0)]:
            est = estimate_mle_iteration(
                n, variant=variant, nb=nb, acc=max(acc, 1e-16), machine=machine,
                rank_model=rank_model,
            )
            row.append(None if est.oom else est.time_s)
        for acc in accuracies:
            est = estimate_mle_iteration(
                n, variant="tlr", nb=nb_tlr, acc=acc, machine=machine, rank_model=rank_model
            )
            row.append(None if est.oom else est.time_s)
        table.add_row(*row)
    table.add_note(
        f"performance model for {machine_name}: peak {machine.peak_gflops:.0f} GF, "
        f"bw {machine.mem_bw_gbs:.0f} GB/s; '-' marks modeled out-of-memory"
    )
    return table


def measured_series(
    *,
    n_values: Optional[Sequence[int]] = None,
    accuracies: Sequence[float] = (1e-9, 1e-7, 1e-5),
    tile_size: int = 200,
    theta: Sequence[float] = (1.0, 0.1, 0.5),
    num_workers: Optional[int] = None,
    repeats: int = 1,
) -> ResultTable:
    """Measured per-iteration wall-clock on the host at feasible n.

    One "iteration" = one likelihood evaluation at the true theta,
    exactly the paper's reported unit.
    """
    if n_values is None:
        n_values = (1600, 2500, 3600) if bench_scale() == "quick" else (2500, 4900, 8100, 10000)
    model = MaternCovariance(*theta)
    headers = ["n", "Full-block", "Full-tile"] + [f"TLR-acc({a:.0e})" for a in accuracies]
    table = ResultTable(
        title="Figure 3 (host) — measured time of one MLE iteration [s]",
        headers=headers,
    )
    with Runtime(num_workers=num_workers) as rt:
        for n in n_values:
            locs = generate_irregular_grid(n, seed=0)
            locs, _, _ = sort_locations(locs)
            z = sample_gaussian_field(locs, model, seed=1)
            row: list[object] = [n]
            variants: list[tuple[str, Optional[float]]] = [("full-block", None), ("full-tile", None)]
            variants += [("tlr", a) for a in accuracies]
            for variant, acc in variants:
                ev = LikelihoodEvaluator(
                    locs, z, model, variant=variant, acc=acc, tile_size=tile_size,
                    runtime=None if variant == "full-block" else rt,
                )
                t0 = time.perf_counter()
                for _ in range(max(1, repeats)):
                    ev(model.theta)
                row.append((time.perf_counter() - t0) / max(1, repeats))
            table.add_row(*row)
    table.add_note(
        f"host measurement, nb={tile_size}; Python per-tile overhead favours dense BLAS "
        "at these sizes - paper-scale behaviour is carried by the performance model"
    )
    return table
