"""Closed-form performance estimates for paper-scale problem sizes.

Aggregates the exact per-kernel flop/byte counts of :mod:`.flops` over
the task population of one MLE iteration (generation + factorization +
solve + logdet) or one prediction operation, applies the roofline rates
of a :class:`~repro.perfmodel.machine.MachineSpec` or
:class:`~repro.perfmodel.cluster.ClusterSpec`, and accounts for:

* parallelism: estimated makespan = max(total-work time at aggregate
  rate, critical-path time at single-core rate);
* the fork-join penalty of the Full-block LAPACK baseline (lower
  sustained efficiency — Figure 3's Full-block > Full-tile gap);
* communication on distributed runs (2-D block-cyclic panel multicasts,
  overlapped with computation by the asynchronous runtime, so the
  makespan takes the max of compute and comm);
* per-node memory, flagging out-of-memory configurations — these are
  the *missing points* in the paper's Figure 4.

TLR costs take tile ranks from a :class:`~repro.perfmodel.rankmodel.RankModel`;
ranks depend only on tile-index separation after Morton ordering, which
lets the ``O(nt^3)`` task population be summed in ``O(nt^2)`` vectorized
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError
from .cluster import ClusterSpec
from .flops import (
    KERNEL_EVAL_FLOPS,
    TaskCost,
    dense_tile_bytes,
    gemm_flops,
    lr_syrk_flops,
    lr_trsm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from .machine import MachineSpec
from .rankmodel import DEFAULT_RANK_MODEL, RankModel

__all__ = ["PerfEstimate", "estimate_mle_iteration", "estimate_prediction"]

#: Workspace multiplier on the matrix footprint (runtime buffers, RHS,
#: compression scratch).
MEMORY_OVERHEAD = 1.15

#: Low-rank kernels of the right-looking schedule re-stream their operands
#: during QR/SVD recompression; the byte counts of its LR task classes are
#: scaled by this pass count.
LR_TRAFFIC_FACTOR = 3.0

#: Distributed TLR efficiency derating. The paper (§VIII-C) observes that
#: TLR's low arithmetic intensity turns latency-bound across remote node
#: memories, with "significant overheads which cannot be compensated
#: since computation is very limited". Calibrated so the modeled
#: distributed speedup tops out near the paper's reported ~5X.
DIST_TLR_EFFICIENCY = 0.30


@dataclass
class PerfEstimate:
    """Modeled execution profile of one operation.

    Attributes
    ----------
    time_s:
        Estimated wall-clock seconds.
    flops, bytes:
        Aggregate flop count and memory traffic.
    matrix_bytes:
        Resident size of the (possibly compressed) covariance matrix.
    mem_per_node_bytes:
        Peak modeled per-node memory (equals ``matrix_bytes`` times the
        workspace overhead on shared memory).
    oom:
        True when the configuration does not fit in memory — the paper's
        Figure 4 omits exactly these points.
    breakdown:
        Stage name -> seconds.
    """

    time_s: float
    flops: float
    bytes: float
    matrix_bytes: float
    mem_per_node_bytes: float
    oom: bool
    breakdown: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------
# class-level cost aggregation
# --------------------------------------------------------------------------


def _dense_tile_costs(nt: int, nb: int) -> Dict[str, TaskCost]:
    """Aggregate costs of the dense tile Cholesky task population."""
    n_trsm = nt * (nt - 1) / 2.0
    n_syrk = n_trsm
    a = np.arange(2, nt, dtype=np.float64)
    n_gemm = float(np.sum((nt - a) * (a - 1))) if nt > 2 else 0.0
    tb = dense_tile_bytes(nb)
    return {
        "potrf": TaskCost(nt * potrf_flops(nb), nt * 2 * tb),
        "trsm": TaskCost(n_trsm * trsm_flops(nb), n_trsm * 3 * tb),
        "syrk": TaskCost(n_syrk * syrk_flops(nb), n_syrk * 3 * tb),
        "gemm": TaskCost(n_gemm * gemm_flops(nb, nb, nb), n_gemm * 4 * tb),
    }


def _tlr_tile_costs(
    nt: int, nb: int, acc: float, rank_model: RankModel, *, hicma: bool = False
) -> tuple[Dict[str, TaskCost], np.ndarray]:
    """Aggregate costs of a TLR Cholesky task population.

    Every off-diagonal tile takes one low-rank TRSM and one low-rank SYRK
    into its row's diagonal tile. The default prices the left-looking
    graph this code runs: tile ``(i, k)`` takes one dense update per
    ``l < k``, ``U_il ((V_il V_kl^T) U_kl^T)`` (``4 k_il k_kl nb`` for the
    skinny products, ``2 nb^2 k_il`` for the ``nb x nb`` GEMM), and is
    compressed once (priced with generation, see
    :func:`_generation_costs`). ``hicma`` prices the paper's
    right-looking distributed schedule instead, which the Figure 4/5
    cluster projections model: an ``O(nt^3)`` sweep of low-rank GEMMs,
    each rounded back to accuracy with a QR+SVD
    (:func:`~repro.perfmodel.flops.lr_gemm_flops`), its LR operands
    re-streamed ``LR_TRAFFIC_FACTOR`` times.

    Returns the per-class costs and the separation-indexed rank array
    (``ranks[d-1]`` is the rank at separation ``d``).
    """
    if nt < 2:
        return (
            {"potrf": TaskCost(nt * potrf_flops(nb), nt * 2 * dense_tile_bytes(nb))},
            np.zeros(0, dtype=np.int64),
        )
    ranks = rank_model.rank_array(nt, acc, nb).astype(np.float64)
    d = np.arange(1, nt, dtype=np.float64)
    counts = nt - d  # tiles at separation d in the lower triangle
    tb_dense = dense_tile_bytes(nb)
    lr_bytes = 8.0 * 2.0 * nb * ranks

    trsm_f = float(np.sum(counts * lr_trsm_flops(nb, ranks)))
    trsm_b = float(np.sum(counts * (tb_dense + 2 * lr_bytes)))
    syrk_f = float(np.sum(counts * lr_syrk_flops(nb, ranks)))
    syrk_b = float(np.sum(counts * (2 * tb_dense + lr_bytes)))
    costs = {"potrf": TaskCost(nt * potrf_flops(nb), nt * 2 * tb_dense)}

    # Both sweeps pair, for separations a > b >= 1, the tile at separation
    # a (k_il, or k_ik) with each tile at separation b < a, and each a
    # occurs nt - a times; summing over b leaves prefix sums of the ranks
    # (and, for the rounding, of r^2 and r^3): O(nt), and exact (integers
    # in float64) wherever the per-a sums stay below 2^53.
    s1 = np.cumsum(ranks)[:-1]
    k = ranks[1:]  # r[a] for a = 2..nt-1
    cnt = np.arange(1, nt - 1, dtype=np.float64)  # a - 1 partners per a
    mult = np.arange(nt - 2, 0, -1, dtype=np.float64)  # nt - a
    if not hicma:
        update_f = float(np.sum(mult * (4.0 * nb * k * s1 + 2.0 * nb * nb * k * cnt)))
        update_b = float(np.sum(mult * 16.0 * nb * (cnt * k + s1)))
        update_b += float(np.sum(counts)) * 2 * tb_dense  # each dense tile in and out once
        costs.update(
            trsm=TaskCost(trsm_f, trsm_b),
            syrk=TaskCost(syrk_f, syrk_b),
            update=TaskCost(update_f, update_b),
        )
        return costs, ranks.astype(np.int64)

    # The GEMM of tile (i, j) at iteration k uses ranks
    # (k_ij, k_ik, k_jk) = (r[a-b], r[a], r[b]); over b both r[a-b] and
    # r[b] run over separations 1..a-1.
    s2, s3 = (np.cumsum(ranks**e)[:-1] for e in (2, 3))
    kk2 = s2 + 2 * k * s1 + cnt * k * k  # sum of (k_ij + k_ik)^2
    kk3 = s3 + 3 * k * s2 + 3 * k * k * s1 + cnt * k**3  # sum of (k_ij + k_ik)^3
    fl = 4 * nb * k * s1 + 8 * nb * kk2 + 22 * kk3
    by = 16 * nb * (3 * s1 + cnt * k)
    # Sequential accumulation (cumsum) keeps the float sum in index order.
    gemm_f = float(np.cumsum(mult * fl)[-1]) if nt > 2 else 0.0
    gemm_b = float(np.cumsum(mult * by)[-1]) if nt > 2 else 0.0
    costs.update(
        trsm=TaskCost(trsm_f, LR_TRAFFIC_FACTOR * trsm_b),
        syrk=TaskCost(syrk_f, LR_TRAFFIC_FACTOR * syrk_b),
        gemm=TaskCost(gemm_f, LR_TRAFFIC_FACTOR * gemm_b),
    )
    return costs, ranks.astype(np.int64)


def _generation_costs(
    n: int, nb: int, variant: str, acc: float, rank_model: RankModel
) -> TaskCost:
    """Covariance generation (+ compression for TLR)."""
    nt = -(-n // nb)
    if variant == "full-block":
        # LAPACK path generates the full symmetric matrix.
        return TaskCost(KERNEL_EVAL_FLOPS * n * n, 8.0 * n * n)
    # Lower-triangle tile area in closed form: half of the n x n square
    # plus half of the diagonal tiles ((nt - 1) full, one ragged).
    last = n - (nt - 1) * nb
    gen_elems = (n * n + (nt - 1) * nb * nb + last * last) // 2
    cost = TaskCost(KERNEL_EVAL_FLOPS * gen_elems, 8.0 * gen_elems)
    if variant == "tlr" and nt > 1:
        ranks = rank_model.rank_array(nt, acc, nb).astype(np.float64)
        d = np.arange(1, nt, dtype=np.float64)
        counts = nt - d
        comp_f = float(np.sum(counts * 6.0 * nb * nb * np.maximum(ranks, 1)))
        comp_b = float(np.sum(counts * (dense_tile_bytes(nb) + 8.0 * 2 * nb * ranks)))
        cost = cost + TaskCost(comp_f, comp_b)
    return cost


def _solve_cost(n: int, nb: int, variant: str, ranks: np.ndarray, n_rhs: int) -> TaskCost:
    """Forward+backward triangular solve with ``n_rhs`` right-hand sides."""
    nt = -(-n // nb)
    if variant == "full-block":
        return TaskCost(2.0 * n * n * n_rhs, 8.0 * n * n)
    diag = nt * trsm_flops(nb, n_rhs) * 2
    if nt < 2 or variant == "full-tile":
        off = nt * (nt - 1) / 2.0 * gemm_flops(nb, nb, n_rhs) * 2
        by = 8.0 * (n * n / 2.0 + 2 * n * n_rhs)
        return TaskCost(diag + off, by)
    d = np.arange(1, nt, dtype=np.float64)
    counts = nt - d
    off = float(np.sum(counts * 4.0 * nb * ranks * n_rhs)) * 2
    by = float(np.sum(counts * 8.0 * 2 * nb * ranks)) + 8.0 * 2 * n * n_rhs
    return TaskCost(diag + off, by)


def _matrix_bytes(n: int, nb: int, variant: str, ranks: np.ndarray) -> float:
    """Resident covariance bytes for each storage variant."""
    nt = -(-n // nb)
    if variant == "full-block":
        return 8.0 * n * n
    if variant == "full-tile":
        # Chameleon allocates the full square tile descriptor (the paper's
        # n = 1M example: 10^12 double-precision elements).
        return 8.0 * n * n
    diag = nt * dense_tile_bytes(nb)
    if nt < 2:
        return diag
    d = np.arange(1, nt, dtype=np.float64)
    counts = nt - d
    return diag + float(np.sum(counts * 8.0 * 2 * nb * ranks))


# --------------------------------------------------------------------------
# roofline aggregation
# --------------------------------------------------------------------------


def _class_seconds(
    cost: TaskCost, machine: MachineSpec, cores: int, efficiency: float
) -> float:
    """Roofline seconds for one task class on ``cores`` of a machine."""
    compute = cost.flops / (machine.peak_gflops * efficiency * 1e9 * cores / machine.cores)
    memory = cost.bytes / (machine.mem_bw_gbs * 1e9 * min(1.0, cores / machine.cores + 0.25))
    return max(compute, memory)


def _critical_path_seconds(
    nt: int, nb: int, variant: str, ranks: np.ndarray, machine: MachineSpec
) -> float:
    """Panel critical path: ``nt`` POTRFs chained by ``nt - 1`` TRSMs.

    The asynchronous runtime's lookahead overlaps each iteration's
    trailing updates with subsequent panels (the design point of tile
    algorithms, §V), so only the panel chain serializes — and the last
    diagonal tile has no panel below it. POTRF runs at dense single-core
    rate; the TLR TRSM at the low-rank rate.
    """
    per_core_dense = machine.peak_gflops / machine.cores * machine.eff_dense * 1e9
    potrf = potrf_flops(nb) / per_core_dense
    if nt == 1:
        return potrf
    if variant == "tlr":
        per_core_lr = machine.peak_gflops / machine.cores * machine.eff_lr * 1e9
        trsm = lr_trsm_flops(nb, float(ranks[0])) / per_core_lr
    else:
        trsm = trsm_flops(nb) / per_core_dense
    return nt * potrf + (nt - 1) * trsm


# --------------------------------------------------------------------------
# public estimators
# --------------------------------------------------------------------------


def estimate_mle_iteration(
    n: int,
    *,
    variant: str = "tlr",
    nb: int = 1900,
    acc: float = 1e-9,
    machine: Optional[MachineSpec] = None,
    cluster: Optional[ClusterSpec] = None,
    rank_model: RankModel = DEFAULT_RANK_MODEL,
    n_rhs: int = 1,
) -> PerfEstimate:
    """Model the time and memory of one MLE iteration (paper Figs. 3-4).

    Exactly one of ``machine`` (shared memory, Fig. 3) or ``cluster``
    (distributed, Fig. 4) must be given.

    Parameters
    ----------
    n:
        Number of spatial locations.
    variant:
        ``"full-block"``, ``"full-tile"`` or ``"tlr"``.
    nb:
        Tile size (paper: 560 dense / 1900 TLR on Shaheen-2).
    acc:
        TLR accuracy threshold.
    rank_model:
        Tile-rank model for TLR variants.
    n_rhs:
        Right-hand sides in the solve stage (1 for the MLE).
    """
    if (machine is None) == (cluster is None):
        raise ConfigurationError("provide exactly one of machine= or cluster=")
    node = machine if machine is not None else cluster.node  # type: ignore[union-attr]
    nt = -(-n // nb)

    if variant == "full-block":
        chol = {"potrf": TaskCost(n**3 / 3.0, 8.0 * n * n)}
        ranks = np.zeros(0, dtype=np.int64)
        eff = node.eff_block
    elif variant == "full-tile":
        chol = _dense_tile_costs(nt, nb)
        ranks = np.zeros(0, dtype=np.int64)
        eff = node.eff_dense
    elif variant == "tlr":
        # Shared memory prices the left-looking graph this code runs; the
        # cluster projection keeps the paper's distributed HiCMA schedule.
        chol, ranks = _tlr_tile_costs(nt, nb, acc, rank_model, hicma=machine is None)
        eff = node.eff_lr
    else:
        raise ConfigurationError(f"unknown variant {variant!r}")

    gen = _generation_costs(n, nb, variant, acc, rank_model)
    solve = _solve_cost(n, nb, variant, ranks, n_rhs)
    matrix_bytes = _matrix_bytes(n, nb, variant, ranks)

    if machine is not None:
        cores = machine.cores
        breakdown = {
            "generation": _class_seconds(gen, machine, cores, machine.gen_efficiency),
            "solve": _class_seconds(solve, machine, cores, eff),
        }
        chol_s = sum(_class_seconds(c, machine, cores, eff) for c in chol.values())
        cp_s = _critical_path_seconds(nt, nb, variant, ranks, machine)
        breakdown["factorization"] = max(chol_s, cp_s)
        total = sum(breakdown.values())
        mem = matrix_bytes * MEMORY_OVERHEAD
        oom = mem > machine.mem_bytes
        agg = gen + solve
        for c in chol.values():
            agg = agg + c
        return PerfEstimate(total, agg.flops, agg.bytes, matrix_bytes, mem, oom, breakdown)

    # ---------------------------------------------------------- distributed
    assert cluster is not None
    p = cluster.n_nodes
    cores = cluster.total_cores
    breakdown = {
        "generation": _class_seconds(gen, node, node.cores, node.gen_efficiency) / p,
        "solve": _class_seconds(solve, node, node.cores, eff) / min(p, max(1, nt)),
    }
    chol_s = sum(_class_seconds(c, node, node.cores, eff) for c in chol.values()) / p
    cp_s = _critical_path_seconds(nt, nb, variant, ranks, node)
    if variant == "tlr":
        # Latency-bound regime across remote memories (§VIII-C): both the
        # aggregate throughput and the panel pipeline lose efficiency.
        chol_s /= DIST_TLR_EFFICIENCY
        cp_s /= DIST_TLR_EFFICIENCY
    # 2-D block-cyclic panel multicast: every panel tile reaches ~sqrt(P)
    # nodes; per-node received volume and message count set the comm time.
    pr, pc = cluster.grid_shape()
    if variant == "tlr" and ranks.size:
        mean_tile_bytes = float(np.mean(8.0 * 2 * nb * ranks))
    else:
        mean_tile_bytes = dense_tile_bytes(nb)
    n_panel_tiles = nt * (nt - 1) / 2.0
    per_node_volume = n_panel_tiles * mean_tile_bytes * (pr + pc) / 2.0 / p
    per_node_msgs = n_panel_tiles * (pr + pc) / 2.0 / p
    comm_s = per_node_volume / (cluster.net_bw_gbs * 1e9) + per_node_msgs * (
        cluster.net_latency_us * 1e-6
    )
    # The asynchronous runtime overlaps communication with computation.
    breakdown["factorization"] = max(chol_s, cp_s, comm_s)
    breakdown["communication_overlapped"] = comm_s
    total = breakdown["generation"] + breakdown["solve"] + breakdown["factorization"]
    mem_per_node = matrix_bytes * MEMORY_OVERHEAD / p
    oom = mem_per_node > node.mem_bytes
    agg = gen + solve
    for c in chol.values():
        agg = agg + c
    return PerfEstimate(total, agg.flops, agg.bytes, matrix_bytes, mem_per_node, oom, breakdown)


def estimate_prediction(
    n: int,
    m: int = 100,
    *,
    variant: str = "tlr",
    nb: int = 1900,
    acc: float = 1e-9,
    machine: Optional[MachineSpec] = None,
    cluster: Optional[ClusterSpec] = None,
    rank_model: RankModel = DEFAULT_RANK_MODEL,
) -> PerfEstimate:
    """Model the prediction operation (paper Fig. 5): factor + m-RHS solves.

    The factorization of ``Sigma_22`` dominates for small ``m`` (the
    paper's 100 unknowns), so these curves track the MLE-iteration
    curves — the observation made in §VIII-C.
    """
    base = estimate_mle_iteration(
        n,
        variant=variant,
        nb=nb,
        acc=acc,
        machine=machine,
        cluster=cluster,
        rank_model=rank_model,
        n_rhs=m,
    )
    # Cross-covariance application Sigma_12 @ alpha: m x n GEMV-like work.
    node = machine if machine is not None else cluster.node  # type: ignore[union-attr]
    scale = 1 if machine is not None else cluster.n_nodes  # type: ignore[union-attr]
    extra = TaskCost(2.0 * m * n + KERNEL_EVAL_FLOPS * m * n, 8.0 * m * n)
    extra_s = _class_seconds(extra, node, node.cores, node.gen_efficiency) / scale
    base.breakdown["cross_covariance"] = extra_s
    base.time_s += extra_s
    base.flops += extra.flops
    base.bytes += extra.bytes
    return base
