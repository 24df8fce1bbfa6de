"""Micro-calibration of the analytic performance model on the current host.

The analytic estimators (:mod:`.analytic`) predict phase times from a
:class:`~repro.perfmodel.machine.MachineSpec` — peak rate times a
sustained-efficiency fraction per kernel class. The preset specs describe
the paper's Intel servers; they say nothing about *this* host, and
ExaGeoStatR's experience is that the constants must be re-tuned per
machine. This module closes that gap:

1. :func:`run_probes` executes short seeded micro-benchmarks of exactly
   the kernel classes the model prices — dense GEMM/POTRF, covariance
   tile generation, TLR compression, a tiny tile Cholesky (exposing the
   per-task scheduling overhead that dominates at Python scale), a tiny
   TLR Cholesky, and a memory copy.
2. :func:`fit_constants` fits per-class sustained rates by least squares
   against the probe timings (``R = sum(w_i^2) / sum(w_i * t_i)``
   minimizes ``sum (t_i - w_i / R)^2`` over the samples of one class)
   and a per-task overhead constant from the tile-Cholesky residual.
3. :func:`autotune` runs both and returns a :class:`CalibrationProfile`:
   the fitted constants and the derived host ``MachineSpec``, a plain
   in-memory value. :func:`repro.perfmodel.planner.default_profile`
   calibrates once per process and caches it; nothing is persisted.

Determinism: every timing source is injectable (``clock=``), the host
description too (``host=``), and all randomness is seeded, so a fixed
clock + seed + host produce equal profiles — the property the test
suite pins.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import CalibrationError
from .analytic import _dense_tile_costs, _tlr_tile_costs
from .flops import (
    KERNEL_EVAL_FLOPS,
    compression_flops,
    gemm_flops,
    potrf_flops,
)
from .machine import MachineSpec
from .rankmodel import DEFAULT_RANK_MODEL

__all__ = [
    "ProbeSample",
    "CalibrationProfile",
    "run_probes",
    "fit_constants",
    "autotune",
]

#: Default probe tile sizes. The least-squares fit is dominated by the
#: largest size (weights are squared work), which is also the closest to
#: the tile sizes the planner actually picks.
DEFAULT_SIZES = (64, 128, 256)

#: TLR accuracy used by the compression / TLR-Cholesky probes.
_PROBE_ACC = 1e-7

#: Tile count of the tiny tile/TLR Cholesky probes.
_PROBE_NT = 4

_EPS_SECONDS = 1e-9


@dataclass(frozen=True)
class ProbeSample:
    """One timed micro-benchmark execution.

    ``work`` is the *modeled* cost of the probe in the analytic model's
    own units — flops for compute kernels, bytes for ``copy`` — so that
    fitting a rate against it makes the model's predictions match these
    measurements by construction. ``meta`` carries kernel-specific
    extras (measured rank, task count, problem size).
    """

    kernel: str
    size: int
    seconds: float
    work: float
    meta: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------


def _time_call(clock: Callable[[], float], fn: Callable[[], object]) -> float:
    t0 = clock()
    fn()
    t1 = clock()
    dt = t1 - t0
    if dt <= 0.0:
        raise CalibrationError(
            "probe clock returned a non-positive interval "
            f"({dt!r}); the injected clock must be monotonically increasing"
        )
    return dt


def _spd_covariance(n: int, seed: int) -> np.ndarray:
    """A well-conditioned covariance matrix over seeded random locations."""
    from ..data.synthetic import generate_irregular_grid
    from ..kernels import MaternCovariance

    locs = generate_irregular_grid(n, seed=seed)
    model = MaternCovariance(1.0, 0.1, 0.5)
    k = model.matrix(locs)
    k[np.diag_indices_from(k)] += 1e-3 * n
    return k


def run_probes(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
    seed: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> List[ProbeSample]:
    """Execute the probe suite; return one sample per (kernel, size, rep)."""
    from ..kernels import MaternCovariance
    from ..data.synthetic import generate_irregular_grid
    from ..linalg import TileMatrix, TLRMatrix, tile_cholesky, tlr_cholesky
    from ..linalg.compression import svd_compress

    if repeats < 1:
        raise CalibrationError("autotune needs repeats >= 1")
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 8 for s in sizes):
        raise CalibrationError(f"probe sizes must all be >= 8, got {sizes!r}")

    rng = np.random.default_rng(seed)
    model = MaternCovariance(1.0, 0.1, 0.5)
    samples: List[ProbeSample] = []

    def emit(kernel: str, size: int, seconds: float, work: float, **meta: float) -> None:
        samples.append(ProbeSample(kernel, size, seconds, work, dict(meta)))

    for s in sizes:
        a = rng.standard_normal((s, s))
        b = rng.standard_normal((s, s))
        spd = a @ a.T + s * np.eye(s)
        locs = generate_irregular_grid(2 * s, seed=seed + s)
        block = model.matrix(
            np.ascontiguousarray(locs[:s]), np.ascontiguousarray(locs[s:])
        )
        for _ in range(repeats):
            # Dense kernel class: the rates the tile Cholesky runs at.
            emit("gemm", s, _time_call(clock, lambda: a @ b), gemm_flops(s, s, s))
            emit(
                "potrf",
                s,
                _time_call(clock, lambda: np.linalg.cholesky(spd)),
                potrf_flops(s),
            )
            # Covariance generation: one s x s Matérn tile.
            emit(
                "generation",
                s,
                _time_call(clock, lambda: model.matrix(locs[:s])),
                KERNEL_EVAL_FLOPS * s * s,
            )
            # TLR compression of an off-diagonal covariance block. The
            # modeled work uses the *model's* compression_flops formula at
            # the achieved rank, so the fitted rate makes the analytic
            # TLR-generation prediction match this measurement.
            lr_holder: dict = {}
            comp_s = _time_call(
                clock, lambda: lr_holder.setdefault("lr", svd_compress(block, _PROBE_ACC))
            )
            rank = int(lr_holder["lr"].u.shape[1])
            emit(
                "compression",
                s,
                comp_s,
                compression_flops(s, rank),
                rank=rank,
            )
            # Memory bandwidth: out-of-cache copy (read + write streams).
            buf = rng.standard_normal(64 * s * s)
            emit(
                "copy",
                s,
                _time_call(clock, lambda: buf.copy()),
                16.0 * buf.size,
            )

    # Scheduling-overhead probes at the smallest size: a real tile and a
    # real TLR Cholesky, whose measured time is kernel work *plus* the
    # per-task Python overhead the roofline model knows nothing about.
    s0 = min(sizes)
    n0 = _PROBE_NT * s0
    spd = _spd_covariance(n0, seed=seed + 1)
    for rep in range(repeats):
        tm = TileMatrix.from_dense(spd, s0, symmetric_lower=True)
        chol_s = _time_call(clock, lambda: tile_cholesky(tm))
        dense_costs = _dense_tile_costs(_PROBE_NT, s0)
        emit(
            "tile_chol",
            s0,
            chol_s,
            sum(c.flops for c in dense_costs.values()),
            n=n0,
            n_tasks=_dense_task_count(_PROBE_NT),
        )
        tlr = TLRMatrix.from_dense(spd, s0, _PROBE_ACC)
        tlr_s = _time_call(clock, lambda: tlr_cholesky(tlr, _PROBE_ACC))
        tlr_costs, ranks = _tlr_tile_costs(_PROBE_NT, s0, _PROBE_ACC, DEFAULT_RANK_MODEL)
        # The left-looking graph compresses every factor tile once.
        compress_flops = sum(
            (_PROBE_NT - d) * compression_flops(s0, int(k)) for d, k in enumerate(ranks, 1)
        )
        emit(
            "tlr_chol",
            s0,
            tlr_s,
            sum(c.flops for k, c in tlr_costs.items() if k != "potrf") + compress_flops,
            n=n0,
            n_tasks=_tlr_task_count(_PROBE_NT),
            potrf_flops=tlr_costs["potrf"].flops,
        )
    return samples


def _dense_task_count(nt: int) -> int:
    """Task population of the column-panel tile Cholesky: panels + updates."""
    return nt + nt * (nt - 1) // 2


def _tlr_task_count(nt: int) -> int:
    """Task population of the left-looking TLR Cholesky: DIAG + OFFDIAG."""
    return nt + nt * (nt - 1) // 2


# --------------------------------------------------------------------------
# least-squares constant fitting
# --------------------------------------------------------------------------


def _ls_rate(samples: Sequence[ProbeSample]) -> float:
    """Least-squares rate: minimizes ``sum (t_i - w_i/R)^2`` over ``1/R``."""
    num = sum(s.work * s.work for s in samples)
    den = sum(s.work * s.seconds for s in samples)
    if den <= 0.0 or num <= 0.0:
        raise CalibrationError(
            f"degenerate probe timings for {sorted({s.kernel for s in samples})}: "
            "cannot fit a positive rate"
        )
    return num / den


def fit_constants(samples: Sequence[ProbeSample]) -> Dict[str, float]:
    """Fit the model's machine constants from probe samples.

    Returns ``dense_gflops`` / ``lr_gflops`` / ``gen_gflops`` (sustained
    rates per kernel class), ``copy_bw_gbs`` (streaming bandwidth) and
    ``task_overhead_s`` (per-task scheduling overhead, fitted from the
    tile-Cholesky residual after subtracting modeled kernel time — at
    Python scale this constant, not flops, often dominates small tiles).
    """
    by_kernel: Dict[str, List[ProbeSample]] = {}
    for s in samples:
        by_kernel.setdefault(s.kernel, []).append(s)
    missing = {"gemm", "potrf", "generation", "compression", "copy"} - set(by_kernel)
    if missing:
        raise CalibrationError(
            f"probe set is missing kernel classes {sorted(missing)}; "
            "rerun the full probe suite"
        )

    r_dense = _ls_rate(by_kernel["gemm"] + by_kernel["potrf"])
    r_gen = _ls_rate(by_kernel["generation"])
    bw = _ls_rate(by_kernel["copy"])

    # Per-task overhead from the tile-Cholesky residual:
    # t_i = work_i / r_dense + c * n_tasks_i  =>  least squares over c.
    overhead = 0.0
    chol = by_kernel.get("tile_chol", [])
    if chol:
        num = sum(
            s.meta.get("n_tasks", 0.0) * (s.seconds - s.work / r_dense) for s in chol
        )
        den = sum(s.meta.get("n_tasks", 0.0) ** 2 for s in chol)
        if den > 0.0:
            overhead = max(0.0, num / den)

    # Low-rank rate from compression plus the TLR-Cholesky residual
    # (subtract the dense POTRF share and the task overhead first).
    lr_samples = list(by_kernel["compression"])
    for s in by_kernel.get("tlr_chol", []):
        residual = (
            s.seconds
            - s.meta.get("potrf_flops", 0.0) / r_dense
            - s.meta.get("n_tasks", 0.0) * overhead
        )
        lr_samples.append(
            ProbeSample(s.kernel, s.size, max(residual, _EPS_SECONDS), s.work, s.meta)
        )
    r_lr = _ls_rate(lr_samples)

    return {
        "dense_gflops": r_dense / 1e9,
        "lr_gflops": r_lr / 1e9,
        "gen_gflops": r_gen / 1e9,
        "copy_bw_gbs": bw / 1e9,
        "task_overhead_s": overhead,
    }


def _host_info() -> Dict[str, object]:
    try:
        mem_gb = (
            os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e9
        )
    except (ValueError, OSError, AttributeError):
        mem_gb = 8.0
    return {
        "hostname": socket.gethostname(),
        "machine": platform.machine(),
        "cpu_count": int(os.cpu_count() or 1),
        "mem_gb": round(float(mem_gb), 3),
    }


#: Reference efficiency assigned to the dense class; the other classes'
#: efficiencies are the measured rate ratios scaled by it, and the
#: nominal clock is back-solved so ``peak * eff_dense == measured rate``.
_REF_EFF_DENSE = 0.8
_REF_EFF_BLOCK = 0.55
_REF_FLOPS_PER_CYCLE = 16


def _machine_from_constants(
    constants: Dict[str, float], host: Dict[str, object]
) -> MachineSpec:
    """Derive a host MachineSpec whose roofline reproduces the fitted rates.

    The spec uses ``cores=1``: the measured rates are what one kernel
    call achieves (BLAS-internal threading included), and the Python
    substrate executes kernels one at a time — per-task overhead, not
    core count, is its scaling limit. The host's real core count stays
    in the profile's ``host`` block for worker/shard planning.
    """

    def clamp_eff(x: float) -> float:
        return min(1.0, max(1e-4, x))

    dense = max(constants["dense_gflops"], 1e-6)
    freq_ghz = dense / (_REF_EFF_DENSE * _REF_FLOPS_PER_CYCLE)
    return MachineSpec(
        name=f"calibrated-{host.get('hostname', 'host')}",
        cores=1,
        freq_ghz=freq_ghz,
        flops_per_cycle=_REF_FLOPS_PER_CYCLE,
        eff_dense=_REF_EFF_DENSE,
        eff_block=_REF_EFF_BLOCK,
        eff_lr=clamp_eff(_REF_EFF_DENSE * constants["lr_gflops"] / dense),
        mem_bw_gbs=max(constants["copy_bw_gbs"], 1e-3),
        mem_gb=float(host.get("mem_gb", 8.0)),
        eff_gen=clamp_eff(_REF_EFF_DENSE * constants["gen_gflops"] / dense),
    )


# --------------------------------------------------------------------------
# the profile
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted machine constants of one host, held in memory.

    ``host`` describes the machine (hostname, core count, memory) for
    the planner's worker sizing, ``constants`` are the fitted rates and
    per-task overhead (:func:`fit_constants`), and ``machine`` is the
    derived :class:`~repro.perfmodel.machine.MachineSpec` whose roofline
    reproduces those rates.
    """

    host: Dict[str, object]
    constants: Dict[str, float]
    machine: MachineSpec

    def spec(self) -> MachineSpec:
        """The calibrated host :class:`MachineSpec`."""
        return self.machine


def autotune(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
    seed: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    host: Optional[Dict[str, object]] = None,
) -> CalibrationProfile:
    """Probe the current host and fit a :class:`CalibrationProfile`.

    ``clock`` and ``host`` default to the real timer and this machine's
    description; tests pass fixed ones for reproducible profiles.
    """
    samples = run_probes(sizes=sizes, repeats=repeats, seed=seed, clock=clock)
    host = dict(host) if host is not None else _host_info()
    constants = fit_constants(samples)
    return CalibrationProfile(
        host=host,
        constants=constants,
        machine=_machine_from_constants(constants, host),
    )
