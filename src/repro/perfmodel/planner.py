"""Self-tuning planner: search the calibrated model for the cheapest config.

Given a problem (``n`` locations, ``m`` prediction targets, a substrate
and an accuracy target) and a host
:class:`~repro.perfmodel.autotune.CalibrationProfile`, the
:class:`Planner` prices every candidate configuration with the fitted
analytic model — per-phase roofline seconds *plus* the calibrated
per-task scheduling overhead, which is what actually dominates small
tiles on the Python substrate — and returns the cheapest feasible
:class:`Plan`: tile size, TLR accuracy, ``compression_batch``, serving
worker count, and the predicted phase times the choice was based on.

This is the paper's tuning loop made executable: ExaGeoStat picks
``nb = 560`` (dense) / ``1900`` (TLR) *for Shaheen-2*; here the same
search runs against constants measured on whatever host you are on.

The profile comes from one in-process calibration:
:func:`default_profile` runs :func:`~repro.perfmodel.autotune.autotune`
once and caches the result for the process (:func:`set_default_profile`
installs a known one instead). Exposed as :func:`repro.plan` and
``GET /v1/plan`` on the serving server.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..config import get_config
from ..exceptions import PlanError, ReproError
from .analytic import MEMORY_OVERHEAD, estimate_mle_iteration, estimate_prediction
from .autotune import CalibrationProfile, autotune
from .flops import compression_flops
from .rankmodel import DEFAULT_RANK_MODEL

__all__ = [
    "Plan",
    "Planner",
    "plan",
    "task_counts",
    "predict_workload",
    "default_profile",
    "set_default_profile",
    "planned_tile_size",
]

#: Candidate tile sizes searched by the planner (clamped to ``n``). The
#: top end covers the paper's tuned Shaheen-2 values (560 dense /
#: 1900 TLR).
TILE_LADDER = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 1900)

_SUBSTRATES = ("full-block", "full-tile", "tlr")

#: Accuracies offered to the search when the caller names none (the
#: paper's sweep, 1e-12 excluded — at probe scale it compresses nothing).
_ACCURACY_LADDER = (1e-5, 1e-7, 1e-9)


def task_counts(n: int, nb: int, variant: str) -> Dict[str, float]:
    """Task population per phase — the multiplier on per-task overhead.

    Mirrors the task graphs in :mod:`repro.linalg` (a test holds
    ``generation + factorization`` equal to the runtime's event count of
    one evaluator call). Full-tile: one generation task per tile column,
    the column-panel Cholesky's ``nt`` panels and ``nt(nt-1)/2`` stacked
    updates, and per solve sweep one triangular solve plus one panel
    product per column. TLR: the left-looking Cholesky generates inside
    its tasks — one per diagonal tile and, per column ``k``, one per
    ``compression_batch`` of its ``nt - k - 1`` off-diagonal tiles — and
    a solve that sweeps lower tiles forward and backward.
    """
    if variant == "full-block":
        return {"generation": 1.0, "factorization": 1.0, "solve": 2.0}
    nt = -(-n // nb)
    off = nt * (nt - 1) / 2.0
    if variant == "full-tile":
        return {
            "generation": float(nt),
            "factorization": nt + off,
            "solve": 2.0 * (2 * nt - 1),
        }
    batch = get_config().compression_batch
    return {
        "generation": 0.0,
        "factorization": float(nt + sum(-(-(nt - k - 1) // batch) for k in range(nt))),
        "solve": 2.0 * (nt + off),
    }


def predict_workload(
    profile: CalibrationProfile,
    n: int,
    *,
    variant: str,
    nb: int,
    acc: float,
    m: int = 0,
) -> Dict[str, object]:
    """Predicted phase times of one fit iteration (and one prediction).

    Combines the analytic roofline estimate under the profile's
    calibrated :class:`~repro.perfmodel.machine.MachineSpec` with the
    calibrated per-task overhead times the phase's task count.
    """
    spec = profile.spec()
    overhead = float(profile.constants.get("task_overhead_s", 0.0))
    counts = task_counts(n, nb, variant)

    fit_est = estimate_mle_iteration(
        n, variant=variant, nb=nb, acc=acc, machine=spec, n_rhs=1
    )
    fit_phases = {
        phase: seconds + overhead * counts.get(phase, 0.0)
        for phase, seconds in fit_est.breakdown.items()
    }

    result: Dict[str, object] = {
        "fit_iteration": {
            "phases": fit_phases,
            "total_s": sum(fit_phases.values()),
        },
        "matrix_bytes": fit_est.matrix_bytes,
        "mem_bytes": fit_est.mem_per_node_bytes,
        "oom": fit_est.oom,
    }
    if m > 0:
        pred_est = estimate_prediction(
            n, m, variant=variant, nb=nb, acc=acc, machine=spec
        )
        pred_counts = dict(counts)
        pred_counts["cross_covariance"] = 1.0
        pred_phases = {
            phase: seconds + overhead * pred_counts.get(phase, 0.0)
            for phase, seconds in pred_est.breakdown.items()
        }
        result["predict"] = {
            "phases": pred_phases,
            "total_s": sum(pred_phases.values()),
        }
        result["oom"] = bool(result["oom"] or pred_est.oom)
    return result


@dataclass(frozen=True)
class Plan:
    """One feasible configuration plus the predictions that ranked it."""

    n: int
    m: int
    variant: str
    tile_size: int
    accuracy: Optional[float]
    compression_batch: int
    serving_workers: int
    objective_s: float
    predicted: Dict[str, object]
    matrix_bytes: float
    mem_bytes: float
    profile_meta: Dict[str, object] = field(default_factory=dict)
    candidates: int = 0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "config": {
                "variant": self.variant,
                "tile_size": self.tile_size,
                "accuracy": self.accuracy,
                "compression_batch": self.compression_batch,
                "serving_workers": self.serving_workers,
            },
            "predicted": self.predicted,
            "memory": {
                "matrix_bytes": self.matrix_bytes,
                "mem_bytes": self.mem_bytes,
            },
            "objective_s": self.objective_s,
            "search": {"candidates": self.candidates},
            "profile": self.profile_meta,
        }


class Planner:
    """Search the calibrated model for the cheapest feasible config."""

    def __init__(self, profile: CalibrationProfile) -> None:
        self.profile = profile

    # -- knob heuristics ---------------------------------------------------

    def _compression_batch(self, nb: int, acc: float) -> int:
        """Batch TLR compression tasks until payload >> per-task overhead."""
        overhead = float(self.profile.constants.get("task_overhead_s", 0.0))
        if overhead <= 0.0:
            return 1
        lr_rate = max(self.profile.constants.get("lr_gflops", 1.0), 1e-6) * 1e9
        rank = float(DEFAULT_RANK_MODEL.rank(1, acc, nb))
        per_tile_s = compression_flops(nb, max(rank, 1.0)) / lr_rate
        target_payload_s = 8.0 * overhead
        return max(1, min(64, math.ceil(target_payload_s / max(per_tile_s, 1e-12))))

    def _serving_workers(self, mem_bytes: float) -> int:
        """Half the host cores, bounded by memory for per-worker engines."""
        cpus = int(self.profile.host.get("cpu_count", 1) or 1)
        workers = max(1, min(8, cpus // 2))
        host_mem = float(self.profile.host.get("mem_gb", 8.0)) * 1e9
        if mem_bytes > 0:
            by_mem = max(1, int(0.5 * host_mem / mem_bytes))
            workers = min(workers, by_mem)
        return workers

    # -- the search --------------------------------------------------------

    def plan(
        self,
        n: int,
        *,
        m: int = 100,
        substrate: Optional[str] = None,
        accuracy: Optional[float] = None,
        tile_sizes: Optional[Sequence[int]] = None,
    ) -> Plan:
        """Return the cheapest feasible plan for ``n`` locations.

        ``substrate`` of ``None``/``"auto"`` searches all variants;
        naming one restricts the search to it. ``accuracy`` (TLR only)
        of ``None`` searches the paper's accuracy ladder. Raises
        :class:`~repro.exceptions.PlanError` when the request is invalid
        or every candidate is modeled out-of-memory.
        """
        try:
            n = int(n)
            m = int(m)
        except (TypeError, ValueError):
            raise PlanError(f"n and m must be integers, got n={n!r} m={m!r}") from None
        if n < 2:
            raise PlanError(f"plan needs n >= 2 locations, got {n}")
        if m < 0:
            raise PlanError(f"plan needs m >= 0 targets, got {m}")
        if substrate in (None, "auto", ""):
            variants = ("full-tile", "tlr") if n > 2048 else _SUBSTRATES
        elif substrate in _SUBSTRATES:
            variants = (substrate,)
        else:
            raise PlanError(
                f"unknown substrate {substrate!r}; expected one of "
                f"{_SUBSTRATES + ('auto',)}"
            )
        if accuracy is not None:
            accuracy = float(accuracy)
            if not (0.0 < accuracy < 1.0):
                raise PlanError(f"accuracy must be in (0, 1), got {accuracy}")

        if tile_sizes is None:
            ladder = sorted({min(int(nb), n) for nb in TILE_LADDER if nb >= 8})
        else:
            ladder = sorted({min(int(nb), n) for nb in tile_sizes})
            if not ladder or min(ladder) < 2:
                raise PlanError(f"invalid tile_sizes {tile_sizes!r}")

        grid = []
        for variant in variants:
            if variant == "full-block":
                nbs: Sequence[int] = (n,)
                accs: Sequence[Optional[float]] = (None,)
            elif variant == "full-tile":
                nbs = ladder
                accs = (None,)
            else:
                nbs = ladder
                accs = (accuracy,) if accuracy is not None else _ACCURACY_LADDER
            grid.extend((variant, nb, acc) for nb in nbs for acc in accs)
        candidates = len(grid)
        # Every variant keeps at least an n x nb slab resident (TLR's
        # diagonal tiles, the dense matrix otherwise), so past this bound
        # every candidate is out of memory: answer before pricing arrays
        # of nt = n / nb tiles for an n no host can hold.
        if 8.0 * n * min(ladder) * MEMORY_OVERHEAD > self.profile.spec().mem_bytes:
            grid = []

        best: Optional[Plan] = None
        for variant, nb, acc in grid:
            eff_acc = acc if acc is not None else 1e-9
            predicted = predict_workload(
                self.profile, n, variant=variant, nb=nb, acc=eff_acc, m=m
            )
            if predicted["oom"]:
                continue
            fit_block = predicted["fit_iteration"]
            assert isinstance(fit_block, dict)
            objective = float(fit_block["total_s"])
            pred_block = predicted.get("predict")
            if isinstance(pred_block, dict):
                objective += float(pred_block["total_s"])
            if best is not None and objective >= best.objective_s:
                continue
            mem_bytes = float(predicted["mem_bytes"])  # type: ignore[arg-type]
            best = Plan(
                n=n,
                m=m,
                variant=variant,
                tile_size=int(nb),
                accuracy=acc,
                compression_batch=(
                    self._compression_batch(nb, eff_acc) if variant == "tlr" else 1
                ),
                serving_workers=self._serving_workers(mem_bytes),
                objective_s=objective,
                predicted={
                    k: predicted[k] for k in ("fit_iteration", "predict")
                    if k in predicted
                },
                matrix_bytes=float(predicted["matrix_bytes"]),  # type: ignore[arg-type]
                mem_bytes=mem_bytes,
                profile_meta=self._profile_meta(),
            )
        if best is None:
            host_mem = float(self.profile.host.get("mem_gb", 0.0))
            raise PlanError(
                f"no feasible configuration for n={n}: every candidate "
                f"({candidates} searched) is modeled out-of-memory on this "
                f"host ({host_mem:.1f} GB); reduce n or plan for a larger "
                "machine"
            )
        return dataclasses.replace(best, candidates=candidates)

    def _profile_meta(self) -> Dict[str, object]:
        p = self.profile
        return {
            "name": p.machine.name,
            "host": dict(p.host),
            "constants": dict(p.constants),
        }


# --------------------------------------------------------------------------
# process-default profile + convenience entry points
# --------------------------------------------------------------------------

#: Probe settings for the implicit in-process calibration: small enough
#: to finish in well under a second, large enough to sit in the BLAS
#: regime the planner's candidate tiles occupy.
_QUICK_SIZES = (48, 64, 96)
_QUICK_REPEATS = 2

_default_lock = threading.Lock()
_default_profile: Optional[CalibrationProfile] = None


def set_default_profile(profile: Optional[CalibrationProfile]) -> None:
    """Install (or, with ``None``, clear) the process-default profile.

    Test and ops hook: lets a server or suite plan from a known profile
    without running probes.
    """
    global _default_profile
    with _default_lock:
        _default_profile = profile


def default_profile() -> CalibrationProfile:
    """The profile :func:`plan` uses when none is given explicitly.

    A quick in-process calibration, run once on first use and cached
    for the process lifetime; concurrent first callers wait for the one
    calibration instead of running their own.
    """
    global _default_profile
    with _default_lock:
        if _default_profile is None:
            _default_profile = autotune(sizes=_QUICK_SIZES, repeats=_QUICK_REPEATS)
        return _default_profile


def plan(
    n: int,
    *,
    m: int = 100,
    substrate: Optional[str] = None,
    accuracy: Optional[float] = None,
    profile: Optional[CalibrationProfile] = None,
) -> Plan:
    """Plan a workload on this host (module-level convenience).

    Calibrates the host profile on first use (:func:`default_profile`),
    then runs the :class:`Planner` search.
    """
    prof = profile if profile is not None else default_profile()
    return Planner(prof).plan(n, m=m, substrate=substrate, accuracy=accuracy)


def planned_tile_size(
    n: int, *, variant: str, acc: Optional[float] = None
) -> Optional[int]:
    """Best-effort planned ``nb`` for the auto-tune adoption hooks.

    Returns ``None`` instead of raising on any library error: auto-tune
    must degrade to the static config default, never break a fit.
    """
    try:
        return plan(n, m=0, substrate=variant, accuracy=acc).tile_size
    except ReproError:
        return None
