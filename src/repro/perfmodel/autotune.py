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
   TLR Cholesky, and a memory copy. Each timed sample is also emitted as
   a ``probe:<kernel>`` telemetry span, so a sink-armed run leaves the
   measurements on disk (:func:`samples_from_spans` reads them back —
   the same substrate :mod:`.calibrate` replays fit/serving runs from).
2. :func:`fit_constants` fits per-class sustained rates by least squares
   against the probe timings (``R = sum(w_i^2) / sum(w_i * t_i)``
   minimizes ``sum (t_i - w_i / R)^2`` over the samples of one class)
   and a per-task overhead constant from the tile-Cholesky residual.
3. :class:`CalibrationProfile` packages the fitted constants, the derived
   host :class:`~repro.perfmodel.machine.MachineSpec`, and the raw
   samples as versioned JSON with atomic persistence and a staleness
   stamp. :mod:`.planner` consumes it.

Determinism: every timing source is injectable (``clock=``) and all
randomness is seeded, so a fixed clock + seed produce byte-identical
profile JSON — the property the test suite pins.

CLI::

    python -m repro.perfmodel.autotune --out profile.json
    python -m repro.perfmodel.autotune --plan 20000 --substrate auto
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from .. import telemetry as _telemetry
from ..exceptions import CalibrationError
from ..utils.durable import atomic_write
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
    "PROFILE_VERSION",
    "ProbeSample",
    "CalibrationProfile",
    "run_probes",
    "samples_from_spans",
    "fit_constants",
    "fit_profile",
    "autotune",
    "main",
]

#: Bump when the profile schema or the fitting procedure changes
#: incompatibly; :meth:`CalibrationProfile.load` rejects other versions.
PROFILE_VERSION = 1

#: Default probe tile sizes. The least-squares fit is dominated by the
#: largest size (weights are squared work), which is also the closest to
#: the tile sizes the planner actually picks.
DEFAULT_SIZES = (64, 128, 256)

#: Profiles older than this are flagged stale (plans still compute, with
#: ``profile.stale = true`` in the payload).
DEFAULT_MAX_AGE_S = 7 * 86400.0

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

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "size": int(self.size),
            "seconds": float(self.seconds),
            "work": float(self.work),
            "meta": {k: float(v) for k, v in sorted(self.meta.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProbeSample":
        return cls(
            kernel=str(d["kernel"]),
            size=int(d["size"]),
            seconds=float(d["seconds"]),
            work=float(d["work"]),
            meta={k: float(v) for k, v in dict(d.get("meta") or {}).items()},
        )


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
    """Execute the probe suite; return one sample per (kernel, size, rep).

    Every sample is also emitted as a ``probe:<kernel>`` telemetry span
    (no-op unless telemetry is armed), carrying the sample fields as
    span attributes so :func:`samples_from_spans` can reconstruct it
    from a JSONL sink.
    """
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
        sample = ProbeSample(kernel, size, seconds, work, dict(meta))
        samples.append(sample)
        _telemetry.record_span(
            f"probe:{kernel}",
            seconds,
            kernel=kernel,
            size=int(size),
            work=float(work),
            **{k: float(v) for k, v in meta.items()},
        )

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
        tlr_costs, _ = _tlr_tile_costs(_PROBE_NT, s0, _PROBE_ACC, DEFAULT_RANK_MODEL)
        emit(
            "tlr_chol",
            s0,
            tlr_s,
            sum(c.flops for k, c in tlr_costs.items() if k != "potrf"),
            n=n0,
            n_tasks=_tlr_task_count(_PROBE_NT),
            potrf_flops=tlr_costs["potrf"].flops,
        )
    return samples


def _dense_task_count(nt: int) -> int:
    """Task population of the column-panel tile Cholesky: panels + updates."""
    return nt + nt * (nt - 1) // 2


def _tlr_task_count(nt: int) -> int:
    """Task population of the per-tile TLR Cholesky with ``nt`` tile rows."""
    off = nt * (nt - 1) // 2
    gemm = sum((nt - a) * (a - 1) for a in range(2, nt))
    return nt + 2 * off + gemm


def samples_from_spans(spans: Iterable[dict]) -> List[ProbeSample]:
    """Reconstruct probe samples from recorded ``probe:*`` telemetry spans.

    Accepts the span dicts of :func:`repro.perfmodel.calibrate.load_spans`;
    non-probe spans are ignored. Raises
    :class:`~repro.exceptions.CalibrationError` when no probe spans are
    present — refitting from a sink that never ran the probes is a
    misconfiguration, not an empty profile.
    """
    samples: List[ProbeSample] = []
    for rec in spans:
        name = str(rec.get("name", ""))
        if not name.startswith("probe:"):
            continue
        attrs = rec.get("attrs") or {}
        if "work" not in attrs or "size" not in attrs:
            continue
        meta = {
            k: float(v)
            for k, v in attrs.items()
            if k not in ("kernel", "size", "work") and isinstance(v, (int, float))
        }
        samples.append(
            ProbeSample(
                kernel=name.split(":", 1)[1],
                size=int(attrs["size"]),
                seconds=float(rec["duration"]),
                work=float(attrs["work"]),
                meta=meta,
            )
        )
    if not samples:
        raise CalibrationError(
            "no probe:* spans found; run the probes with telemetry armed "
            "(configure(enabled=True, sink_dir=...)) before refitting from "
            "a sink"
        )
    return samples


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
# the persisted profile
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted machine constants plus provenance, persistable as JSON.

    ``created`` is an epoch timestamp; a profile older than
    ``max_age_s`` reports :meth:`is_stale` (plans computed from it carry
    a ``stale`` flag rather than failing — hardware constants drift
    slowly, but CI hosts differ run to run).
    """

    version: int
    created: float
    seed: int
    sizes: tuple
    repeats: int
    host: Dict[str, object]
    constants: Dict[str, float]
    machine: Dict[str, object]
    probes: tuple
    max_age_s: float = DEFAULT_MAX_AGE_S

    def spec(self) -> MachineSpec:
        """The calibrated host :class:`MachineSpec`."""
        return MachineSpec(**self.machine)

    def age_s(self, now: Optional[float] = None) -> float:
        return (time.time() if now is None else now) - self.created

    def is_stale(self, now: Optional[float] = None) -> bool:
        return self.age_s(now) > self.max_age_s

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "created": float(self.created),
            "seed": int(self.seed),
            "sizes": [int(s) for s in self.sizes],
            "repeats": int(self.repeats),
            "host": dict(self.host),
            "constants": {k: float(v) for k, v in sorted(self.constants.items())},
            "machine": dict(self.machine),
            "probes": [p if isinstance(p, dict) else p.to_dict() for p in self.probes],
            "max_age_s": float(self.max_age_s),
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed separators — byte-stable."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationProfile":
        try:
            version = int(d["version"])
        except (KeyError, TypeError, ValueError):
            raise CalibrationError(
                "calibration profile has no integer 'version' field"
            ) from None
        if version != PROFILE_VERSION:
            raise CalibrationError(
                f"calibration profile version {version} is not supported "
                f"(expected {PROFILE_VERSION}); re-run "
                "python -m repro.perfmodel.autotune"
            )
        try:
            return cls(
                version=version,
                created=float(d["created"]),
                seed=int(d["seed"]),
                sizes=tuple(int(s) for s in d["sizes"]),
                repeats=int(d["repeats"]),
                host=dict(d["host"]),
                constants={k: float(v) for k, v in d["constants"].items()},
                machine=dict(d["machine"]),
                probes=tuple(dict(p) for p in d.get("probes", [])),
                max_age_s=float(d.get("max_age_s", DEFAULT_MAX_AGE_S)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(
                f"calibration profile is malformed: {exc}"
            ) from None

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically and durably persist the profile at ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibrationProfile":
        path = Path(path)
        if not path.is_file():
            raise CalibrationError(
                f"calibration profile {str(path)!r} does not exist; create "
                "one with python -m repro.perfmodel.autotune --out "
                f"{path}"
            )
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CalibrationError(
                f"calibration profile {str(path)!r} is unreadable: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise CalibrationError(
                f"calibration profile {str(path)!r} is not a JSON object"
            )
        return cls.from_dict(payload)


def fit_profile(
    samples: Sequence[ProbeSample],
    *,
    seed: int = 0,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
    created: Optional[float] = None,
    max_age_s: float = DEFAULT_MAX_AGE_S,
    host: Optional[Dict[str, object]] = None,
) -> CalibrationProfile:
    """Fit a :class:`CalibrationProfile` from probe samples.

    ``created`` defaults to the current wall clock; pass it explicitly
    (tests do) for reproducible bytes.
    """
    host = dict(host) if host is not None else _host_info()
    constants = fit_constants(samples)
    spec = _machine_from_constants(constants, host)
    machine = {
        "name": spec.name,
        "cores": spec.cores,
        "freq_ghz": spec.freq_ghz,
        "flops_per_cycle": spec.flops_per_cycle,
        "eff_dense": spec.eff_dense,
        "eff_block": spec.eff_block,
        "eff_lr": spec.eff_lr,
        "mem_bw_gbs": spec.mem_bw_gbs,
        "mem_gb": spec.mem_gb,
        "eff_gen": spec.eff_gen,
    }
    return CalibrationProfile(
        version=PROFILE_VERSION,
        created=time.time() if created is None else float(created),
        seed=int(seed),
        sizes=tuple(int(s) for s in sizes),
        repeats=int(repeats),
        host=host,
        constants=constants,
        machine=machine,
        probes=tuple(s.to_dict() for s in samples),
        max_age_s=float(max_age_s),
    )


def autotune(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
    seed: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    created: Optional[float] = None,
    host: Optional[Dict[str, object]] = None,
) -> CalibrationProfile:
    """Probe the current host and fit a :class:`CalibrationProfile`."""
    samples = run_probes(sizes=sizes, repeats=repeats, seed=seed, clock=clock)
    return fit_profile(
        samples,
        seed=seed,
        sizes=sizes,
        repeats=repeats,
        created=created,
        host=host,
    )


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description=(
            "Calibrate the analytic performance model on this host and "
            "optionally plan a workload with the fitted constants."
        )
    )
    parser.add_argument("--out", help="persist the fitted profile to this path")
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated probe tile sizes",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--from-sink",
        metavar="DIR",
        help="refit from probe:* spans recorded in a telemetry sink "
        "instead of running fresh probes",
    )
    parser.add_argument(
        "--plan",
        type=int,
        metavar="N",
        help="also plan a fit+predict workload of N locations",
    )
    parser.add_argument("--m", type=int, default=100, help="prediction targets")
    parser.add_argument(
        "--substrate",
        default="auto",
        help="plan substrate: auto, full-block, full-tile, or tlr",
    )
    parser.add_argument(
        "--accuracy", type=float, default=None, help="TLR accuracy target"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in str(args.sizes).split(",") if s.strip())
    if args.from_sink:
        from .calibrate import load_spans

        samples = samples_from_spans(load_spans(args.from_sink))
        profile = fit_profile(
            samples, seed=args.seed, sizes=sizes, repeats=args.repeats
        )
    else:
        profile = autotune(sizes=sizes, repeats=args.repeats, seed=args.seed)

    if args.out:
        profile.save(args.out)

    payload: Dict[str, object] = {"profile": profile.to_dict()}
    if args.plan is not None:
        from .planner import Planner

        plan = Planner(profile).plan(
            args.plan,
            m=args.m,
            substrate=args.substrate,
            accuracy=args.accuracy,
        )
        payload["plan"] = plan.to_dict()

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    c = profile.constants
    print(f"calibrated {profile.machine['name']} (seed={profile.seed})")
    print(f"  dense rate     {c['dense_gflops']:.3f} GF/s")
    print(f"  low-rank rate  {c['lr_gflops']:.3f} GF/s")
    print(f"  generation     {c['gen_gflops']:.3f} GF/s")
    print(f"  copy bandwidth {c['copy_bw_gbs']:.3f} GB/s")
    print(f"  task overhead  {c['task_overhead_s'] * 1e6:.1f} us/task")
    if args.out:
        print(f"saved profile to {args.out}")
    if args.plan is not None:
        plan_d = payload["plan"]
        assert isinstance(plan_d, dict)
        cfg = plan_d["config"]
        pred = plan_d["predicted"]
        print(
            f"plan for n={args.plan}, m={args.m}: variant={cfg['variant']} "
            f"tile_size={cfg['tile_size']} accuracy={cfg['accuracy']}"
        )
        print(
            f"  predicted fit iteration {pred['fit_iteration']['total_s']:.3f} s, "
            f"predict {pred['predict']['total_s']:.3f} s"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
