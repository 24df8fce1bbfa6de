"""Layer probes that do not depend on the workload's problem.

Fixed-size micro-measurements of the layers no named workload loads
(task submission, the wire codec at a size beyond the last-level cache,
the optimizer, the durable fit path, the disabled resilience and
telemetry hooks, the planner). They run in every traced pass so a
regression in a hook every request crosses is seen on every row.
"""

from __future__ import annotations

import io
from pathlib import Path
from statistics import median
from typing import Dict

import numpy as np

import repro
from repro import (
    AccessMode,
    ExponentialCovariance,
    FitJobSpec,
    FitOrchestrator,
    MLEstimator,
    Runtime,
    fault_point,
    nelder_mead,
    span,
)
from repro.fitting import save_state
from repro.optim.neldermead import SimplexState
from repro.optim.result import HistoryEntry
from repro.serving import wire
from repro.serving.store import model_to_spec

from . import inputs
from .spans import Trace

#: Tile grid of the empty-task Cholesky DAG: the shape of ``mle_tile_exp``.
DAG_NT = 26
#: Rows of the (rows, 2) float64 array the codec is timed on: 16 MB,
#: at least four times any last-level cache this is expected to run on.
WIRE_ROWS = 1_000_000
FIT_N = 400
FIT_ITERATIONS = 30


def _noop(*payloads: object) -> None:
    return None


def _insert_cholesky_dag(rt: Runtime, nt: int) -> int:
    """Submit empty-body tasks with the tile Cholesky's access pattern."""
    h = {(i, j): rt.register(None, name=f"A[{i},{j}]") for i in range(nt) for j in range(i + 1)}
    R, RW = AccessMode.READ, AccessMode.READWRITE
    count = 0
    for k in range(nt):
        rt.insert_task(_noop, [(h[(k, k)], RW)], name="potrf")
        count += 1
        for i in range(k + 1, nt):
            rt.insert_task(_noop, [(h[(k, k)], R), (h[(i, k)], RW)], name="trsm")
            count += 1
        for i in range(k + 1, nt):
            rt.insert_task(_noop, [(h[(i, k)], R), (h[(i, i)], RW)], name="syrk")
            count += 1
            for j in range(k + 1, i):
                rt.insert_task(
                    _noop, [(h[(i, k)], R), (h[(j, k)], R), (h[(i, j)], RW)], name="gemm"
                )
                count += 1
    return count


def runtime_overhead(trace: Trace, workers: int, nt: int = DAG_NT) -> Dict[str, float]:
    insert_us, total_us = [], []
    with Runtime(num_workers=workers) as rt:
        for rep in range(5):
            with trace.span("runtime.empty_dag", op_id=rep) as outer:
                with trace.span("runtime.insert") as inner:
                    tasks = _insert_cholesky_dag(rt, nt)
                rt.wait_all()
            rt.tracker.reset()
            insert_us.append((inner["end"] - inner["start"]) / tasks * 1e6)
            total_us.append((outer["end"] - outer["start"]) / tasks * 1e6)
    return {
        "runtime.insert_us": median(insert_us),
        "runtime.task_overhead_us": median(total_us),
    }


def wire_codec(trace: Trace, rows: int = WIRE_ROWS) -> Dict[str, float]:
    arr = inputs.stream(0, "wire-probe").uniform(size=(rows, 2))
    mb = arr.nbytes / 1e6
    enc, dec = [], []
    for rep in range(3):
        with trace.span("serving.wire_encode", op_id=rep) as s:
            data = wire.encode_message({"probe": True}, {"targets": arr})
        enc.append(mb / (s["end"] - s["start"]))
        with trace.span("serving.wire_decode", op_id=rep) as s:
            wire.read_message(io.BytesIO(data).read)
        dec.append(mb / (s["end"] - s["start"]))
    return {"serving.wire_encode_mb_s": median(enc), "serving.wire_decode_mb_s": median(dec)}


def optimizer(trace: Trace, seed: int, n: int = FIT_N) -> Dict[str, float]:
    locations, z = inputs.field(n, seed)
    with trace.span("optim.fit_to_convergence"):
        fit = MLEstimator(
            locations, z, model=ExponentialCovariance(), variant="full-block"
        ).fit()
    centre = np.array([0.3, 0.6, 0.9])
    with trace.span("optim.quadratic") as s:
        result = nelder_mead(
            lambda x: float(np.sum((x - centre) ** 2)),
            [0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], maxiter=200,
        )
    return {
        "optim.nm_evals_to_converge": float(fit.n_evals),
        "optim.iter_overhead_us": (s["end"] - s["start"]) / max(1, result.nit) * 1e6,
    }


def fitting(trace: Trace, seed: int, workdir: Path, n: int = FIT_N) -> Dict[str, float]:
    """What the durable path adds to a fit: one checkpoint write, and a
    short fit run as an orchestrated job versus in this process."""
    state = SimplexState(
        simplex=np.ones((4, 3)),
        fvals=np.ones(4),
        iteration=FIT_ITERATIONS,
        nfev=2 * FIT_ITERATIONS,
        history=[HistoryEntry(i, np.ones(3), 1.0) for i in range(FIT_ITERATIONS)],
    )
    writes = []
    for rep in range(5):
        with trace.span("fitting.checkpoint_write", op_id=rep) as s:
            save_state(workdir / "probe-checkpoint.npz", state)
        writes.append(s["end"] - s["start"])

    locations, z = inputs.field(n, seed)
    model = ExponentialCovariance()
    with trace.span("fitting.fit_in_process") as local:
        MLEstimator(locations, z, model=model, variant="full-block").fit(maxiter=FIT_ITERATIONS)
    spec = FitJobSpec(
        locations=locations, z=z, model_spec=model_to_spec(model),
        variant="full-block", maxiter=FIT_ITERATIONS,
    )
    with FitOrchestrator(workdir / "probe-jobs") as orchestrator:
        with trace.span("fitting.fit_as_job") as job:
            record = orchestrator.wait(orchestrator.submit(spec), timeout=120.0)
    if record["status"] != "done":
        raise RuntimeError(f"probe fit job ended {record['status']!r}")
    return {
        "fitting.checkpoint_write_ms": median(writes) * 1e3,
        "fitting.job_overhead_s": (job["end"] - job["start"]) - (local["end"] - local["start"]),
    }


def disabled_hooks(trace: Trace, calls: int = 100_000) -> Dict[str, float]:
    with trace.span("resilience.fault_point") as s:
        for _ in range(calls):
            fault_point("ledger.probe")
    fault_ns = (s["end"] - s["start"]) / calls * 1e9
    with trace.span("telemetry.span_disabled") as s:
        for _ in range(calls):
            with span("ledger.probe"):
                pass
    return {
        "resilience.fault_point_ns": fault_ns,
        "telemetry.span_disabled_ns": (s["end"] - s["start"]) / calls * 1e9,
    }


def planner(trace: Trace, n: int) -> Dict[str, float]:
    repro.plan(n)  # first call calibrates the profile
    times = []
    for rep in range(5):
        with trace.span("perfmodel.plan", op_id=rep) as s:
            repro.plan(n)
        times.append(s["end"] - s["start"])
    return {"perfmodel.plan_ms": median(times) * 1e3}


def run_all(
    trace: Trace, *, seed: int, workers: int, workdir: Path, n: int, quick: bool
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(runtime_overhead(trace, workers, nt=8 if quick else DAG_NT))
    out.update(wire_codec(trace, rows=20_000 if quick else WIRE_ROWS))
    out.update(optimizer(trace, seed, n=100 if quick else FIT_N))
    out.update(fitting(trace, seed, workdir, n=100 if quick else FIT_N))
    out.update(disabled_hooks(trace, calls=5_000 if quick else 100_000))
    out.update(planner(trace, n))
    return out
