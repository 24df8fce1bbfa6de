"""Run one named workload: the untraced pass or the traced pass.

The untraced pass hosts the program in a child process, times ops for
``--seconds`` with nothing recorded but their latencies, and yields the
end-to-end metrics. The traced pass walks the layers of the same
problem in this process (see :mod:`perfledger.layers`) and yields the
per-layer metrics. Both check every output against a reference.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import MLEstimator, PredictionEngine, Runtime, ServingClient, exact_loglikelihood
from repro.mle.loglik import PENALTY_LOGLIK

from . import inputs, layers, probes
from .child import Program
from .metrics import END_TO_END, PER_LAYER, with_units
from .spans import Trace
from .spec import Workload, workload
from .stats import fixed_tail, percentile
from .traffic import MODEL_ID, Request, drive, summarize

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Gate on evaluator values in a serve workload's traced pass (the loosest
#: of the MLE workloads' own tolerances).
WALK_LOGLIK_TOLERANCE = 1e-5
#: Served-model requests of the MLE workloads' traced pass.
POINTS_PER_REQUEST = 32
HOT_SETS = 2
#: Requests generated per small-request client; a longer run cycles them.
STREAM_LENGTH = 600
#: Bundle B of ``serve_points`` is the same fit with this range factor,
#: standing in for the refit a hot-swap delivers.
BUNDLE_B_RANGE = 1.1


def num_workers() -> int:
    """Runtime workers: task parallelism over single-threaded BLAS."""
    return min(os.cpu_count() or 1, 2)


# --------------------------------------------------------------------------
# inputs per workload
# --------------------------------------------------------------------------
def _streams(w: Workload, seed: int) -> List[List[Request]]:
    """The requests each client of a model of this problem sends."""
    if w.request_pool:
        return [[Request(t, z) for t, z in inputs.grid_requests(w, seed)]]
    return [
        [
            Request(t)
            for t in inputs.point_requests(
                w.targets_per_request or POINTS_PER_REQUEST,
                w.hot_sets_per_client or HOT_SETS,
                client,
                STREAM_LENGTH,
                seed,
            )
        ]
        for client in range(w.clients)
    ]


def _thetas(w: Workload, seed: int) -> np.ndarray:
    if w.kind == "mle":
        return inputs.theta_schedule(w, w.min_ops, seed)
    return np.asarray([w.theta], dtype=np.float64)


def _problem(
    w: Workload, seed: int, runtime: Optional[Runtime], field: Optional[tuple] = None
) -> layers.Problem:
    locations, z = inputs.field(w.n, seed) if field is None else field
    estimator = MLEstimator(
        locations, z, model=inputs.family_model(w.family), variant=w.variant,
        acc=w.acc, tile_size=w.nb, runtime=runtime,
    )
    return layers.Problem(w, estimator, _thetas(w, seed), _streams(w, seed), num_workers())


def _bundles(p: layers.Problem, workdir: Path) -> List[Path]:
    w = p.workload
    theta = np.asarray(p.thetas[0], dtype=np.float64)
    paths = [layers.build_bundle(p, theta, workdir / "bundle-a")]
    if w.reload_every:
        swapped = theta.copy()
        swapped[1] *= BUNDLE_B_RANGE
        paths.append(layers.build_bundle(p, swapped, workdir / "bundle-b"))
    return paths


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------
def _check_logliks(
    p: layers.Problem, values: Sequence[float], reference_points: Sequence[int],
    tolerance: float,
) -> Dict[str, object]:
    """Check evaluator values cycled over ``p.thetas``.

    Every value must be a finite non-penalty number; a repeat of a theta
    must reproduce the first pass bit for bit; at ``reference_points``
    the first-pass value is compared with the exact dense likelihood.
    """
    period = len(p.thetas)
    failures: List[str] = []
    bad = set()
    for i, v in enumerate(values):
        if not math.isfinite(v) or v <= PENALTY_LOGLIK:
            failures.append(f"op {i}: log-likelihood {v!r} is not a value")
            bad.add(i)
        elif i >= period and v != values[i % period]:
            failures.append(f"op {i}: {v!r} differs from the first pass's {values[i % period]!r}")
            bad.add(i)
    result_err = 0.0
    for k in reference_points:
        if k >= len(values) or k in bad:
            continue
        exact = exact_loglikelihood(p.locations, p.z, p.model(p.thetas[k]))
        err = abs(values[k] - exact) / abs(exact)
        result_err = max(result_err, err)
        if err > tolerance:
            failures.append(
                f"op {k}: |l - l_exact| / |l_exact| = {err:.3e} exceeds {tolerance:g}"
            )
            bad.add(k)
    return {"failures": failures, "bad": bad, "result_err": result_err}


def _tail(latencies: Sequence[float], w: Workload, quick: bool) -> float:
    if quick:  # smoke sizes never reach the fixed tail's sample count
        return percentile(latencies, w.tail_pct)
    return fixed_tail(latencies, w.tail_pct)


def _end_to_end(
    w: Workload, quick: bool, latencies: Sequence[float], wall: float,
    setups: Sequence[float], rss: Dict[str, float],
) -> Dict[str, float]:
    return {
        "setup_s": median(setups),
        "op_p50_ms": median(latencies) * 1e3,
        "op_tail_ms": _tail(latencies, w, quick) * 1e3,
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": rss["self_mib"] + rss["children_mib"],
    }


def _record(
    w: Workload, *, traced: bool, attempted: int, failures: List[str], failed: int,
    values: Dict[str, float], samples: int, result_err: float,
) -> Dict[str, object]:
    """One pass's result. ``samples`` are the correct timed ops; the
    untraced pass is invalid below the workload's ``min_ops`` of them."""
    table = PER_LAYER if traced else END_TO_END
    fail_share = failed / attempted
    if traced:
        values = dict(values, fail_share=fail_share, result_err=result_err)
    enough = samples >= (1 if traced else w.min_ops)
    return {
        "workload": w.name,
        "traced": traced,
        "correct": failed == 0 and enough and result_err <= w.tolerance,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "gates": {"fail_share": fail_share, "result_err": result_err, "tolerance": w.tolerance},
        "metrics": with_units(values, table),
    }


# --------------------------------------------------------------------------
# untraced passes
# --------------------------------------------------------------------------
def _mle_untraced(w: Workload, seed: int, seconds: float, quick: bool) -> Dict[str, object]:
    with Program() as program:  # spawned before any input exists: see child.py
        locations, z = inputs.field(w.n, seed)
        p = _problem(w, seed, None, (locations, z))
        setups = [
            program.call(
                "mle_setup", locations=locations, z=z, family=w.family, variant=w.variant,
                acc=w.acc, nb=w.nb, workers=p.workers, theta=p.thetas[0],
            )["seconds"]
            for _ in range(SETUP_REPEATS)
        ]
        ops = program.call("mle_ops", thetas=p.thetas, seconds=seconds, min_ops=w.min_ops)
        rss = program.call("rusage")
    checked = _check_logliks(p, ops["values"], (0, len(p.thetas) // 2), w.tolerance)
    raised = dict(ops["errors"])
    bad = checked["bad"] | set(raised)
    latencies = [s for i, s in enumerate(ops["latencies"]) if i not in bad]
    return _record(
        w, traced=False, attempted=len(ops["values"]),
        failures=[f"op {i}: {msg}" for i, msg in raised.items()] + checked["failures"],
        failed=len(bad), samples=len(latencies), result_err=checked["result_err"],
        values=_end_to_end(w, quick, latencies, ops["wall"], setups, rss),
    )


def _serve_untraced(
    w: Workload, seed: int, seconds: float, quick: bool, workdir: Path
) -> Dict[str, object]:
    with Program() as program:
        p = _problem(w, seed, None)
        paths = _bundles(p, workdir)
        engines = [PredictionEngine.from_bundle(path) for path in paths]
        first = p.requests[0][0]
        expected = engines[0].predict(first.targets, z=first.z)
        setups, bad_setups = [], []
        program.ready()
        for rep in range(SETUP_REPEATS):
            if rep:
                program.call("serve_stop")
            t0 = time.perf_counter()
            url = program.call("serve_start", models={MODEL_ID: str(paths[0])})["url"]
            with ServingClient(url, transport="binary") as client:
                answer = client.predict(MODEL_ID, first.targets, z=first.z)
            setups.append(time.perf_counter() - t0)
            if not np.array_equal(answer, expected):
                bad_setups.append(f"set-up {rep}: first answer differs from the in-process engine")
        run = drive(
            url, p.requests, paths, seconds=seconds,
            count=math.ceil(w.min_ops / w.clients), reload_every=w.reload_every,
        )
        program.call("serve_stop")
        rss = program.call("rusage")
    s = summarize(run, engines)
    latencies = s["latencies"]
    return _record(
        w, traced=False, attempted=s["attempted"] + SETUP_REPEATS,
        failures=bad_setups + s["failures"],
        failed=s["attempted"] - len(latencies) + len(bad_setups),
        samples=len(latencies), result_err=s["result_err"],
        values=_end_to_end(w, quick, latencies, s["wall"], setups, rss),
    )


# --------------------------------------------------------------------------
# traced pass
# --------------------------------------------------------------------------
def _traced(w: Workload, seed: int, quick: bool, workdir: Path, trace: Trace) -> Dict[str, object]:
    with Runtime(num_workers=num_workers()) as rt:
        p = _problem(w, seed, rt)
        m, evals = layers.walk_compute(trace, p, rt)
    serving_metrics, burst = layers.walk_serving(trace, p, _bundles(p, workdir), workdir)
    m.update(serving_metrics)
    m.update(
        probes.run_all(
            trace, seed=seed, workers=p.workers, workdir=workdir, n=w.n, quick=quick
        )
    )
    # The pass checks both kinds of output whatever the workload's own op
    # is; ``result_err`` reports the op's own kind.
    native_mle = w.kind == "mle"
    checked = _check_logliks(
        p, evals["values"], (0,), w.tolerance if native_mle else WALK_LOGLIK_TOLERANCE
    )
    if native_mle:
        op_s, serial_op_s = evals["p50_s"], evals["serial_op_s"]
        overhead, samples = evals["trace_overhead"], len(evals["values"])
    else:
        op_s = median(burst["latencies"])
        overhead = median(burst["traced"]) / median(burst["plain"]) - 1.0
        samples = len(burst["latencies"])
        # engine + service overhead + HTTP overhead telescopes to the
        # unloaded HTTP predict; the loaded op adds waiting on top.
        serial_op_s = m["serving.http_predict_ms"] / 1e3
    m["bench.layer_sum_over_op"] = serial_op_s / op_s
    m["bench.unattributed_ms"] = (op_s - serial_op_s) * 1e3
    m["bench.trace_overhead_share"] = overhead
    return _record(
        w, traced=True, attempted=len(evals["values"]) + burst["attempted"],
        failures=checked["failures"] + burst["failures"],
        failed=len(checked["bad"]) + burst["attempted"] - len(burst["latencies"]),
        samples=samples,
        result_err=checked["result_err"] if native_mle else burst["result_err"],
        values=m,
    )


def run(
    name: str, *, seed: int, seconds: float, traced: bool, quick: bool, workdir: Path,
    trace_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one pass of one workload; returns its record (see ``_record``)."""
    w = workload(name, quick=quick)
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    if traced:
        trace = Trace(w.name)
        try:
            record = _traced(w, seed, quick, workdir, trace)
        finally:
            if trace_path is not None:
                trace.write(trace_path)
    elif w.kind == "mle":
        record = _mle_untraced(w, seed, seconds, quick)
    else:
        record = _serve_untraced(w, seed, seconds, quick, workdir)
    record.update(seed=seed, quick=quick, comparable=not quick,
                  wall_s=time.perf_counter() - started)
    return record
