"""The traced pass: time each layer from outside, on the workload's problem.

Every workload has a *problem* (ordered locations, observations, kernel
family, substrate, tile size, accuracy) and a list of *requests* a served
model of it would receive. A traced pass walks every layer over that
problem by calling the layer's public functions from here, inside
:class:`~perfledger.spans.Trace` spans:

* ``walk_compute`` — kernels and the distance cache, then up to eight
  ops replayed layer by layer: tile generation, compression, both
  Cholesky substrates serial and on the runtime, solve, then the op
  itself through the evaluator (plain and traced) and the evaluator's
  fused call made directly; task counts and the performance model's
  prediction. The matrix is factored as TLR *and* as dense tiles whatever
  the workload's own substrate is, so each ledger row carries the paper's
  TLR-versus-dense comparison on its own matrix;
* ``walk_serving`` — bundle save/load, in-process engine, registry and
  service, then the same requests over HTTP.

Each timed call is repeated up to :data:`REPS` times but stops once its
layer has used :data:`LAYER_BUDGET_S`, so a layer that is expensive on
one problem (TLR Cholesky of 26x26 small tiles) cannot stretch the pass.
Exact counts (ranks, tasks, bytes) are read on the first repetition only
and repeat exactly for a given seed.
"""

from __future__ import annotations

import asyncio
import io
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import (
    ExponentialCovariance,
    MaternCovariance,
    MLEstimator,
    ModelBundle,
    ModelRegistry,
    PredictionEngine,
    PredictionService,
    Runtime,
    ServingClient,
    TileDistanceCache,
    TileMatrix,
    TLRMatrix,
    tile_cholesky,
    tlr_cholesky,
)
from repro.config import get_config
from repro.kernels.distance import pairwise_distance
from repro.linalg import (
    TileGrid,
    compress,
    generate_and_factor_tile_matrix,
    generate_and_factor_tlr_matrix,
    logdet_from_tile_factor,
    logdet_from_tlr_factor,
    tile_solve_triangular,
    tlr_solve_triangular,
)
from repro.perfmodel.planner import default_profile, predict_workload
from repro.serving import wire

from . import inputs
from .child import Program
from .spans import Trace
from .spec import Workload
from .traffic import MODEL_ID, Request, drive, summarize

#: Ops replayed layer by layer in a traced pass.
REPS = 8
LAYER_BUDGET_S = 2.0
#: Matérn smoothness values with closed forms; the Bessel path is what
#: ``kernels.matern_ns_per_entry`` is about, so these are side-stepped.
SPECIAL_NU = (0.5, 1.0, 1.5, 2.5)
#: Requests per client in the traced burst of the workload's own traffic;
#: client 0 hot-swaps the model every ``REPS`` of them.
BURST_OPS = 48


@dataclass
class Problem:
    """One workload's covariance problem, as the layers see it."""

    workload: Workload
    estimator: MLEstimator  # owns the Morton-ordered locations and z
    thetas: np.ndarray  # parameter vectors the repetitions cycle through
    requests: List[List[Request]]  # per client: what a served model receives
    workers: int

    @property
    def locations(self) -> np.ndarray:
        return self.estimator.locations

    @property
    def z(self) -> np.ndarray:
        return self.estimator.z

    @property
    def acc(self) -> float:
        """The workload's TLR accuracy; dense workloads walk the TLR
        layers at the library default."""
        w = self.workload
        return get_config().tlr_accuracy if w.acc is None else w.acc

    def model(self, theta):
        return inputs.family_model(self.workload.family, theta)


class _Reps:
    """Repetition control: up to ``REPS`` per layer, within its budget."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.spent: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> bool:
        return self.spent[name] < LAYER_BUDGET_S

    def timed(self, name: str, rep: int, fn: Callable[[], object]):
        with self.trace.span(name, op_id=rep) as s:
            out = fn()
        self.spent[name] += s["end"] - s["start"]
        return out

    def p50(self, name: str) -> float:
        return median(self.trace.durations(name))


def _ns_per_entry(trace: Trace, name: str, fn, inputs_: Sequence[np.ndarray]) -> float:
    """Apply ``fn`` to each input for ~0.25 s; nanoseconds per output entry."""
    entries, spent = 0, 0.0
    for k, x in enumerate(inputs_):
        with trace.span(name, op_id=k) as s:
            out = fn(x)
        entries += out.size
        spent += s["end"] - s["start"]
        if spent > 0.25:
            break
    return spent / entries * 1e9


# --------------------------------------------------------------------------
# kernels, linalg, runtime, mle: one op replayed layer by layer
# --------------------------------------------------------------------------
def _replay_layers(reps: _Reps, rep: int, p: Problem, rt: Runtime, cache: TileDistanceCache,
                   theta, m: Dict[str, float]) -> None:
    """One op's constituent calls, one after the other, on both substrates."""
    w = p.workload
    grid, acc = cache.grid, p.acc
    cfg = get_config()
    lower = [(i, j) for i in range(grid.nt) for j in range(i + 1)]
    generate = cache.generator(p.model(theta))
    tiles = reps.timed(
        "linalg.gen_tiles", rep,
        lambda: {(i, j): generate(grid.tile_slice(i), grid.tile_slice(j)) for i, j in lower},
    )

    def dense() -> TileMatrix:
        a = TileMatrix(grid, symmetric_lower=True)
        for (i, j), tile in tiles.items():
            a.set_tile(i, j, tile.copy())
        return a

    tlr_factor = tile_factor = None
    if reps.open("linalg.compress"):
        low = reps.timed(
            "linalg.compress", rep,
            lambda: {
                ij: compress(tiles[ij], acc, method=cfg.compression_method, rule=cfg.truncation)
                for ij in lower if ij[0] != ij[1]
            },
        )
        a = TLRMatrix(grid, acc)
        for i in range(grid.nt):
            a.diag[i] = tiles[(i, i)].copy()
        a.low.update(low)
        if rep == 0:
            m["linalg.rank_mean"] = float(a.mean_rank())
            m["linalg.rank_max"] = float(a.max_rank())
            m["linalg.tlr_mem_ratio"] = float(a.compression_ratio())
        if reps.open("linalg.tlr_chol_rt"):
            b = a.copy()
            reps.timed("linalg.tlr_chol_rt", rep, lambda: tlr_cholesky(b, runtime=rt))
        if reps.open("linalg.tlr_chol_serial"):
            tlr_factor = reps.timed("linalg.tlr_chol_serial", rep, lambda: tlr_cholesky(a))
            if rep == 0:
                m["linalg.rank_mean_factor"] = float(tlr_factor.mean_rank())
    if reps.open("linalg.tile_chol_rt"):
        b = dense()
        reps.timed("linalg.tile_chol_rt", rep, lambda: tile_cholesky(b, runtime=rt))
    if reps.open("linalg.tile_chol_serial"):
        a = dense()
        tile_factor = reps.timed("linalg.tile_chol_serial", rep, lambda: tile_cholesky(a))

    if w.variant == "tlr" and tlr_factor is not None:
        reps.timed("linalg.solve", rep, lambda: (
            tlr_solve_triangular(tlr_factor, p.z, trans=False),
            logdet_from_tlr_factor(tlr_factor),
        ))
    elif w.variant != "tlr" and tile_factor is not None:
        reps.timed("linalg.solve", rep, lambda: (
            tile_solve_triangular(tile_factor, p.z, trans=False),
            logdet_from_tile_factor(tile_factor),
        ))


def _fused_direct(p: Problem, rt: Runtime, theta) -> float:
    """What the evaluator does, called directly: the fused
    generate-and-factor on the runtime, then solve and log-determinant."""
    w, ev = p.workload, p.estimator.evaluator
    n = p.locations.shape[0]
    generate = ev.distance_cache.generator(p.model(theta))
    if w.variant == "tlr":
        factor = generate_and_factor_tlr_matrix(
            n, w.nb, generate, ev.acc, method=ev.compression_method,
            rule=ev.truncation_rule, runtime=rt, fused=ev.parallel_generation,
            compression_batch=ev.compression_batch,
        )
        half = tlr_solve_triangular(factor, p.z, trans=False)
        return logdet_from_tlr_factor(factor) + float(half @ half)
    factor = generate_and_factor_tile_matrix(
        n, w.nb, generate, runtime=rt, fused=ev.parallel_generation
    )
    half = tile_solve_triangular(factor, p.z, trans=False)
    return logdet_from_tile_factor(factor) + float(half @ half)


def walk_compute(
    trace: Trace, p: Problem, rt: Runtime
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Kernels, linalg, runtime and mle metrics of the problem.

    Each repetition replays one op: first its layers one after the other
    (``_replay_layers``), then the op itself through the evaluator, plain
    and inside a span, then the evaluator's fused call made directly.
    Keeping the three in one repetition means the ratios between them
    (``bench.layer_sum_over_op``, ``runtime.parallel_speedup``,
    ``mle.eval_overhead_ms``) compare neighbours in time, not a fast
    minute of the host with a slow one.

    Also returns the evaluator ops: their ``values`` (for the caller's
    check), plain ``p50_s``, ``trace_overhead`` and ``serial_op_s``, what
    the op costs with its layers run back to back.
    """
    w = p.workload
    ev = p.estimator.evaluator
    n = p.locations.shape[0]
    m: Dict[str, float] = {}

    cache = TileDistanceCache(p.locations, w.nb)
    with trace.span("linalg.distcache_warm") as s:
        cache.warm()
    m["linalg.distcache_warm_s"] = s["end"] - s["start"]

    blocks = list(cache.export_blocks().values())
    theta0 = p.thetas[0]
    nu = float(theta0[2]) if len(theta0) == 3 else 0.6
    if any(abs(nu - special) < 1e-3 for special in SPECIAL_NU):
        nu = 0.6
    m["kernels.matern_ns_per_entry"] = _ns_per_entry(
        trace, "kernels.matern", MaternCovariance(theta0[0], theta0[1], nu), blocks
    )
    m["kernels.exp_ns_per_entry"] = _ns_per_entry(
        trace, "kernels.exp", ExponentialCovariance(theta0[0], theta0[1]), blocks
    )
    m["kernels.distance_ns_per_entry"] = _ns_per_entry(
        trace,
        "kernels.distance",
        lambda targets: pairwise_distance(targets, p.locations),
        [p.requests[0][0].targets] * 200,
    )

    ev(theta0)  # fills the evaluator's own distance cache
    reps = _Reps(trace)
    values: List[float] = []

    def plain_op(rep: int, theta) -> None:
        reps.timed("mle.eval_plain", rep, lambda: ev(theta))

    def traced_op(rep: int, theta) -> None:
        with trace.span("mle.op", op_id=rep):  # what a traced op adds: one harness span
            values.append(reps.timed("mle.eval", rep, lambda: ev(theta)))

    for rep in range(REPS):
        if not reps.open("mle.eval"):
            break
        theta = p.thetas[rep % len(p.thetas)]
        _replay_layers(reps, rep, p, rt, cache, theta, m)
        # The second evaluation of a theta runs a little faster than the
        # first; alternate which of the pair goes first.
        for op in (plain_op, traced_op) if rep % 2 == 0 else (traced_op, plain_op):
            op(rep, theta)
        reps.timed("mle.direct", rep, lambda: _fused_direct(p, rt, theta))

    for name in ("gen_tiles", "compress", "tlr_chol_serial", "tlr_chol_rt",
                 "tile_chol_serial", "tile_chol_rt"):
        m[f"linalg.{name}_s"] = reps.p50(f"linalg.{name}")
    m["linalg.solve_ms"] = reps.p50("linalg.solve") * 1e3
    chol = "tlr_chol" if w.variant == "tlr" else "tile_chol"
    m["runtime.parallel_speedup"] = m[f"linalg.{chol}_serial_s"] / m[f"linalg.{chol}_rt_s"]
    op_s = reps.p50("mle.eval_plain")
    m["mle.eval_overhead_ms"] = (op_s - reps.p50("mle.direct")) * 1e3
    m["mle.eval_fail_share"] = ev.n_failures / ev.n_evals
    evals = {
        "values": values,
        "p50_s": op_s,
        "trace_overhead": reps.p50("mle.op") / op_s - 1.0,
        "serial_op_s": (
            m["linalg.gen_tiles_s"]
            + (m["linalg.compress_s"] if w.variant == "tlr" else 0.0)
            + m[f"linalg.{chol}_serial_s"]
            + m["linalg.solve_ms"] / 1e3
        ),
    }

    with Runtime(num_workers=p.workers, trace=True) as counted:
        MLEstimator(
            p.locations, p.z, model=p.model(None), variant=w.variant, acc=w.acc,
            tile_size=w.nb, runtime=counted, use_morton=False,
        ).evaluator(theta0)
        m["runtime.tasks_per_op"] = float(len(counted.trace))

    predicted = predict_workload(
        default_profile(), n, variant=w.variant, nb=w.nb, acc=p.acc
    )["fit_iteration"]["total_s"]
    m["perfmodel.pred_over_meas"] = predicted / op_s
    return m, evals


# --------------------------------------------------------------------------
# serving: bundle -> engine -> registry -> service -> HTTP
# --------------------------------------------------------------------------
def build_bundle(p: Problem, theta, path: Path) -> Path:
    """Factor the problem at ``theta`` and persist it as a serving bundle."""
    w = p.workload
    engine = PredictionEngine(
        p.locations, p.z, p.model(theta), variant=w.variant, acc=w.acc, tile_size=w.nb
    )
    return ModelBundle(
        model=engine.model, locations=p.locations, z=p.z, variant=w.variant,
        acc=w.acc, tile_size=w.nb, factor=engine.factor(),
    ).save(path)


def _request_arrays(request: Request) -> Dict[str, np.ndarray]:
    """The arrays a binary-transport predict puts on the wire."""
    if request.z is None:
        return {"targets": request.targets}
    return {"targets": request.targets, "z": request.z}


def wire_bytes(request: Request, prediction: np.ndarray) -> int:
    """Encoded request + response bytes of one binary-transport predict."""
    sent = wire.encoded_length({"model_id": MODEL_ID}, _request_arrays(request))
    received = wire.encoded_length(
        {"model_id": MODEL_ID, "degraded": False, "worker": 0}, {"prediction": prediction}
    )
    return sent + received


async def _service_latencies(path: Path, requests: Sequence[Request]) -> Tuple[List[float], float]:
    """Per-request seconds through an in-process service, and the warm
    registry lookup in seconds."""
    with ModelRegistry() as registry:
        registry.register(MODEL_ID, path)
        registry.engine(MODEL_ID)
        t0 = time.perf_counter()
        for _ in range(1000):
            registry.engine(MODEL_ID)
        lookup = (time.perf_counter() - t0) / 1000
        out = []
        async with PredictionService(registry) as service:
            await service.predict(MODEL_ID, requests[0].targets)
            spent = 0.0
            for r in requests:
                t0 = time.perf_counter()
                await service.predict(MODEL_ID, r.targets, z=r.z)
                out.append(time.perf_counter() - t0)
                spent += out[-1]
                if spent > LAYER_BUDGET_S:
                    break
        return out, lookup


def walk_serving(
    trace: Trace, p: Problem, paths: Sequence[Path], workdir: Path
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Everything between a saved fit and an HTTP answer.

    ``paths`` are the bundles the served model alternates between (two on
    ``serve_points``, else one); they were saved by the caller. Returns
    the layer metrics and the checked summary of the traced burst of the
    workload's own traffic (see :func:`perfledger.traffic.summarize`).
    """
    w = p.workload
    m: Dict[str, float] = {}
    sample = p.requests[0][:REPS]

    # bundle + engine, in process
    bundle = ModelBundle.load(paths[0])
    with trace.span("serving.bundle_save") as s:
        bundle.save(workdir / "bundle-resaved")
    m["serving.bundle_save_s"] = s["end"] - s["start"]
    with trace.span("serving.bundle_load") as s:
        engine = PredictionEngine.from_bundle(paths[0])
    m["serving.bundle_load_s"] = s["end"] - s["start"]
    cold = PredictionEngine(
        p.locations, p.z, engine.model, variant=w.variant, acc=w.acc, tile_size=w.nb
    )
    with trace.span("mle.engine_factor") as s:
        cold.factor()
    m["mle.engine_factor_s"] = s["end"] - s["start"]

    reps = _Reps(trace)
    newz = inputs.stream(0, "walk-newz").standard_normal(p.locations.shape[0])
    predictions = []
    for rep, r in enumerate(sample):
        if not reps.open("mle.engine_predict"):
            break
        predictions.append(
            reps.timed("mle.engine_predict", rep, lambda: engine.predict(r.targets, z=r.z))
        )
        reps.timed("mle.engine_predict_newz", rep, lambda: engine.predict(r.targets, z=newz))
    m["mle.engine_predict_ms"] = reps.p50("mle.engine_predict") * 1e3
    m["mle.engine_predict_newz_ms"] = reps.p50("mle.engine_predict_newz") * 1e3
    m["serving.wire_bytes_per_req"] = float(
        median([wire_bytes(r, pred) for r, pred in zip(sample, predictions)])
    )
    with trace.span("serving.wire_codec"):  # on this workload's own request payload
        encoded = wire.encode_message({"model_id": MODEL_ID}, _request_arrays(sample[0]))
        wire.read_message(io.BytesIO(encoded).read)

    # the merged request stream through one in-process engine: cache behaviour
    replay = PredictionEngine.from_bundle(paths[0])
    merged = [r for group in zip(*(stream[:64] for stream in p.requests)) for r in group]
    spent = 0.0
    for r in merged:
        t0 = time.perf_counter()
        replay.predict(r.targets, z=r.z)
        spent += time.perf_counter() - t0
        if spent > LAYER_BUDGET_S:
            break
    cross = replay.stats()["cross_cache"]
    m["linalg.crosscache_hit_share"] = cross["hits"] / (cross["hits"] + cross["misses"])

    # registry + service, in process
    with trace.span("serving.service"):
        service_lat, lookup = asyncio.run(_service_latencies(paths[0], sample))
    m["serving.registry_get_us"] = lookup * 1e6
    m["serving.service_predict_ms"] = median(service_lat) * 1e3
    m["serving.service_overhead_ms"] = (
        m["serving.service_predict_ms"] - m["mle.engine_predict_ms"]
    )

    # over HTTP: one unloaded client, then the workload's own traffic
    with Program() as program:
        program.ready()
        with trace.span("serving.boot") as s:
            url = program.call("serve_start", models={MODEL_ID: str(paths[0])})["url"]
            with ServingClient(url, transport="binary") as client:
                client.health()
        m["serving.boot_s"] = s["end"] - s["start"]
        with ServingClient(url, transport="binary") as client:
            client.predict(MODEL_ID, sample[0].targets)
            for transport, name in (("binary", "serving.http_predict"),
                                    ("json", "serving.http_json_predict")):
                for rep, r in enumerate(sample):
                    if not reps.open(name):
                        break
                    reps.timed(
                        name, rep,
                        lambda: client.predict(MODEL_ID, r.targets, z=r.z, transport=transport),
                    )
        m["serving.http_predict_ms"] = reps.p50("serving.http_predict") * 1e3
        m["serving.http_json_predict_ms"] = reps.p50("serving.http_json_predict") * 1e3
        m["serving.http_overhead_ms"] = (
            m["serving.http_predict_ms"] - m["serving.service_predict_ms"]
        )

        with ServingClient(url) as admin:
            before = admin.metrics()["aggregate"]["counters"]
            burst = drive(
                url, p.requests, paths, count=BURST_OPS, budget_s=2 * LAYER_BUDGET_S,
                reload_every=REPS, trace=trace,
            )
            after = admin.metrics()["aggregate"]["counters"]
        program.call("serve_stop")
    summary = summarize(burst, [PredictionEngine.from_bundle(path) for path in paths])
    m["serving.reload_ms"] = median(summary["reloads"]) * 1e3
    m["serving.shed_share"] = summary["shed"] / summary["attempted"]

    def during_burst(counter: str) -> int:
        return after.get(counter, 0) - before.get(counter, 0)

    m["serving.engine_calls_per_req"] = during_burst("engine_calls") / during_burst("requests")
    m["serving.coalesced_share"] = during_burst("coalesced_requests") / during_burst("requests")
    return m, summary
