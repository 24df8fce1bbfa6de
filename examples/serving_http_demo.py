#!/usr/bin/env python
"""Fit → save → serve over HTTP → concurrent clients → hot-reload.

``examples/serving_demo.py`` serves a persisted fit inside one process.
This demo runs the full production shape on top of it:

1. **Plan before you fit**: :func:`repro.plan` micro-calibrates this
   host (seconds of seeded probes, cached for the process) and searches
   the fitted performance model for the cheapest feasible config — the
   fit below adopts the planned tile size instead of a guess. The same
   search is served by ``GET /v1/plan`` once the server is up.
2. **Fit** a Matérn model by TLR MLE and **save** it as a bundle.
3. **Serve** it from a :class:`~repro.serving.ServingServer` — worker
   *processes* (each hosting a registry + micro-batching service)
   behind a stdlib HTTP front-end that shards model ids onto workers
   by stable hash.
4. **Concurrent clients**: a pool of threads, each with its own
   :class:`~repro.serving.ServingClient`, hammers the endpoint; every
   response is verified **bit-identical** to calling
   ``MLEstimator.predict`` in the fitting process — JSON's float
   encoding round-trips every finite float64 exactly.
5. **Binary transport**: the same predict over
   ``application/x-repro-npy`` — raw little-endian float64 frames,
   streamed both ways, pipelined over one connection — bit-identical
   to the JSON answer and several times smaller on the wire (map-grid
   targets deflate on top).
6. **Hot-reload**: the model is re-fitted (here: refit at a nudged
   theta), saved, and swapped in via ``POST /v1/models/<id>/reload``
   while clients keep hammering — zero failed requests; traffic drains
   from old-engine answers to new-engine answers.
7. **Reading a trace**: telemetry is armed before the server starts
   (one ``configure(enabled=True)`` — workers inherit it), so every
   request can answer "where did my time go". The client opens a
   trace, predicts once, and fetches ``GET /v1/trace/<id>``: one
   connected tree from ``client.predict`` through the router, the
   owning worker process, the batching service, and the engine, with
   per-phase durations. ``GET /v1/metrics?format=prometheus`` renders
   the fleet-merged counters/histograms as standard exposition text.

Run:  python examples/serving_http_demo.py
"""

from __future__ import annotations

import concurrent.futures
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator, PredictionEngine
from repro.perfmodel import Planner, default_profile
from repro.serving import ServingClient, ServingServer, wire
from repro.telemetry import configure_telemetry
from repro.telemetry import context as trace_context

N_TRAIN = 400
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 6
MODEL_ID = "matern-tlr"


def main() -> None:
    rng = np.random.default_rng(7)
    locs, _, _ = sort_locations(generate_irregular_grid(N_TRAIN, seed=0))
    truth = MaternCovariance(1.0, 0.12, 0.5)
    z = sample_gaussian_field(locs, truth, seed=1)

    # -- 1. plan before you fit: micro-calibrate this host (~1 s of
    # seeded probes, cached for the process) and let the fitted model
    # choose the tile size. The ladder is capped so the TLR substrate
    # keeps several tiles per side at this small n.
    tuned = Planner(default_profile()).plan(
        N_TRAIN, substrate="tlr", accuracy=1e-7, tile_sizes=(50, 80, 100, 134)
    )
    predicted = tuned.predicted["fit_iteration"]["total_s"]
    print(
        f"planned config: nb={tuned.tile_size}, "
        f"predicted fit iteration {predicted * 1e3:.1f} ms"
    )

    # -- 2. fit + save (at the planned tile size)
    est = MLEstimator(locs, z, variant="tlr", acc=1e-7, tile_size=tuned.tile_size)
    fit = est.fit(maxiter=40)
    print(f"fitted theta = {np.round(fit.theta, 4)}  ({fit.n_evals} evaluations)")

    targets = [
        np.ascontiguousarray(rng.random((20, 2))) for _ in range(N_CLIENTS)
    ]
    references = [est.predict(fit, t) for t in targets]

    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = est.save_fit(fit, Path(tmp) / f"{MODEL_ID}.bundle")
        print(f"saved bundle to {bundle_path.name}")

        # -- 3. serve: worker processes behind an HTTP router.
        # Telemetry armed up front: workers spawned by this server
        # inherit it, so step 7 can assemble cross-process traces.
        configure_telemetry(enabled=True)
        with ServingServer(
            {MODEL_ID: bundle_path},
            num_workers=2,
            service_options={"max_batch": 16},
        ) as server:
            print(f"serving on {server.url} "
                  f"(model on worker {server.worker_for(MODEL_ID)})")

            # The planner is also served: ops can ask the running fleet
            # what config a future workload should use (router-side, no
            # worker round-trip, same calibrated profile as step 1).
            with ServingClient(server.url) as admin:
                over_http = admin.plan(N_TRAIN, substrate="tlr")
            print(f"GET /v1/plan?n={N_TRAIN}: {over_http['config']}")

            # -- 4. concurrent clients, bit-identity verified per response
            def hammer(idx: int) -> float:
                with ServingClient(server.url) as client:
                    t0 = time.perf_counter()
                    for _ in range(REQUESTS_PER_CLIENT):
                        pred = client.predict(MODEL_ID, targets[idx], deadline=30.0)
                        assert np.array_equal(pred, references[idx]), \
                            "HTTP serving must be bit-identical"
                    return (time.perf_counter() - t0) / REQUESTS_PER_CLIENT

            with concurrent.futures.ThreadPoolExecutor(N_CLIENTS) as pool:
                latencies = list(pool.map(hammer, range(N_CLIENTS)))
            with ServingClient(server.url) as admin:
                counters = admin.metrics()["aggregate"]["counters"]
            print(
                f"served {counters['completed']} requests from {N_CLIENTS} "
                f"concurrent clients in {counters['engine_calls']} engine calls"
            )
            print(f"mean client latency {np.mean(latencies) * 1e3:.1f} ms")
            print("every HTTP response bit-identical to the fitting process: yes")

            # -- 5. binary transport: bit-identical, smaller, pipelined
            k = 80
            xs = np.linspace(0.0, 1.0, k)
            gx, gy = np.meshgrid(xs, xs, indexing="ij")
            grid = np.column_stack([gx.ravel(), gy.ravel()])  # the map to krige
            json_bytes = len(
                json.dumps(
                    {"model_id": MODEL_ID, "targets": grid.tolist()}
                ).encode()
            )
            binary_bytes = wire.encoded_length(
                {"model_id": MODEL_ID}, {"targets": grid}
            )
            with ServingClient(server.url, transport="binary") as bclient, \
                 ServingClient(server.url) as jclient:
                t0 = time.perf_counter()
                via_binary = bclient.predict(MODEL_ID, grid, deadline=30.0)
                binary_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                via_json = jclient.predict(MODEL_ID, grid, deadline=30.0)
                json_s = time.perf_counter() - t0
                assert np.array_equal(via_binary, via_json), \
                    "transports must be bit-identical"
                pipelined = bclient.predict_pipelined(
                    [{"model_id": MODEL_ID, "targets": t} for t in targets]
                )
                for got, ref in zip(pipelined, references):
                    assert np.array_equal(got, ref)
            print(
                f"binary transport: {k * k:,}-target map request "
                f"{json_bytes:,} B as JSON -> {binary_bytes:,} B framed "
                f"({json_bytes / binary_bytes:.1f}x smaller), "
                f"{json_s * 1e3:.0f} ms -> {binary_s * 1e3:.0f} ms, bit-identical"
            )
            print(f"pipelined {len(targets)} predicts on one connection: "
                  "all bit-identical")

            # -- 6. hot-reload under traffic
            refit = MLEstimator(locs, z, variant="tlr", acc=1e-7, tile_size=tuned.tile_size)
            fit2 = refit.fit(maxiter=60)  # the "nightly refit"
            new_path = refit.save_fit(fit2, Path(tmp) / f"{MODEL_ID}-v2.bundle")
            new_refs = [refit.predict(fit2, t) for t in targets]

            stop = False
            served = {"old": 0, "new": 0}

            def background_traffic() -> None:
                with ServingClient(server.url) as client:
                    while not stop:
                        out = client.predict(MODEL_ID, targets[0])
                        if np.array_equal(out, references[0]):
                            served["old"] += 1
                        else:
                            assert np.array_equal(out, new_refs[0])
                            served["new"] += 1

            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(background_traffic) for _ in range(2)]
                time.sleep(0.05)
                with ServingClient(server.url) as admin:
                    t0 = time.perf_counter()
                    admin.reload(MODEL_ID, new_path)
                    reload_s = time.perf_counter() - t0
                time.sleep(0.05)
                stop = True
                for f in futures:
                    f.result()  # raises if any request failed mid-swap
            print(
                f"hot-reload in {reload_s * 1e3:.0f} ms under traffic: "
                f"{served['old']} old-engine + {served['new']} new-engine "
                f"answers, 0 failures"
            )
            assert np.array_equal(
                ServingClient(server.url).predict(MODEL_ID, targets[0]), new_refs[0]
            )
            print("post-reload traffic serves the re-fitted model: yes")

            # -- 7. reading a trace: where did one predict spend its time?
            with ServingClient(server.url) as client:
                ctx = trace_context.new_trace()
                with trace_context.activate(ctx):
                    client.predict(MODEL_ID, targets[0])
                tree = client.trace(ctx.trace_id)
                exposition = client.metrics(format="prometheus")

            print(f"trace {ctx.trace_id}: {tree['span_count']} spans")

            def show(node: dict, depth: int = 0) -> None:
                print(
                    f"  {'  ' * depth}{node['name']:<{30 - 2 * depth}} "
                    f"{node['duration'] * 1e3:8.3f} ms  (pid {node['pid']})"
                )
                for child in node["children"]:
                    show(child, depth + 1)

            for root in tree["tree"]:
                show(root)
            service_lines = [
                line for line in exposition.splitlines()
                if line.startswith("repro_service_") and "_bucket" not in line
            ]
            print("prometheus exposition (service family):")
            for line in service_lines:
                print(f"  {line}")


if __name__ == "__main__":
    main()
