"""Serving subsystem: persisted fits, a model registry, and an async service.

The paper's end goal is prediction: ExaGeoStat fits the Matérn model
once, then kriges many unknown measurements from it (§III, Fig. 5).
This package turns the PR-2 :class:`~repro.mle.prediction_engine.
PredictionEngine` — fast but trapped inside the process that ran
``fit()`` — into a serving story:

* :mod:`repro.serving.store` — :class:`ModelBundle`, a ``meta.json`` +
  ``arrays.npz`` persistence format for fitted models (theta, kernel
  spec, Morton-ordered locations, observations, substrate config, and
  optionally the ``Sigma_22`` Cholesky factor and distance caches), so
  a fit survives restarts and ships to serving workers;
* :mod:`repro.serving.registry` — :class:`ModelRegistry`, a thread-safe
  LRU-bounded keeper of warm engines, sharding models across runtime
  worker pools;
* :mod:`repro.serving.service` — :class:`PredictionService`, an asyncio
  micro-batcher that coalesces concurrent predict requests for one
  model into single stacked-target engine calls, with backpressure and
  per-request deadlines; its counters and latency
  histogram (``service.metrics``) are :mod:`repro.telemetry.metrics`
  instruments;
* :mod:`repro.serving.wire` — the ``application/x-repro-npy`` framed
  binary format: raw little-endian float64 payloads, streamed in
  bounded chunks, bit-identical where strict JSON cannot even
  represent the values (NaN/inf) and several times smaller on the
  wire;
* :mod:`repro.serving.server` — :class:`ServingServer`, an HTTP
  front-end that spawns worker *processes* (each hosting a registry +
  service), shards model ids onto them with the registry's stable
  hash, and exposes predict / metrics / hot-reload endpoints over
  JSON or the negotiated binary transport, including model
  register-by-upload (:mod:`repro.serving.edge` holds its HTTP route
  table and handler, :mod:`repro.serving.worker` the worker process
  and the pipe protocol);
* :mod:`repro.serving.client` — :class:`ServingClient`, the matching
  stdlib HTTP client with typed error mapping, per-call transport
  selection, and one keep-alive connection per client.

Fit → save → serve (in process):

>>> est = MLEstimator(locs, z, variant="tlr")          # doctest: +SKIP
>>> fit = est.fit()                                    # doctest: +SKIP
>>> est.save_fit(fit, "fits/soil.bundle")              # doctest: +SKIP
>>> registry = ModelRegistry().register("soil", "fits/soil.bundle")  # doctest: +SKIP
>>> async with PredictionService(registry) as svc:     # doctest: +SKIP
...     pred = await svc.predict("soil", targets)

Over HTTP, across worker processes:

>>> with ServingServer({"soil": "fits/soil.bundle"}) as server:  # doctest: +SKIP
...     client = ServingClient(server.url)
...     pred = client.predict("soil", targets)         # bit-identical
...     client.reload("soil")                          # hot-swap the bundle
"""

from .client import ServingClient
from .registry import ModelRegistry
from .server import ServingServer
from .service import PredictionService
from .store import ModelBundle, bundle_from_fit, load_model, save_model

__all__ = [
    "ModelBundle",
    "ModelRegistry",
    "PredictionService",
    "ServingClient",
    "ServingServer",
    "bundle_from_fit",
    "load_model",
    "save_model",
]
