"""Multi-process HTTP serving: worker processes behind a sharding router.

The PR-3 serving stack — :class:`~repro.serving.store.ModelBundle`,
:class:`~repro.serving.registry.ModelRegistry`,
:class:`~repro.serving.service.PredictionService` — lives inside one
process. This module scales it out with nothing but the standard
library:

* :class:`ServingServer` spawns ``num_workers`` processes via
  :mod:`multiprocessing`. Each worker hosts its own registry + asyncio
  micro-batching service and owns the models whose stable hash
  (:func:`~repro.serving.registry._stable_shard` — the same function
  the registry uses for runtime shards) lands on its index, so a model
  id maps to the same worker across restarts and across the fleet.
* An HTTP front-end (stdlib :class:`~http.server.ThreadingHTTPServer`)
  routes requests to the owning worker over a :class:`multiprocessing
  .connection.Connection` pipe. Arrays cross the pipe pickled — bit
  exact — and cross HTTP as JSON, whose ``repr``-based float encoding
  round-trips every finite ``float64`` exactly, so served predictions
  are **bit-identical** to in-process
  :meth:`~repro.mle.prediction_engine.PredictionEngine.predict`.
* **Hot-reload**: ``POST /v1/models/<id>/reload`` calls
  :meth:`ModelRegistry.reload` inside the owning worker — the
  replacement engine is built off-lock and swapped atomically, so
  in-flight requests finish on the old engine and later requests see
  the new one, with zero failed requests across the swap.
* **Worker auto-restart**: a worker process that dies (OOM, kill) is
  respawned on demand with its shard's models re-registered, and the
  request that observed the death is retried once on the fresh worker —
  a crash costs latency, not availability.
* **Fitting service**: the router process hosts a
  :class:`~repro.fitting.orchestrator.FitOrchestrator`; ``POST
  /v1/fit`` submits a durable fit job (fresh fit, refit on new
  observations, or warm-start refit of a served model), ``GET
  /v1/jobs/<id>`` reports status + the per-iteration log-likelihood
  trace, and a finished job's bundle is hot-reloaded into the owning
  worker under its target model id — the full observe → refit → serve
  loop with zero downtime.

Endpoints
---------
``POST /v1/predict``
    ``{"model_id", "targets", "z"?, "deadline"?, "priority"?}`` →
    ``{"model_id", "prediction", "worker"}``. Speaks two transports,
    negotiated per side (see :mod:`repro.serving.wire`): a
    ``Content-Type: application/x-repro-npy`` request body is a binary
    framed message (meta + raw float64 ``targets``/``z`` arrays), and
    an ``Accept: application/x-repro-npy`` response is the prediction
    streamed back as chunked binary frames — bit-exact, several times smaller
    than JSON, decoded into one preallocated array. JSON stays the
    default (and the debug surface); error responses are always JSON.
``GET /healthz``
    Liveness of the router and every worker process.
``GET /v1/models``
    Model ids known to each worker.
``GET /v1/metrics``
    Per-worker service metrics + registry stats, plus fleet aggregates.
    ``?format=prometheus`` renders the merged telemetry registries of
    router + workers in Prometheus text exposition 0.0.4 instead.
``GET /v1/trace/<trace_id>``
    The assembled span tree of one request trace, joined across the
    router and every worker process (telemetry must be armed — see
    :mod:`repro.telemetry`).
``GET /v1/plan``
    Self-tuning planner: ``?n=<locations>&m=<targets>&substrate=<auto|
    full-block|full-tile|tlr>&accuracy=<eps>`` → the cheapest feasible
    configuration (tile size, TLR accuracy, compression batch, worker
    count, batching window) with predicted per-phase times, computed
    router-side (no worker round-trip) from the host's persisted
    :class:`~repro.perfmodel.autotune.CalibrationProfile`. Invalid
    requests are 400 (:class:`~repro.exceptions.PlanError`); a broken
    profile is 500 (:class:`~repro.exceptions.CalibrationError`).
``POST /v1/models/<id>``
    Register a bundle path on the owning worker: ``{"path"}`` — or,
    with a binary Content-Type, register-by-upload: the body is the
    bundle itself (:meth:`ModelBundle.to_payload` as a wire message),
    persisted server-side and registered atomically.
``POST /v1/models/<id>/reload``
    Hot-swap the model's bundle: ``{"path"?}`` (default: re-read the
    registered path).
``POST /v1/models/<id>/policy``
    Per-model batching knobs: ``{"batch_window"?, "max_batch"?}``.
``POST /v1/fit``
    Submit a fit job: ``{"model_id"?, "from_model"?, "bundle_path"?,
    "locations"?, "z"?, "model"?, "variant"?, "acc"?, "tile_size"?,
    "maxiter"?, "ftol"?, "xtol"?, "n_starts"?, "seed"?, "x0"?,
    "bounds"?, "warm_start"?, ...}`` → ``{"job_id", "status",
    "model_id"}``.
``GET /v1/jobs``
    State summaries of every fit job.
``GET /v1/jobs/<id>``
    One job's full record: status, timestamps, result, per-start
    per-iteration ``(iteration, loglik, theta)`` trace, bundle path,
    and whether it has been published to its serving worker.

Error responses are ``{"error": {"type", "message"}}`` with a status
code per exception type; :class:`~repro.serving.client.ServingClient`
re-raises the matching typed exception.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import urllib.parse
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import (
    CalibrationError,
    CircuitOpenError,
    ConfigurationError,
    FittingError,
    LoadShedError,
    ModelNotFoundError,
    PayloadTooLargeError,
    PlanError,
    PredictionError,
    ServerError,
    ServiceClosedError,
    TraceNotFoundError,
    WireFormatError,
    exception_from_wire,
    status_for_exception,
)
from ..fitting.jobs import FitJobSpec, JobStore
from ..fitting.orchestrator import FitOrchestrator
from ..resilience.breaker import AdmissionGate, CircuitBreaker
from ..resilience.faults import fault_point
from ..resilience.policy import Deadline, RetryPolicy
from ..telemetry import context as _trace_context
from ..telemetry import metrics as _registry_mod
from ..telemetry import spans as _telemetry
from ..telemetry.export import assemble_trace, render_prometheus
from ..utils.logging import get_logger
from . import wire
from .registry import ModelRegistry, _stable_shard
from .service import PredictionService, registry_view
from .store import ModelBundle

__all__ = ["ServingServer"]

logger = get_logger(__name__)


def _path_within(path: Union[str, Path], root: Union[str, Path]) -> bool:
    """True when ``path`` is ``root`` or lives under it.

    Separator-aware, unlike a bare ``startswith``: a sibling directory
    sharing the prefix (``/data/uploads-keep`` vs ``/data/uploads``)
    must NOT count as inside — misclassifying it as ephemeral would
    delete a durable bundle's rollback path on :meth:`ServingServer.stop`.
    """
    path_s, root_s = str(path), str(root).rstrip(os.sep) or os.sep
    return path_s == root_s or path_s.startswith(root_s + os.sep)


_READY = -1  # sentinel request id for the worker's startup handshake


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(conn, config: dict) -> None:
    """Entry point of one worker process: registry + service + pipe loop."""
    import asyncio

    # Arm telemetry from the router's resolved settings (not this
    # process's env/config): a spawn-started worker has no inherited
    # globals, and a fork-started one must get a *fresh* recorder
    # rather than the router's copied span ring.
    telem = config.get("telemetry")
    if telem is not None:
        _telemetry.configure(
            enabled=telem.get("enabled", False),
            max_spans=telem.get("max_spans"),
            sink_dir=telem.get("sink_dir"),
        )

    async def run() -> None:
        registry = ModelRegistry(**config.get("registry", {}))
        for model_id, path in config.get("models", {}).items():
            registry.register(model_id, path)
        policies = config.get("policies", {})
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        send_lock = threading.Lock()

        def send(msg: tuple) -> None:
            with send_lock:
                try:
                    conn.send(msg)
                except (BrokenPipeError, OSError):  # router is gone; shut down
                    loop.call_soon_threadsafe(stop_event.set)

        async with PredictionService(registry, **config.get("service", {})) as service:
            # Reinstall per-model policies on (re)spawn — the router's
            # map is the source of truth, so a worker crash cannot
            # silently revert a model to default batching.
            for model_id, policy in policies.items():
                service.set_policy(model_id, **policy)

            async def handle(op: str, req_id: int, payload: dict) -> None:
                try:
                    fault_point("worker.pipe")
                    result = await dispatch(op, payload)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded to router
                    send((req_id, "err", (type(exc).__name__, str(exc))))
                else:
                    send((req_id, "ok", result))

            async def do_predict(payload: dict) -> dict:
                value, flags = await service.predict(
                    payload["model_id"],
                    payload["targets"],
                    z=payload.get("z"),
                    deadline=payload.get("deadline"),
                    priority=payload.get("priority", 0),
                    detail=True,
                )
                return {"prediction": value, "degraded": flags["degraded"]}

            async def dispatch(op: str, payload: dict) -> Any:
                if op == "predict":
                    ctx = (
                        _trace_context.from_wire(payload.get("trace"))
                        if _telemetry.enabled()
                        else None
                    )
                    if ctx is None:
                        return await do_predict(payload)
                    # Each dispatched coroutine runs in its own copied
                    # context (run_coroutine_threadsafe), so activating
                    # the remote parent here cannot leak into another
                    # in-flight request.
                    with _trace_context.activate(ctx):
                        with _telemetry.span(
                            "worker.predict",
                            model=str(payload["model_id"]),
                            worker=config.get("worker_id", 0),
                        ):
                            return await do_predict(payload)
                if op == "reload":
                    # Blocking work (disk read + engine build + possible
                    # factorization) stays off the event loop so predicts
                    # keep flowing — the whole point of hot-reload.
                    await loop.run_in_executor(
                        None,
                        partial(
                            registry.reload, payload["model_id"], path=payload.get("path")
                        ),
                    )
                    return {"model_id": payload["model_id"], "reloads": registry.n_reloads}
                if op == "register":
                    registry.register(payload["model_id"], payload["path"])
                    return {"model_id": payload["model_id"]}
                if op == "policy":
                    service.set_policy(
                        payload["model_id"],
                        batch_window=payload.get("batch_window"),
                        max_batch=payload.get("max_batch"),
                    )
                    window, max_batch = service.effective_policy(payload["model_id"])
                    return {"batch_window": window, "max_batch": max_batch}
                if op == "models":
                    return registry.known_models
                if op == "metrics":
                    return {
                        "service": service.metrics.snapshot(),
                        "registry": registry.stats(),
                        "breakers": service.breaker_states(),
                    }
                if op == "trace":
                    recorder = _telemetry.get_recorder()
                    spans = (
                        recorder.for_trace(payload["trace_id"])
                        if recorder is not None
                        else []
                    )
                    return {"spans": spans}
                if op == "ping":
                    return "pong"
                raise ServerError(f"unknown worker op {op!r}")

            def reader() -> None:
                while True:
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        msg = ("stop", 0, None)
                    if msg[0] == "stop":
                        loop.call_soon_threadsafe(stop_event.set)
                        return
                    op, req_id, payload = msg
                    asyncio.run_coroutine_threadsafe(handle(op, req_id, payload), loop)

            send((_READY, "ok", config.get("worker_id", 0)))
            reader_thread = threading.Thread(
                target=reader, name="repro-worker-reader", daemon=True
            )
            reader_thread.start()
            await stop_event.wait()
        registry.close()

    asyncio.run(run())
    try:
        conn.close()
    except OSError:  # pragma: no cover - best effort
        pass


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------


class _Slot:
    """One in-flight router→worker request awaiting its response."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class _WorkerHandle:
    """Router-side proxy for one worker process.

    HTTP handler threads multiplex over the single pipe: sends are
    serialized by a lock and tagged with a request id; a dedicated
    reader thread matches responses back to the waiting thread's slot.
    Concurrent requests therefore overlap inside the worker — which is
    what lets its micro-batcher coalesce them.
    """

    def __init__(self, ctx, worker_id: int, config: dict) -> None:
        self.worker_id = worker_id
        # A fresh handle starts with a fresh, closed breaker: respawning
        # a dead worker resets its transport-failure history.
        self.breaker = CircuitBreaker()
        parent_conn, child_conn = ctx.Pipe()
        config = dict(config, worker_id=worker_id)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config),
            name=f"repro-serving-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        self._send_lock = threading.Lock()
        self._pending: Dict[int, _Slot] = {}
        self._pending_lock = threading.Lock()
        self._ids = itertools.count()
        self._dead = False
        self.last_metrics: Optional[dict] = None  # retained if the worker dies
        self.ready = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-router-reader-{worker_id}", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------- requests
    def request(self, op: str, payload: Optional[dict] = None, timeout: float = 120.0):
        """Send one op to the worker and block for its typed response."""
        if self._dead:
            raise ServerError(f"worker {self.worker_id} is not running")
        req_id = next(self._ids)
        slot = _Slot()
        with self._pending_lock:
            self._pending[req_id] = slot
        try:
            with self._send_lock:
                self._conn.send((op, req_id, payload or {}))
        except (BrokenPipeError, OSError) as exc:
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise ServerError(f"worker {self.worker_id} pipe is closed") from exc
        if not slot.event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise ServerError(
                f"worker {self.worker_id} did not answer {op!r} within {timeout}s"
            )
        if slot.error is not None:
            raise slot.error
        return slot.result

    def _read_loop(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError):
                self._dead = True
                self._fail_all(ServerError(f"worker {self.worker_id} terminated"))
                # Wake anyone blocked on the startup handshake — start()
                # re-checks `alive` and reports the crash immediately
                # instead of sitting out its full ready timeout.
                self.ready.set()
                return
            req_id, status, payload = msg
            if req_id == _READY:
                self.ready.set()
                continue
            with self._pending_lock:
                slot = self._pending.pop(req_id, None)
            if slot is None:  # timed out meanwhile; drop the late answer
                continue
            if status == "ok":
                slot.result = payload
            else:
                slot.error = exception_from_wire(*payload)
            slot.event.set()

    def _fail_all(self, exc: BaseException) -> None:
        with self._pending_lock:
            pending, self._pending = dict(self._pending), {}
        for slot in pending.values():
            slot.error = exc
            slot.event.set()

    # ------------------------------------------------------------ lifecycle
    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop; escalate to terminate if the worker hangs."""
        try:
            with self._send_lock:
                self._conn.send(("stop", 0, None))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(5.0)
        self._dead = True
        self._fail_all(ServerError(f"worker {self.worker_id} stopped"))
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - best effort
            pass


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to worker pipes.

    With ``protocol_version = "HTTP/1.1"`` the stdlib reuses ONE
    handler instance for every keep-alive request on a connection
    (``handle()`` loops ``handle_one_request`` on self), so any
    per-request state must be reset per request, not per instance.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"

    # The ThreadingHTTPServer subclass below carries the owning
    # ServingServer as `owner`.

    def handle_one_request(self) -> None:  # noqa: D102 - stdlib API
        # Per-request state. Stale _streamed from a previous request on
        # this connection would make _safe_error drop the connection
        # instead of replying; stale _body_read would defeat the
        # close-on-unread-body guard and desync keep-alive framing.
        self._streamed = False
        self._body_read = False
        super().handle_one_request()

    def log_message(self, fmt: str, *args: object) -> None:  # noqa: D102 - quiet
        pass

    # ---------------------------------------------------------------- plumbing
    def _content_length(self) -> int:
        """The request's validated body length.

        Malformed or negative declarations raise ``ValueError`` (→ 400)
        instead of leaking as a 500; declarations over the server's
        ``max_body`` cap raise :class:`PayloadTooLargeError` (→ 413)
        *before a single body byte is read*, so an oversized upload
        costs the server a header parse, not a buffered gigabyte.
        """
        server: "ServingServer" = self.server.owner  # type: ignore[attr-defined]
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except (TypeError, ValueError):
            raise ValueError(f"malformed Content-Length header {raw!r}") from None
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length > server.max_body:
            hint = ""
            if not self._is_binary_request():
                hint = (
                    f" — the binary transport (Content-Type: {wire.CONTENT_TYPE})"
                    " is several times smaller and streamed"
                )
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the server's "
                f"{server.max_body}-byte cap (max_body=){hint}"
            )
        return length

    def _body(self) -> dict:
        length = self._content_length()
        if length == 0:
            self._body_read = True
            return {}
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _is_binary_request(self) -> bool:
        ctype = (self.headers.get("Content-Type") or "").split(";")[0].strip().lower()
        return ctype == wire.CONTENT_TYPE

    def _wants_binary(self) -> bool:
        return wire.CONTENT_TYPE in (self.headers.get("Accept") or "")

    def _read_binary(self, deadline: Optional[Deadline]):
        """Decode a binary request body into ``(meta, arrays)``.

        The read is bounded by the (already capped) Content-Length and
        decoded incrementally into preallocated arrays; a decode error
        drains the remaining body so the keep-alive connection stays
        usable for the error reply and the next request.
        """
        server: "ServingServer" = self.server.owner  # type: ignore[attr-defined]
        length = self._content_length()
        if length == 0:
            self._body_read = True
            raise WireFormatError("binary request carries an empty body")
        reader = wire.BoundedReader(self.rfile, length)
        try:
            return wire.read_message(
                reader.read, max_bytes=server.max_body, deadline=deadline
            )
        finally:
            try:
                reader.drain()
                self._body_read = True
            except OSError:
                self.close_connection = True

    def _drain_body(self) -> None:
        """Read and discard the body (unrouted requests keep framing sane)."""
        length = self._content_length()
        if length:
            wire.BoundedReader(self.rfile, length).drain()
        self._body_read = True

    def _reply(
        self, status: int, payload: dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        try:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError:
            # A non-finite float slipped past the typed checks. Plain
            # json.dumps would emit bare NaN/Infinity tokens — which are
            # not JSON and explode in strict parsers — so degrade to a
            # typed error instead of ever sending an unparseable body.
            status, headers = 500, None
            data = json.dumps(
                {
                    "error": {
                        "type": "PredictionError",
                        "message": (
                            "response contains non-finite floats that strict "
                            "JSON cannot represent; use the binary transport "
                            f"(Accept: {wire.CONTENT_TYPE}) to receive them "
                            "bit-exact"
                        ),
                    }
                }
            ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _reply_text(
        self, status: int, text: str, *, content_type: str = "text/plain"
    ) -> None:
        """Plain-text reply (the Prometheus exposition surface)."""
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply_binary(
        self,
        meta: dict,
        arrays: Dict[str, np.ndarray],
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Stream a binary message as a chunked 200 response."""
        self._streamed = True
        self.send_response(200)
        self.send_header("Content-Type", wire.CONTENT_TYPE)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        wire.write_chunked(
            self.wfile, wire.iter_message(meta, arrays), deadline=deadline
        )

    def _safe_error(self, exc: BaseException) -> None:
        """Report ``exc`` to the client without ever corrupting the stream.

        Once a chunked binary response has started, its status line is
        gone — the only honest signal left is killing the connection so
        the client sees truncation (a typed wire error) instead of a
        silently short prediction. An error raised *before* the body
        was consumed (413, malformed Content-Length) likewise closes
        the connection: unread body bytes would desync the next
        keep-alive request.
        """
        if getattr(self, "_streamed", False):
            self.close_connection = True
            return
        if not getattr(self, "_body_read", False):
            self.close_connection = True
        self._reply_error(exc)

    def _reply_error(self, exc: BaseException) -> None:
        error = {"type": type(exc).__name__, "message": str(exc)}
        headers = None
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            # Load shedding / open breakers tell clients *when* to come
            # back — both in the JSON (typed clients) and as the
            # standard header (generic HTTP clients).
            error["retry_after"] = float(retry_after)
            headers = {"Retry-After": f"{max(0.0, float(retry_after)):.3f}"}
        self._reply(status_for_exception(exc), {"error": error}, headers)

    def _reply_no_route(self) -> None:
        # 404, but as ServerError: a routing mistake must not look like a
        # missing *model* to clients that react to ModelNotFoundError.
        self._reply(
            404,
            {"error": {"type": "ServerError", "message": f"no route {self.path!r}"}},
        )

    # ------------------------------------------------------------------ routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server: "ServingServer" = self.server.owner  # type: ignore[attr-defined]
        try:
            if self.path == "/healthz":
                self._reply(200, server.health())
            elif self.path == "/v1/models":
                self._reply(200, server.models())
            elif self.path.startswith("/v1/metrics"):
                split = urllib.parse.urlsplit(self.path)
                if split.path != "/v1/metrics":
                    self._reply_no_route()
                    return
                query = urllib.parse.parse_qs(split.query)
                fmt = query.get("format", ["json"])[0]
                if fmt == "prometheus":
                    self._reply_text(
                        200,
                        server.metrics_prometheus(),
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    )
                elif fmt == "json":
                    self._reply(200, server.metrics())
                else:
                    raise ValueError(
                        f"unknown metrics format {fmt!r} (expected 'json' or "
                        "'prometheus')"
                    )
            elif self.path.startswith("/v1/trace"):
                split = urllib.parse.urlsplit(self.path)
                parts = [urllib.parse.unquote(p) for p in split.path.split("/") if p]
                if parts[:2] != ["v1", "trace"] or len(parts) != 3:
                    self._reply_no_route()
                else:
                    self._reply(200, server.trace_request(parts[2]))
            elif self.path.startswith("/v1/plan"):
                split = urllib.parse.urlsplit(self.path)
                if split.path != "/v1/plan":
                    self._reply_no_route()
                    return
                query = urllib.parse.parse_qs(split.query)
                self._reply(200, server.plan_request(query))
            elif self.path.startswith("/v1/jobs"):
                split = urllib.parse.urlsplit(self.path)
                parts = [urllib.parse.unquote(p) for p in split.path.split("/") if p]
                # Exact segment match: '/v1/jobsx' must 404, not list jobs.
                if parts[:2] != ["v1", "jobs"]:
                    self._reply_no_route()
                elif len(parts) == 2:
                    self._reply(200, {"jobs": server.jobs_request()})
                elif len(parts) == 3:
                    query = urllib.parse.parse_qs(split.query)
                    include_trace = query.get("trace", ["1"])[0] not in ("0", "false")
                    self._reply(
                        200, server.job_request(parts[2], include_trace=include_trace)
                    )
                else:
                    self._reply_no_route()
            else:
                self._reply_no_route()
        except ConnectionError:  # client went away mid-reply: drop quietly
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the client
            self._reply_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        server: "ServingServer" = self.server.owner  # type: ignore[attr-defined]
        try:
            # The deadline header is parsed at the very edge — before
            # the body is read — so streamed body reads already run
            # under the client's budget, and it wins over the body's
            # ``deadline`` field (proxies can impose a budget without
            # re-encoding the payload).
            deadline = Deadline.from_header(self.headers.get("X-Repro-Deadline"))
            if self.path == "/v1/predict":
                if not _telemetry.enabled():
                    self._predict_route(server, deadline)
                    return
                # Trace ingress, parsed at the same edge as the deadline:
                # continue the client's trace when the header parses,
                # start a fresh one otherwise, so server-side spans are
                # always connected under a single router span.
                ctx = _trace_context.from_header(
                    self.headers.get(_trace_context.TRACE_HEADER)
                )
                with _trace_context.activate(ctx or _trace_context.new_trace()):
                    with _telemetry.span("router.predict"):
                        self._predict_route(server, deadline)
                return
            if self.path == "/v1/fit":
                self._reply(200, server.fit_request(self._body()))
                return
            # Split on raw '/', then decode each segment: a model id with
            # an encoded '/' (%2F) stays one segment and routes correctly.
            parts = [urllib.parse.unquote(p) for p in self.path.split("/") if p]
            if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "models":
                if len(parts) == 3:
                    if self._is_binary_request():
                        # Register-by-upload: the body IS the bundle.
                        meta, arrays = self._read_binary(deadline)
                        self._reply(
                            200,
                            server.register_upload_request(parts[2], meta, arrays),
                        )
                    else:
                        self._reply(200, server.register_request(parts[2], self._body()))
                    return
                if len(parts) == 4 and parts[3] == "reload":
                    self._reply(200, server.reload_request(parts[2], self._body()))
                    return
                if len(parts) == 4 and parts[3] == "policy":
                    self._reply(200, server.policy_request(parts[2], self._body()))
                    return
            self._drain_body()
            self._reply_no_route()
        except ConnectionError:  # client went away mid-reply: drop quietly
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the client
            self._safe_error(exc)

    def _predict_route(self, server: "ServingServer", deadline: Optional[Deadline]) -> None:
        """``POST /v1/predict`` with per-side transport negotiation:
        Content-Type picks the request decoder, Accept picks the
        response encoder, and the two compose freely."""
        if self._is_binary_request():
            meta, arrays = self._read_binary(deadline)
            body = dict(meta)
            body.update(arrays)
        else:
            body = self._body()
        if self._wants_binary():
            out = server.predict_arrays_request(body, deadline=deadline)
            prediction = out.pop("prediction")
            self._reply_binary(out, {"prediction": prediction}, deadline)
        else:
            self._reply(200, server.predict_request(body, deadline=deadline))


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, owner: "ServingServer") -> None:
        self.owner = owner
        super().__init__(address, handler)


class ServingServer:
    """HTTP front-end over ``num_workers`` model-serving processes.

    Parameters
    ----------
    models:
        ``{model_id: bundle_path}`` registered on the owning worker of
        each id before startup. More models can be registered later via
        :meth:`register_request` / ``POST /v1/models/<id>``.
    num_workers:
        Worker processes, each hosting its own registry + service.
        Model ids are sharded onto workers by the same stable hash the
        registry uses, so placement is reproducible everywhere.
    host, port:
        Bind address. ``port=0`` picks a free ephemeral port (read it
        back from :attr:`port` / :attr:`url` after :meth:`start`).
    registry_options, service_options:
        Keyword dicts forwarded to each worker's :class:`ModelRegistry`
        and :class:`PredictionService` — batching windows, LRU budget,
        shard runtimes, ... Validated here, at
        construction, by building throwaway instances, so a typo or a
        nonsense knob (``max_batch=0``) fails in the parent process
        instead of crashing workers at first request. They ship verbatim
        in every spawn config: start or respawn, fork or spawn, same settings.
    start_method:
        :mod:`multiprocessing` start method (default: ``fork`` where
        available, else ``spawn``).
    request_timeout:
        Seconds the router waits for a worker's answer before failing
        the HTTP request with :class:`ServerError`.
    enable_fitting:
        Mount the fitting service (``POST /v1/fit`` + ``GET
        /v1/jobs``). On by default; off makes those routes fail with
        :class:`ConfigurationError`.
    jobs_dir:
        Directory the fit-job ledger (:class:`~repro.fitting.JobStore`)
        lives in. Jobs in it are durable: a restarted server resumes
        interrupted fits from their checkpoints, and published refit
        bundles keep serving across restarts. Default: a fresh
        temporary directory, removed at :meth:`stop` — refit bundles
        published from it are rolled back to each model's last
        externally-registered bundle on the next start. Pass a real
        path for durability.
    fit_options:
        Keyword dict forwarded to the
        :class:`~repro.fitting.FitOrchestrator` (``max_workers``,
        ``checkpoint_every``, ``max_restarts``, ``start_method``).
        Validated here, at construction, like the other option dicts.
    max_worker_restarts:
        Times the router respawns a *serving* worker process that died
        (per worker) before ``/healthz`` degrades permanently. The
        request that observed the death is retried once on the fresh
        worker.
    max_inflight:
        Server-wide cap on concurrently in-flight predict requests
        (an :class:`~repro.resilience.AdmissionGate`). Requests beyond
        the cap are shed immediately with 503 + ``Retry-After``
        (:class:`~repro.exceptions.LoadShedError`) instead of queueing
        without bound; admin and fit routes are never shed.
    max_body:
        Byte cap on a single request body, JSON or binary (default:
        :data:`repro.serving.wire.MAX_BODY`, which is also the
        :class:`~repro.serving.client.ServingClient` default). Larger
        declared bodies are answered 413
        (:class:`~repro.exceptions.PayloadTooLargeError`) before a
        single body byte is read.
    upload_dir:
        Directory binary register-by-upload bundles are persisted in.
        Default: a fresh temporary directory removed at :meth:`stop`
        (models registered from it roll back to their last external
        bundle, like ephemeral ``jobs_dir`` refits). Pass a real path
        to keep uploaded bundles across restarts.
    calibration_profile:
        Source of the ``GET /v1/plan`` planner's machine constants: a
        :class:`~repro.perfmodel.autotune.CalibrationProfile`, or a
        path to one persisted by ``python -m repro.perfmodel.autotune
        --out ...``. Default ``None`` resolves lazily on the first plan
        request via :func:`repro.perfmodel.planner.default_profile`
        (the configured ``autotune_profile`` path, else a quick
        in-process calibration cached for the server's lifetime).

    Examples
    --------
    >>> with ServingServer({"soil": "fits/soil.bundle"}) as server:  # doctest: +SKIP
    ...     client = ServingClient(server.url)
    ...     client.predict("soil", targets)
    """

    def __init__(
        self,
        models: Optional[Dict[str, Union[str, Path]]] = None,
        *,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        registry_options: Optional[dict] = None,
        service_options: Optional[dict] = None,
        start_method: Optional[str] = None,
        request_timeout: float = 120.0,
        enable_fitting: bool = True,
        jobs_dir: Optional[Union[str, Path]] = None,
        fit_options: Optional[dict] = None,
        max_worker_restarts: int = 2,
        max_inflight: int = 128,
        max_body: int = wire.MAX_BODY,
        upload_dir: Optional[Union[str, Path]] = None,
        calibration_profile: Optional[Union[str, Path, "CalibrationProfile"]] = None,
    ) -> None:
        self.num_workers = int(num_workers)
        if self.num_workers < 1:
            raise ConfigurationError(f"num_workers must be >= 1, got {self.num_workers}")
        if request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        if max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.max_body = int(max_body)
        if self.max_body < 1024:
            raise ConfigurationError(
                f"max_body must be >= 1024 bytes, got {self.max_body}"
            )
        self.host = host
        self._requested_port = int(port)
        self.request_timeout = float(request_timeout)
        self.registry_options = dict(registry_options or {})
        self.service_options = dict(service_options or {})
        # Fail fast on bad options: both constructors validate their
        # knobs, and a worker is the wrong place to discover a typo.
        with ModelRegistry(**self.registry_options) as probe:
            PredictionService(probe, **self.service_options)
        self.enable_fitting = bool(enable_fitting)
        self.fit_options = FitOrchestrator.validate_options(fit_options)
        self._jobs_dir = None if jobs_dir is None else Path(jobs_dir)
        self._jobs_dir_owned = False
        self._upload_dir = None if upload_dir is None else Path(upload_dir)
        self._upload_dir_owned = False
        self._upload_ids = itertools.count()
        self._fit_store: Optional[JobStore] = None
        self._orchestrator: Optional[FitOrchestrator] = None
        self._models = {str(mid): str(Path(p)) for mid, p in (models or {}).items()}
        # Last path per model registered from *outside* an ephemeral
        # jobs_dir — the rollback target when stop() deletes the ledger
        # a refit bundle was published from.
        self._external_paths = dict(self._models)
        self._policies: Dict[str, dict] = {}  # runtime-set, survives respawns
        if start_method is None:
            start_method = os.environ.get("REPRO_SERVING_START_METHOD")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: List[_WorkerHandle] = []
        self._http: Optional[_Server] = None
        self._http_thread: Optional[threading.Thread] = None
        self._started = False
        self.max_worker_restarts = int(max_worker_restarts)
        self.n_worker_restarts = 0
        self._restarts_by_worker: Dict[int, int] = {}
        self._respawn_lock = threading.Lock()
        # Resilience plumbing: the admission gate sheds predict load
        # past the in-flight cap, each worker handle's breaker fails
        # fast on a hung worker, and the retry policy is the single
        # statement of "dead worker → respawn → retry exactly once".
        self._gate = AdmissionGate(max_inflight=max_inflight)
        self._worker_retry = RetryPolicy(
            max_attempts=2, base_delay=0.0, jitter=0.0, retry_on=(ServerError,)
        )
        # Telemetry settings resolved once, here, and shipped in every
        # worker's spawn config — a respawn on a handler thread must
        # arm the fresh worker the same way the original was armed.
        self._telemetry_settings = _telemetry.settings()
        # Planner state for GET /v1/plan: resolved lazily on the first
        # plan request so servers that never plan pay nothing.
        self._calibration_profile = calibration_profile
        self._planner = None
        self._planner_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle
    def _worker_config(self, worker_id: int) -> dict:
        """The spawn-time config of one worker: its shard's models plus
        the option dicts. Also what a *respawned* worker receives, so
        models registered at runtime survive a worker crash."""
        models = {
            mid: path
            for mid, path in self._models.items()
            if self.worker_for(mid) == worker_id
        }
        return {
            "models": models,
            "policies": {
                mid: policy
                for mid, policy in self._policies.items()
                if self.worker_for(mid) == worker_id
            },
            "registry": self.registry_options,
            "service": self.service_options,
            "telemetry": self._telemetry_settings,
        }

    def start(self, *, ready_timeout: float = 60.0) -> "ServingServer":
        """Spawn workers, wait for their handshakes, and bind the HTTP port."""
        if self._started:
            return self
        for worker_id in range(self.num_workers):
            self._workers.append(
                _WorkerHandle(self._ctx, worker_id, self._worker_config(worker_id))
            )
        for handle in self._workers:
            ready = handle.ready.wait(ready_timeout)
            if not ready or not handle.alive:
                worker_id = handle.worker_id
                self.stop()
                raise ServerError(
                    f"worker {worker_id} "
                    + ("died during startup" if ready else
                       f"failed to start within {ready_timeout}s")
                )
        if self._upload_dir is None:
            self._upload_dir = Path(tempfile.mkdtemp(prefix="repro-uploads-"))
            self._upload_dir_owned = True
        else:
            self._upload_dir.mkdir(parents=True, exist_ok=True)
        if self.enable_fitting:
            if self._jobs_dir is None:
                self._jobs_dir = Path(tempfile.mkdtemp(prefix="repro-fit-jobs-"))
                self._jobs_dir_owned = True
            self._fit_store = JobStore(self._jobs_dir)
            self._orchestrator = FitOrchestrator(
                self._fit_store,
                on_complete=self._serve_fit_result,
                **self.fit_options,
            ).start()
        self._http = _Server((self.host, self._requested_port), _Handler, self)
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serving-http", daemon=True
        )
        self._http_thread.start()
        self._restarts_by_worker = {}
        self.n_worker_restarts = 0
        self._started = True
        return self

    def stop(self) -> None:
        """Stop the HTTP listener, the fit orchestrator, then every
        worker process (idempotent)."""
        self._started = False
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
        if self._http_thread is not None:
            self._http_thread.join(10.0)
            self._http_thread = None
        if self._orchestrator is not None:
            self._orchestrator.stop()
            self._orchestrator = None
            self._fit_store = None
        if self._jobs_dir_owned and self._jobs_dir is not None:
            # The ephemeral ledger is about to vanish — models whose
            # registered path points into it (refits published while
            # running) must not survive into the next start() as paths
            # to nowhere. Durable deployments pass jobs_dir= and keep
            # their refit bundles across restarts.
            self._discard_ephemeral_dir(self._jobs_dir)
            self._jobs_dir = None
            self._jobs_dir_owned = False
        if self._upload_dir_owned and self._upload_dir is not None:
            # Same rule for the binary register-by-upload staging dir:
            # bundles uploaded over the wire are only as durable as the
            # directory they were saved into.
            self._discard_ephemeral_dir(self._upload_dir)
            self._upload_dir = None
            self._upload_dir_owned = False
        workers, self._workers = self._workers, []
        for handle in workers:
            handle.stop()

    def _discard_ephemeral_dir(self, root: Path) -> None:
        """Delete an owned scratch dir, rolling every model whose
        registered path points into it back to its last external bundle
        (or dropping it when there is none)."""
        for mid, path in list(self._models.items()):
            if _path_within(path, root):
                external = self._external_paths.get(mid)
                if external is None:
                    del self._models[mid]
                else:
                    self._models[mid] = external
        shutil.rmtree(root, ignore_errors=True)

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # --------------------------------------------------------------- routing
    def worker_for(self, model_id: str) -> int:
        """The worker index owning ``model_id`` (stable hash sharding)."""
        return _stable_shard(model_id, self.num_workers)

    def _handle(self, model_id: str) -> _WorkerHandle:
        if not self._started:
            raise ServiceClosedError("server is not running (use start() or 'with')")
        return self._workers[self.worker_for(model_id)]

    def _respawn(self, worker_id: int, *, ready_timeout: float = 60.0) -> _WorkerHandle:
        """Replace a dead worker process with a fresh one (same shard).

        The new worker re-registers every model currently sharded onto
        it (including ones registered after startup — the router's map
        is the source of truth), so it rehydrates engines from bundles
        on demand. Serialized by a lock: concurrent requests that all
        observed the same death trigger exactly one respawn.
        """
        with self._respawn_lock:
            handle = self._workers[worker_id]
            if handle.alive:
                return handle  # another thread already respawned it
            if not self._started:
                raise ServerError(f"worker {worker_id} is not running")
            used = self._restarts_by_worker.get(worker_id, 0)
            if used >= self.max_worker_restarts:
                raise ServerError(
                    f"worker {worker_id} died and exhausted its "
                    f"{self.max_worker_restarts} restart(s)"
                )
            logger.warning(
                "serving worker %d died; respawning (restart %d/%d)",
                worker_id, used + 1, self.max_worker_restarts,
            )
            fresh = _WorkerHandle(self._ctx, worker_id, self._worker_config(worker_id))
            if not fresh.ready.wait(ready_timeout) or not fresh.alive:
                fresh.stop()
                raise ServerError(f"worker {worker_id} failed to restart")
            handle.stop(timeout=0.1)  # reap the corpse, fail its stragglers
            self._workers[worker_id] = fresh
            self._restarts_by_worker[worker_id] = used + 1
            self.n_worker_restarts += 1
            return fresh

    def _request(
        self, model_id: str, op: str, payload: dict, deadline: Optional[Deadline] = None
    ):
        """One worker op with crash recovery: when the owning worker is
        found dead — before the send or while the request was in flight
        — it is respawned and the request retried (``_worker_retry``:
        exactly once). Typed per-request failures and timeouts pass
        through untouched (a hung worker may still be executing;
        re-running would double-execute).

        A ``deadline`` shrinks with every hop: each (re)send carries the
        seconds *remaining* (queue/respawn time already spent is gone)
        and clamps the pipe wait, so a respawned-and-retried request can
        never outlive the budget its client set.

        Transport outcomes feed the worker's circuit breaker: after
        its ``failure_threshold`` consecutive :class:`ServerError` failures
        (a hung-but-alive worker), requests fail fast with
        :class:`CircuitOpenError` instead of each waiting out the full
        pipe timeout. Respawned workers start with a fresh breaker.
        """
        handle = self._handle(model_id)
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check(op)
                payload = dict(payload, deadline=deadline.remaining)
            timeout = (
                self.request_timeout
                if deadline is None
                else max(1e-3, deadline.clamp(self.request_timeout))
            )
            if not handle.breaker.allow():
                raise CircuitOpenError(
                    f"worker {handle.worker_id} circuit breaker is open",
                    retry_after=handle.breaker.retry_after,
                )
            try:
                result = handle.request(op, payload, timeout=timeout)
            except ServerError as exc:
                handle.breaker.record_failure()
                dead = not handle.alive and self._started
                if not dead or not self._worker_retry.should_retry(exc, attempt):
                    raise
                handle = self._respawn(self.worker_for(model_id))
                attempt += 1
                continue
            except BaseException:
                # Typed per-request failure produced *by* the worker:
                # the transport is healthy.
                handle.breaker.record_success()
                raise
            handle.breaker.record_success()
            return result

    # ------------------------------------------------------------ operations
    def predict_arrays_request(
        self,
        body: dict,
        *,
        budget: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> dict:
        """Route one predict body to its worker; arrays stay arrays.

        The transport-neutral core: ``body`` may hold targets/z as
        lists (JSON) or ndarrays (binary), and the returned
        ``prediction`` is the worker's float64 array untouched — the
        binary transport streams it bit-exact, :meth:`predict_request`
        finite-checks and listifies it for JSON.

        An absolute :class:`Deadline` wins over ``budget`` (seconds)
        wins over the body's ``deadline`` field; whichever is set is
        resolved here, at the edge — every layer below (pipe wait,
        worker queue, engine executor) re-derives the time remaining
        from it rather than granting itself a fresh timeout.
        """
        with self._gate.admit():
            try:
                model_id = str(body["model_id"])
                targets = np.asarray(body["targets"], dtype=np.float64)
            except KeyError as exc:
                raise ValueError(
                    f"predict body is missing required key {exc}"
                ) from None
            z = body.get("z")
            if deadline is None:
                if budget is None:
                    budget = body.get("deadline")
                deadline = Deadline.after(None if budget is None else float(budget))
            payload = {
                "model_id": model_id,
                "targets": targets,
                "z": None if z is None else np.asarray(z, dtype=np.float64),
                "deadline": None,  # filled per send from the Deadline
                "priority": int(body.get("priority", 0)),
            }
            if _telemetry.enabled():
                ctx = _trace_context.current()
                if ctx is not None:
                    # The ids travel; the worker's spans stay worker-side
                    # and are re-joined by trace_request().
                    payload["trace"] = _trace_context.to_wire(ctx)
            result = self._request(model_id, "predict", payload, deadline=deadline)
            return {
                "model_id": model_id,
                "prediction": np.asarray(result["prediction"], dtype=np.float64),
                "degraded": bool(result["degraded"]),
                "worker": self.worker_for(model_id),
            }

    def predict_request(
        self,
        body: dict,
        *,
        budget: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> dict:
        """JSON-shaped predict: :meth:`predict_arrays_request` plus the
        strict-JSON contract. A non-finite prediction raises a typed
        :class:`PredictionError` here instead of being serialized into
        bare ``NaN``/``Infinity`` tokens no strict parser accepts."""
        out = self.predict_arrays_request(body, budget=budget, deadline=deadline)
        prediction = out["prediction"]
        finite = np.isfinite(prediction)
        if not finite.all():
            bad = int(prediction.size - np.count_nonzero(finite))
            raise PredictionError(
                f"model {out['model_id']!r} produced {bad} non-finite "
                f"prediction value(s) out of {prediction.size}; strict JSON "
                "cannot represent NaN/inf — use the binary transport "
                f"(Accept: {wire.CONTENT_TYPE}) to receive them bit-exact"
            )
        return dict(out, prediction=prediction.tolist())

    def register_request(self, model_id: str, body: dict) -> dict:
        try:
            path = str(body["path"])
        except KeyError as exc:
            raise ValueError(f"register body is missing required key {exc}") from None
        result = self._request(model_id, "register", {"model_id": model_id, "path": path})
        # Commit to the router's map only after the worker accepted, so a
        # failed registration never survives into the next start().
        self._commit_model_path(model_id, path)
        result["worker"] = self.worker_for(model_id)
        return result

    def register_upload_request(
        self, model_id: str, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> dict:
        """Register a model from an uploaded binary bundle payload.

        The decoded wire message is the bundle's own serialization
        (:meth:`~repro.serving.store.ModelBundle.to_payload`), so the
        upload is validated by the same code path as an on-disk load,
        persisted into the server's upload directory with the store's
        commit-marker discipline, and only then registered on the
        owning worker. A worker that refuses the registration deletes
        the staged bundle again — no half-written registry state.
        """
        if not self._started:
            raise ServiceClosedError("server is not running (use start() or 'with')")
        bundle = ModelBundle.from_payload(meta, arrays)
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in model_id)
        path = Path(self._upload_dir) / f"{safe or 'model'}-{next(self._upload_ids)}.bundle"
        bundle.save(path)
        try:
            result = self._request(
                model_id, "register", {"model_id": model_id, "path": str(path)}
            )
        except BaseException:
            shutil.rmtree(path, ignore_errors=True)
            raise
        self._commit_model_path(model_id, str(path))
        result["worker"] = self.worker_for(model_id)
        result["path"] = str(path)
        result["n"] = bundle.n
        return result

    def reload_request(self, model_id: str, body: dict) -> dict:
        path = body.get("path")
        result = self._request(model_id, "reload", {"model_id": model_id, "path": path})
        # Same commit-on-success rule as the worker's registry: a failed
        # reload keeps the last good path for future restarts.
        if path is not None:
            self._commit_model_path(model_id, str(path))
        result["worker"] = self.worker_for(model_id)
        return result

    def _commit_model_path(self, model_id: str, path: str) -> None:
        """Record a successfully registered/reloaded bundle path, also
        remembering it as the rollback target unless it lives inside an
        ephemeral jobs_dir that :meth:`stop` will delete."""
        self._models[model_id] = path
        ephemeral = (
            self._jobs_dir_owned
            and self._jobs_dir is not None
            and _path_within(path, self._jobs_dir)
        ) or (
            self._upload_dir_owned
            and self._upload_dir is not None
            and _path_within(path, self._upload_dir)
        )
        if not ephemeral:
            self._external_paths[model_id] = path

    def policy_request(self, model_id: str, body: dict) -> dict:
        policy = {
            "batch_window": body.get("batch_window"),
            "max_batch": body.get("max_batch"),
        }
        result = self._request(model_id, "policy", dict(policy, model_id=model_id))
        # Commit-on-success so a respawned worker gets the policy back;
        # merge per knob, matching PredictionService.set_policy.
        previous = self._policies.get(model_id, {})
        self._policies[model_id] = {
            knob: previous.get(knob) if value is None else value
            for knob, value in policy.items()
        }
        result["worker"] = self.worker_for(model_id)
        return result

    # ----------------------------------------------------------- fit service
    def _check_fitting(self) -> FitOrchestrator:
        if not self._started:
            raise ServiceClosedError("server is not running (use start() or 'with')")
        if not self.enable_fitting or self._orchestrator is None:
            raise ConfigurationError("the fitting service is disabled on this server")
        return self._orchestrator

    def fit_request(self, body: dict) -> dict:
        """Submit a fit job from its HTTP body; returns immediately.

        ``from_model`` resolves an already-served model id to its
        registered bundle — the refit shape: its data (unless new
        ``locations``/``z`` are inline), its substrate, and (by
        default) a warm start from its fitted theta. The job's
        ``model_id`` defaults to ``from_model``, so the finished fit
        hot-reloads the same served id with zero downtime.
        """
        orchestrator = self._check_fitting()
        body = dict(body)
        from_model = body.pop("from_model", None)
        bundle_path = body.pop("bundle_path", None)
        if from_model is not None:
            registered = self._models.get(str(from_model))
            if registered is None:
                raise ModelNotFoundError(
                    f"model {from_model!r} is not registered on this server"
                )
            if bundle_path is not None:
                raise FittingError("pass either from_model or bundle_path, not both")
            bundle_path = registered
            body.setdefault("model_id", str(from_model))
        locations = body.pop("locations", None)
        z = body.pop("z", None)
        known = {
            "model_id", "model", "metric", "variant", "acc", "tile_size",
            "compression_method", "use_morton", "maxiter", "ftol", "xtol",
            "n_starts", "seed", "x0", "bounds", "warm_start",
            "include_factor", "include_distance_cache",
        }
        unknown = sorted(set(body) - known)
        if unknown:
            raise FittingError(f"unknown fit request fields {unknown}")
        model_spec = body.pop("model", None)
        spec = FitJobSpec(
            locations=None if locations is None else np.asarray(locations, dtype=np.float64),
            z=None if z is None else np.asarray(z, dtype=np.float64),
            bundle_path=None if bundle_path is None else str(bundle_path),
            model_spec=model_spec,
            warm_start=bool(body.pop("warm_start", bundle_path is not None)),
            **body,
        )
        job_id = orchestrator.submit(spec)
        return {"job_id": job_id, "status": "queued", "model_id": spec.model_id}

    def job_request(self, job_id: str, *, include_trace: bool = True) -> dict:
        """One job's record; ``include_trace=False`` skips the (growing)
        per-iteration trace — what status pollers should use."""
        self._check_fitting()
        return self._fit_store.record(job_id, include_trace=include_trace)

    def jobs_request(self) -> List[dict]:
        """State summaries of every job in the ledger."""
        self._check_fitting()
        return self._fit_store.list_jobs()

    def _serve_fit_result(self, record: dict) -> None:
        """Orchestrator ``on_complete`` hook: publish a finished fit.

        Registers the job's bundle under its target model id — or
        hot-reloads it when the id is already served — then marks the
        job ``served``. Failures land on the job as ``serve_error``;
        the fit itself stays ``done`` (its bundle is on disk either
        way).
        """
        job_id = record["job_id"]
        model_id = record.get("model_id")
        bundle_path = record.get("bundle_path")
        if not model_id or bundle_path is None:
            return
        store = self._fit_store
        try:
            if not self._started:
                raise ServiceClosedError("server stopped before the fit was published")
            if model_id in self._models:
                self.reload_request(model_id, {"path": bundle_path})
            else:
                self.register_request(model_id, {"path": bundle_path})
        except BaseException as exc:  # noqa: BLE001 - recorded on the job
            if store is not None:
                store.update(job_id, served=False, serve_error=str(exc))
            return
        if store is not None:
            store.update(job_id, served=True)

    def models(self) -> dict:
        """Model ids known to each worker, plus degradation state.

        One dead or unresponsive worker degrades the answer instead of
        failing it: its shard is listed under ``dead_workers`` and the
        response carries ``degraded: true`` while the live workers'
        models are still reported.
        """
        out: Dict[str, List[str]] = {}
        dead: List[int] = []
        for handle in self._workers:
            if not handle.alive:
                dead.append(handle.worker_id)
                continue
            try:
                out[str(handle.worker_id)] = handle.request(
                    "models", timeout=self.request_timeout
                )
            except ServerError:
                dead.append(handle.worker_id)
        return {"models": out, "degraded": bool(dead), "dead_workers": dead}

    def metrics(self) -> dict:
        """Per-worker metrics + fleet-wide counter aggregates.

        A dead worker is reported with ``"dead": true`` and its last
        observed counters (if any), so aggregates stay monotonic across
        a crash instead of silently shrinking between polls — and the
        whole response carries ``degraded: true`` with the dead workers
        listed, rather than failing because one shard is down.
        """
        workers = {}
        totals: Dict[str, int] = {}
        dead: List[int] = []
        for handle in self._workers:
            snap = None
            if handle.alive:
                try:
                    snap = handle.request("metrics", timeout=self.request_timeout)
                    handle.last_metrics = snap
                except ServerError:
                    pass
            if snap is None:
                dead.append(handle.worker_id)
                if handle.last_metrics is not None:
                    snap = dict(handle.last_metrics, dead=True)
                else:
                    workers[str(handle.worker_id)] = {"dead": True}
                    continue
            workers[str(handle.worker_id)] = snap
            for name, value in snap["service"]["counters"].items():
                totals[name] = totals.get(name, 0) + int(value)
        return {
            "workers": workers,
            "aggregate": {"counters": totals},
            "admission": self._gate.snapshot(),
            "worker_breakers": {
                str(h.worker_id): h.breaker.snapshot() for h in self._workers
            },
            "degraded": bool(dead),
            "dead_workers": dead,
        }

    def metrics_prometheus(self) -> str:
        """Fleet metrics in Prometheus text exposition format 0.0.4.

        Rendered from the same per-worker service snapshots the JSON
        form reports — counters as ``service_<name>``, the latency
        histogram as ``service_latency_seconds`` — summed over the fleet
        (histograms bucket-wise) together with the router process's own
        :func:`~repro.telemetry.get_registry` instruments, so one scrape
        sees the whole server.
        """
        snapshots = [_registry_mod.get_registry().snapshot()]
        for snap in self.metrics()["workers"].values():
            service = snap.get("service")
            if service is not None:
                snapshots.append(registry_view(service))
        return render_prometheus(_registry_mod.MetricsRegistry.merge(snapshots))

    def trace_request(self, trace_id: str) -> dict:
        """Assemble one trace's span tree across router + all workers.

        Spans never travel with requests — each process keeps its own
        ring — so this is the join point: the router's recorder plus a
        ``trace`` op to every live worker, deduped and nested by
        :func:`~repro.telemetry.export.assemble_trace`. An unknown (or
        evicted) trace id raises :class:`TraceNotFoundError` → 404.
        """
        if not self._started:
            raise ServiceClosedError("server is not running (use start() or 'with')")
        spans: List[dict] = []
        recorder = _telemetry.get_recorder()
        if recorder is not None:
            spans.extend(recorder.for_trace(trace_id))
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                result = handle.request(
                    "trace", {"trace_id": trace_id}, timeout=self.request_timeout
                )
            except ServerError:
                continue  # a dead shard degrades the trace, not the route
            spans.extend(result["spans"])
        if not spans:
            raise TraceNotFoundError(
                f"no spans recorded for trace {trace_id!r} (telemetry off, "
                "id unknown, or evicted from the bounded span ring)"
            )
        return assemble_trace(trace_id, spans)

    def _get_planner(self):
        """The lazily built :class:`~repro.perfmodel.planner.Planner`.

        Resolution order: the ``calibration_profile`` constructor
        argument (a profile object or a path to a persisted one), else
        :func:`~repro.perfmodel.planner.default_profile` (configured
        ``autotune_profile`` path, or a quick in-process calibration
        cached for the process lifetime). Router-side only — planning
        never touches a worker.
        """
        from ..perfmodel.autotune import CalibrationProfile
        from ..perfmodel.planner import Planner, default_profile

        with self._planner_lock:
            if self._planner is None:
                source = self._calibration_profile
                if source is None:
                    profile = default_profile()
                elif isinstance(source, CalibrationProfile):
                    profile = source
                else:
                    profile = CalibrationProfile.load(source)
                self._planner = Planner(profile)
            return self._planner

    def plan_request(self, query: Dict[str, List[str]]) -> dict:
        """Answer ``GET /v1/plan`` from parsed query parameters.

        Router-side — no worker round-trip. ``n`` is required;
        ``m`` (prediction points, default 100), ``substrate``
        (``full-block``/``full-tile``/``tlr``, default: search all
        feasible) and ``accuracy`` (TLR tolerance, default: ladder
        search) are optional. Malformed parameters raise
        :class:`PlanError` → 400; an unreadable calibration profile
        raises :class:`CalibrationError` → 500.
        """
        if not self._started:
            raise ServiceClosedError("server is not running (use start() or 'with')")

        def _scalar(key: str) -> Optional[str]:
            values = query.get(key)
            if not values:
                return None
            return values[-1]

        raw_n = _scalar("n")
        if raw_n is None:
            raise PlanError(
                "missing required query parameter 'n' (problem size, e.g. "
                "GET /v1/plan?n=900)"
            )
        try:
            n = int(raw_n)
        except ValueError:
            raise PlanError(f"query parameter 'n' must be an integer, got {raw_n!r}")
        m = 100
        raw_m = _scalar("m")
        if raw_m is not None:
            try:
                m = int(raw_m)
            except ValueError:
                raise PlanError(
                    f"query parameter 'm' must be an integer, got {raw_m!r}"
                )
        accuracy = None
        raw_acc = _scalar("accuracy")
        if raw_acc is not None:
            try:
                accuracy = float(raw_acc)
            except ValueError:
                raise PlanError(
                    f"query parameter 'accuracy' must be a float, got {raw_acc!r}"
                )
        substrate = _scalar("substrate")
        planner = self._get_planner()
        return planner.plan(n, m=m, substrate=substrate, accuracy=accuracy).to_dict()

    def health(self) -> dict:
        alive = [handle.alive for handle in self._workers]
        healthy = self._started and all(alive)
        health = {
            "workers": self.num_workers,
            "alive": alive,
            "worker_restarts": self.n_worker_restarts,
        }
        if self.enable_fitting and self._orchestrator is not None:
            fitting = self._orchestrator.running
            health["fitting"] = fitting
            # A dead fit scheduler is an outage of the fitting surface:
            # it must degrade /healthz, not hide behind healthy workers.
            healthy = healthy and fitting
        health["status"] = "ok" if healthy else "degraded"
        return health

    # -------------------------------------------------------------- plumbing
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._http is None:
            return self._requested_port
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._started else "stopped"
        return (
            f"ServingServer({state}, workers={self.num_workers}, "
            f"models={len(self._models)}, url={self.url!r})"
        )
