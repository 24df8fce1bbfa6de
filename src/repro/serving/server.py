"""Multi-process HTTP serving: worker processes behind a sharding router.

The PR-3 serving stack — :class:`~repro.serving.store.ModelBundle`,
:class:`~repro.serving.registry.ModelRegistry`,
:class:`~repro.serving.service.PredictionService` — lives inside one
process. The serving tier scales it out with nothing but the standard
library, in three modules cut where the protocol's seams are:

* :mod:`repro.serving.edge` — HTTP: the ``ROUTES`` table, the one path
  matcher, the body readers and reply writers of a stdlib
  :class:`~http.server.ThreadingHTTPServer`.
* :mod:`repro.serving.worker` — the pipe: the ``Message`` shape, the
  ``OPS`` table, the worker process (its own registry + asyncio
  micro-batching service) and the router-side handle.
* this module — :class:`ServingServer`: lifecycle, sharding, respawn /
  retry / breakers, and the operation behind every route. A model is
  owned by the worker its stable hash (:func:`_stable_shard`) lands
  on, so a model id maps to the same worker across restarts and across
  the fleet. Arrays cross the pipe pickled and HTTP as JSON, whose ``repr``-based float
  encoding round-trips every finite ``float64`` exactly (or as raw
  binary frames), so served predictions are **bit-identical** to
  in-process
  :meth:`~repro.mle.prediction_engine.PredictionEngine.predict`.

What the router adds over a single process:

* **Hot-reload**: ``POST /v1/models/<id>/reload`` calls
  :meth:`ModelRegistry.reload` inside the owning worker — the
  replacement engine is built off-lock and swapped atomically, so
  in-flight requests finish on the old engine and later requests see
  the new one, with zero failed requests across the swap.
* **Worker auto-restart**: a worker process that dies (OOM, kill) is
  respawned on demand with its shard's models re-registered, and the
  request that observed the death is retried once on the fresh worker —
  a crash costs latency, not availability.
* **Per-worker breaker**: after a worker that is alive but silent has
  timed out ``failure_threshold`` requests in a row, its requests fail
  fast (:class:`~repro.exceptions.CircuitOpenError`, 503 +
  ``Retry-After``) and the fleet-wide routes report it as dead without
  asking it. Overload is not the router's business: each model's
  bounded queue in its worker rejects the excess (429).
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
    streamed back as binary frames in a ``Content-Length`` body —
    bit-exact, several times smaller than JSON, decoded into one
    preallocated array. JSON stays the default (and the debug
    surface); error responses are always JSON.
``GET /healthz``
    Liveness of the router and every worker process.
``GET /v1/models``
    Model ids known to each worker; dead workers and workers whose
    breaker is open are listed under ``dead_workers``.
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
    count) with predicted per-phase times, computed router-side (no
    worker round-trip) from the router process's one calibration,
    :func:`~repro.perfmodel.planner.default_profile` (probed on the
    first plan, then cached). Invalid requests are 400
    (:class:`~repro.exceptions.PlanError`); degenerate probe timings
    are 500 (:class:`~repro.exceptions.CalibrationError`).
``POST /v1/models/<id>``
    Register a bundle path on the owning worker: ``{"path"}`` — or,
    with a binary Content-Type, register-by-upload: the body is the
    bundle itself (:meth:`ModelBundle.to_payload` as a wire message),
    persisted server-side and registered atomically.
``POST /v1/models/<id>/reload``
    Hot-swap the model's bundle: ``{"path"?}`` (default: re-read the
    registered path).
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

import hashlib
import inspect
import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    FittingError,
    ModelNotFoundError,
    PlanError,
    PredictionError,
    ServerError,
    ServiceClosedError,
    TraceNotFoundError,
)
from ..fitting.jobs import FitJobSpec, JobStore
from ..fitting.orchestrator import FitOrchestrator
from ..perfmodel.planner import Planner, default_profile
from ..resilience.policy import Deadline
from ..telemetry import context as _trace_context
from ..telemetry import metrics as _registry_mod
from ..telemetry import spans as _telemetry
from ..telemetry.export import assemble_trace, render_prometheus
from ..utils.logging import get_logger
from . import wire
from .edge import _Server
from .registry import ModelRegistry
from .service import PredictionService, registry_view
from .store import ModelBundle
from .worker import _WorkerHandle

__all__ = ["ServingServer"]

logger = get_logger(__name__)


def _stable_shard(model_id: str, num_shards: int) -> int:
    """Deterministic shard assignment, stable across processes and runs."""
    digest = hashlib.sha1(model_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_shards


def _path_within(path: Union[str, Path], root: Union[str, Path]) -> bool:
    """True when ``path`` is ``root`` or lives under it.

    Separator-aware, unlike a bare ``startswith``: a sibling directory
    sharing the prefix (``/data/uploads-keep`` vs ``/data/uploads``)
    must NOT count as inside — misclassifying it as ephemeral would
    delete a durable bundle's rollback path on :meth:`ServingServer.stop`.
    """
    path_s, root_s = str(path), str(root).rstrip(os.sep) or os.sep
    return path_s == root_s or path_s.startswith(root_s + os.sep)


#: What a ``POST /v1/fit`` body may carry besides ``from_model``: the
#: :class:`FitJobSpec` keywords by name, ``model_spec`` spelled ``model``.
_FIT_BODY = (set(inspect.signature(FitJobSpec).parameters) - {"model_spec"}) | {"model"}


def _query_number(query: Dict[str, List[str]], key: str, cast: Callable, kind: str):
    """The last ``?key=`` value cast to a number, ``None`` when absent;
    a value ``cast`` rejects is a :class:`PlanError` naming the parameter."""
    values = query.get(key)
    if not values:
        return None
    try:
        return cast(values[-1])
    except ValueError:
        raise PlanError(
            f"query parameter {key!r} must be {kind}, got {values[-1]!r}"
        ) from None


class ServingServer:
    """HTTP front-end over ``num_workers`` model-serving processes.

    Parameters
    ----------
    models:
        ``{model_id: bundle_path}`` registered on the owning worker of
        each id before startup. More models can be registered later via
        :meth:`register_request` / ``POST /v1/models/<id>``.
    num_workers:
        Worker processes, each hosting its own registry + service: the
        workers are the shards. Model ids are placed by a stable hash
        (:meth:`worker_for`), so placement is reproducible everywhere.
    host, port:
        Bind address. ``port=0`` picks a free ephemeral port (read it
        back from :attr:`port` / :attr:`url` after :meth:`start`).
    registry_options, service_options:
        Keyword dicts forwarded to each worker's :class:`ModelRegistry`
        (``max_models``, its one setting) and :class:`PredictionService`
        (``max_batch``, ``max_queue``, ...). Each model's ``max_queue``
        is the server's one admission bound: the excess is rejected
        with :class:`~repro.exceptions.ServiceOverloadedError` (429)
        before it executes. Validated here, at
        construction, by building throwaway instances, so a typo or a
        nonsense knob (``max_batch=0``) fails in the parent process as a
        :class:`ConfigurationError` instead of crashing workers at first
        request. They ship verbatim in every spawn config: start or
        respawn, fork or spawn, same settings.
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
        Without a ``start_method`` of its own, fit legs use the
        server's.
    max_worker_restarts:
        Times the router respawns a *serving* worker process that died
        (per worker) before ``/healthz`` degrades permanently. The
        request that observed the death is retried once on the fresh
        worker.
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
        max_body: int = wire.MAX_BODY,
        upload_dir: Optional[Union[str, Path]] = None,
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
        try:
            with ModelRegistry(**self.registry_options) as probe:
                PredictionService(probe, **self.service_options)
        except TypeError as exc:  # an unknown keyword
            raise ConfigurationError(f"bad serving options: {exc}") from exc
        self.enable_fitting = bool(enable_fitting)
        self.fit_options = FitOrchestrator.validate_options(fit_options)
        self._jobs_dir = None if jobs_dir is None else Path(jobs_dir)
        self._upload_dir = None if upload_dir is None else Path(upload_dir)
        self._ephemeral: List[Path] = []  # temp dirs start() made, stop() deletes
        self._upload_ids = itertools.count()
        self._fit_store: Optional[JobStore] = None
        self._orchestrator: Optional[FitOrchestrator] = None
        self._models = {str(mid): str(Path(p)) for mid, p in (models or {}).items()}
        # Last path per model registered from *outside* an ephemeral
        # jobs_dir — the rollback target when stop() deletes the ledger
        # a refit bundle was published from.
        self._external_paths = dict(self._models)
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
        # Service counters of replaced workers, as last scraped: the
        # base every fleet aggregate starts from.
        self._retired_counters: Dict[str, int] = {}
        self._respawn_lock = threading.Lock()
        # Telemetry settings resolved once, here, and shipped in every
        # worker's spawn config — a respawn on a handler thread must
        # arm the fresh worker the same way the original was armed.
        self._telemetry_settings = _telemetry.settings()

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
        try:
            for handle in self._workers:
                handle.wait_ready(ready_timeout)
        except ServerError:
            self.stop()
            raise
        if self._upload_dir is None:
            self._upload_dir = self._temp_dir("repro-uploads-")
        else:
            self._upload_dir.mkdir(parents=True, exist_ok=True)
        if self.enable_fitting:
            if self._jobs_dir is None:
                self._jobs_dir = self._temp_dir("repro-fit-jobs-")
            self._fit_store = JobStore(self._jobs_dir)
            options = dict(self.fit_options)
            if options.get("start_method") is None:  # fit legs start like the workers
                options["start_method"] = self._ctx.get_start_method()
            self._orchestrator = FitOrchestrator(
                self._fit_store, on_complete=self._serve_fit_result, **options
            ).start()
        self._http = _Server((self.host, self._requested_port), self)
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serving-http", daemon=True
        )
        self._http_thread.start()
        self._restarts_by_worker = {}
        self._retired_counters = {}
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
        # The ephemeral ledger and upload staging dir are about to
        # vanish — models whose registered path points into one (refits
        # published, bundles uploaded while running) must not survive
        # into the next start() as paths to nowhere. Durable deployments
        # pass jobs_dir= / upload_dir= and keep them across restarts.
        for root in self._ephemeral:
            self._discard_ephemeral_dir(root)
            if self._jobs_dir == root:
                self._jobs_dir = None
            if self._upload_dir == root:
                self._upload_dir = None
        self._ephemeral = []
        workers, self._workers = self._workers, []
        for handle in workers:
            handle.stop()

    def _temp_dir(self, prefix: str) -> Path:
        path = Path(tempfile.mkdtemp(prefix=prefix))
        self._ephemeral.append(path)
        return path

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

    def _check_running(self) -> None:
        if not self._started:
            raise ServiceClosedError("server is not running (use start() or 'with')")

    def _handle(self, model_id: str) -> _WorkerHandle:
        self._check_running()
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
            try:
                fresh.wait_ready(ready_timeout)
            except ServerError:
                fresh.stop()
                raise
            handle.stop(timeout=0.1)  # reap the corpse, fail its stragglers
            if handle.last_metrics is not None:
                # Swapped in whole: metrics() reads it without this lock.
                retired = dict(self._retired_counters)
                for name, value in handle.last_metrics["service"]["counters"].items():
                    retired[name] = retired.get(name, 0) + int(value)
                self._retired_counters = retired
            self._workers[worker_id] = fresh
            self._restarts_by_worker[worker_id] = used + 1
            self.n_worker_restarts += 1
            return fresh

    def _request(
        self, model_id: str, op: str, payload: dict, deadline: Optional[Deadline] = None
    ):
        """One worker op with crash recovery: when the owning worker is
        found dead — before the send or while the request was in flight
        — it is respawned and the request retried exactly once. Typed
        per-request failures and timeouts pass through untouched (a hung
        worker may still be executing; re-running would double-execute).

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
        retried = False
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
            except ServerError:
                handle.breaker.record_failure()
                if retried or handle.alive or not self._started:
                    raise
                handle = self._respawn(self.worker_for(model_id))
                retried = True
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
        try:
            model_id = str(body["model_id"])
            targets = np.asarray(body["targets"], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(f"predict body is missing required key {exc}") from None
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

    def _model_op(self, model_id: str, op: str, **payload: Any) -> dict:
        """One admin op on ``model_id``'s owning worker; the answer
        names that worker."""
        result = self._request(model_id, op, dict(payload, model_id=model_id))
        result["worker"] = self.worker_for(model_id)
        return result

    def register_request(self, model_id: str, body: dict) -> dict:
        try:
            path = str(body["path"])
        except KeyError as exc:
            raise ValueError(f"register body is missing required key {exc}") from None
        result = self._model_op(model_id, "register", path=path)
        # Commit to the router's map only after the worker accepted, so a
        # failed registration never survives into the next start().
        self._commit_model_path(model_id, path)
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
        self._check_running()
        bundle = ModelBundle.from_payload(meta, arrays)
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in model_id)
        path = Path(self._upload_dir) / f"{safe or 'model'}-{next(self._upload_ids)}.bundle"
        bundle.save(path)
        try:
            result = self._model_op(model_id, "register", path=str(path))
        except BaseException:
            shutil.rmtree(path, ignore_errors=True)
            raise
        self._commit_model_path(model_id, str(path))
        return dict(result, path=str(path), n=bundle.n)

    def reload_request(self, model_id: str, body: dict) -> dict:
        path = body.get("path")
        result = self._model_op(model_id, "reload", path=path)
        # Same commit-on-success rule as the worker's registry: a failed
        # reload keeps the last good path for future restarts.
        if path is not None:
            self._commit_model_path(model_id, str(path))
        return result

    def _commit_model_path(self, model_id: str, path: str) -> None:
        """Record a successfully registered/reloaded bundle path, also
        remembering it as the rollback target unless it lives inside an
        ephemeral directory that :meth:`stop` will delete."""
        self._models[model_id] = path
        if not any(_path_within(path, root) for root in self._ephemeral):
            self._external_paths[model_id] = path

    # ----------------------------------------------------------- fit service
    def _check_fitting(self) -> FitOrchestrator:
        self._check_running()
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
        if from_model is not None:
            registered = self._models.get(str(from_model))
            if registered is None:
                raise ModelNotFoundError(
                    f"model {from_model!r} is not registered on this server"
                )
            if body.get("bundle_path") is not None:
                raise FittingError("pass either from_model or bundle_path, not both")
            body["bundle_path"] = registered
            body.setdefault("model_id", str(from_model))
        unknown = sorted(set(body) - _FIT_BODY)
        if unknown:
            raise FittingError(f"unknown fit request fields {unknown}")
        body["model_spec"] = body.pop("model", None)
        body.setdefault("warm_start", body.get("bundle_path") is not None)
        spec = FitJobSpec(**body)  # validates, and converts the inline arrays
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

    def _ask_all(self, op: str, payload: Optional[dict] = None):
        """Ask every worker one op: ``({worker_id: answer}, dead ids)``.

        A worker that is not alive, whose breaker is open, or whose pipe
        fails with :class:`ServerError` lands in ``dead`` instead of
        failing the fleet-wide question — the callers degrade, they do
        not raise. An open breaker means nothing is sent: a hung worker
        costs a scrape nothing once its breaker has opened. The answers
        feed the breaker like any other transport outcome, so a scrape
        may be the probe that closes it again.
        """
        answers: Dict[int, Any] = {}
        dead: List[int] = []
        for handle in self._workers:
            if handle.alive and handle.breaker.allow():
                try:
                    answers[handle.worker_id] = handle.request(
                        op, payload, timeout=self.request_timeout
                    )
                except ServerError:
                    handle.breaker.record_failure()
                else:
                    handle.breaker.record_success()
                    continue
            dead.append(handle.worker_id)
        return answers, dead

    def models(self) -> dict:
        """Model ids known to each worker, plus degradation state.

        One dead, unresponsive or breaker-open worker degrades the
        answer instead of failing it: its shard is listed under
        ``dead_workers`` and the response carries ``degraded: true``
        while the live workers' models are still reported.
        """
        answers, dead = self._ask_all("models")
        return {
            "models": {str(wid): known for wid, known in answers.items()},
            "degraded": bool(dead),
            "dead_workers": dead,
        }

    def metrics(self) -> dict:
        """Per-worker metrics + fleet-wide counter aggregates.

        A dead worker (or one whose breaker is open) is reported with
        ``"dead": true`` and its last observed counters (if any), and the
        whole response carries ``degraded: true`` with the dead workers
        listed, rather than failing because one shard is down. When a
        dead worker is respawned, its last observed counters move into a
        router-side retired total that every aggregate starts from, so
        aggregates stay monotonic across a crash and a respawn. Counts a
        worker made after its last scrape are lost with it.
        """
        answers, dead = self._ask_all("metrics")
        workers = {}
        totals: Dict[str, int] = dict(self._retired_counters)
        for handle in self._workers:
            snap = answers.get(handle.worker_id)
            if snap is not None:
                handle.last_metrics = snap
            elif handle.last_metrics is not None:
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
        self._check_running()
        recorder = _telemetry.get_recorder()
        spans = [] if recorder is None else list(recorder.for_trace(trace_id))
        # A dead shard degrades the trace, not the route.
        answers, _ = self._ask_all("trace", {"trace_id": trace_id})
        for answer in answers.values():
            spans.extend(answer["spans"])
        if not spans:
            raise TraceNotFoundError(
                f"no spans recorded for trace {trace_id!r} (telemetry off, "
                "id unknown, or evicted from the bounded span ring)"
            )
        return assemble_trace(trace_id, spans)

    def plan_request(self, query: Dict[str, List[str]]) -> dict:
        """Answer ``GET /v1/plan`` from parsed query parameters.

        Router-side — no worker round-trip. ``n`` is required;
        ``m`` (prediction points, default 100), ``substrate``
        (``full-block``/``full-tile``/``tlr``, default: search all
        feasible) and ``accuracy`` (TLR tolerance, default: ladder
        search) are optional. The profile is the process default
        (:func:`~repro.perfmodel.planner.default_profile`), calibrated
        on the first plan request, so servers that never plan pay
        nothing. Malformed parameters raise :class:`PlanError` → 400;
        degenerate probe timings raise :class:`CalibrationError` → 500.
        """
        self._check_running()
        n = _query_number(query, "n", int, "an integer")
        if n is None:
            raise PlanError(
                "missing required query parameter 'n' (problem size, e.g. "
                "GET /v1/plan?n=900)"
            )
        m = _query_number(query, "m", int, "an integer")
        accuracy = _query_number(query, "accuracy", float, "a float")
        substrate = (query.get("substrate") or [None])[-1]
        plan = Planner(default_profile()).plan(
            n, m=100 if m is None else m, substrate=substrate, accuracy=accuracy
        )
        return plan.to_dict()

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
