"""Async micro-batching prediction service over the model registry.

The kriging engine is optimized for *batched* work: one cached
``Sigma_22`` factor serves any number of target rows, and
:meth:`~repro.mle.prediction_engine.PredictionEngine.predict_many`
turns many target sets into one stacked cross-covariance pass. A
serving front-end therefore wants the opposite of request-at-a-time
dispatch: concurrent requests for the same model should *coalesce*.

:class:`PredictionService` implements that with a per-model
micro-batcher:

* ``await predict(model_id, targets)`` enqueues a request on the
  model's bounded queue (**backpressure**: a full queue rejects with
  :class:`~repro.exceptions.ServiceOverloadedError` instead of growing
  without bound) and awaits its future.
* The model's batcher task runs one round at a time, by one rule: a
  round is the first queued request plus the backlog behind it, up to
  ``max_batch``. Requests whose **deadline** expired are dropped; of
  the rest, the requests using the model's bound observations become
  one ``predict_many`` call (one ``predict`` when alone) and every
  request carrying its own ``z`` is its own ``predict`` call. Every
  answer is therefore **bit-identical** to a standalone
  :meth:`~repro.mle.prediction_engine.PredictionEngine.predict`
  (``predict_many`` computes per-set cross-distances, one stacked
  elementwise covariance application, and a per-request slice GEMV with
  exactly the shape a standalone call would use), and ``priority`` only
  orders a round's groups. There is no batch window: the batcher awaits
  each engine call, so requests that arrive while one runs queue up and
  form the next round — under load the engine's busy time *is* the
  coalescing window, and a lone request is dispatched at once.
* Engine calls run on a thread pool via ``run_in_executor``, so the
  event loop keeps accepting requests while BLAS works (NumPy releases
  the GIL in the heavy kernels).

The service is asyncio-native (``async with PredictionService(...)``)
and owns nothing global: the registry is injected, the two-thread pool
is its own, and its counters and latencies live in instruments it owns
(``service.metrics``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ModelNotFoundError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import fault_point
from ..telemetry import context as _trace_context
from ..telemetry import spans as _telemetry
from ..telemetry.metrics import Counter, Histogram
from ..utils.validation import check_locations
from .registry import ModelRegistry

#: Failures caused by the *request* (bad shapes, expired deadlines,
#: unknown models) — they pass through to their owner without counting
#: against the model's circuit breaker, which tracks only
#: infrastructure health.
_USER_ERRORS = (
    DeadlineExceededError,
    ModelNotFoundError,
    ShapeError,
    ConfigurationError,
    ValueError,
    TypeError,
)

__all__ = ["PredictionService"]

_LATENCY_HELP = "submit-to-answer request latency"

_COUNTERS = (
    "requests",  # accepted submissions
    "completed",  # requests answered successfully
    "engine_calls",  # PredictionEngine invocations (what micro-batching minimizes)
    "batches",  # dispatch rounds that grouped >= 2 requests
    "coalesced_requests",  # requests served through a grouped call
    "rejected_overload",  # submissions refused by backpressure
    "deadline_exceeded",  # requests expired before dispatch
    "batch_retries",  # failed groups re-dispatched per request
    "errors",  # requests failed by an engine error
    "degraded",  # requests answered by a last-known-good engine
)


class ServiceInstruments:
    """The one store of a service's counters and request latencies.

    :class:`~repro.telemetry.metrics.Counter` / ``Histogram`` instruments
    written once per event by :class:`PredictionService` (event loop and
    executor threads alike). :meth:`snapshot` is what ``/v1/metrics``
    reports per worker and what the router's Prometheus exposition is
    rendered from.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {
            name: Counter(f"service_{name}") for name in _COUNTERS
        }
        self.latency = Histogram("service_latency_seconds", help=_LATENCY_HELP)

    def snapshot(self) -> dict:
        """``{"counters": {name: int}, "latency_seconds": {...}}``.

        The latency block is :meth:`Histogram.snapshot`: lifetime
        ``count`` / ``sum`` / bucket counts, and ``mean`` / ``p50`` /
        ``p95`` / ``max`` over the most recent samples.
        """
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "latency_seconds": self.latency.snapshot(),
        }


def registry_view(snapshot: dict) -> dict:
    """A :meth:`ServiceInstruments.snapshot` (possibly off a worker pipe)
    in :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` shape,
    under the ``service_*`` names the Prometheus exposition uses."""
    return {
        "counters": {f"service_{n}": v for n, v in snapshot["counters"].items()},
        "histograms": {"service_latency_seconds": snapshot["latency_seconds"]},
        "help": {"service_latency_seconds": _LATENCY_HELP},
    }


class _Request:
    """One queued predict: payload, bookkeeping, and the answer future."""

    __slots__ = (
        "targets",
        "z",
        "future",
        "t_submit",
        "deadline",
        "priority",
        "trace_ctx",
    )

    def __init__(
        self,
        targets: np.ndarray,
        z: Optional[np.ndarray],
        future: "asyncio.Future[np.ndarray]",
        t_submit: float,
        deadline: Optional[float],
        priority: int = 0,
        trace_ctx: Optional[_trace_context.TraceContext] = None,
    ) -> None:
        self.targets = targets
        self.z = z
        self.future = future
        self.t_submit = t_submit  # monotonic seconds
        self.deadline = deadline  # absolute monotonic seconds, or None
        self.priority = priority  # orders the groups of a round, highest first
        # run_in_executor does NOT propagate contextvars, so the trace
        # context is captured here and re-activated on the executor
        # thread — the one hand-off the contextvar cannot make itself.
        self.trace_ctx = trace_ctx


class PredictionService:
    """Asyncio micro-batching front-end over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        Source of warm engines (not owned: :meth:`stop` does not close it).
    max_batch:
        Cap on requests coalesced into one dispatch round. For
        request-at-a-time dispatch set ``max_batch=1``.
    max_queue:
        Per-model queue bound; beyond it submissions are rejected with
        :class:`ServiceOverloadedError` (backpressure).
    breaker_threshold:
        Consecutive infrastructure failures that open a model's circuit
        breaker. While open, the model serves from its last-known-good engine generation with
        ``degraded: true`` — or fails fast with
        :class:`~repro.exceptions.CircuitOpenError` when none exists.
    breaker_recovery:
        Seconds an open breaker waits before admitting probe traffic.

    Engine calls run on a two-thread pool the service creates in
    :meth:`start` and shuts down in :meth:`stop`.

    Examples
    --------
    >>> async def main():                                  # doctest: +SKIP
    ...     async with PredictionService(registry) as svc:
    ...         return await svc.predict("soil", targets)
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        max_batch: int = 64,
        max_queue: int = 256,
        breaker_threshold: int = 5,
        breaker_recovery: float = 2.0,
    ) -> None:
        # Nonsense knobs fail here, at construction — not by silent
        # clamping, and not as a confusing error on the first request.
        if int(max_batch) < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if int(max_queue) < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        self._breaker_options = {
            "failure_threshold": breaker_threshold,
            "recovery_time": breaker_recovery,
        }
        CircuitBreaker(**self._breaker_options)  # validates both knobs
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.metrics = ServiceInstruments()
        self._count = self.metrics.counters
        # One breaker per model, made with its queue on the event loop
        # and kept across stop/start; executor threads only read the map.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queues: Dict[str, "asyncio.Queue[_Request]"] = {}
        self._batchers: Dict[str, "asyncio.Task[None]"] = {}
        self._closed = True

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "PredictionService":
        """Bind to the running event loop and start accepting requests."""
        if self._loop is not None and not self._closed:
            return self
        self._loop = asyncio.get_running_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serving"
        )
        self._closed = False
        return self

    async def stop(self) -> None:
        """Stop batchers, fail queued requests, release the executor.

        Idempotent. Queued and in-flight requests fail with
        :class:`ServiceClosedError`; an engine call already running on
        the executor finishes on its own thread (the executor shutdown
        waits for it) but its requests are already answered with the
        error.
        """
        if self._closed:
            return
        self._closed = True
        batchers = list(self._batchers.values())
        self._batchers.clear()
        for task in batchers:
            task.cancel()
        await asyncio.gather(*batchers, return_exceptions=True)
        for queue in self._queues.values():
            while True:
                try:
                    req = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._fail(req, ServiceClosedError("service stopped"))
        self._queues.clear()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # Off-loop: shutdown(wait=True) blocks until in-flight engine
            # calls finish, and must not freeze the event loop meanwhile.
            await asyncio.get_running_loop().run_in_executor(None, executor.shutdown)

    async def __aenter__(self) -> "PredictionService":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -------------------------------------------------------------- predict
    async def predict(
        self,
        model_id: str,
        targets: np.ndarray,
        *,
        z: Optional[np.ndarray] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        detail: bool = False,
    ) -> np.ndarray:
        """Conditional mean at ``targets`` under model ``model_id``.

        Parameters
        ----------
        model_id:
            A model known to the registry.
        targets:
            ``(m, d)`` prediction locations.
        z:
            Optional observation override (else the model's bound
            observations — the coalescing-friendly path).
        deadline:
            Seconds from now this request stays valid (``None``: no
            deadline); expired requests fail with
            :class:`DeadlineExceededError` instead of occupying an
            engine. Non-positive values are already expired.
        priority:
            Orders groups within a round: the group holding the highest
            priority dispatches first. It never changes which requests
            share a round or an engine call.
        detail:
            When true, return ``(prediction, flags)`` where ``flags``
            carries ``{"degraded": bool}`` — true when the answer came
            from a last-known-good engine generation rather than the
            model's current primary.

        Raises
        ------
        ServiceOverloadedError
            The model's queue is full (backpressure).
        ServiceClosedError
            The service is not running.
        ModelNotFoundError
            ``model_id`` is unknown to the registry (checked up front,
            so bogus ids cannot accumulate queues or batcher tasks).
        """
        if self._closed or self._loop is None:
            raise ServiceClosedError("service is not running (use 'async with' or start())")
        if not self.registry.has(model_id):
            raise ModelNotFoundError(f"model {model_id!r} is not registered")
        targets = check_locations(
            np.ascontiguousarray(np.asarray(targets, dtype=np.float64)), "targets"
        )
        if z is not None:
            z = np.asarray(z, dtype=np.float64)
        with _telemetry.span("service.predict", model=model_id):
            now = time.monotonic()
            req = _Request(
                targets,
                z,
                self._loop.create_future(),
                now,
                None if deadline is None else now + float(deadline),
                int(priority),
                trace_ctx=_trace_context.current() if _telemetry.enabled() else None,
            )
            queue = self._queue_for(model_id)
            try:
                queue.put_nowait(req)
            except asyncio.QueueFull:
                self._count["rejected_overload"].inc()
                raise ServiceOverloadedError(
                    f"model {model_id!r} has {self.max_queue} queued requests"
                ) from None
            self._count["requests"].inc()
            value, flags = await req.future
        if detail:
            return value, flags
        return value

    # ------------------------------------------------------------- batching
    def _queue_for(self, model_id: str) -> "asyncio.Queue[_Request]":
        queue = self._queues.get(model_id)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.max_queue)
            self._queues[model_id] = queue
            if model_id not in self._breakers:
                self._breakers[model_id] = CircuitBreaker(**self._breaker_options)
            assert self._loop is not None
            self._batchers[model_id] = self._loop.create_task(
                self._batch_loop(model_id, queue), name=f"repro-batcher-{model_id}"
            )
        return queue

    async def _batch_loop(self, model_id: str, queue: "asyncio.Queue[_Request]") -> None:
        """Collect → expire → group → dispatch, forever (cancelled by stop)."""
        assert self._loop is not None
        batch: List[_Request] = []
        try:
            while True:
                batch = [await queue.get()]
                t_open = self._loop.time()
                while len(batch) < self.max_batch:
                    try:
                        batch.append(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                if _telemetry.enabled():
                    # The round's backlog drain, attributed to the request
                    # that opened it.
                    _telemetry.record_span(
                        "service.coalesce",
                        self._loop.time() - t_open,
                        ctx=batch[0].trace_ctx,
                        model=model_id,
                        batch=len(batch),
                    )
                now = time.monotonic()
                live = []
                for req in batch:
                    if req.deadline is not None and now > req.deadline:
                        self._count["deadline_exceeded"].inc()
                        self._fail(req, DeadlineExceededError(
                            f"request expired {now - req.deadline:.3f}s before dispatch"
                        ))
                    else:
                        live.append(req)
                if not live:
                    continue
                if len(live) > 1:
                    self._count["batches"].inc()
                for kind, group in self._plan(live):
                    await self._dispatch(model_id, kind, group)
        except asyncio.CancelledError:
            # Requests already taken off the queue (collected into the
            # current round, or in groups not yet dispatched) are no
            # longer reachable by stop()'s queue drain — fail them here
            # or their callers would await forever.
            for req in batch:
                self._fail(req, ServiceClosedError("service stopped"))
            raise

    def _plan(self, live: List[_Request]) -> List[Tuple[str, List[_Request]]]:
        """Group a round's requests: shared-``z`` requests together, each
        explicit-``z`` request alone.

        Groups come back highest-priority first, so an urgent request's
        engine call runs before the round's bulk traffic.
        """
        groups: List[Tuple[str, List[_Request]]] = []
        shared = [r for r in live if r.z is None]
        if shared:
            groups.append(("stack" if len(shared) > 1 else "single", shared))
        groups.extend(("single", [r]) for r in live if r.z is not None)
        groups.sort(key=lambda g: max(r.priority for r in g[1]), reverse=True)
        return groups

    async def _dispatch(self, model_id: str, kind: str, group: List[_Request]) -> None:
        assert self._loop is not None
        try:
            results, degraded = await self._loop.run_in_executor(
                self._executor, self._execute, model_id, kind, group
            )
        except asyncio.CancelledError:
            for req in group:
                self._fail(req, ServiceClosedError("service stopped mid-dispatch"))
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded to the callers
            if len(group) > 1:
                # One malformed request must not poison its batch: retry
                # each request alone so the error reaches only its owner.
                self._count["batch_retries"].inc()
                for req in group:
                    await self._dispatch(model_id, "single", [req])
                return
            if isinstance(exc, DeadlineExceededError):
                self._count["deadline_exceeded"].inc()
            else:
                self._count["errors"].inc(len(group))
            for req in group:
                self._fail(req, exc)
            return
        now = time.monotonic()
        if degraded:
            self._count["degraded"].inc(len(group))
        for req, result in zip(group, results):
            # A caller may have cancelled its future (e.g. wait_for
            # timeout); only deliveries that actually happen count as
            # completed or contribute a latency sample.
            if not req.future.done():
                req.future.set_result((result, {"degraded": degraded}))
                self._count["completed"].inc()
                self.metrics.latency.observe(now - req.t_submit)

    def _execute(
        self, model_id: str, kind: str, group: Sequence[_Request]
    ) -> Tuple[List[np.ndarray], bool]:
        """Run one coalesced engine call (executor thread).

        Returns the per-request results plus a ``degraded`` flag — true
        when the answers came from a fallback engine generation. Queue
        wait may have consumed a request's whole deadline, so deadlines
        are re-checked here: expired work raises instead of occupying
        an engine. Infrastructure failures (and only those) feed the
        model's circuit breaker; an open breaker serves the
        last-known-good generation when one exists and fails fast with
        :class:`CircuitOpenError` otherwise.
        """
        if not _telemetry.enabled():
            return self._execute_inner(model_id, kind, group)
        # Executor threads never inherit the submitting task's
        # contextvars: re-activate the lead request's trace context so
        # engine/stage spans attach under it, and record each request's
        # queue wait (submit → execution start) in its own trace.
        now = time.monotonic()
        for req in group:
            _telemetry.record_span(
                "service.queue_wait",
                max(0.0, now - req.t_submit),
                ctx=req.trace_ctx,
                model=model_id,
            )
        with _trace_context.activate(group[0].trace_ctx):
            with _telemetry.span(
                "service.execute", model=model_id, kind=kind, batch=len(group)
            ):
                return self._execute_inner(model_id, kind, group)

    def _execute_inner(
        self, model_id: str, kind: str, group: Sequence[_Request]
    ) -> Tuple[List[np.ndarray], bool]:
        now = time.monotonic()
        for req in group:
            if req.deadline is not None and now > req.deadline:
                raise DeadlineExceededError(
                    f"request expired {now - req.deadline:.3f}s before execution"
                )
        breaker = self._breakers[model_id]
        if not breaker.allow():
            fallback = self.registry.fallback_engine(model_id)
            if fallback is None:
                raise CircuitOpenError(
                    f"model {model_id!r} circuit breaker is open",
                    retry_after=breaker.retry_after,
                )
            _telemetry.annotate("degraded", "breaker open: last-known-good engine")
            return self._run_engine(fallback, kind, group), True
        try:
            engine = self.registry.engine(model_id)
            fault_point("engine.predict")
            results = self._run_engine(engine, kind, group)
        except _USER_ERRORS:
            raise
        except BaseException:
            breaker.record_failure()
            raise
        breaker.record_success()
        return results, self.registry.is_degraded(model_id)

    def _run_engine(
        self, engine, kind: str, group: Sequence[_Request]
    ) -> List[np.ndarray]:
        self._count["engine_calls"].inc()
        if kind == "stack":
            self._count["coalesced_requests"].inc(len(group))
            return engine.predict_many([req.targets for req in group])
        req = group[0]
        return [engine.predict(req.targets, z=req.z)]

    def breaker_states(self) -> Dict[str, dict]:
        """Per-model circuit-breaker snapshots (for metrics surfaces)."""
        return {mid: breaker.snapshot() for mid, breaker in self._breakers.items()}

    def _fail(self, req: _Request, exc: BaseException) -> None:
        if not req.future.done():
            req.future.set_exception(exc)

    # ------------------------------------------------------------- plumbing
    @property
    def closed(self) -> bool:
        """True while the service is not accepting requests."""
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictionService(max_batch={self.max_batch}, queue={self.max_queue}, "
            f"{'closed' if self._closed else 'running'})"
        )
