"""The worker protocol: one message shape, one op table, both ends of the pipe.

A serving worker is a process hosting its own
:class:`~repro.serving.registry.ModelRegistry` and asyncio
:class:`~repro.serving.service.PredictionService`; the router
(:mod:`repro.serving.server`) talks to it over one
:class:`multiprocessing.connection.Connection`. Everything that crosses
that pipe, in either direction, is a :class:`Message`:

========  ==================  =========================================
kind      direction           payload
========  ==================  =========================================
an op     router → worker     the op's argument dict (see :data:`OPS`)
``stop``  router → worker     — (also what a closed pipe reads as)
``ready`` worker → router     the worker id, once, after startup
``ok``    worker → router     the op's result, under the request's id
``err``   worker → router     ``(type name, message, retry_after)``
========  ==================  =========================================

:data:`OPS` is the whole vocabulary: adding a worker operation is one
function and one table entry, and an op name outside the table is a
:class:`~repro.exceptions.ServerError` reply, not a crash. Arrays cross
the pipe pickled — bit exact. Errors cross by name and are rebuilt by
:func:`~repro.exceptions.exception_from_wire`, ``retry_after`` included,
so an open model breaker inside a worker still tells the HTTP client
when to come back.

:func:`_worker_main` is the process entry point (importable by
qualified name, as the ``spawn`` start method requires);
:class:`_WorkerHandle` is the router-side proxy that multiplexes
handler threads over the pipe.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Awaitable, Callable, Dict, NamedTuple, Optional

from ..exceptions import ServerError, exception_from_wire
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import fault_point
from ..telemetry import context as _trace_context
from ..telemetry import spans as _telemetry
from .registry import ModelRegistry
from .service import PredictionService

__all__ = ["Message", "OPS"]


class Message(NamedTuple):
    """One pipe message; see the module docstring for the kinds."""

    kind: str
    id: int = 0
    payload: Any = None


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """What an op may touch inside one worker process."""

    worker_id: int
    registry: ModelRegistry
    service: PredictionService
    loop: asyncio.AbstractEventLoop


async def _predict(w: _Worker, p: dict) -> dict:
    ctx = _trace_context.from_wire(p.get("trace")) if _telemetry.enabled() else None
    with contextlib.ExitStack() as stack:
        if ctx is not None:
            # Each dispatched coroutine runs in its own copied context
            # (run_coroutine_threadsafe), so activating the remote
            # parent here cannot leak into another in-flight request.
            stack.enter_context(_trace_context.activate(ctx))
            stack.enter_context(
                _telemetry.span(
                    "worker.predict", model=str(p["model_id"]), worker=w.worker_id
                )
            )
        value, flags = await w.service.predict(
            p["model_id"],
            p["targets"],
            z=p.get("z"),
            deadline=p.get("deadline"),
            priority=p.get("priority", 0),
            detail=True,
        )
    return {"prediction": value, "degraded": flags["degraded"]}


async def _reload(w: _Worker, p: dict) -> dict:
    # Blocking work (disk read + engine build + possible factorization)
    # stays off the event loop so predicts keep flowing — the whole
    # point of hot-reload.
    await w.loop.run_in_executor(
        None, partial(w.registry.reload, p["model_id"], path=p.get("path"))
    )
    return {"model_id": p["model_id"], "reloads": w.registry.n_reloads}


async def _register(w: _Worker, p: dict) -> dict:
    w.registry.register(p["model_id"], p["path"])
    return {"model_id": p["model_id"]}


async def _models(w: _Worker, p: dict) -> list:
    return w.registry.known_models


async def _metrics(w: _Worker, p: dict) -> dict:
    return {
        "service": w.service.metrics.snapshot(),
        "registry": w.registry.stats(),
        "breakers": w.service.breaker_states(),
    }


async def _trace(w: _Worker, p: dict) -> dict:
    recorder = _telemetry.get_recorder()
    return {"spans": [] if recorder is None else recorder.for_trace(p["trace_id"])}


#: Every operation the router may ask of a worker, by message kind.
OPS: Dict[str, Callable[[_Worker, dict], Awaitable[Any]]] = {
    "predict": _predict,
    "reload": _reload,
    "register": _register,
    "models": _models,
    "metrics": _metrics,
    "trace": _trace,
}


def _worker_main(conn, config: dict) -> None:
    """Entry point of one worker process: registry + service + pipe loop."""
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
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        send_lock = threading.Lock()

        def send(msg: Message) -> None:
            with send_lock:
                try:
                    conn.send(msg)
                except (BrokenPipeError, OSError):  # router is gone; shut down
                    loop.call_soon_threadsafe(stop_event.set)

        async with PredictionService(registry, **config.get("service", {})) as service:
            worker = _Worker(config.get("worker_id", 0), registry, service, loop)

            async def handle(msg: Message) -> None:
                try:
                    fault_point("worker.pipe")
                    op = OPS.get(msg.kind)
                    if op is None:
                        raise ServerError(f"unknown worker op {msg.kind!r}")
                    result = await op(worker, msg.payload)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded to router
                    retry_after = getattr(exc, "retry_after", None)
                    error = (type(exc).__name__, str(exc), retry_after)
                    send(Message("err", msg.id, error))
                else:
                    send(Message("ok", msg.id, result))

            def reader() -> None:
                while True:
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        msg = Message("stop")
                    if msg.kind == "stop":
                        loop.call_soon_threadsafe(stop_event.set)
                        return
                    asyncio.run_coroutine_threadsafe(handle(msg), loop)

            send(Message("ready", payload=worker.worker_id))
            threading.Thread(
                target=reader, name="repro-worker-reader", daemon=True
            ).start()
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
                self._conn.send(Message(op, req_id, payload or {}))
        except (BrokenPipeError, OSError) as exc:
            # Dead now, not once the process is reaped: the router
            # retries a ServerError only on a handle that is not alive.
            self._dead = True
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
            if msg.kind == "ready":
                self.ready.set()
                continue
            with self._pending_lock:
                slot = self._pending.pop(msg.id, None)
            if slot is None:  # timed out meanwhile; drop the late answer
                continue
            if msg.kind == "ok":
                slot.result = msg.payload
            else:
                slot.error = exception_from_wire(*msg.payload)
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

    def wait_ready(self, timeout: float) -> None:
        """Block for the startup handshake; :class:`ServerError` when the
        worker died first or is still silent after ``timeout`` seconds."""
        ready = self.ready.wait(timeout)
        if not ready or not self.alive:
            why = "died during startup" if ready else f"failed to start within {timeout}s"
            raise ServerError(f"worker {self.worker_id} {why}")

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop; escalate to terminate if the worker hangs."""
        try:
            with self._send_lock:
                self._conn.send(Message("stop"))
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
