"""The runtime engine: task insertion, dependency resolution, execution.

:class:`Runtime` implements StarPU's sequential-task-flow model on a
thread pool. ``insert_task`` is non-blocking (with the ``threads``
engine): it registers accesses, infers dependencies via
:class:`~repro.runtime.graph.DependencyTracker`, and enqueues the task
when its dependency count reaches zero. Workers pull from one ready
heap — highest priority first, then push order — and completion
cascades decrement dependents' counters. ``wait_all`` forgets the graph
it drained, so a long-lived runtime keeps no finished task (nor the
payloads its handles hold) alive.

Error model: a failing codelet marks the task FAILED and records the
exception. Until ``wait_all`` has re-raised that *first* error, a task
that depends on a FAILED one still flows through the scheduler (so
dependency counts stay exact) but its body is skipped and it is FAILED
too: a factorization that hits a non-positive pivot in its first panel
does not pay for the whole O(n^3) graph on garbage. Independent tasks
run as usual, and once ``wait_all`` has raised the runtime is reusable.

The ``serial`` engine runs each task synchronously inside ``insert_task``
— program order is always a legal schedule under sequential task flow —
and is used as the determinism oracle in tests and for debugging.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..config import get_config
from ..exceptions import RuntimeEngineError
from ..resilience.faults import fault_point
from ..telemetry import context as _trace_context
from ..telemetry import spans as _telemetry
from ..utils.logging import get_logger
from .graph import DependencyTracker
from .handle import DataHandle
from .task import AccessMode, Task, TaskState, TraceEvent

__all__ = ["Runtime"]

logger = get_logger("runtime")


class Runtime:
    """Task runtime with automatic dependency inference.

    Parameters
    ----------
    num_workers:
        Worker threads; ``None``/0 uses the configured default
        (``Config.resolved_workers``). Ignored by the serial engine.
    engine:
        ``"threads"`` (the asynchronous pool, default) or ``"serial"``
        (synchronous in-order execution — debugging, tests).
    trace:
        Keep one :class:`TraceEvent` per executed task in the plain list
        :attr:`trace` (unbounded — the ablation/test mode; ``None``
        otherwise). Independent of telemetry: whenever telemetry is
        armed, every task also records a ``task:<name>`` span into the
        process span ring, parented to the span that was open on the
        inserting thread, and the runtime itself stores nothing.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.runtime import Runtime, AccessMode
    >>> with Runtime(num_workers=2) as rt:
    ...     h = rt.register(np.zeros(4), name="x")
    ...     def fill(x):
    ...         x += 1.0
    ...     t = rt.insert_task(fill, [(h, AccessMode.READWRITE)])
    ...     rt.wait_all()
    >>> h.get().tolist()
    [1.0, 1.0, 1.0, 1.0]
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        *,
        engine: str = "threads",
        trace: bool = False,
    ) -> None:
        self.engine = engine
        if self.engine not in ("threads", "serial"):
            raise RuntimeEngineError(f"unknown engine {self.engine!r}")
        self.num_workers = (
            1 if self.engine == "serial" else (num_workers or get_config().resolved_workers())
        )
        self.tracker = DependencyTracker()
        self.trace: Optional[List[TraceEvent]] = [] if trace else None
        # Ready tasks as (-priority, push order, task): the earliest pushed
        # of the highest priority pops first.
        self._ready: List[Tuple[int, int, Task]] = []
        self._pushed = itertools.count()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._all_done = threading.Condition(self._lock)
        self._inflight = 0  # tasks inserted but not finished
        self._first_error: Optional[BaseException] = None
        self._shutdown = False
        self._shutdown_guard = threading.Lock()  # serializes shutdown()
        self._closed = False  # workers joined, teardown complete
        self._threads: list[threading.Thread] = []
        if self.engine == "threads":
            for i in range(self.num_workers):
                th = threading.Thread(target=self._worker_loop, args=(i,), daemon=True, name=f"repro-worker-{i}")
                th.start()
                self._threads.append(th)

    # -------------------------------------------------------------- public
    def register(self, payload: Any, name: Optional[str] = None) -> DataHandle:
        """Register a payload and return its handle."""
        self._check_alive()
        return DataHandle(payload, name=name)

    def insert_task(
        self,
        fn: Callable[..., Any],
        accesses: Sequence[Tuple[DataHandle, AccessMode]],
        *,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
        name: Union[str, Tuple[Any, ...], None] = None,
        priority: int = 0,
    ) -> Task:
        """Submit a task; returns immediately with the ``threads`` engine.

        Dependencies on previously inserted tasks are inferred from the
        access declarations (sequential-task-flow semantics). ``name`` is
        a string or a ``(kind, *indices)`` tuple (see :class:`Task`).
        """
        self._check_alive()
        task = Task(fn, accesses, args=args, kwargs=kwargs, name=name, priority=priority)
        if _telemetry.enabled():
            task.trace_ctx = _trace_context.current()
        if self.engine == "serial":
            task.poisoned = self._inherits_failure(self.tracker.register(task))
            self._run_task(task, worker=0)
            return task
        with self._lock:
            deps = self.tracker.register(task)
            task.poisoned = self._inherits_failure(deps)
            open_deps = [d for d in deps if d.state not in (TaskState.DONE, TaskState.FAILED)]
            task.unresolved = len(open_deps)
            for d in open_deps:
                d.dependents.append(task)
            self._inflight += 1
            if task.unresolved == 0:
                self._push_ready(task)
        return task

    def wait_all(self) -> None:
        """Block until every inserted task finished; re-raise first error.

        Purely notification-driven: completion of the last in-flight task
        signals ``_all_done`` (no polling — per-task overhead is the cost
        of a notify, not of a timeout slice). Once nothing is in flight
        the dependency tracker is reset under the runtime lock, for
        either engine and also when an error is re-raised: the drained
        graph's tasks, and the payloads their handles hold, are released.
        """
        with self._lock:
            while self._inflight > 0:
                self._all_done.wait()
            self.tracker.reset()
        self._raise_pending()

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the workers. The runtime cannot be reused afterwards.

        Idempotent and thread-safe: concurrent and repeated calls (for
        example a ``with`` block followed by an explicit ``shutdown()``)
        serialize on an internal guard, and every call returns only
        after the worker threads are joined — no worker thread outlives
        the first completed ``shutdown``.

        Unlike :meth:`wait_all`, the drain loop here keeps a generous
        safety timeout: shutdown must terminate even if a worker thread
        died abnormally and can no longer signal completion.
        """
        with self._shutdown_guard:
            if self._closed:
                return
            if wait and self.engine == "threads" and not self._shutdown:
                with self._lock:
                    while self._inflight > 0:
                        self._all_done.wait(timeout=0.5)
            with self._lock:
                self._shutdown = True
                self._work_available.notify_all()
            for th in self._threads:
                th.join(timeout=5.0)
            # Only declare closed once every worker actually joined; a
            # timed-out join (worker stuck in a long codelet) keeps the
            # thread listed so a later shutdown() retries the join and
            # `closed` never claims more than is true.
            alive = [th for th in self._threads if th.is_alive()]
            self._threads = alive
            if alive:
                logger.warning(
                    "shutdown: %d worker thread(s) did not join within timeout", len(alive)
                )
            self._closed = not alive

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has completed (workers joined)."""
        return self._closed

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------ internals
    def _check_alive(self) -> None:
        if self._shutdown:
            raise RuntimeEngineError("runtime has been shut down")

    def _inherits_failure(self, deps: Iterable[Task]) -> bool:
        """True when an unreported error is pending and a dependency failed."""
        pending = self._first_error is not None
        return pending and any(d.state is TaskState.FAILED for d in deps)

    def _raise_pending(self) -> None:
        err = self._first_error
        if err is not None:
            self._first_error = None
            raise err

    def _push_ready(self, task: Task) -> None:
        """Queue a task whose dependencies are met (caller holds the lock)."""
        task.state = TaskState.READY
        heapq.heappush(self._ready, (-task.priority, next(self._pushed), task))
        self._work_available.notify()

    def _worker_loop(self, worker_id: int) -> None:
        while True:
            with self._lock:
                while not self._ready and not self._shutdown:
                    # Notification-driven: every ready push and the
                    # shutdown flag flip each notify this condition, so no
                    # poll timeout is needed (workers sleep only while the
                    # heap is verifiably empty, under the lock).
                    self._work_available.wait()
                if not self._ready:
                    return  # shut down, nothing left to run
                task = heapq.heappop(self._ready)[2]
            self._run_task(task, worker=worker_id)
            self._complete(task)
            del task  # an idle worker holds nothing of a drained graph

    def _complete(self, task: Task) -> None:
        """Release the dependents of a finished task."""
        with self._lock:
            failed = task.state is TaskState.FAILED
            for dep in task.dependents:
                dep.poisoned |= failed
                dep.unresolved -= 1
                if dep.unresolved == 0:
                    self._push_ready(dep)
            # A finished task keeps no later part of the graph alive (an
            # error's traceback holds the task that raised it).
            task.dependents = []
            self._inflight -= 1
            if self._inflight == 0:
                self._all_done.notify_all()

    def _run_task(self, task: Task, worker: int) -> None:
        if task.poisoned:
            task.state = TaskState.FAILED  # a dependency failed: skip the body
            return
        task.state = TaskState.RUNNING
        task.worker = worker
        task.t_start = time.perf_counter()
        try:
            fault_point("runtime.task")
            task.execute()
            task.state = TaskState.DONE
        except BaseException as exc:  # noqa: BLE001 - error channel, re-raised in wait_all
            with self._lock:
                if self._first_error is None:
                    self._first_error = exc
            # Set after the error is recorded: _inherits_failure reads both.
            task.state = TaskState.FAILED
            logger.debug("task %s failed: %r", task.name, exc)
        finally:
            task.t_end = time.perf_counter()
            if self.trace is not None:  # list.append is atomic under the GIL
                self.trace.append(
                    TraceEvent(task.id, task.name, worker, task.t_start, task.t_end)
                )
            if _telemetry.enabled():
                _telemetry.record_span(
                    f"task:{task.name}", task.duration, ctx=task.trace_ctx, worker=worker
                )
