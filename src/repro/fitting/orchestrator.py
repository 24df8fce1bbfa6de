"""The fit orchestrator: durable, process-parallel, resumable MLE fits.

ExaGeoStatR's lesson (Abdulah et al., 2019) is that the fitting loop
itself deserves packaging: fits are long, machines die, and the
multistart search the strong-correlation regimes need is embarrassingly
parallel. :class:`FitOrchestrator` turns a
:class:`~repro.fitting.jobs.JobStore` of :class:`FitJobSpec`s into
finished :class:`~repro.serving.store.ModelBundle`s.

A job is a list of *legs*, each one process: leg ``i`` of ``n_starts``
runs :meth:`~repro.mle.estimator.MLEstimator.run_leg` from the plan's
``i``-th start, and the last leg — index ``-1``, finalize — hands the
legs' results to :meth:`~repro.mle.estimator.MLEstimator.merge_legs` and
saves the fit as a serving bundle. The fit itself (plan, leg, merge) is
the estimator's; a worker here is the I/O around one of those calls, and
the scheduler treats every leg alike:

* **One table, one queue, one budget, one reaper.** Up to
  ``max_workers`` legs run at once across all jobs. A leg *succeeded*
  when its artifact exists (``result_<i>.json``; for finalize the
  bundle's ``meta.json``), *failed* when it left a typed
  ``error_<i>.json`` — deterministic, so the job fails without a retry —
  and otherwise *died* (killed, OOM) and is respawned up to
  ``max_restarts`` times.
* **Checkpoint / resume.** A start leg streams
  :class:`~repro.optim.neldermead.SimplexState` snapshots through a
  :class:`~repro.fitting.checkpoint.Checkpointer`; respawned, it
  continues from the last one and converges to the same theta, with the
  same evaluation count and the seconds of all its processes, as an
  uninterrupted run. Finalize needs no checkpoint: every paid iteration
  is already on disk.
* **Completion hook.** When finalize succeeded the job turns ``done``
  and ``on_complete`` fires — the hook
  :class:`~repro.serving.server.ServingServer` uses to hot-reload the
  refitted model with zero downtime.

The scheduler is a single thread; it blocks on the worker process
sentinels plus a wake pipe (no polling loops) and is the only writer of
each job's ``state.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import CheckpointError, FittingError
from ..optim.result import OptimizeResult
from ..resilience.faults import fault_point
from ..telemetry import spans as _telemetry
from ..utils.logging import get_logger
from .checkpoint import Checkpointer
from .jobs import FitJobSpec, JobStore

__all__ = ["FitOrchestrator"]

logger = get_logger(__name__)

#: Option names accepted by :class:`FitOrchestrator` (validated up front
#: so a ServingServer can reject a typo'd ``fit_options`` dict before it
#: spawns anything).
ORCHESTRATOR_OPTIONS = (
    "max_workers",
    "checkpoint_every",
    "max_restarts",
    "start_method",
)

#: Leg index of a job's finalize step — the slot its ``error_-1.json``
#: has always used.
FINALIZE = -1


def _leg_name(idx: int) -> str:
    return "finalize" if idx == FINALIZE else f"start {idx}"


# ---------------------------------------------------------------------------
# Worker-process entry points
# ---------------------------------------------------------------------------


def _json_trace_line(iteration: int, theta: np.ndarray, fun: float) -> str:
    return json.dumps(
        {
            "iteration": int(iteration),
            "loglik": -float(fun),
            "theta": [float(v) for v in theta],
        }
    )


def _run_leg(root: str, job_id: str, idx: int, checkpoint_every: int) -> None:
    """Process target of every leg (importable by name for ``spawn``)."""
    if idx == FINALIZE:
        _finalize_job(root, job_id)
    else:
        _run_start(root, job_id, idx, checkpoint_every)


def _run_start(root: str, job_id: str, start_idx: int, checkpoint_every: int) -> None:
    """One multistart leg: the I/O around ``estimator.run_leg``.

    Resumes from the leg's checkpoint when one exists. The per-iteration
    trace is rewritten from the checkpoint's history on resume, so the
    trace file never holds duplicate iterations.
    """
    store = JobStore(root)
    try:
        # Chaos hook: a ``fit.leg`` kill rule exercises the abnormal-death
        # → respawn-from-checkpoint path; the plan's cross-process hit
        # counters mean the respawned leg sees the next hit and proceeds.
        fault_point("fit.leg", path=f"{job_id}/{start_idx}")
        # The leg runs in its own process: its spans (this one, plus
        # every nested loglik.eval / stage:* span) land in the process's
        # JSONL sink when REPRO_TELEMETRY_SINK is exported — the raw
        # material for perfmodel/calibrate.py.
        with _telemetry.span("fit.leg", job=job_id, start=start_idx):
            estimator, plan = store.spec(job_id).resolve()
            ckpt = Checkpointer(
                store.checkpoint_path(job_id, start_idx), every=checkpoint_every
            )
            try:
                state = ckpt.load()
            except CheckpointError:
                state = None  # torn/corrupt checkpoint: restart this leg fresh
            with store.trace_path(job_id, start_idx).open("w") as trace:

                def on_iteration(it: int, theta: np.ndarray, fun: float) -> None:
                    trace.write(_json_trace_line(it, theta, fun) + "\n")
                    trace.flush()

                for entry in state.history if state is not None else ():
                    on_iteration(*entry)
                result = estimator.run_leg(
                    plan,
                    start_idx,
                    state=state,
                    callback=on_iteration,
                    state_callback=ckpt,
                )
            store.write_start_result(
                job_id,
                start_idx,
                {
                    "x": [float(v) for v in result.x],
                    "fun": float(result.fun),
                    "nfev": int(result.nfev),
                    "nit": int(result.nit),
                    "converged": bool(result.converged),
                    "message": result.message,
                    "elapsed": result.elapsed,
                },
            )
    except Exception as exc:  # deterministic failure: report, don't retry
        store.write_start_error(job_id, start_idx, exc)


def _leg_result(store: JobStore, job_id: str, i: int) -> Optional[OptimizeResult]:
    """Start ``i``'s persisted outcome, its trace as the optimizer history."""
    record = store.read_start_result(job_id, i)
    if record is None:
        return None
    return OptimizeResult(
        x=np.asarray(record["x"], dtype=np.float64),
        fun=float(record["fun"]),
        nfev=int(record["nfev"]),
        nit=int(record["nit"]),
        converged=bool(record["converged"]),
        message=str(record["message"]),
        history=store.history(job_id, i),
        elapsed=float(record.get("elapsed", 0.0)),
    )


def _finalize_job(root: str, job_id: str) -> None:
    """The job's last leg: the I/O around ``estimator.merge_legs``.

    Reads every start's result back (its trace as the optimizer
    history), merges, and persists the merged result and the serving
    bundle. Its own process because bundling may factorize ``Sigma_22``
    at the winning theta (``include_factor``) — heavy work that must not
    stall the scheduler thread.
    """
    store = JobStore(root)
    try:
        spec = store.spec(job_id)
        estimator, plan = spec.resolve()
        fit = estimator.merge_legs(
            plan, [_leg_result(store, job_id, i) for i in range(spec.n_starts)]
        )
        store.write_result(
            job_id,
            {
                "theta": [float(v) for v in fit.theta],
                "loglik": fit.loglik,
                "fun": fit.optimizer.fun,
                "nfev": fit.optimizer.nfev,
                "nit": fit.optimizer.nit,
                "converged": fit.optimizer.converged,
                "message": fit.optimizer.message,
                "best_start": fit.options["best_start"],
                "elapsed": fit.time_total,
            },
        )
        estimator.save_fit(fit, store.bundle_dir(job_id), include_factor=spec.include_factor)
    except Exception as exc:
        store.write_start_error(job_id, FINALIZE, exc)


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


class FitOrchestrator:
    """Runs the jobs of a :class:`JobStore` on a pool of processes.

    Parameters
    ----------
    store:
        The job ledger (a :class:`JobStore` or a directory path).
    max_workers:
        Worker *processes*: the concurrency cap across every job's
        legs (finalize included), and the fan-out width of a single
        job's multistart search.
    checkpoint_every:
        Iterations between a running leg's on-disk Nelder-Mead
        checkpoints. ``1`` checkpoints every iteration (cheapest
        resume, most I/O); larger values amortize the write.
    max_restarts:
        Respawns granted to each of a job's legs (finalize included)
        whose worker dies abnormally (killed, OOM) before the job is
        declared failed — counted per leg, so one machine-wide event
        that kills every leg once does not exhaust the budget. Start
        legs resume from checkpoints; the job-level ``restarts``
        counter in its state records the total across legs.
    start_method:
        :mod:`multiprocessing` start method (default ``fork`` where
        available, else ``spawn``).
    on_complete:
        Called with the finished job's record (no trace) after its
        bundle landed and its state turned ``done`` — the serving
        integration hook. Exceptions are caught and recorded on the
        job as ``complete_error``; they never kill the scheduler.

    Examples
    --------
    >>> orch = FitOrchestrator("fit-jobs", max_workers=4)   # doctest: +SKIP
    >>> job_id = orch.start().submit(FitJobSpec(locations=locs, z=z,
    ...                                         n_starts=4, seed=7))
    >>> record = orch.wait(job_id, timeout=600)             # doctest: +SKIP
    >>> record["status"], record["result"]["theta"]         # doctest: +SKIP
    """

    def __init__(
        self,
        store: Union[JobStore, str, Path],
        *,
        max_workers: int = 2,
        checkpoint_every: int = 5,
        max_restarts: int = 2,
        start_method: Optional[str] = None,
        on_complete: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.validate_options(
            {
                "max_workers": max_workers,
                "checkpoint_every": checkpoint_every,
                "max_restarts": max_restarts,
                "start_method": start_method,
            }
        )
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self.max_workers = int(max_workers)
        self.checkpoint_every = int(checkpoint_every)
        self.max_restarts = int(max_restarts)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.on_complete = on_complete
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Legs are keyed (job_id, idx); idx FINALIZE is the job's last.
        self._procs: Dict[Tuple[str, int], multiprocessing.process.BaseProcess] = {}
        self._pending: Deque[Tuple[str, int]] = deque()
        self._restarts: Dict[Tuple[str, int], int] = {}
        self._wake_r: Optional[int] = None
        self._wake_w: Optional[int] = None

    @staticmethod
    def validate_options(options: Optional[dict]) -> dict:
        """Check an options dict (e.g. a server's ``fit_options``) up
        front, keys and values, without touching the filesystem;
        returns it. Problems raise :class:`FittingError` — the caller
        (a :class:`ServingServer` constructor) is the right place to
        fail, not the first submitted job."""
        options = dict(options or {})
        unknown = sorted(set(options) - set(ORCHESTRATOR_OPTIONS))
        if unknown:
            raise FittingError(
                f"unknown fit orchestrator options {unknown}; "
                f"valid: {sorted(ORCHESTRATOR_OPTIONS)}"
            )
        for key, minimum in (("max_workers", 1), ("checkpoint_every", 1), ("max_restarts", 0)):
            value = options.get(key)
            if value is not None and int(value) < minimum:
                raise FittingError(f"{key} must be >= {minimum}, got {value}")
        method = options.get("start_method")
        if method is not None and method not in multiprocessing.get_all_start_methods():
            raise FittingError(
                f"start_method {method!r} unavailable; "
                f"choose from {multiprocessing.get_all_start_methods()}"
            )
        return options

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "FitOrchestrator":
        """Recover the store and launch the scheduler thread (idempotent)."""
        with self._cond:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            self.store.recover()
            for state in self.store.list_jobs():
                if state["status"] in ("queued", "checkpointed"):
                    self._schedule_locked(state["job_id"])
            self._thread = threading.Thread(
                target=self._loop, name="repro-fit-orchestrator", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop scheduling and terminate running fit processes.

        Checkpoints already on disk survive, and the final
        :meth:`JobStore.recover` flips interrupted jobs back to
        ``checkpointed``/``queued`` — a later orchestrator (same store)
        resumes them where they stopped.
        """
        with self._cond:
            thread, self._thread = self._thread, None
            self._stop.set()
            self._wake()
        if thread is not None:
            thread.join(timeout)
        with self._cond:
            procs = list(self._procs.values())
            self._procs.clear()
            self._pending.clear()
            self._restarts.clear()
            for fd in (self._wake_r, self._wake_w):
                if fd is not None:
                    try:
                        os.close(fd)
                    except OSError:  # pragma: no cover - already closed
                        pass
            self._wake_r = self._wake_w = None
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(5.0)
        self.store.recover()

    def __enter__(self) -> "FitOrchestrator":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """True while the scheduler thread is actually alive (a dead
        thread must degrade ``/healthz``, not report healthy)."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    # --------------------------------------------------------------- submit
    def submit(self, spec: FitJobSpec) -> str:
        """Persist ``spec`` as a queued job; returns its id immediately."""
        job_id = self.store.create(spec)
        with self._cond:
            if self._thread is not None:
                self._schedule_locked(job_id)
                self._wake()
        return job_id

    def status(self, job_id: str) -> dict:
        """The job's current state (single read of ``state.json``)."""
        return self.store.state(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Block until the job is ``done``/``failed``; returns its record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                state = self.store.state(job_id)
                if state["status"] in ("done", "failed"):
                    return self.store.record(job_id)
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise FittingError(
                        f"job {job_id} still {state['status']!r} after {timeout}s"
                    )
                self._cond.wait(0.5 if remaining is None else min(0.5, remaining))

    def worker_pids(self, job_id: str) -> List[int]:
        """PIDs of the job's live leg processes (tests use this to kill
        a fit mid-run and watch it resume)."""
        with self._cond:
            return [
                proc.pid
                for (jid, _), proc in self._procs.items()
                if jid == job_id and proc.pid is not None and proc.is_alive()
            ]

    # ------------------------------------------------------------ scheduler
    def _leg_done(self, job_id: str, idx: int) -> bool:
        """Whether the leg's artifact landed — the one thing that differs
        between a start leg and finalize."""
        if idx == FINALIZE:
            # meta.json is the bundle's commit marker (written last by
            # ModelBundle.save): its presence means arrays landed too.
            return (self.store.bundle_dir(job_id) / "meta.json").is_file()
        return self.store.read_start_result(job_id, idx) is not None

    def _schedule_locked(self, job_id: str) -> None:
        """Queue the legs the job still owes: every start without a
        result that is neither queued nor running, or — when all starts
        have reported and nothing of the job is in flight (a fresh
        orchestrator over a job killed during finalize included) —
        finalize, ahead of other jobs' starts."""
        n_starts = int(self.store.state(job_id).get("n_starts", 1))
        busy = {key[1] for key in (*self._pending, *self._procs) if key[0] == job_id}
        owed = [
            (job_id, i)
            for i in range(n_starts)
            if i not in busy and not self._leg_done(job_id, i)
        ]
        if owed:
            self._pending.extend(owed)
        elif not busy:
            self._pending.appendleft((job_id, FINALIZE))

    def _wake(self) -> None:
        if self._wake_w is None:
            return
        try:
            os.write(self._wake_w, b"x")
        except OSError:  # pragma: no cover - pipe gone during teardown
            pass

    def _loop(self) -> None:
        wake_r = self._wake_r
        while not self._stop.is_set():
            sentinels: List[object] = []
            try:
                with self._cond:
                    completed = self._reap_locked()
                    self._launch_locked()
                    sentinels = [p.sentinel for p in self._procs.values()]
                    self._cond.notify_all()
                # The completion hook (e.g. the serving server's
                # hot-reload round-trip, bounded only by its request
                # timeout) runs on its own thread: neither the condition
                # lock nor this scheduler thread waits on it, so a slow
                # reload stalls no reaping, launching, submit() or wait().
                for job_id in completed:
                    threading.Thread(
                        target=self._fire_on_complete,
                        args=(job_id,),
                        name=f"repro-fit-complete-{job_id}",
                        daemon=True,
                    ).start()
            except Exception:  # noqa: BLE001 - the scheduler must survive
                logger.exception("fit scheduler iteration failed; continuing")
            multiprocessing.connection.wait(sentinels + [wake_r], timeout=1.0)
            try:
                while os.read(wake_r, 4096):
                    pass
            except BlockingIOError:
                pass
            except OSError:  # pragma: no cover - pipe gone during teardown
                return

    def _reap_locked(self) -> List[str]:
        """Reap exited legs; returns the ids of the jobs that turned
        ``done``, whose ``on_complete`` hook the caller must fire *off*
        the lock."""
        completed: List[str] = []
        for key in [k for k, p in self._procs.items() if p.exitcode is not None]:
            job_id, idx = key
            proc = self._procs.pop(key, None)
            if proc is None:
                # A sibling leg's abort already removed this key.
                continue
            if self._leg_done(job_id, idx):
                if idx == FINALIZE:
                    self.store.update(
                        job_id,
                        status="done",
                        finished_at=time.time(),
                        result=self.store.read_result(job_id),
                        bundle_path=str(self.store.bundle_dir(job_id)),
                    )
                    completed.append(job_id)
                else:
                    self._schedule_locked(job_id)
                continue
            error = self.store.read_start_error(job_id, idx)
            if error is not None:
                # Deterministic failure: retrying would fail identically.
                self._abort_job_locked(
                    job_id, f"{_leg_name(idx)}: {error['type']}: {error['message']}"
                )
                continue
            # Abnormal death (SIGKILL; OOM during the bundle's
            # factorization is the classic for finalize). The budget is
            # per leg, so one machine-wide event that kills every leg of
            # a multistart job once does not exhaust it.
            used = self._restarts.get(key, 0)
            if used < self.max_restarts:
                logger.warning(
                    "fit job %s %s died (exitcode %s); respawning%s",
                    job_id, _leg_name(idx), proc.exitcode,
                    " from checkpoint" if self.store.has_checkpoint(job_id, idx) else "",
                )
                self._restarts[key] = used + 1
                state = self.store.state(job_id)
                self.store.update(
                    job_id,
                    restarts=int(state.get("restarts", 0)) + 1,
                    status="checkpointed",
                )
                self._pending.appendleft(key)
            else:
                self._abort_job_locked(
                    job_id,
                    f"{_leg_name(idx)} process died (exitcode {proc.exitcode}) "
                    f"after {used} restart(s)",
                )
        return completed

    def _fire_on_complete(self, job_id: str) -> None:
        if self.on_complete is None:
            return
        try:
            self.on_complete(self.store.record(job_id, include_trace=False))
        except Exception as exc:  # noqa: BLE001 - recorded, never fatal
            logger.warning("on_complete hook for %s failed: %s", job_id, exc)
            try:
                self.store.update(job_id, complete_error=str(exc))
            except FittingError:  # pragma: no cover - store vanished
                pass

    def _abort_job_locked(self, job_id: str, message: str) -> None:
        for key in [k for k in self._pending if k[0] == job_id]:
            self._pending.remove(key)
        for key in [k for k in self._procs if k[0] == job_id]:
            proc = self._procs.pop(key)
            if proc.is_alive():
                proc.terminate()
        self.store.update(
            job_id, status="failed", finished_at=time.time(), error=message
        )

    def _launch_locked(self) -> None:
        while len(self._procs) < self.max_workers and self._pending:
            key = job_id, idx = self._pending.popleft()
            state = self.store.state(job_id)
            if state["status"] in ("done", "failed"):
                continue
            updates = {"status": "running"}
            if not state.get("started_at"):
                updates["started_at"] = time.time()
            self.store.update(job_id, **updates)
            proc = self._ctx.Process(
                target=_run_leg,
                args=(str(self.store.root), job_id, idx, self.checkpoint_every),
                name=f"repro-fit-{job_id}-{_leg_name(idx)}",
                daemon=True,
            )
            proc.start()
            self._procs[key] = proc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._cond:
            return (
                f"FitOrchestrator(running={self.running}, "
                f"workers={len(self._procs)}/{self.max_workers}, "
                f"pending={len(self._pending)})"
            )
