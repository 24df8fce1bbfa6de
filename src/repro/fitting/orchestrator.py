"""The fit orchestrator: durable, process-parallel, resumable MLE fits.

ExaGeoStatR's lesson (Abdulah et al., 2019) is that the fitting loop
itself deserves packaging: fits are long, machines die, and the
multistart search the strong-correlation regimes need is embarrassingly
parallel. :class:`FitOrchestrator` turns a
:class:`~repro.fitting.jobs.JobStore` of :class:`FitJobSpec`s into
finished :class:`~repro.serving.store.ModelBundle`s:

* **Process-parallel multistart.** A job with ``n_starts = s`` fans out
  as ``s`` independent worker processes (bounded by ``max_workers``
  across all jobs), each regenerating the job's deterministic
  :func:`~repro.optim.neldermead.multistart_points` list and claiming
  one index. The merge keeps the strictly-best ``fun`` with earliest-
  start tie-breaking — exactly :func:`multistart_nelder_mead`'s rule —
  so the parallel answer is bit-identical to the sequential one.
* **Checkpoint / auto-restart.** Every worker streams
  :class:`~repro.optim.neldermead.SimplexState` snapshots through a
  :class:`~repro.fitting.checkpoint.Checkpointer`; a worker killed
  mid-fit is respawned (up to ``max_restarts`` times) and resumes from
  its last checkpoint, converging to the same theta as an uninterrupted
  run. Deliberate failures (an objective that raises) are *not*
  retried — they are deterministic and would fail again.
* **Finalize to a bundle.** When every start has reported, a finalize
  process rebuilds the estimator, assembles a
  :class:`~repro.mle.estimator.FitResult` (with the winning start's
  trace as its optimizer history and the job's seed/settings recorded
  for reproducibility), and saves a serving bundle under the job
  directory. The parent then fires ``on_complete`` — the hook
  :class:`~repro.serving.server.ServingServer` uses to hot-reload the
  refitted model with zero downtime.

The scheduler is a single thread; it blocks on the worker process
sentinels plus a wake pipe (no polling loops) and is the only writer of
each job's ``state.json``.
"""

from __future__ import annotations

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
from ..optim.neldermead import nelder_mead
from ..optim.result import OptimizeResult
from ..resilience.faults import fault_point
from ..resilience.policy import RetryPolicy
from ..telemetry import spans as _telemetry
from ..utils.logging import get_logger
from .checkpoint import Checkpointer
from .jobs import FitJobSpec, JobStore, merge_start_results

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


# ---------------------------------------------------------------------------
# Worker-process entry points
# ---------------------------------------------------------------------------


def _json_trace_line(iteration: int, theta: np.ndarray, fun: float) -> str:
    import json

    return json.dumps(
        {
            "iteration": int(iteration),
            "loglik": -float(fun),
            "theta": [float(v) for v in theta],
        }
    )


def _run_start(root: str, job_id: str, start_idx: int, checkpoint_every: int) -> None:
    """One multistart leg, executed in its own process.

    Resumes from the leg's checkpoint when one exists; otherwise starts
    fresh from the leg's deterministic start point. The per-iteration
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
            spec = store.spec(job_id)
            resolved = spec.resolve()
            estimator = resolved.estimator
            ckpt = Checkpointer(
                store.checkpoint_path(job_id, start_idx), every=checkpoint_every
            )
            try:
                state = ckpt.load()
            except CheckpointError:
                state = None  # torn/corrupt checkpoint: restart this leg fresh
            trace_path = store.trace_path(job_id, start_idx)
            with trace_path.open("w") as trace:
                if state is not None:
                    for entry in state.history:
                        trace.write(_json_trace_line(*entry) + "\n")
                    trace.flush()

                def on_iteration(it: int, theta: np.ndarray, fun: float) -> None:
                    trace.write(_json_trace_line(it, theta, fun) + "\n")
                    trace.flush()

                t0 = time.perf_counter()
                result = nelder_mead(
                    estimator.evaluator.negative,
                    None if state is not None else resolved.starts[start_idx],
                    resolved.lower,
                    resolved.upper,
                    ftol=spec.ftol,
                    xtol=spec.xtol,
                    maxiter=spec.maxiter,
                    callback=on_iteration,
                    state=state,
                    state_callback=ckpt,
                )
                elapsed = time.perf_counter() - t0
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
                    "elapsed": elapsed,
                },
            )
    except Exception as exc:  # deterministic failure: report, don't retry
        store.write_start_error(job_id, start_idx, exc)


def _finalize_job(root: str, job_id: str) -> None:
    """Merge a job's start results and persist the serving bundle.

    Runs in its own process because bundling may factorize ``Sigma_22``
    at the winning theta (``include_factor``) — heavy work that must not
    stall the scheduler thread.
    """
    store = JobStore(root)
    try:
        from ..mle.estimator import FitResult

        spec = store.spec(job_id)
        resolved = spec.resolve()
        estimator = resolved.estimator
        results = [store.read_start_result(job_id, i) for i in range(spec.n_starts)]
        merged = merge_start_results(results)
        store.write_result(job_id, merged)
        history = store.history(job_id, merged["best_start"])
        optimizer = OptimizeResult(
            x=np.asarray(merged["theta"], dtype=np.float64),
            fun=merged["fun"],
            nfev=merged["nfev"],
            nit=merged["nit"],
            converged=merged["converged"],
            message=merged["message"],
            history=history,
        )
        n_evals = max(1, merged["nfev"])
        fit = FitResult(
            theta=optimizer.x.copy(),
            loglik=merged["loglik"],
            optimizer=optimizer,
            n_evals=merged["nfev"],
            time_total=merged["elapsed"],
            time_per_iteration=merged["elapsed"] / n_evals,
            variant=estimator.variant,
            acc=estimator.acc,
            options={
                "x0": [float(v) for v in resolved.x0],
                "bounds": {
                    "lower": [float(v) for v in resolved.lower],
                    "upper": [float(v) for v in resolved.upper],
                },
                "maxiter": spec.maxiter,
                "ftol": spec.ftol,
                "xtol": spec.xtol,
                "n_starts": spec.n_starts,
                "seed": resolved.seed,
                "use_morton": spec.use_morton,
                "warm_start": spec.warm_start,
                "best_start": merged["best_start"],
            },
        )
        estimator.save_fit(
            fit,
            store.bundle_dir(job_id),
            include_factor=spec.include_factor,
            include_distance_cache=spec.include_distance_cache,
        )
    except Exception as exc:
        store.write_start_error(job_id, -1, exc)  # -1: the finalize slot


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
        start and finalize tasks, and the fan-out width of a single
        job's multistart search.
    checkpoint_every:
        Iterations between a running leg's on-disk Nelder-Mead
        checkpoints. ``1`` checkpoints every iteration (cheapest
        resume, most I/O); larger values amortize the write.
    max_restarts:
        Respawns granted to each of a job's start legs whose worker
        dies abnormally (killed, OOM) before the job is declared
        failed — counted per leg, so one machine-wide event that kills
        every leg once does not exhaust the budget. Restarts resume
        from checkpoints; the job-level ``restarts`` counter in its
        state records the total across legs.
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
        # The respawn budget expressed as the unified retry policy: the
        # first spawn plus ``max_restarts`` retries, consulted by the
        # reap paths as ``allows(used + 1)``. Backoff stays zero — the
        # scheduler thread must never sleep while holding the lock.
        self.restart_policy = RetryPolicy(
            max_attempts=self.max_restarts + 1, base_delay=0.0, jitter=0.0
        )
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.on_complete = on_complete
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._procs: Dict[Tuple[str, int], multiprocessing.process.BaseProcess] = {}
        self._finalizers: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._pending: Deque[Tuple[str, int]] = deque()
        self._finalize_queue: Deque[str] = deque()
        self._start_restarts: Dict[Tuple[str, int], int] = {}
        self._finalize_restarts: Dict[str, int] = {}
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
                    self._enqueue_locked(state["job_id"], int(state["n_starts"]))
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
            procs = list(self._procs.values()) + list(self._finalizers.values())
            self._procs.clear()
            self._finalizers.clear()
            self._pending.clear()
            self._finalize_queue.clear()
            self._start_restarts.clear()
            self._finalize_restarts.clear()
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
                self._enqueue_locked(job_id, spec.n_starts)
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
        """PIDs of the job's live start workers (tests use this to kill
        a fit mid-run and watch it resume)."""
        with self._cond:
            return [
                proc.pid
                for (jid, _), proc in self._procs.items()
                if jid == job_id and proc.pid is not None and proc.is_alive()
            ]

    # ------------------------------------------------------------ scheduler
    def _enqueue_locked(self, job_id: str, n_starts: int) -> None:
        scheduled = {key for key in self._pending if key[0] == job_id}
        todo = []
        for i in range(n_starts):
            key = (job_id, i)
            if key in scheduled or key in self._procs:
                continue
            if self.store.read_start_result(job_id, i) is None:
                todo.append(key)
        if todo:
            self._pending.extend(todo)
        elif job_id not in self._finalizers and job_id not in self._finalize_queue:
            # Every start already finished (e.g. killed during finalize):
            # go straight to bundling.
            self._finalize_queue.append(job_id)

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
                    self._reap_starts_locked()
                    completed = self._reap_finalizers_locked()
                    self._launch_locked()
                    sentinels = [p.sentinel for p in self._procs.values()]
                    sentinels += [p.sentinel for p in self._finalizers.values()]
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

    def _reap_starts_locked(self) -> None:
        for key in [k for k, p in self._procs.items() if p.exitcode is not None]:
            job_id, idx = key
            proc = self._procs.pop(key, None)
            if proc is None:
                # A sibling start's abort already removed this key.
                continue
            if self.store.read_start_result(job_id, idx) is not None:
                self._maybe_finalize_locked(job_id)
                continue
            error = self.store.read_start_error(job_id, idx)
            if error is not None:
                # Deterministic failure: retrying would fail identically.
                self._abort_job_locked(
                    job_id, f"start {idx}: {error['type']}: {error['message']}"
                )
                continue
            # Abnormal death (SIGKILL, OOM): the budget is per start, so
            # one machine-wide event that kills every leg of a multistart
            # job once does not exhaust it.
            used = self._start_restarts.get(key, 0)
            if self.restart_policy.allows(used + 1):
                resumable = self.store.has_checkpoint(job_id, idx)
                logger.warning(
                    "fit job %s start %d died (exitcode %s); respawning %s",
                    job_id, idx, proc.exitcode,
                    "from checkpoint" if resumable else "from scratch",
                )
                self._start_restarts[key] = used + 1
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
                    f"start {idx} worker died (exitcode {proc.exitcode}) after "
                    f"{used} restart(s)",
                )

    def _maybe_finalize_locked(self, job_id: str) -> None:
        state = self.store.state(job_id)
        if state["status"] in ("done", "failed"):
            return
        n_starts = int(state.get("n_starts", 1))
        if any(key[0] == job_id for key in self._procs):
            return
        if any(key[0] == job_id for key in self._pending):
            return
        if all(
            self.store.read_start_result(job_id, i) is not None
            for i in range(n_starts)
        ):
            if job_id not in self._finalizers and job_id not in self._finalize_queue:
                self._finalize_queue.append(job_id)

    def _reap_finalizers_locked(self) -> List[str]:
        """Reap finished finalize processes; returns the job ids whose
        ``on_complete`` hook the caller must fire *off* the lock."""
        completed: List[str] = []
        for job_id in [j for j, p in self._finalizers.items() if p.exitcode is not None]:
            proc = self._finalizers.pop(job_id)
            bundle_dir = self.store.bundle_dir(job_id)
            # meta.json is the bundle's commit marker (written last by
            # ModelBundle.save): its presence means arrays landed too.
            if (bundle_dir / "meta.json").is_file():
                result = self.store.read_result(job_id)
                if result is None:  # pragma: no cover - legacy job dirs
                    result = merge_start_results([
                        self.store.read_start_result(job_id, i)
                        for i in range(int(self.store.state(job_id).get("n_starts", 1)))
                    ])
                self.store.update(
                    job_id,
                    status="done",
                    finished_at=time.time(),
                    result=result,
                    bundle_path=str(bundle_dir),
                )
                completed.append(job_id)
            else:
                error = self.store.read_start_error(job_id, -1)
                if error is not None:
                    # Deterministic failure: retrying would fail identically.
                    self.store.update(
                        job_id,
                        status="failed",
                        finished_at=time.time(),
                        error=f"finalize: {error['type']}: {error['message']}",
                    )
                    continue
                # Abnormal death (OOM during the bundle's factorization is
                # the classic): finalize gets the same restart budget the
                # start legs do — every paid iteration is on disk.
                used = self._finalize_restarts.get(job_id, 0)
                if self.restart_policy.allows(used + 1):
                    logger.warning(
                        "fit job %s finalize died (exitcode %s); respawning",
                        job_id, proc.exitcode,
                    )
                    self._finalize_restarts[job_id] = used + 1
                    state = self.store.state(job_id)
                    self.store.update(
                        job_id, restarts=int(state.get("restarts", 0)) + 1
                    )
                    self._finalize_queue.append(job_id)
                else:
                    self.store.update(
                        job_id,
                        status="failed",
                        finished_at=time.time(),
                        error=(
                            f"finalize process died (exitcode {proc.exitcode}) "
                            f"after {used} restart(s)"
                        ),
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
        while (
            len(self._procs) + len(self._finalizers) < self.max_workers
            and (self._finalize_queue or self._pending)
        ):
            if self._finalize_queue:
                job_id = self._finalize_queue.popleft()
                proc = self._ctx.Process(
                    target=_finalize_job,
                    args=(str(self.store.root), job_id),
                    name=f"repro-fit-finalize-{job_id}",
                    daemon=True,
                )
                proc.start()
                self._finalizers[job_id] = proc
                continue
            job_id, idx = self._pending.popleft()
            state = self.store.state(job_id)
            if state["status"] in ("done", "failed"):
                continue
            updates = {"status": "running"}
            if not state.get("started_at"):
                updates["started_at"] = time.time()
            self.store.update(job_id, **updates)
            proc = self._ctx.Process(
                target=_run_start,
                args=(str(self.store.root), job_id, idx, self.checkpoint_every),
                name=f"repro-fit-{job_id}-start-{idx}",
                daemon=True,
            )
            proc.start()
            self._procs[(job_id, idx)] = proc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._cond:
            return (
                f"FitOrchestrator(running={self.running}, "
                f"workers={len(self._procs)}+{len(self._finalizers)}/"
                f"{self.max_workers}, pending={len(self._pending)})"
            )
