"""FitOrchestrator: parallel-multistart parity, kill-resume, lifecycle.

The two acceptance-critical assertions live here:

* a job fanned out across processes converges to the **bit-identical**
  theta of the sequential in-process ``MLEstimator.fit`` (same seed);
* a fit killed mid-run (SIGKILL on the worker, or a full orchestrator
  shutdown) resumes from its checkpoint and still matches the
  uninterrupted run exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import FittingError
from repro.fitting import FitJobSpec, FitOrchestrator, JobStore, load_state
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator
from repro.serving import load_model

N = 144


@pytest.fixture(scope="module")
def data():
    locs = generate_irregular_grid(N, seed=0)
    z = sample_gaussian_field(locs, MaternCovariance(1.0, 0.1, 0.5), seed=1)
    return locs, z


def _wait_status(store, job_id, statuses, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        state = store.state(job_id)
        if state["status"] in statuses:
            return state
        time.sleep(0.02)
    raise AssertionError(
        f"job never reached {statuses}; stuck at {store.state(job_id)['status']!r}"
    )


def _fit_in_this_process(locs, z, settings):
    return MLEstimator(locs, z).fit(**settings)


class TestParallelMultistartParity:
    # Legs rebuild everything from the job directory precisely so that
    # they also run in a process that inherited nothing: every start
    # method the platform has must give the same bits.
    @pytest.mark.parametrize(
        "start_method",
        [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
    )
    def test_parallel_multistart_matches_sequential_fit_bit_for_bit(
        self, data, tmp_path, start_method, monkeypatch
    ):
        locs, z = data
        settings = dict(maxiter=60, n_starts=3, seed=21)
        # The last bit of a likelihood depends on the BLAS thread count. A
        # forked process inherits its parent's; a fresh one sizes its pool
        # from the CPUs it sees at start-up, which on a shared box is not
        # a constant. So the reference fit runs in a child of the same
        # kind as the legs, and fresh ones are pinned to one thread.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with multiprocessing.get_context(start_method).Pool(1) as pool:
            ref = pool.apply(_fit_in_this_process, (locs, z, settings))
        store = JobStore(tmp_path)
        with FitOrchestrator(store, max_workers=3, start_method=start_method) as orch:
            job = orch.submit(FitJobSpec(locations=locs, z=z, **settings))
            record = orch.wait(job, timeout=300)
        assert record["status"] == "done"
        np.testing.assert_array_equal(
            np.asarray(record["result"]["theta"]), ref.theta
        )
        assert record["result"]["loglik"] == ref.loglik
        assert record["result"]["nfev"] == ref.optimizer.nfev
        assert record["result"]["nit"] == ref.optimizer.nit
        assert record["result"]["best_start"] == ref.options["best_start"]
        # The reproducibility record is one thing: what the bundle
        # persists is the in-process fit's options, key for key.
        bundle = load_model(record["bundle_path"])
        assert bundle.info["fit"] == ref.options
        assert bundle.info["n_evals"] == ref.n_evals
        # Every start left a per-iteration loglik trace.
        assert sorted(record["trace"]) == ["0", "1", "2"]
        for entries in record["trace"].values():
            assert entries[0]["iteration"] == 1
            assert all("loglik" in e and len(e["theta"]) == 3 for e in entries)

    def test_bundle_serves_the_fit_and_records_reproducibility_meta(
        self, data, tmp_path
    ):
        from repro.mle import PredictionEngine

        locs, z = data
        store = JobStore(tmp_path)
        with FitOrchestrator(store, max_workers=2) as orch:
            job = orch.submit(
                FitJobSpec(locations=locs, z=z, maxiter=40, n_starts=2, seed=5)
            )
            record = orch.wait(job, timeout=300)
        bundle = load_model(record["bundle_path"])
        np.testing.assert_array_equal(
            bundle.model.theta, np.asarray(record["result"]["theta"])
        )
        fit_meta = bundle.info["fit"]
        assert fit_meta["seed"] == 5
        assert fit_meta["n_starts"] == 2
        assert fit_meta["maxiter"] == 40
        assert set(fit_meta["bounds"]) == {"lower", "upper"}
        # The bundle is servable as-is (factor included by default).
        targets = np.random.default_rng(2).random((5, 2))
        engine = PredictionEngine.from_bundle(record["bundle_path"])
        assert engine.predict(targets).shape == (5,)
        assert engine.n_factorizations == 0  # adopted the persisted factor

    def test_replaying_bundle_fit_meta_reproduces_theta(self, data, tmp_path):
        """The satellite's promise: a served model's fit is reproducible
        from its bundle alone — rebuild the estimator from the bundle's
        data and rerun fit() with info['fit']'s settings."""
        locs, z = data
        store = JobStore(tmp_path)
        with FitOrchestrator(store, max_workers=2) as orch:
            job = orch.submit(
                FitJobSpec(locations=locs, z=z, maxiter=40, n_starts=2, seed=5)
            )
            record = orch.wait(job, timeout=300)
        bundle = load_model(record["bundle_path"])
        meta = bundle.info["fit"]
        replay = MLEstimator(
            bundle.locations,
            bundle.z,
            model=bundle.model,
            variant=bundle.variant,
            tile_size=bundle.tile_size,
            acc=bundle.acc,
            use_morton=False,  # bundle locations are already Morton-ordered
        ).fit(
            x0=meta["x0"],
            bounds=(meta["bounds"]["lower"], meta["bounds"]["upper"]),
            maxiter=meta["maxiter"],
            ftol=meta["ftol"],
            xtol=meta["xtol"],
            n_starts=meta["n_starts"],
            seed=meta["seed"],
        )
        np.testing.assert_array_equal(replay.theta, bundle.model.theta)


class TestKillResume:
    def _long_spec(self, data):
        # ftol/xtol far below reachable: the fit runs its full maxiter
        # budget, leaving a wide window to kill it mid-run.
        locs, z = data
        return FitJobSpec(
            locations=locs, z=z, maxiter=150, ftol=1e-13, xtol=1e-13
        )

    def test_sigkilled_worker_is_respawned_and_matches_uninterrupted(
        self, data, tmp_path
    ):
        locs, z = data
        ref = MLEstimator(locs, z).fit(maxiter=150, ftol=1e-13, xtol=1e-13)
        store = JobStore(tmp_path)
        with FitOrchestrator(
            store, max_workers=1, checkpoint_every=1, max_restarts=2
        ) as orch:
            job = orch.submit(self._long_spec(data))
            deadline = time.time() + 120
            killed = False
            first_checkpoint_seen = None
            while time.time() < deadline and not killed:
                if store.has_checkpoint(job, 0):
                    if first_checkpoint_seen is None:
                        first_checkpoint_seen = time.perf_counter()
                    # Kill late: most of the leg's cost is paid by the
                    # process that dies, so a resumed leg that timed only
                    # its last process would under-report visibly.
                    pids = orch.worker_pids(job)
                    if pids and load_state(store.checkpoint_path(job, 0)).iteration >= 120:
                        pre_kill_span = time.perf_counter() - first_checkpoint_seen
                        os.kill(pids[0], signal.SIGKILL)
                        killed = True
                        break
                if store.state(job)["status"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            record = orch.wait(job, timeout=300)
        assert killed, "the fit finished before the test could kill it"
        assert record["status"] == "done"
        assert record["restarts"] >= 1
        # The job's seconds cover every process of the leg, like its nfev.
        assert record["result"]["elapsed"] >= pre_kill_span
        fit_info = load_model(record["bundle_path"]).info
        assert fit_info["time_total"] == record["result"]["elapsed"]
        np.testing.assert_array_equal(
            np.asarray(record["result"]["theta"]), ref.theta
        )
        assert record["result"]["nfev"] == ref.optimizer.nfev
        assert record["result"]["nit"] == ref.optimizer.nit
        # The resumed trace is seamless: iterations 1..nit exactly once.
        iters = [e["iteration"] for e in record["trace"]["0"]]
        assert iters == list(range(1, record["result"]["nit"] + 1))

    def test_orchestrator_shutdown_then_fresh_orchestrator_resumes(
        self, data, tmp_path
    ):
        """The cold-restart path: stop() mid-fit (process terminated),
        then a brand-new orchestrator over the same store picks the job
        up from its checkpoint and finishes it to the same theta."""
        locs, z = data
        ref = MLEstimator(locs, z).fit(maxiter=150, ftol=1e-13, xtol=1e-13)
        store = JobStore(tmp_path)
        orch = FitOrchestrator(store, max_workers=1, checkpoint_every=1).start()
        job = orch.submit(self._long_spec(data))
        deadline = time.time() + 120
        while time.time() < deadline:
            if store.has_checkpoint(job, 0):
                break
            time.sleep(0.01)
        orch.stop()
        state = store.state(job)
        assert state["status"] in ("checkpointed", "queued")
        resumed_from = store.state(job)
        with FitOrchestrator(store, max_workers=1, checkpoint_every=1) as orch2:
            record = orch2.wait(job, timeout=300)
        assert record["status"] == "done"
        np.testing.assert_array_equal(
            np.asarray(record["result"]["theta"]), ref.theta
        )
        assert record["result"]["nfev"] == ref.optimizer.nfev
        del resumed_from


class TestFinalizeRestart:
    def test_killed_finalize_is_respawned_within_the_budget(
        self, data, tmp_path, monkeypatch
    ):
        """A finalize process that dies abnormally (OOM-style kill) gets
        the same restart treatment as a start leg — the completed fit
        iterations on disk must not be thrown away. Simulated by
        patching the (fork-inherited) finalize target to SIGKILL itself
        on its first run."""
        import repro.fitting.orchestrator as orchestrator_module

        real_finalize = orchestrator_module._finalize_job

        def kill_once_then_finalize(root, job_id):
            flag = os.path.join(root, "killed-once.flag")
            if not os.path.exists(flag):
                with open(flag, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            real_finalize(root, job_id)

        monkeypatch.setattr(
            orchestrator_module, "_finalize_job", kill_once_then_finalize
        )
        locs, z = data
        store = JobStore(tmp_path)
        with FitOrchestrator(
            store, max_workers=1, max_restarts=1, start_method="fork"
        ) as orch:
            job = orch.submit(FitJobSpec(locations=locs, z=z, maxiter=15))
            record = orch.wait(job, timeout=300)
        assert record["status"] == "done"
        assert record["restarts"] == 1  # the finalize respawn
        assert record["bundle_path"]

    def test_killed_finalize_exhausting_budget_fails_the_job(
        self, data, tmp_path, monkeypatch
    ):
        import repro.fitting.orchestrator as orchestrator_module

        def always_die(root, job_id):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(orchestrator_module, "_finalize_job", always_die)
        locs, z = data
        store = JobStore(tmp_path)
        with FitOrchestrator(
            store, max_workers=1, max_restarts=1, start_method="fork"
        ) as orch:
            job = orch.submit(FitJobSpec(locations=locs, z=z, maxiter=10))
            record = orch.wait(job, timeout=300)
        assert record["status"] == "failed"
        assert "finalize process died" in record["error"]


class TestLifecycleAndFailures:
    def test_deterministic_failure_is_not_retried(self, data, tmp_path):
        """An objective that raises must fail the job immediately (the
        error is deterministic) without burning the restart budget —
        and a multi-start failure must not wedge the scheduler when the
        abort races the sibling legs' own reaping (regression: the
        abort used to pop keys the reap loop still held)."""
        locs, z = data
        bad = FitJobSpec(
            locations=locs,
            z=z,
            n_starts=2,
            maxiter=10,
            model_spec={
                "family": "MaternCovariance",
                "metric": "euclidean",
                "nugget": -1.0,  # rejected by the kernel at resolve time
                "theta": [1.0, 0.1, 0.5],
            },
        )
        store = JobStore(tmp_path)
        with FitOrchestrator(store, max_workers=2, max_restarts=5) as orch:
            job = orch.submit(bad)
            record = orch.wait(job, timeout=120)
            assert record["status"] == "failed"
            assert record["restarts"] == 0
            assert record["error"]
            # The scheduler survived the abort: a fresh, healthy job
            # still runs to completion on the same orchestrator.
            good = orch.submit(FitJobSpec(locations=locs, z=z, maxiter=10))
            assert orch.wait(good, timeout=300)["status"] == "done"
            assert orch.running

    def test_restart_budget_is_per_start_leg(self, data, tmp_path):
        """One machine-wide kill that takes out every leg of a
        multistart job once must not exhaust a max_restarts=1 budget
        (regression: the counter used to be shared across legs)."""
        locs, z = data
        store = JobStore(tmp_path)
        spec = FitJobSpec(
            locations=locs, z=z, maxiter=150, ftol=1e-13, xtol=1e-13, n_starts=2
        )
        with FitOrchestrator(
            store, max_workers=2, checkpoint_every=1, max_restarts=1
        ) as orch:
            job = orch.submit(spec)
            deadline = time.time() + 120
            killed = 0
            while time.time() < deadline and killed == 0:
                pids = orch.worker_pids(job)
                if len(pids) == 2 and all(
                    store.has_checkpoint(job, i) for i in range(2)
                ):
                    for pid in pids:  # both legs die in one "event"
                        os.kill(pid, signal.SIGKILL)
                    killed = len(pids)
                    break
                if store.state(job)["status"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            record = orch.wait(job, timeout=300)
        assert killed == 2, "the fit finished before the test could kill it"
        assert record["status"] == "done"
        assert record["restarts"] == 2  # one respawn per leg, job-level total

    def test_wait_timeout_raises(self, data, tmp_path):
        store = JobStore(tmp_path)
        orch = FitOrchestrator(store, max_workers=1)  # never started
        job = orch.submit(FitJobSpec(locations=data[0], z=data[1], maxiter=5))
        with pytest.raises(FittingError):
            orch.wait(job, timeout=0.2)

    def test_submit_before_start_is_scheduled_at_start(self, data, tmp_path):
        store = JobStore(tmp_path)
        orch = FitOrchestrator(store, max_workers=1)
        job = orch.submit(FitJobSpec(locations=data[0], z=data[1], maxiter=10))
        assert store.state(job)["status"] == "queued"
        with orch:
            record = orch.wait(job, timeout=300)
        assert record["status"] == "done"

    def test_concurrency_cap_respected_across_jobs(self, data, tmp_path):
        locs, z = data
        store = JobStore(tmp_path)
        with FitOrchestrator(store, max_workers=2) as orch:
            jobs = [
                orch.submit(FitJobSpec(locations=locs, z=z, maxiter=25, n_starts=2))
                for _ in range(2)
            ]
            peak = 0
            deadline = time.time() + 300
            while time.time() < deadline:
                with orch._cond:
                    live = len(orch._procs)
                peak = max(peak, live)
                states = [store.state(j)["status"] for j in jobs]
                if all(s in ("done", "failed") for s in states):
                    break
                time.sleep(0.01)
            assert peak <= 2
            for j in jobs:
                assert orch.wait(j, timeout=60)["status"] == "done"

    def test_validate_options(self):
        FitOrchestrator.validate_options({"max_workers": 4})
        with pytest.raises(FittingError):
            FitOrchestrator.validate_options({"max_workerz": 4})
        with pytest.raises(FittingError):
            FitOrchestrator.validate_options({"max_workers": 0})
        with pytest.raises(FittingError):
            FitOrchestrator.validate_options({"checkpoint_every": 0})
        with pytest.raises(FittingError):
            FitOrchestrator.validate_options({"start_method": "teleport"})
