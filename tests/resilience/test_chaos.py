"""Chaos soak: the serving + fitting stack under seeded fault plans.

The harness arms one deterministic :class:`FaultPlan` (kills, delays,
injected errors — counted across processes through the plan's
``state_dir``), then drives concurrent HTTP traffic and a fit job
through it. The invariants are the resilience layer's contract:

* **zero wrong answers** — every successful prediction bit-matches the
  reference engine generation; degradation may slow or reject requests
  but never silently corrupts them;
* **bounded errors** — only injected fault types surface, and only a
  handful (retries/respawns absorb the rest);
* **counters reconcile** — every issued request is accounted for, and
  the plan's journal shows the faults actually fired;
* **nothing leaks** — after shutdown no worker or fit process survives.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import InjectedFaultError, ServerError
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.resilience import FaultPlan, FaultRule, RetryPolicy, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer

N, NB = 100, 36


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


def _bundle(theta=(1.0, 0.1, 0.5)):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(*theta)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant="full-block", tile_size=NB
    )
    bundle.factor = bundle.build_engine().factor()
    return bundle


@pytest.fixture()
def targets():
    return np.ascontiguousarray(np.random.default_rng(5).random((6, 2)))


def _await_no_children(timeout=15.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if not multiprocessing.active_children():
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


# ---------------------------------------------------------------------------
# Graceful degradation over HTTP: last-known-good serving
# ---------------------------------------------------------------------------


def test_http_serves_last_known_good_generation_when_bundle_corrupts(
    tmp_path, targets
):
    """Warm a model, evict it from the LRU, corrupt its bundle on disk:
    the next predict rehydrates, hits the corruption, falls back to the
    last-known-good engine, and answers bit-identically — flagged
    ``degraded`` so the caller knows."""
    path_a = _bundle((1.0, 0.1, 0.5)).save(tmp_path / "a.bundle")
    path_b = _bundle((2.0, 0.15, 0.8)).save(tmp_path / "b.bundle")
    ref_a = PredictionEngine.from_bundle(path_a).predict(targets)
    with ServingServer(
        {"a": str(path_a), "b": str(path_b)},
        num_workers=1,
        registry_options={"max_models": 1},
        enable_fitting=False,
    ) as server:
        with ServingClient(server.url) as cli:
            value, flags = cli.predict("a", targets, detail=True)
            np.testing.assert_array_equal(value, ref_a)
            assert flags == {"degraded": False}
            cli.predict("b", targets)  # max_models=1: evicts a's warm engine
            data = bytearray((path_a / "arrays.npz").read_bytes())
            data[len(data) // 2] ^= 0xFF
            (path_a / "arrays.npz").write_bytes(bytes(data))

            value, flags = cli.predict("a", targets, detail=True)
            assert flags == {"degraded": True}
            np.testing.assert_array_equal(value, ref_a)  # gen-A values, exactly
            # The corrupt copy was quarantined, and the fallback sticks.
            assert path_a.with_name("a.bundle.corrupt").exists()
            value, flags = cli.predict("a", targets, detail=True)
            assert flags == {"degraded": True}
            np.testing.assert_array_equal(value, ref_a)
            # Healthy models are unaffected.
            _, flags = cli.predict("b", targets, detail=True)
            assert flags == {"degraded": False}
    assert _await_no_children() == []


def test_models_and_metrics_degrade_to_partial_results(tmp_path, targets):
    """A dead worker must not take ``/v1/models`` or ``/v1/metrics``
    down with it: both answer with the surviving workers' data, flag
    themselves ``degraded``, and name the dead worker."""
    path = _bundle().save(tmp_path / "m.bundle")
    with ServingServer(
        {"m": str(path)},
        num_workers=2,
        enable_fitting=False,
    ) as server:
        with ServingClient(server.url) as cli:
            cli.predict("m", targets)
            victim = server.worker_for("m")
            handle = server._workers[victim]
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(10.0)
            deadline = time.time() + 10.0
            while handle.alive and time.time() < deadline:
                time.sleep(0.01)
            assert not handle.alive

            models = cli._request("GET", "/v1/models")
            assert models["degraded"] is True
            assert victim in models["dead_workers"]
            survivor = 1 - victim
            assert str(survivor) in {str(k) for k in models["models"]}

            metrics = cli.metrics()
            assert metrics["degraded"] is True
            assert victim in metrics["dead_workers"]
    assert _await_no_children() == []


# ---------------------------------------------------------------------------
# The soak
# ---------------------------------------------------------------------------


def test_chaos_soak_under_kills_delays_and_injected_errors(tmp_path, targets):
    locs = generate_irregular_grid(64, seed=20)
    fit_z = sample_gaussian_field(locs, MaternCovariance(1.0, 0.1, 0.5), seed=21)
    path = _bundle().save(tmp_path / "m.bundle")
    reference = PredictionEngine.from_bundle(path).predict(targets)

    plan = arm(
        FaultPlan(
            rules=[
                # A worker SIGKILLed mid-request: the router respawns it
                # and retries; clients never notice.
                FaultRule(site="worker.pipe", action="kill", after=60),
                # A few slow requests (not enough to trip anything).
                FaultRule(site="worker.pipe", action="delay", after=20, count=3, delay=0.02),
                # Two engine failures: surfaced (or absorbed by the
                # batch-retry) but never as a wrong answer.
                FaultRule(site="engine.predict", action="raise", after=30, count=2),
                # The fit's first leg dies instantly; the orchestrator
                # respawns it and the job still converges.
                FaultRule(site="fit.leg", action="kill", after=0, count=1),
            ],
            seed=1234,
            state_dir=tmp_path / "chaos",
        ),
        propagate=True,
    )

    answers, errors = [], []
    issued = [0]
    stop = threading.Event()
    lock = threading.Lock()

    def hammer():
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, seed=99)
        with ServingClient(path_or_url, retry_policy=policy) as cli:
            while not stop.is_set():
                with lock:
                    issued[0] += 1
                try:
                    got = cli.predict("m", targets, deadline=30.0)
                    with lock:
                        answers.append(got)
                except Exception as exc:  # noqa: BLE001 - tallied below
                    with lock:
                        errors.append(exc)

    with ServingServer(
        {"m": str(path)},
        num_workers=2,
        max_worker_restarts=4,
        jobs_dir=tmp_path / "jobs",
        fit_options={"max_workers": 1, "max_restarts": 2},
    ) as server:
        path_or_url = server.url
        with ServingClient(server.url) as cli:
            job = cli.fit(
                locations=locs,
                z=fit_z,
                variant="full-block",
                tile_size=16,
                n_starts=1,
                maxiter=8,
                seed=3,
            )["job_id"]

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            try:
                # Soak until the interesting faults have all fired.
                deadline = time.time() + 60.0
                while time.time() < deadline:
                    if (
                        plan.hits("worker.pipe") > 65
                        and plan.hits("engine.predict") > 34
                        and server.n_worker_restarts >= 1
                    ):
                        break
                    time.sleep(0.05)
                record = cli.wait_job(job, timeout=120.0)
            finally:
                stop.set()
                for t in threads:
                    t.join()

            # --- the fit survived its leg kill ----------------------------
            assert record["status"] == "done"
            assert record["restarts"] >= 1

            # --- zero wrong answers ---------------------------------------
            assert answers, "the soak produced no successful predictions"
            for got in answers:
                np.testing.assert_array_equal(got, reference)

            # --- bounded, typed errors ------------------------------------
            assert all(
                isinstance(exc, (InjectedFaultError, ServerError)) for exc in errors
            ), f"unexpected error types: {[type(e).__name__ for e in errors]}"
            assert len(errors) <= 8, f"{len(errors)} errors is not 'bounded'"

            # --- counters reconcile ---------------------------------------
            assert issued[0] == len(answers) + len(errors)
            fired = plan.fired()
            by_action = {}
            for event in fired:
                by_action.setdefault((event["site"], event["action"]), []).append(event)
            assert len(by_action[("worker.pipe", "kill")]) == 1
            assert len(by_action[("fit.leg", "kill")]) == 1
            assert len(by_action[("engine.predict", "raise")]) == 2
            assert len(by_action[("worker.pipe", "delay")]) == 3
            assert server.n_worker_restarts >= 1

            # The journal survives as a replayable artifact.
            journal = (tmp_path / "chaos" / "fired.jsonl").read_text()
            assert all(json.loads(line) for line in journal.strip().splitlines())

    # --- nothing leaks ----------------------------------------------------
    assert _await_no_children() == []
