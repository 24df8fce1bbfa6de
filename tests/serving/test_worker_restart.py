"""Worker auto-restart: a crashed serving worker costs latency, not
availability (the ROADMAP item PR 4 left open).

Isolated from the other serving suites because these tests deliberately
SIGKILL worker processes — they get their own server.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    InjectedFaultError,
    ServerError,
)
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.resilience import FaultPlan, FaultRule, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer

N, NB = 100, 36


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
def server(tmp_path):
    path = _bundle().save(tmp_path / "m.bundle")
    with ServingServer(
        {"m": str(path)},
        num_workers=2,
        max_worker_restarts=2,
        enable_fitting=False,
    ) as srv:
        yield srv


@pytest.fixture()
def targets():
    return np.ascontiguousarray(np.random.default_rng(5).random((6, 2)))


def _kill_worker(server, model_id):
    handle = server._workers[server.worker_for(model_id)]
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(10.0)
    deadline = time.time() + 10.0
    while handle.alive and time.time() < deadline:
        time.sleep(0.01)  # the reader thread is flipping the handle dead
    assert not handle.alive
    return handle


def test_request_after_worker_death_respawns_and_succeeds(server, targets):
    with ServingClient(server.url) as cli:
        reference = cli.predict("m", targets)
        _kill_worker(server, "m")
        assert cli.health()["status"] == "degraded"
        # The next request transparently respawns the worker and retries.
        got = cli.predict("m", targets)
        np.testing.assert_array_equal(got, reference)
        health = cli.health()
        assert health["status"] == "ok"
        assert health["alive"] == [True, True]
        assert health["worker_restarts"] == 1


def test_fleet_counters_keep_a_respawned_workers_last_scrape(server, targets):
    """The aggregate counters never fall below an earlier scrape: the
    dead worker's last observed counts are folded into the router's
    retired total when its replacement is swapped in."""
    n = 5
    with ServingClient(server.url) as cli:
        for _ in range(n):
            cli.predict("m", targets)
        before = cli.metrics()["aggregate"]["counters"]
        assert before["requests"] >= n
        _kill_worker(server, "m")
        cli.predict("m", targets)  # respawns the worker, then answers
        after = cli.metrics()["aggregate"]["counters"]
    assert after["requests"] >= n + 1
    for name, value in before.items():
        assert after[name] >= value, name


def test_in_flight_requests_fail_over_to_the_respawned_worker(server, targets):
    """Kill the worker under continuous traffic: every request issued
    across the crash must be answered (retried on the fresh worker),
    never errored."""
    import threading

    with ServingClient(server.url) as cli:
        reference = cli.predict("m", targets)

    answers, failures = [], []
    stop = threading.Event()

    def hammer():
        with ServingClient(server.url) as cli:
            while not stop.is_set():
                try:
                    answers.append(cli.predict("m", targets))
                except Exception as exc:  # noqa: BLE001 - the assertion target
                    failures.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        deadline = time.time() + 30.0
        while not answers and time.time() < deadline:
            time.sleep(0.005)  # traffic is flowing before the kill
        _kill_worker(server, "m")
        deadline = time.time() + 30.0
        while server.n_worker_restarts < 1 and time.time() < deadline:
            time.sleep(0.01)  # some request observed the death and retried
        time.sleep(0.1)  # a little post-respawn traffic
    finally:
        stop.set()
        for t in threads:
            t.join()

    assert not failures, f"requests failed across the crash: {failures[:3]}"
    assert server.n_worker_restarts >= 1
    for got in answers:
        np.testing.assert_array_equal(got, reference)


class _BrokenSendConn:
    """A worker pipe whose sends fail while everything else still works."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, msg):
        raise BrokenPipeError("pipe closed under the send")

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_failed_send_fails_over_before_the_process_is_reaped(server, targets):
    """Regression: a broken pipe seen by the send, while the worker
    process still reads as alive, must respawn and retry — not reach the
    client as 'pipe is closed'."""
    with ServingClient(server.url) as cli:
        reference = cli.predict("m", targets)
        worker_id = server.worker_for("m")
        handle = server._workers[worker_id]
        handle._conn = _BrokenSendConn(handle._conn)
        assert handle.process.is_alive()
        np.testing.assert_array_equal(cli.predict("m", targets), reference)
        assert server._workers[worker_id] is not handle
        assert server.n_worker_restarts == 1
        assert cli.health()["alive"] == [True, True]


def test_models_registered_after_start_survive_a_respawn(server, targets, tmp_path):
    late_path = _bundle(theta=(2.0, 0.15, 0.8)).save(tmp_path / "late.bundle")
    with ServingClient(server.url) as cli:
        cli.register("late", str(late_path))
        reference = PredictionEngine.from_bundle(late_path).predict(targets)
        np.testing.assert_array_equal(cli.predict("late", targets), reference)
        _kill_worker(server, "late")
        # The respawned worker re-registers 'late' from the router's map.
        np.testing.assert_array_equal(cli.predict("late", targets), reference)


@pytest.mark.parametrize(
    "start_method",
    [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
)
def test_service_options_survive_a_respawn(tmp_path, targets, start_method):
    """A worker's settings are the option dicts the router ships, under
    either start method and after a respawn from an HTTP handler thread
    (regression: a thread-local default used to reach fork-started
    workers only, and only until their first respawn)."""
    path = _bundle().save(tmp_path / "m.bundle")
    # The model never loads. With breaker_threshold=1 its breaker opens
    # on the first failure, so the setting is observable as the SECOND
    # predict failing fast (the default threshold of 5 would let it
    # reach the registry and fail with the injected error again).
    arm(
        FaultPlan(
            rules=[FaultRule(site="registry.rehydrate", action="raise", count=1000)],
            seed=7,
            state_dir=tmp_path / "faults",
        ),
        propagate=True,
    )
    try:
        with ServingServer(
            {"m": str(path)},
            num_workers=1,
            enable_fitting=False,
            start_method=start_method,
            service_options={"breaker_threshold": 1, "breaker_recovery": 30.0},
        ) as srv, ServingClient(srv.url) as cli:
            with pytest.raises(InjectedFaultError):
                cli.predict("m", targets)
            with pytest.raises(CircuitOpenError):
                cli.predict("m", targets)
            _kill_worker(srv, "m")
            with pytest.raises(InjectedFaultError):
                cli.predict("m", targets)  # triggers the respawn, fails there
            with pytest.raises(CircuitOpenError):
                cli.predict("m", targets)
            assert srv.n_worker_restarts == 1
    finally:
        disarm()


def test_restart_budget_exhausts_into_server_error(server, targets):
    with ServingClient(server.url) as cli:
        cli.predict("m", targets)
        for _ in range(2):  # burn the budget (max_worker_restarts=2)
            _kill_worker(server, "m")
            cli.predict("m", targets)
        _kill_worker(server, "m")
        with pytest.raises(ServerError, match="exhausted"):
            cli.predict("m", targets)
        assert cli.health()["status"] == "degraded"


def test_max_worker_restarts_validated(tmp_path):
    path = _bundle().save(tmp_path / "m.bundle")
    with pytest.raises(ConfigurationError):
        ServingServer({"m": str(path)}, max_worker_restarts=-1)
