"""The serving stack's guards, each shown doing the one job no other does.

* the **per-worker breaker** fails predicts fast once a worker that is
  alive but not answering has timed out ``failure_threshold`` times;
* the fleet-wide routes (``/v1/models``, ``/v1/metrics``) send nothing
  to a worker whose breaker is open and report it like a dead one;
* each model's **bounded queue** is the one admission bound on the HTTP
  path: the overflow is a typed 429 that never executed, and a client
  with a :class:`RetryPolicy` resubmits it to the reference answer.

Faults come from seeded plans armed before the server starts, so every
worker (fork or spawn) counts the same hits.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import CircuitOpenError, ServerError
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.resilience import FaultPlan, FaultRule, RetryPolicy, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer

N, NB = 64, 32

#: Router wait per worker request, and the worker.pipe stall that
#: overruns it. Five stalled messages keep the worker busy ~3 s.
TIMEOUT, STALL = 0.3, 0.6


@pytest.fixture()
def bundle_path(tmp_path):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant="full-block", tile_size=NB
    )
    bundle.factor = bundle.build_engine().factor()
    return bundle.save(tmp_path / "m.bundle")


@pytest.fixture()
def targets():
    return np.ascontiguousarray(np.random.default_rng(4).random((5, 2)))


def _arm(tmp_path, *rules):
    disarm()
    return arm(
        FaultPlan(rules=list(rules), seed=11, state_dir=tmp_path / "faults"),
        propagate=True,  # workers arm themselves from the environment
    )


@pytest.fixture(autouse=True)
def _disarmed():
    yield
    disarm()


def _time_out_five_predicts(cli, targets):
    """Five predicts that each wait out the router's request timeout:
    the worker's breaker threshold."""
    for _ in range(5):
        with pytest.raises(ServerError, match="did not answer"):
            cli.predict("m", targets)


def _count_sends(handle):
    """Count the requests the router sends through ``handle`` from now on."""
    sent = []
    send = handle.request

    def counting(*args, **kwargs):
        sent.append(args[0])
        return send(*args, **kwargs)

    handle.request = counting
    return sent


def _post_predict(url, targets):
    """``POST /v1/predict`` with urllib: ``(status, headers, body)``."""
    body = json.dumps({"model_id": "m", "targets": targets.tolist()}).encode()
    request = urllib.request.Request(url + "/v1/predict", data=body, method="POST")
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.headers, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, error.headers, json.loads(error.read())


def test_worker_breaker_fails_predicts_fast_after_the_threshold(
    tmp_path, bundle_path, targets
):
    """A worker that stays alive but answers nothing costs each request
    the whole ``request_timeout`` — until its breaker opens. Then the
    next predict fails in well under that timeout, as a typed
    ``CircuitOpenError`` (HTTP 503 + ``Retry-After``), without being
    sent to the worker."""
    _arm(tmp_path, FaultRule(site="worker.pipe", action="delay", count=5, delay=STALL))
    with ServingServer(
        {"m": str(bundle_path)},
        num_workers=1,
        request_timeout=TIMEOUT,
        enable_fitting=False,
    ) as server, ServingClient(server.url) as cli:
        _time_out_five_predicts(cli, targets)
        handle = server._workers[0]
        assert handle.breaker.state == "open"
        sent = _count_sends(handle)

        t0 = time.perf_counter()
        with pytest.raises(CircuitOpenError) as caught:
            cli.predict("m", targets)
        assert time.perf_counter() - t0 < TIMEOUT / 2
        assert 0.0 < caught.value.retry_after <= 2.0

        status, headers, body = _post_predict(server.url, targets)
        assert status == 503
        assert float(headers["Retry-After"]) > 0.0
        assert body["error"]["type"] == "CircuitOpenError"
        assert sent == []  # the fast failures reached no worker
        assert server.n_worker_restarts == 0  # hung, not dead: no respawn


def test_fleet_routes_skip_a_worker_whose_breaker_is_open(
    tmp_path, bundle_path, targets
):
    """``/v1/models`` and ``/v1/metrics`` ask every worker; a hung one
    whose breaker has opened is reported like a dead one (listed in
    ``dead_workers``, last metrics kept, ``degraded: true``) and is sent
    nothing, so a scrape does not wait out its timeout."""
    plan = _arm(
        tmp_path,
        # Hits 1-2 are the first metrics scrape (one per worker); the
        # next five are the predicts on m's worker.
        FaultRule(site="worker.pipe", action="delay", after=2, count=5, delay=STALL),
    )
    with ServingServer(
        {"m": str(bundle_path)},
        num_workers=2,
        request_timeout=TIMEOUT,
        enable_fitting=False,
    ) as server, ServingClient(server.url) as cli:
        victim = server.worker_for("m")
        survivor = 1 - victim
        first = cli.metrics()
        assert first["degraded"] is False
        _time_out_five_predicts(cli, targets)
        assert server._workers[victim].breaker.state == "open"
        # The hung worker takes its stalled messages one at a time; once
        # it has taken the fifth, the survivor's next message is hit 8,
        # past the stalled window.
        deadline = time.monotonic() + 10.0
        while plan.hits("worker.pipe") < 7:
            assert time.monotonic() < deadline, "the stalled predicts never arrived"
            time.sleep(0.01)
        sent = [_count_sends(handle) for handle in server._workers]

        t0 = time.perf_counter()
        metrics = cli.metrics()
        models = cli._request("GET", "/v1/models")
        assert time.perf_counter() - t0 < TIMEOUT / 2
        assert sent[victim] == []
        assert sent[survivor] == ["metrics", "models"]

        assert metrics["degraded"] is True
        assert metrics["dead_workers"] == [victim]
        kept = metrics["workers"][str(victim)]
        assert kept["dead"] is True
        previous = first["workers"][str(victim)]["service"]["counters"]
        assert kept["service"]["counters"] == previous
        assert metrics["worker_breakers"][str(victim)]["state"] == "open"
        assert models["degraded"] is True
        assert models["dead_workers"] == [victim]
        assert list(models["models"]) == [str(survivor)]


def test_full_model_queue_is_a_typed_429_that_never_executed(
    tmp_path, bundle_path, targets
):
    """With one request executing and one queued (``max_batch=1``,
    ``max_queue=1``), the next predict is refused at the queue: HTTP 429
    ``ServiceOverloadedError``, not counted as an engine call. A client
    with a retry policy backs off, resubmits once the queue drains, and
    gets the reference answer bit for bit."""
    reference = PredictionEngine.from_bundle(bundle_path).predict(targets)
    _arm(
        tmp_path,
        FaultRule(site="engine.predict", action="delay", count=1, delay=1.0),
    )
    with ServingServer(
        {"m": str(bundle_path)},
        num_workers=1,
        enable_fitting=False,
        service_options={"max_batch": 1, "max_queue": 1},
    ) as server:

        def accepted():
            return server.metrics()["aggregate"]["counters"]["requests"]

        def wait_accepted(n):
            deadline = time.monotonic() + 10.0
            while accepted() < n:
                assert time.monotonic() < deadline, f"request {n} never queued"
                time.sleep(0.01)

        answers = []

        def predict_in_background():
            with ServingClient(server.url) as cli:
                answers.append(cli.predict("m", targets))

        background = [threading.Thread(target=predict_in_background) for _ in range(2)]
        background[0].start()
        wait_accepted(1)  # executing: the engine call is stalled
        background[1].start()
        wait_accepted(2)  # queued: the queue of one is full

        status, _, body = _post_predict(server.url, targets)
        assert status == 429
        assert body["error"]["type"] == "ServiceOverloadedError"

        policy = RetryPolicy(max_attempts=6, base_delay=0.2, jitter=0.0)
        with ServingClient(server.url, retry_policy=policy) as cli:
            got = cli.predict("m", targets)
            assert cli.n_retries >= 1
        for thread in background:
            thread.join(30.0)
        np.testing.assert_array_equal(got, reference)
        assert len(answers) == 2
        for answer in answers:
            np.testing.assert_array_equal(answer, reference)

        counters = server.metrics()["aggregate"]["counters"]
        assert counters["engine_calls"] == 3  # the two in flight + the resubmission
        assert counters["completed"] == 3
        assert counters["rejected_overload"] == 1 + cli.n_retries
