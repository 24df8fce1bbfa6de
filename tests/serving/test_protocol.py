"""The serving protocol is stated once — and these tests keep it that way.

* every :data:`repro.serving.edge.ROUTES` row is reachable through a
  :class:`ServingClient` method and is listed in the server module
  docstring's Endpoints section (so neither can drift);
* every :data:`repro.serving.worker.OPS` entry is reachable from a
  route, and an op outside the table is a ``ServerError`` reply;
* a query string never changes which route matches;
* typed errors keep ``retry_after`` across the worker pipe;
* ``POST /v1/fit`` accepts exactly the ``FitJobSpec`` fields.
"""

from __future__ import annotations

import http.client
import inspect
import json
import multiprocessing
import os
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.serving.server as server_module
from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import (
    CircuitOpenError,
    FittingError,
    InjectedFaultError,
    LoadShedError,
    ServerError,
    TraceNotFoundError,
    ValidationError,
    exception_from_wire,
)
from repro.fitting.jobs import FitJobSpec
from repro.kernels import MaternCovariance
from repro.perfmodel.autotune import autotune
from repro.perfmodel.planner import set_default_profile
from repro.resilience import FaultPlan, FaultRule, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer, edge, worker

N, NB = 64, 32


def _bundle():
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant="full-block", tile_size=NB
    )
    bundle.factor = bundle.build_engine().factor()
    return bundle


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1e-3
        return self.t


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    return _bundle().save(tmp_path_factory.mktemp("protocol") / "m.bundle")


@pytest.fixture(scope="module")
def targets():
    return np.ascontiguousarray(np.random.default_rng(3).random((5, 2)))


@pytest.fixture(scope="module")
def server(bundle_path):
    profile = autotune(
        sizes=(32, 48),
        repeats=1,
        seed=0,
        clock=_FakeClock(),
        host={"hostname": "h", "machine": "x86_64", "cpu_count": 2, "mem_gb": 4.0},
    )
    set_default_profile(profile)  # the router plans in this process
    try:
        with ServingServer(
            {"m": str(bundle_path)}, num_workers=1, fit_options={"max_workers": 1}
        ) as srv:
            yield srv
    finally:
        set_default_profile(None)


def _raw(server, method, path, body=None):
    request = urllib.request.Request(server.url + path, data=body, method=method)
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------------
# One route table, one op table
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exercised(server, bundle_path, targets):
    """Call every public ``ServingClient`` method against the live
    server, recording each request line the client sent and each op the
    router asked of a worker."""
    sent, asked = [], []
    send_once = ServingClient._send_once
    ask = worker._WorkerHandle.request

    def recording_send(self, path, data, headers, method="POST"):
        sent.append((method, path))
        return send_once(self, path, data, headers, method=method)

    def recording_ask(self, op, payload=None, timeout=120.0):
        asked.append(op)
        return ask(self, op, payload, timeout=timeout)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingClient, "_send_once", recording_send)
        patch.setattr(worker._WorkerHandle, "request", recording_ask)
        with ServingClient(server.url) as cli:
            cli.health()
            cli.models()
            cli.metrics()
            cli.metrics(format="prometheus")
            cli.predict("m", targets)
            cli.register("by-path", bundle_path)
            cli.upload("by-upload", _bundle())
            cli.reload("m")
            cli.plan(400)
            with pytest.raises(TraceNotFoundError):
                cli.trace("0" * 32)
            job = cli.fit(
                locations=generate_irregular_grid(36, seed=4),
                z=np.random.default_rng(4).standard_normal(36),
                maxiter=2,
            )
            cli.jobs()
            cli.wait_job(job["job_id"], timeout=120.0)
    return sent, asked


def test_every_route_is_reachable_through_a_client_method(exercised):
    sent, _ = exercised
    reached = set()
    for method, path in sent:
        handler, _, _ = edge.match(method, path)
        assert handler is not None, f"client sent an unrouted request: {method} {path}"
        reached.add(handler)
    unreached = [
        f"{method} {template}"
        for method, template, handler in edge.ROUTES
        if handler not in reached
    ]
    assert unreached == []


def test_every_route_is_listed_in_the_server_docstring():
    endpoints = server_module.__doc__.partition("Endpoints\n---------\n")[2]
    assert endpoints, "the server module docstring lost its Endpoints section"
    listed = {
        line.strip().strip("`")
        for line in endpoints.splitlines()
        if line.startswith("``") and line.rstrip().endswith("``")
    }
    assert listed == {f"{method} {template}" for method, template, _ in edge.ROUTES}


def test_every_worker_op_is_reachable_from_a_route(exercised):
    _, asked = exercised
    assert set(asked) == set(worker.OPS)


def test_unknown_worker_op_is_a_server_error_reply():
    """An op outside the table is answered (typed), not crashed on: the
    same handle keeps serving table ops afterwards."""
    # The entry point must stay importable by qualified name under spawn.
    ctx = multiprocessing.get_context(os.environ.get("REPRO_SERVING_START_METHOD"))
    handle = worker._WorkerHandle(ctx, 0, {})
    try:
        handle.wait_ready(60.0)
        with pytest.raises(ServerError, match="unknown worker op 'ping'"):
            handle.request("ping")
        assert handle.request("models") == []
        assert handle.alive
    finally:
        handle.stop()


def test_pipe_messages_have_one_shape():
    assert worker.Message("stop") == ("stop", 0, None)
    assert worker.Message("ok", 3, {"a": 1}).payload == {"a": 1}
    assert not hasattr(worker, "_READY")


# --------------------------------------------------------------------------
# The one matcher
# --------------------------------------------------------------------------


def test_match_splits_query_before_matching_and_decodes_per_segment():
    for method, template, handler in edge.ROUTES:
        path = template.replace("<id>", "a%2Fb").replace("<trace_id>", "a%2Fb")
        for target in (path, path + "?x=1&y=2"):
            got, args, query = edge.match(method, target)
            assert got is handler, f"{method} {target}"
            assert args == (("a/b",) if "<" in template else ())
            assert query == ({"x": ["1"], "y": ["2"]} if "?" in target else {})
    for target in ("/v1/jobsx", "/v1/metricsfoo", "/v1/jobs/a/b", "/v1", "/"):
        assert edge.match("GET", target)[0] is None
    assert edge.match("GET", "/v1/predict")[0] is None  # method is part of the route
    assert edge.match("POST", "/healthz")[0] is None


def test_query_string_never_changes_the_route(server, targets):
    assert _raw(server, "GET", "/healthz?probe=1") == _raw(server, "GET", "/healthz")
    status, body = _raw(server, "GET", "/v1/models?x=1")
    assert status == 200 and "m" in body["models"]["0"]
    predict = json.dumps({"model_id": "m", "targets": targets.tolist()}).encode()
    status, body = _raw(server, "POST", "/v1/predict?x=1", predict)
    assert status == 200
    assert body["prediction"] == _raw(server, "POST", "/v1/predict", predict)[1]["prediction"]
    status, body = _raw(server, "POST", "/v1/models/m/reload?x=1", b"{}")
    assert status == 200 and body["model_id"] == "m"
    for path in ("/v1/jobsx", "/v1/metricsfoo", "/v1/metricsfoo?format=json"):
        status, body = _raw(server, "GET", path)
        assert status == 404 and body["error"]["type"] == "ServerError"
        assert "no route" in body["error"]["message"]


def test_encoded_slash_in_a_model_id_routes_as_one_segment(server, bundle_path, targets):
    with ServingClient(server.url) as cli:
        assert cli.register("a/b", bundle_path)["model_id"] == "a/b"
        assert cli.reload("a/b")["model_id"] == "a/b"
        np.testing.assert_array_equal(
            cli.predict("a/b", targets), cli.predict("m", targets)
        )


def test_unrouted_post_drains_its_body_before_the_404(server):
    """The unread body of an unrouted POST would otherwise be parsed as
    the next request line on the same keep-alive connection."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/nope?x=1", body=b"x" * 5000)
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 404 and body["error"]["type"] == "ServerError"
        conn.request("GET", "/healthz")  # same socket
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
    finally:
        conn.close()


# --------------------------------------------------------------------------
# retry_after crosses the pipe
# --------------------------------------------------------------------------


def test_exception_from_wire_restores_retry_after_where_it_is_carried():
    exc = exception_from_wire("CircuitOpenError", "open", 1.5)
    assert isinstance(exc, CircuitOpenError) and exc.retry_after == 1.5
    exc = exception_from_wire("LoadShedError", "full", "0.25")
    assert isinstance(exc, LoadShedError) and exc.retry_after == 0.25
    assert exception_from_wire("CircuitOpenError", "open").retry_after is None
    plain = exception_from_wire("ValidationError", "bad", 9.0)
    assert isinstance(plain, ValidationError) and not hasattr(plain, "retry_after")


def test_open_model_breaker_keeps_retry_after_across_the_worker_pipe(
    tmp_path, bundle_path, targets
):
    """The model never loads (every rehydration fails), so its breaker
    opens with no last-known-good engine to fall back on: the *worker*
    raises ``CircuitOpenError(retry_after=...)`` and the hint must reach
    the HTTP client — header, JSON field and typed attribute."""
    disarm()
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
            {"m": str(bundle_path)},
            num_workers=1,
            service_options={
                "breaker_threshold": 1,
                "breaker_recovery": 30.0,
            },
            enable_fitting=False,
        ) as server:
            with ServingClient(server.url) as cli:
                with pytest.raises(InjectedFaultError):
                    cli.predict("m", targets)
                with pytest.raises(CircuitOpenError) as caught:
                    cli.predict("m", targets)
                assert 0.0 < caught.value.retry_after <= 30.0
            body = json.dumps({"model_id": "m", "targets": targets.tolist()})
            request = urllib.request.Request(
                server.url + "/v1/predict", data=body.encode(), method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as http_error:
                urllib.request.urlopen(request)
            assert http_error.value.code == 503
            assert float(http_error.value.headers["Retry-After"]) > 0.0
            error = json.loads(http_error.value.read())["error"]
            assert error["type"] == "CircuitOpenError" and error["retry_after"] > 0.0
    finally:
        disarm()


# --------------------------------------------------------------------------
# POST /v1/fit parses with FitJobSpec
# --------------------------------------------------------------------------


def test_fit_accepts_every_scalar_fitjobspec_field_and_nothing_else(server, bundle_path):
    scalars = {
        name: p.default
        for name, p in inspect.signature(FitJobSpec).parameters.items()
        if isinstance(p.default, (bool, int, float, str)) or p.default is None
    }
    for name in ("locations", "z", "bundle_path", "model_spec", "x0", "bounds"):
        scalars.pop(name)
    assert {"metric", "variant", "acc", "seed", "use_morton", "model_id"} <= set(scalars)
    body = dict(scalars, bundle_path=str(bundle_path), maxiter=1, warm_start=True)
    with ServingClient(server.url) as cli:
        job = cli.fit(**body)
        assert job["status"] == "queued"
        cli.wait_job(job["job_id"], timeout=120.0, require_served=False)
        with pytest.raises(FittingError, match="unknown fit request fields"):
            cli.fit(bundle_path=str(bundle_path), model_spec={"family": "matern"})
        with pytest.raises(FittingError, match=r"\['no_such_knob'\]"):
            cli.fit(bundle_path=str(bundle_path), no_such_knob=1)
