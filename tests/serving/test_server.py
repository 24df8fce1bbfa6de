"""End-to-end tests for the multi-process HTTP serving layer.

The headline assertion: a prediction served over HTTP — JSON in, router
thread, pickle over a worker pipe, asyncio micro-batcher, engine call
in a worker *process*, and all the way back — is **bit-identical**
(0.0 absolute error) to calling ``PredictionEngine.predict`` in this
process, for all three substrates, including the adopted-factor path
where the worker never factorizes at all.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import (
    BundleCorruptError,
    BundleError,
    ConfigurationError,
    ModelNotFoundError,
    NotPositiveDefiniteError,
    OutOfMemoryModelError,
    ReproError,
    ServerError,
    ServiceClosedError,
    exception_from_wire,
    status_for_exception,
)
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.serving import ModelBundle, ServingClient, ServingServer
from repro.serving.server import _stable_shard

N, NB, ACC = 144, 36, 1e-9
VARIANTS = ("full-block", "full-tile", "tlr")


def _make_bundle(variant, theta=(1.0, 0.1, 0.5), with_factor=True):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(*theta)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant=variant, tile_size=NB, acc=ACC
    )
    if with_factor:
        # Persist the exact factor: the serving worker adopts it and the
        # first remote predict skips generation *and* factorization.
        bundle.factor = bundle.build_engine().factor()
    return bundle


@pytest.fixture(scope="module")
def bundle_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    paths = {}
    for variant in VARIANTS:
        paths[variant] = _make_bundle(variant).save(root / f"{variant}.bundle")
    return paths


@pytest.fixture(scope="module")
def server(bundle_paths):
    with ServingServer(
        dict(bundle_paths),
        num_workers=2,
        service_options={"max_batch": 16},
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServingClient(server.url) as cli:
        yield cli


@pytest.fixture(scope="module")
def targets():
    return np.ascontiguousarray(np.random.default_rng(5).random((11, 2)))


# --------------------------------------------------------------------------
# Parity: HTTP-served == in-process, bit for bit.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_http_prediction_bit_identical_across_processes(
    bundle_paths, client, targets, variant
):
    engine = PredictionEngine.from_bundle(bundle_paths[variant])
    reference = engine.predict(targets)
    assert engine.n_factorizations == 0  # the adopted-factor path
    got = client.predict(variant, targets)
    np.testing.assert_array_equal(got, reference)


@pytest.mark.parametrize("variant", VARIANTS)
def test_http_explicit_z_bit_identical(bundle_paths, client, targets, variant):
    engine = PredictionEngine.from_bundle(bundle_paths[variant])
    z = 0.5 * engine.z + 1.0
    reference = engine.predict(targets, z=z)
    got = client.predict(variant, targets, z=z)
    np.testing.assert_array_equal(got, reference)


def test_http_concurrent_clients_all_bit_identical(bundle_paths, server, targets):
    """Many threads, each its own keep-alive connection, hitting all models
    at once: every answer must still be bit-identical to in-process."""
    references = {
        v: PredictionEngine.from_bundle(p).predict(targets)
        for v, p in bundle_paths.items()
    }
    jobs = [v for v in VARIANTS for _ in range(6)]

    def one(variant):
        with ServingClient(server.url) as cli:
            return variant, cli.predict(variant, targets)

    with concurrent.futures.ThreadPoolExecutor(max_workers=9) as pool:
        results = list(pool.map(one, jobs))
    assert len(results) == len(jobs)
    for variant, got in results:
        np.testing.assert_array_equal(got, references[variant])


# --------------------------------------------------------------------------
# Routing, admin surface, error mapping.
# --------------------------------------------------------------------------


def test_sharding_is_stable_and_owns_models(server, client):
    models = client.models()
    for variant in VARIANTS:
        expected = _stable_shard(variant, server.num_workers)
        assert server.worker_for(variant) == expected
        assert variant in models[str(expected)]


def test_health_reports_all_workers_alive(client, server):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == server.num_workers
    assert health["alive"] == [True] * server.num_workers


def test_metrics_counters_reconcile_with_client_counts(server, targets):
    with ServingClient(server.url) as cli:
        before = cli.metrics()["aggregate"]["counters"]
        n = 5
        for _ in range(n):
            cli.predict("full-block", targets)
        after = cli.metrics()["aggregate"]["counters"]
    assert after["requests"] - before.get("requests", 0) == n
    assert after["completed"] - before.get("completed", 0) == n
    assert after.get("errors", 0) == before.get("errors", 0)


def test_register_after_start(server, client, targets, tmp_path):
    path = _make_bundle("full-block", theta=(2.0, 0.15, 0.8)).save(
        tmp_path / "late.bundle"
    )
    client.register("late-model", str(path))
    reference = PredictionEngine.from_bundle(path).predict(targets)
    np.testing.assert_array_equal(client.predict("late-model", targets), reference)


def test_model_id_with_slash_routes_through_admin_endpoints(
    server, client, targets, tmp_path
):
    """Regression: ids that need percent-encoding ('soil/2024') must work
    through the path-addressed admin routes, not just body-addressed
    predict."""
    model_id = "soil/2024 v1"
    path_a = _make_bundle("full-block").save(tmp_path / "slash-a.bundle")
    path_b = _make_bundle("full-block", theta=(1.7, 0.2, 0.9)).save(
        tmp_path / "slash-b.bundle"
    )
    client.register(model_id, str(path_a))
    ref_a = PredictionEngine.from_bundle(path_a).predict(targets)
    np.testing.assert_array_equal(client.predict(model_id, targets), ref_a)
    client.reload(model_id, str(path_b))
    ref_b = PredictionEngine.from_bundle(path_b).predict(targets)
    np.testing.assert_array_equal(client.predict(model_id, targets), ref_b)


def test_unknown_model_maps_to_typed_exception(client, targets):
    with pytest.raises(ModelNotFoundError):
        client.predict("no-such-model", targets)


def _repro_error_classes():
    seen, todo = [], [ReproError]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in seen if c.__module__ == "repro.exceptions"]


@pytest.mark.parametrize("cls", _repro_error_classes(), ids=lambda c: c.__name__)
def test_every_library_error_round_trips_the_wire_by_name(cls):
    back = exception_from_wire(cls.__name__, "why")
    assert type(back) is cls and str(back) == "why"
    assert 400 <= status_for_exception(back) < 600


def test_wire_errors_unknown_names_and_most_specific_status():
    back = exception_from_wire("SystemExit", "nope")
    assert type(back) is ServerError and "SystemExit" in str(back)
    assert type(exception_from_wire("KeyError", "k")) is KeyError
    # MRO lookup: the subclass's own entry wins over its parent's.
    assert status_for_exception(BundleCorruptError("x")) == 500
    assert status_for_exception(BundleError("x")) == 400
    assert status_for_exception(OutOfMemoryModelError("x")) == 500  # no entry
    assert status_for_exception(RuntimeError("x")) == 500


def test_non_spd_model_raises_its_typed_error_client_side(client, targets, tmp_path):
    """A factor-less bundle whose theta is numerically non-SPD fails in
    the worker's factorization; the client must see that class, not a
    502 ServerError."""
    locs = generate_irregular_grid(N, seed=0)
    path = ModelBundle(
        model=MaternCovariance(1.0, 50.0, 2.5), locations=locs, z=np.zeros(N),
        variant="full-tile", tile_size=NB, acc=ACC,
    ).save(tmp_path / "npd.bundle")
    client.register("npd", str(path))
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        client.predict("npd", targets)


def test_unknown_route_and_malformed_body(server):
    import http.client
    import json

    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/nope")
        resp = conn.getresponse()
        assert resp.status == 404
        # Routing mistakes are transport errors, NOT a missing model.
        assert json.loads(resp.read())["error"]["type"] == "ServerError"
        conn.request(
            "POST",
            "/v1/predict",
            body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 400
        conn.request(
            "POST",
            "/v1/predict",
            body=json.dumps({"targets": [[0.1, 0.2]]}).encode(),  # no model_id
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 400
    finally:
        conn.close()


def test_client_accepts_messy_base_urls(server, targets):
    """Regression: trailing slashes and bare host:port must both work."""
    reference = None
    for url in (server.url, server.url + "/", f"{server.host}:{server.port}"):
        with ServingClient(url) as cli:
            got = cli.predict("full-block", targets)
        if reference is None:
            reference = got
        np.testing.assert_array_equal(got, reference)


def test_priority_and_deadline_cross_the_wire(client, targets):
    got = client.predict("full-block", targets, deadline=30.0, priority=1)
    assert got.shape == (targets.shape[0],)
    from repro.exceptions import DeadlineExceededError

    with pytest.raises(DeadlineExceededError):
        client.predict("full-block", targets, deadline=-1.0)


# --------------------------------------------------------------------------
# Construction-time validation and lifecycle.
# --------------------------------------------------------------------------


def test_bad_options_fail_in_parent_before_spawning(bundle_paths):
    with pytest.raises(ConfigurationError):
        ServingServer(dict(bundle_paths), service_options={"max_batch": 0})
    with pytest.raises(ConfigurationError):
        ServingServer(dict(bundle_paths), registry_options={"max_models": 0})
    # A typo'd or removed keyword is a ConfigurationError too, not a
    # bare TypeError.
    with pytest.raises(ConfigurationError):
        ServingServer(dict(bundle_paths), registry_options={"workers_per_shard": 2})
    with pytest.raises(ConfigurationError):
        ServingServer(dict(bundle_paths), service_options={"executor": None})
    with pytest.raises(ConfigurationError):
        ServingServer(dict(bundle_paths), num_workers=0)
    with pytest.raises(ConfigurationError):
        ServingServer(dict(bundle_paths), request_timeout=0.0)


def test_stopped_server_rejects_and_stop_is_idempotent(bundle_paths, targets):
    server = ServingServer({"m": bundle_paths["full-block"]}, num_workers=1)
    with pytest.raises(ServiceClosedError):
        server.predict_request({"model_id": "m", "targets": targets.tolist()})
    server.start()
    try:
        out = server.predict_request({"model_id": "m", "targets": targets.tolist()})
        assert len(out["prediction"]) == targets.shape[0]
    finally:
        server.stop()
        server.stop()  # idempotent
    with pytest.raises(ServiceClosedError):
        server.predict_request({"model_id": "m", "targets": targets.tolist()})


def test_ephemeral_path_detection_is_separator_aware(tmp_path):
    """Regression: a sibling directory sharing an ephemeral dir's string
    prefix (``uploads-keep`` vs ``uploads``) is NOT inside it — its
    bundles are durable and must survive as rollback targets."""
    from repro.serving.server import _path_within

    root = tmp_path / "uploads"
    assert _path_within(root / "m.bundle", root)
    assert _path_within(root / "a" / "b.bundle", root)
    assert _path_within(root, root)
    assert not _path_within(str(root) + "-keep/m.bundle", root)
    assert not _path_within(tmp_path / "uploadsX" / "m.bundle", root)
    assert not _path_within(tmp_path, root)
