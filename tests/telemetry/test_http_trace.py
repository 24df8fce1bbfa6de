"""End-to-end trace parity over HTTP.

The headline acceptance checks of the telemetry PR:

* One ``client.predict`` yields **one connected trace** — client,
  router, worker, service, and engine spans all share the trace id and
  nest under a single root — on every substrate and both transports.
* Child durations nest inside their parents.
* JSON and binary transports produce the same service/engine span
  structure (transport-layer ``wire.*`` spans and cold-load
  ``registry.load`` naturally differ and are excluded).
* Telemetry is observability, not physics: predictions are
  **bit-identical** with telemetry on and off.
* The Prometheus exposition served over HTTP passes the format lint,
  and unknown trace ids come back as a typed 404.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import TraceNotFoundError
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.resilience.faults import FaultPlan, FaultRule, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer
from repro.telemetry import context as tctx
from repro.telemetry.export import lint_prometheus
from repro.telemetry.spans import configure, reset_telemetry

N, NB, ACC = 144, 36, 1e-9
VARIANTS = ("full-block", "full-tile", "tlr")

# Structure comparison ignores spans whose presence legitimately varies
# per request: transport codecs (JSON requests never hit wire.*) and cold
# vs warm engine loads.
_STRUCTURAL_EXCLUDE = ("wire.", "registry.load")


def _make_bundle(variant):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant=variant, tile_size=NB, acc=ACC
    )
    bundle.factor = bundle.build_engine().factor()
    return bundle


@pytest.fixture(autouse=True)
def _armed():
    # Runs after the conftest reset: every test in this module sees the
    # router/client process armed, matching the servers built below.
    configure(enabled=True)
    yield


@pytest.fixture(scope="module")
def bundle_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    return {v: _make_bundle(v).save(root / f"{v}.bundle") for v in VARIANTS}


@pytest.fixture(scope="module")
def server(bundle_paths):
    configure(enabled=True)
    with ServingServer(
        dict(bundle_paths),
        num_workers=2,
        service_options={"max_batch": 8},
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def plain_server(bundle_paths):
    # Built while telemetry is unarmed, so its workers spawn with
    # telemetry off — the "off" half of the on/off parity check.
    reset_telemetry()
    try:
        srv = ServingServer(
            dict(bundle_paths),
            num_workers=1,
            service_options={"max_batch": 8},
        )
    finally:
        configure(enabled=True)
    with srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServingClient(server.url) as cli:
        yield cli


@pytest.fixture(scope="module")
def bclient(server):
    with ServingClient(server.url, transport="binary") as cli:
        yield cli


@pytest.fixture(scope="module")
def targets():
    return np.ascontiguousarray(np.random.default_rng(5).random((11, 2)))


def _traced_predict(cli, variant, targets, **kw):
    """Predict under a fresh activated trace; return (prediction, tree)."""
    ctx = tctx.new_trace()
    with tctx.activate(ctx):
        pred = cli.predict(variant, targets, **kw)
    return pred, cli.trace(ctx.trace_id)


# --------------------------------------------------------------------------
# One request, one connected tree — every substrate, both transports.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("which", ["json", "binary"])
def test_single_connected_trace(client, bclient, targets, variant, which):
    cli = client if which == "json" else bclient
    _, tree = _traced_predict(cli, variant, targets)
    assert tree["span_count"] == len(tree["spans"])
    # Connectivity: exactly one root, and it is the client span.
    assert len(tree["tree"]) == 1
    assert tree["tree"][0]["name"] == "client.predict"
    names = {s["name"] for s in tree["spans"]}
    assert {
        "client.predict",
        "router.predict",
        "worker.predict",
        "service.predict",
        "service.execute",
        "engine.predict",
    } <= names
    # The tree genuinely crosses the process boundary.
    assert len({s["pid"] for s in tree["spans"]}) >= 2


def _check_nesting(node, eps=0.05):
    children = node["children"]
    # service.coalesce is a different *view* of time already counted by
    # service.queue_wait (the lead request's batching wait), so it is
    # bounded on its own, not summed.
    summable = [c for c in children if c["name"] != "service.coalesce"]
    assert sum(c["duration"] for c in summable) <= node["duration"] + eps, node["name"]
    for c in children:
        assert c["duration"] <= node["duration"] + eps, c["name"]
        assert c["trace_id"] == node["trace_id"]
        _check_nesting(c, eps)


@pytest.mark.parametrize("variant", VARIANTS)
def test_child_durations_nest(client, targets, variant):
    _, tree = _traced_predict(client, variant, targets)
    (root,) = tree["tree"]
    _check_nesting(root)


def _structure(tree):
    return sorted(
        s["name"]
        for s in tree["spans"]
        if not s["name"].startswith(_STRUCTURAL_EXCLUDE)
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_structure_identical_json_vs_binary(client, bclient, targets, variant):
    # Warm both paths first so neither trace carries a cold load.
    client.predict(variant, targets)
    bclient.predict(variant, targets)
    _, via_json = _traced_predict(client, variant, targets)
    _, via_binary = _traced_predict(bclient, variant, targets)
    assert _structure(via_json) == _structure(via_binary)


# --------------------------------------------------------------------------
# Observability must not perturb the numerics.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_predictions_bit_identical_on_vs_off(
    bundle_paths, client, plain_server, targets, variant
):
    reference = PredictionEngine.from_bundle(bundle_paths[variant]).predict(targets)
    with ServingClient(plain_server.url) as plain_cli:
        untraced = plain_cli.predict(variant, targets)
    traced, _ = _traced_predict(client, variant, targets)
    np.testing.assert_array_equal(traced, reference)
    np.testing.assert_array_equal(untraced, reference)


# --------------------------------------------------------------------------
# Export surfaces over HTTP.
# --------------------------------------------------------------------------


def test_prometheus_endpoint_passes_lint(client, targets):
    client.predict("tlr", targets)
    text = client.metrics(format="prometheus")
    lint_prometheus(text)
    assert "repro_service_requests_total" in text
    assert "repro_service_latency_seconds_bucket" in text
    # JSON stays the default shape for existing consumers.
    as_json = client.metrics()
    assert "workers" in as_json


def test_unknown_trace_is_typed_404(client):
    with pytest.raises(TraceNotFoundError):
        client.trace("deadbeefdeadbeef")


# --------------------------------------------------------------------------
# Chaos events land on request traces (seeded FaultPlan over HTTP).
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def faulty_server(bundle_paths):
    configure(enabled=True)
    plan = FaultPlan(
        rules=[FaultRule(site="engine.predict", action="delay", delay=0.001, count=3)],
        seed=11,
    )
    arm(plan, propagate=True)  # the spawned worker arms from the env
    try:
        with ServingServer({"tlr": bundle_paths["tlr"]}, num_workers=1) as srv:
            disarm()  # worker already spawned with the plan in its env
            yield srv
    finally:
        disarm()


def test_fault_firing_annotates_the_trace(faulty_server, targets):
    with ServingClient(faulty_server.url) as cli:
        _, tree = _traced_predict(cli, "tlr", targets)
    pairs = [
        tuple(a) for s in tree["spans"] for a in (s.get("annotations") or [])
    ]
    assert any(
        k == "fault" and v.startswith("engine.predict#") and v.endswith(":delay")
        for k, v in pairs
    ), pairs
