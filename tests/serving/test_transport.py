"""End-to-end transport parity and fault tests for the binary wire path.

The headline assertions of the PR-7 transport work:

* JSON and binary transports are **bit-identical** (0.0 absolute
  error) to the in-process engine for every substrate — streamed or
  buffered, predict-by-id or register-by-upload.
* Where strict JSON *cannot* be correct (non-finite predictions) the
  JSON path fails typed instead of shipping ``NaN`` as a quiet
  ``null``/``Infinity`` token, and the binary path carries the exact
  bits.
* A connection dropped mid-stream — on the request or the response
  side — yields a typed error, leaves no half-written registry or
  upload state, and the server keeps serving.
"""

from __future__ import annotations

import io
import socket
import time

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import ModelNotFoundError, PredictionError, ServerError
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.resilience.faults import FaultPlan, FaultRule, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer, wire

N, NB, ACC = 144, 36, 1e-9
VARIANTS = ("full-block", "full-tile", "tlr")


def _make_bundle(variant, z=None):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    if z is None:
        z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant=variant, tile_size=NB, acc=ACC
    )
    bundle.factor = bundle.build_engine().factor()
    return bundle


@pytest.fixture(scope="module")
def bundle_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    paths = {v: _make_bundle(v).save(root / f"{v}.bundle") for v in VARIANTS}
    # A model whose kriging weights overflow float64: every prediction
    # is non-finite — the regression vehicle for the JSON NaN bug.
    bad_z = np.where(np.arange(N) % 2 == 0, 1e308, -1e308)
    paths["nonfinite"] = _make_bundle("full-block", z=bad_z).save(
        root / "nonfinite.bundle"
    )
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
def bclient(server):
    with ServingClient(server.url, transport="binary") as cli:
        yield cli


@pytest.fixture(scope="module")
def targets():
    return np.ascontiguousarray(np.random.default_rng(5).random((11, 2)))


@pytest.fixture(autouse=True)
def _no_faults():
    yield
    disarm()


# --------------------------------------------------------------------------
# Parity: binary == JSON == in-process, bit for bit, per substrate.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_binary_json_inprocess_bit_identical(bundle_paths, client, bclient,
                                             targets, variant):
    reference = PredictionEngine.from_bundle(bundle_paths[variant]).predict(targets)
    via_json = client.predict(variant, targets)
    via_binary = bclient.predict(variant, targets)
    np.testing.assert_array_equal(via_json, reference)
    np.testing.assert_array_equal(via_binary, reference)


@pytest.mark.parametrize("variant", VARIANTS)
def test_binary_explicit_z_bit_identical(bundle_paths, bclient, targets, variant):
    engine = PredictionEngine.from_bundle(bundle_paths[variant])
    z = 0.5 * engine.z + 1.0
    np.testing.assert_array_equal(
        bclient.predict(variant, targets, z=z), engine.predict(targets, z=z)
    )


def test_per_call_transport_override(bundle_paths, client, targets):
    """One client, both transports: ``transport=`` per call wins."""
    reference = PredictionEngine.from_bundle(bundle_paths["tlr"]).predict(targets)
    np.testing.assert_array_equal(
        client.predict("tlr", targets, transport="binary"), reference
    )
    np.testing.assert_array_equal(client.predict("tlr", targets), reference)


def test_streamed_equals_buffered_decode(server, bundle_paths, bclient):
    """A multi-chunk streamed response decodes identically to buffering
    the whole chunked body first and decoding from memory."""
    big = np.random.default_rng(6).random((20_000, 2))  # 320 kB > CHUNK_SIZE
    streamed = bclient.predict("full-block", big)

    import http.client

    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        meta = {"model_id": "full-block"}
        arrays = {"targets": big}
        conn.request(
            "POST", "/v1/predict", body=wire.encode_message(meta, arrays),
            headers={"Content-Type": wire.CONTENT_TYPE,
                     "Accept": wire.CONTENT_TYPE},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == wire.CONTENT_TYPE
        whole_body = response.read()  # buffered: the other decode path
    finally:
        conn.close()
    _, buffered = wire.read_message(io.BytesIO(whole_body).read)
    np.testing.assert_array_equal(streamed, buffered["prediction"])
    np.testing.assert_array_equal(
        streamed, PredictionEngine.from_bundle(bundle_paths["full-block"]).predict(big)
    )


def test_binary_reply_is_content_length_framed(server, bundle_paths, targets):
    """A binary predict reply is one planned message in a plain
    ``Content-Length`` body — exactly ``wire.encoded_length`` of what
    it carries — and never chunked."""
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request(
            "POST", "/v1/predict",
            body=wire.encode_message({"model_id": "full-block"}, {"targets": targets}),
            headers={"Content-Type": wire.CONTENT_TYPE, "Accept": wire.CONTENT_TYPE},
        )
        response = conn.getresponse()
        assert response.status == 200
        body = response.read()
    finally:
        conn.close()
    assert response.getheader("Transfer-Encoding") is None
    meta, arrays = wire.read_message(io.BytesIO(body).read)
    reference = PredictionEngine.from_bundle(bundle_paths["full-block"]).predict(targets)
    np.testing.assert_array_equal(arrays["prediction"], reference)
    declared = response.getheader("Content-Length")
    assert declared is not None
    assert int(declared) == len(body) == wire.encoded_length(
        meta, {"prediction": reference}
    )


def test_keepalive_predict_has_no_idle_floor(bundle_paths, targets):
    """Sequential keep-alive predicts against a default server answer in
    a few ms. Regression: without TCP_NODELAY on accepted sockets, each
    small reply write after the first waited out the client's ~40 ms
    delayed ACK, and the service idled a 2 ms batch window on top."""
    with ServingServer(
        {"m": bundle_paths["full-block"]}, num_workers=1, enable_fitting=False
    ) as srv, ServingClient(srv.url, transport="binary") as cli:
        for _ in range(3):  # warm: engine load, connection set-up
            cli.predict("m", targets)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            cli.predict("m", targets)
            times.append(time.perf_counter() - t0)
    assert np.median(times) < 0.020


# --------------------------------------------------------------------------
# Register-by-upload (binary body on /v1/models/<id>)
# --------------------------------------------------------------------------


def test_register_by_upload_bit_identical(bundle_paths, bclient, client, targets):
    """An uploaded bundle — factor and all — serves bit-identically to
    the engine the originating process would build. This covers the
    F-order preservation guarantee: the uploaded Cholesky factor must
    keep its LAPACK memory layout or predictions drift by an ulp."""
    bundle = _make_bundle("full-block")
    reference = bundle.build_engine().predict(targets)
    result = bclient.upload("uploaded-model", bundle)
    assert result["model_id"] == "uploaded-model"
    assert any("uploaded-model" in ids for ids in client.models().values())
    np.testing.assert_array_equal(bclient.predict("uploaded-model", targets),
                                  reference)
    np.testing.assert_array_equal(client.predict("uploaded-model", targets),
                                  reference)


# --------------------------------------------------------------------------
# Non-finite predictions: typed on JSON, bit-exact on binary.
# --------------------------------------------------------------------------


def test_nonfinite_prediction_json_is_typed_not_mangled(client, targets):
    """Regression: the old encoder shipped NaN/inf as bare ``Infinity``
    tokens (invalid JSON). Strict JSON must refuse, typed, and point at
    the transport that can carry the values."""
    with pytest.raises(PredictionError, match="non-finite") as excinfo:
        client.predict("nonfinite", targets)
    assert "binary" in str(excinfo.value)
    # The 500 must not poison the keep-alive connection.
    client.health()


def test_nonfinite_prediction_binary_is_bit_exact(bundle_paths, bclient, targets):
    reference = PredictionEngine.from_bundle(bundle_paths["nonfinite"]).predict(
        targets
    )
    assert not np.isfinite(reference).any()
    got = bclient.predict("nonfinite", targets)
    assert got.tobytes() == reference.tobytes()  # NaN-safe bit equality


# --------------------------------------------------------------------------
# Connection dropped mid-stream
# --------------------------------------------------------------------------


def _send_partial_binary(server, path, meta, arrays, fraction=0.5):
    """Open a raw connection, declare the full Content-Length, send only
    ``fraction`` of the body, then drop the connection."""
    blob = wire.encode_message(meta, arrays)
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {server.host}:{server.port}\r\n"
        f"Content-Type: {wire.CONTENT_TYPE}\r\n"
        f"Content-Length: {len(blob)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    sock = socket.create_connection((server.host, server.port), timeout=30)
    try:
        sock.sendall(head + blob[: max(1, int(len(blob) * fraction))])
    finally:
        sock.close()  # mid-body drop


def test_request_dropped_mid_stream_predict(server, client, bundle_paths, targets):
    _send_partial_binary(
        server, "/v1/predict", {"model_id": "full-block"}, {"targets": targets}
    )
    # The handler saw a truncated stream; the server must keep serving.
    reference = PredictionEngine.from_bundle(bundle_paths["full-block"]).predict(
        targets
    )
    np.testing.assert_array_equal(client.predict("full-block", targets), reference)
    assert client.health()["status"] == "ok"


def test_request_dropped_mid_stream_upload_leaves_no_state(server, client):
    bundle = _make_bundle("full-block")
    meta, arrays = bundle.to_payload()
    _send_partial_binary(server, "/v1/models/half-uploaded", meta, arrays)
    # Give the handler a beat to unwind, then prove nothing leaked.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leftovers = list(server._upload_dir.glob("half-uploaded*"))
        if not leftovers:
            break
        time.sleep(0.05)
    assert not leftovers
    assert all(
        "half-uploaded" not in ids for ids in client.models().values()
    ), "a half-sent upload must never reach the registry"
    with pytest.raises(ModelNotFoundError):
        client.predict("half-uploaded", np.zeros((1, 2)))


def test_response_dropped_mid_stream_is_typed_and_not_retried(
    server, bundle_paths, targets
):
    """Kill the connection mid-*response* via the ``wire.stream`` fault
    site: the client must surface a typed ServerError (the request DID
    execute — a blind resend could double-execute) and the server must
    keep serving."""
    arm(FaultPlan(rules=[FaultRule(site="wire.stream", action="raise",
                                   exception="OSError")]))
    try:
        with ServingClient(server.url, transport="binary") as cli:
            with pytest.raises(ServerError, match="cut short"):
                cli.predict("full-block", targets)
    finally:
        disarm()
    reference = PredictionEngine.from_bundle(bundle_paths["full-block"]).predict(
        targets
    )
    with ServingClient(server.url, transport="binary") as cli:
        np.testing.assert_array_equal(cli.predict("full-block", targets), reference)
