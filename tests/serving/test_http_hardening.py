"""HTTP body-hardening and client-side validation tests.

The satellite fixes around the transport work: the router must answer
malformed or hostile ``Content-Length`` declarations with typed 4xx
responses *before* reading (or allocating for) the body, the
``max_body`` cap must govern both transports, and the client
must reject un-encodable inputs (ragged lists, non-finite floats,
oversized JSON bodies) with typed errors *before* any bytes hit the
socket.
"""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import (
    ConfigurationError,
    PayloadTooLargeError,
    ShapeError,
    ValidationError,
)
from repro.kernels import MaternCovariance
from repro.serving import ModelBundle, ServingClient, ServingServer, wire

N, NB = 144, 36


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(model=model, locations=locs, z=z,
                         variant="full-block", tile_size=NB)
    bundle.factor = bundle.build_engine().factor()
    path = bundle.save(tmp_path_factory.mktemp("bundles") / "m.bundle")
    # A deliberately small body cap: large enough for control-plane
    # JSON, small enough that a modest JSON predict trips it while the
    # same predict fits over the ~5x denser binary framing.
    with ServingServer({"m": path}, num_workers=1, max_body=16384) as srv:
        yield srv


def _raw_request(server, head_lines, body=b""):
    """Send a hand-built request; return (status, parsed-error-payload)."""
    sock = socket.create_connection((server.host, server.port), timeout=30)
    try:
        sock.sendall("\r\n".join(head_lines).encode("latin-1") + b"\r\n\r\n" + body)
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            piece = sock.recv(65536)
            if not piece:
                break
            raw += piece
    finally:
        sock.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    body_bytes = rest.split(b"\r\n\r\n")[0]
    try:
        payload = json.loads(body_bytes) if body_bytes else {}
    except json.JSONDecodeError:
        payload = {}
    return status, payload.get("error", {})


def _post_head(server, content_length, path="/v1/predict"):
    return [
        f"POST {path} HTTP/1.1",
        f"Host: {server.host}:{server.port}",
        "Content-Type: application/json",
        f"Content-Length: {content_length}",
    ]


# --------------------------------------------------------------------------
# Router body hardening
# --------------------------------------------------------------------------


def test_garbage_content_length_is_400(server):
    status, error = _raw_request(server, _post_head(server, "banana"))
    assert status == 400
    assert "Content-Length" in error.get("message", "")


def test_negative_content_length_is_400(server):
    status, error = _raw_request(server, _post_head(server, "-7"))
    assert status == 400
    assert "negative" in error.get("message", "")


def test_oversized_content_length_is_413_before_body_read(server):
    """A hostile declared length must be refused from the *header* —
    note no body bytes are ever sent here."""
    status, error = _raw_request(server, _post_head(server, str(1 << 40)))
    assert status == 413
    assert error.get("type") == "PayloadTooLargeError"
    assert "max_body" in error.get("message", "")
    # A JSON request over the cap is pointed at the binary transport.
    assert wire.CONTENT_TYPE in error.get("message", "")


def test_missing_content_length_is_400(server):
    status, _ = _raw_request(
        server,
        [f"POST /v1/predict HTTP/1.1",
         f"Host: {server.host}:{server.port}",
         "Content-Type: application/json"],
    )
    assert status == 400


def test_malformed_deadline_header_is_400(server):
    body = json.dumps({"model_id": "m", "targets": [[0.1, 0.2]]}).encode()
    head = _post_head(server, len(body)) + ["X-Repro-Deadline: soonish"]
    status, error = _raw_request(server, head, body)
    assert status == 400
    assert "X-Repro-Deadline" in error.get("message", "")


def test_server_rejects_silly_max_body():
    with pytest.raises(ConfigurationError, match="max_body"):
        ServingServer({}, max_body=512)


# --------------------------------------------------------------------------
# Keep-alive per-request state: one handler instance serves EVERY
# request on an HTTP/1.1 connection, so flags a request sets must never
# leak into the next one.
# --------------------------------------------------------------------------


def test_keepalive_typed_error_after_streamed_binary_reply(server):
    """Regression: ``_streamed`` left True by a successful streamed
    binary predict must not make a later request's typed error on the
    SAME keep-alive connection silently drop the connection instead of
    replying (which triggered spurious client-side retries)."""
    body = json.dumps({"model_id": "m", "targets": [[0.5, 0.5]]}).encode()
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/predict", body=body, headers={
            "Content-Type": "application/json", "Accept": wire.CONTENT_TYPE})
        response = conn.getresponse()
        assert response.status == 200
        assert wire.is_binary(response.getheader("Content-Type"))
        _, arrays = wire.read_message(response.read)
        assert arrays["prediction"].shape == (1,)
        assert response.isclosed()  # the whole Content-Length body consumed
        sock = conn.sock
        # Same connection, now a typed error: the server must REPLY
        # (404 JSON), not kill the connection over stale stream state.
        bad = json.dumps({"model_id": "missing", "targets": [[0.5, 0.5]]}).encode()
        conn.request("POST", "/v1/predict", body=bad,
                     headers={"Content-Type": "application/json"})
        assert conn.sock is sock
        response = conn.getresponse()
        assert response.status == 404
        error = json.loads(response.read())["error"]
        assert error["type"] == "ModelNotFoundError"
    finally:
        conn.close()


def test_keepalive_413_still_closes_connection(server):
    """Regression: ``_body_read`` left True by a completed request must
    not defeat the close-on-unread-body guard — an early 413 on a
    reused connection still closes it, so undelivered body bytes can
    never desync the next request's framing."""
    body = json.dumps({"model_id": "m", "targets": [[0.5, 0.5]]}).encode()
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/predict", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        response.read()  # leave framing clean
        sock = conn.sock
        # Second request declares an over-cap body (none is sent): the
        # 413 arrives before any body read, so the connection must die.
        conn.putrequest("POST", "/v1/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(server.max_body + 1))
        conn.endheaders()
        assert conn.sock is sock
        response = conn.getresponse()
        assert response.status == 413
        response.read()
        # Probe: a third request must meet a closed socket, never a
        # served response off desynced framing.
        try:
            sock.sendall(
                f"GET /healthz HTTP/1.1\r\nHost: {server.host}\r\n\r\n".encode()
            )
            leftover = sock.recv(1)
        except (BrokenPipeError, ConnectionResetError):
            leftover = b""
        assert leftover == b""
    finally:
        conn.close()


def test_transfer_encoding_is_400_and_closes_before_the_body(server):
    """Regression (request smuggling): a ``Transfer-Encoding`` body was
    read as empty, so its bytes parsed as a second request on the same
    keep-alive connection — here a ``GET /v1/models`` that was answered
    200. The request must get one 400 and then EOF, no second reply."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.putrequest("POST", "/v1/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        conn.send(b"GET /v1/models HTTP/1.1\r\nHost: x\r\n\r\n")
        sock = conn.sock
        response = conn.getresponse()
        assert response.status == 400
        error = json.loads(response.read())["error"]
        sock.settimeout(5.0)
        try:
            leftover = sock.recv(1)  # the server's next word must be EOF
        except socket.timeout:
            leftover = b"<connection left open>"
        assert leftover == b""
        assert "Transfer-Encoding" in error["message"]
    finally:
        conn.close()


# --------------------------------------------------------------------------
# The cap + the transports, end to end
# --------------------------------------------------------------------------


def test_json_over_cap_fails_typed_but_binary_fits(server):
    """The same predict that busts the 16 kB cap as JSON text sails
    through as binary framing — the error message's own advice."""
    targets = np.random.default_rng(0).random((600, 2))  # ~26 kB JSON, ~10 kB binary
    with ServingClient(server.url) as cli:
        with pytest.raises(PayloadTooLargeError, match="max_body"):
            cli.predict("m", targets)
        prediction = cli.predict("m", targets, transport="binary")
    assert prediction.shape == (600,)


def test_binary_over_cap_is_413_too(server):
    targets = np.random.default_rng(1).random((2000, 2))  # ~32 kB binary
    with ServingClient(server.url, transport="binary") as cli:
        with pytest.raises(PayloadTooLargeError):
            cli.predict("m", targets)
        # The refusal must not poison the connection for a sane retry.
        assert cli.predict("m", targets[:100]).shape == (100,)


# --------------------------------------------------------------------------
# Client-side refusals: typed, and before any bytes are sent.
# (The client below points at a dead port — if validation ever tried to
# connect first, these tests would fail with a connection error.)
# --------------------------------------------------------------------------


@pytest.fixture()
def offline_client():
    return ServingClient("http://127.0.0.1:9", max_body=4096)


def test_ragged_targets_rejected_client_side(offline_client):
    with pytest.raises(ValidationError, match="targets"):
        offline_client.predict("m", [[0.1, 0.2], [0.3]])


def test_object_dtype_targets_rejected_client_side(offline_client):
    with pytest.raises(ValidationError, match="targets"):
        offline_client.predict("m", np.array([[0.1, "x"], [0.3, None]],
                                             dtype=object))


def test_nonfinite_targets_rejected_client_side(offline_client):
    with pytest.raises(ShapeError, match="targets"):
        offline_client.predict("m", np.array([[0.1, np.nan]]))


def test_ragged_z_rejected_client_side(offline_client):
    with pytest.raises(ValidationError, match='z'):
        offline_client.predict("m", np.zeros((2, 2)), z=[[1.0], [2.0, 3.0]])


def test_ragged_locations_rejected_in_fit(offline_client):
    with pytest.raises(ValidationError, match="locations"):
        offline_client.fit(locations=[[0.0, 0.1], [0.2]], z=[1.0, 2.0])


def test_client_refuses_nonfinite_json(offline_client):
    """Strict JSON encode: NaN must never leave the client as a bare
    ``NaN`` token. The refusal names the transport that CAN carry it."""
    with pytest.raises(ValidationError, match="binary"):
        offline_client._encode_json({"x": float("nan")})


def test_client_refuses_oversized_json_body(offline_client):
    big = np.random.default_rng(2).random((400, 2))
    with pytest.raises(PayloadTooLargeError, match="binary"):
        offline_client.predict("m", big)
