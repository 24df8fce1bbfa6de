"""HTTP client for :class:`~repro.serving.server.ServingServer`.

A thin, dependency-free wrapper over :mod:`http.client` that speaks the
server's two transports and re-raises the server's typed errors
(:class:`~repro.exceptions.ModelNotFoundError`,
:class:`~repro.exceptions.ServiceOverloadedError`, ...) so remote and
in-process callers handle failures identically.

Transports
----------
``transport="json"`` (default) is the debug surface: bodies are JSON,
encoded strictly (``allow_nan=False``) so a non-finite float raises a
typed :class:`~repro.exceptions.ValidationError` instead of emitting
bare ``NaN`` tokens no parser accepts, and capped at ``max_body`` bytes
with a message pointing at the binary transport. JSON float encoding
round-trips every finite ``float64`` exactly, so JSON predictions are
bit-identical to calling the worker's engine in process.

``transport="binary"`` speaks :mod:`repro.serving.wire`: targets cross
as raw little-endian float64 frames (several times smaller on the
wire, no repr/parse cost). Both directions are ``Content-Length``
bodies: the request is *streamed* from the source arrays (never
concatenated), and the response is decoded incrementally into one
preallocated array — also bit-exact, including NaN/inf payloads JSON
cannot carry at all.

Each client holds one persistent keep-alive connection guarded by a
lock, so a client instance is thread-safe but serializes its own
requests — concurrent load generators should use one client per
logical client (see ``benchmarks/ledger/perfledger/traffic.py``).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    FittingError,
    LoadShedError,
    PayloadTooLargeError,
    ServerError,
    ServiceOverloadedError,
    ValidationError,
    WireFormatError,
    exception_from_wire,
)
from ..resilience.policy import RetryPolicy
from ..telemetry import context as _trace_context
from ..telemetry import spans as _telemetry
from ..utils.validation import as_float_array, check_locations
from . import wire

__all__ = ["ServingClient"]

#: Rejections the server produced *without executing* the request —
#: load shedding at admission, an open circuit breaker, a full model
#: queue. Retrying them is always safe, even for POSTs whose body was
#: sent; whether they ARE retried is the retry policy's call.
_NOT_EXECUTED = (LoadShedError, CircuitOpenError, ServiceOverloadedError)


class _BufferedResponse:
    """A fully-buffered stand-in for :class:`http.client.HTTPResponse`,
    used when an early server rejection was read off a connection that
    died mid-request (see :meth:`ServingClient._early_rejection`)."""

    __slots__ = ("status", "_body", "_headers")

    def __init__(self, status: int, body: bytes, headers: Dict[str, str]) -> None:
        self.status = status
        self._body = body
        self._headers = headers

    def read(self, n: int = -1) -> bytes:
        body, self._body = self._body, b""
        return body

    def getheader(self, name: str, default=None):
        return self._headers.get(name.lower(), default)


class ServingClient:
    """Client for one serving endpoint.

    Parameters
    ----------
    url:
        Base URL (``http://host:port``), e.g. ``server.url``. A bare
        ``host:port`` is accepted too.
    timeout:
        Socket timeout in seconds for each request.
    retry_policy:
        A :class:`~repro.resilience.RetryPolicy` applied to rejections
        the server guarantees it did **not** execute (load shedding,
        open circuit breakers, full model queues): the client backs off
        — honoring the server's ``Retry-After`` hint when one came back
        — and resubmits, up to the policy's attempt budget. ``None``
        (default) surfaces those rejections to the caller unchanged.
        Transport-level retries are unaffected: an idle keep-alive
        connection that turns out dead is always retried exactly once,
        and nothing else (a timeout, or a failure on a fresh
        connection) ever is — the request may have executed.
    transport:
        Default predict transport: ``"json"`` (debug surface) or
        ``"binary"`` (framed float64 frames, streamed both ways — see
        the module docstring). Overridable per call.
    max_body:
        Byte cap the client enforces on its *own* JSON bodies before
        sending (default: :data:`repro.serving.wire.MAX_BODY`, the
        server's default 413 threshold). Binary bodies are not capped
        client-side — the binary transport is the remedy the cap's
        error message prescribes.

    Examples
    --------
    >>> with ServingServer({"m": path}) as server:        # doctest: +SKIP
    ...     client = ServingClient(server.url, transport="binary")
    ...     mean = client.predict("m", targets)
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 120.0,
        retry_policy: Optional[RetryPolicy] = None,
        transport: str = "json",
        max_body: int = wire.MAX_BODY,
    ) -> None:
        if url.startswith("https://"):
            raise ServerError("ServingClient speaks plain http only")
        if not url.startswith("http://"):
            url = f"http://{url}"
        try:
            # urlsplit handles trailing slashes, paths, and [::1]-style
            # IPv6 hosts that naive ':' splitting gets wrong.
            parts = urllib.parse.urlsplit(url)
            self.host = parts.hostname or "127.0.0.1"
            self.port = 80 if parts.port is None else int(parts.port)
        except ValueError as exc:
            raise ServerError(f"invalid serving URL {url!r}: {exc}") from exc
        self.transport = self._check_transport(transport)
        self.max_body = int(max_body)
        self.timeout = float(timeout)
        self.retry_policy = retry_policy
        self.n_retries = 0  # response-level (shed/breaker) resubmissions
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------- transport
    def _with_policy(self, fn: Callable[[], object]):
        """Run one request, resubmitting not-executed rejections (load
        shed, open breaker, full queue) under the retry policy."""
        attempt = 0
        while True:
            try:
                return fn()
            except _NOT_EXECUTED as exc:
                policy = self.retry_policy
                if policy is None or not policy.should_retry(exc, attempt):
                    raise
                # The server's Retry-After hint wins over the policy's
                # backoff curve — it knows when the breaker re-opens.
                hint = getattr(exc, "retry_after", None)
                pause = policy.delay(attempt) if hint is None else max(0.0, float(hint))
                if pause > 0.0:
                    time.sleep(pause)
                self.n_retries += 1
                attempt += 1

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
        transport: str = "json",
    ):
        if transport == "json":
            return self._with_policy(
                lambda: self._request_once(method, path, body, headers)
            )
        return self._with_policy(
            lambda: self._exchange(method, path, transport, body, headers)
        )

    def _check_transport(self, transport: Optional[str]) -> str:
        """``transport`` (``None``: the client default) validated."""
        transport = self.transport if transport is None else str(transport)
        if transport not in ("json", "binary"):
            raise ConfigurationError(
                f"transport must be 'json' or 'binary', got {transport!r}"
            )
        return transport

    def _encode(self, transport: str, body: dict):
        """A request body on ``transport``: ``(headers, data)``.

        The one place a body becomes bytes, for every route. ``body`` is
        a flat dict whose ndarray values are the message's arrays: JSON
        sends them as lists, binary frames them raw (everything else is
        the frame's meta) and asks for a binary answer. Binary ``data``
        is a zero-argument factory of the chunk iterator, so a streamed
        body can be rebuilt for a stale-keepalive resend.
        """
        arrays = {k: v for k, v in body.items() if isinstance(v, np.ndarray)}
        if transport == "binary":
            meta = {k: v for k, v in body.items() if k not in arrays}
            plan = wire.plan_message(meta, arrays)
            return {
                "Content-Type": wire.CONTENT_TYPE,
                "Content-Length": str(plan.length),
                "Accept": wire.CONTENT_TYPE,
            }, plan.chunks
        data = self._encode_json(
            dict(body, **{k: v.tolist() for k, v in arrays.items()})
        )
        return {
            "Content-Type": "application/json",
            "Content-Length": str(len(data)),
        }, data

    @staticmethod
    def _predict_body(
        model_id: str, targets: np.ndarray, z: Optional[np.ndarray], priority: int
    ) -> dict:
        """The predict request as :meth:`_encode` takes it (validated
        arrays) — the one place its fields are laid out."""
        body: dict = {"model_id": str(model_id), "targets": targets}
        if z is not None:
            body["z"] = z
        if priority:
            body["priority"] = int(priority)
        return body

    def _encode_json(self, body: dict) -> bytes:
        """Strict JSON encoding of a request body.

        ``allow_nan=False`` because bare ``NaN``/``Infinity`` tokens are
        not JSON — the server's strict parser (and any other one) would
        reject them after the bytes crossed the wire; failing here is
        earlier and typed. The size cap mirrors the server's 413
        threshold so an oversized body costs zero network traffic.
        """
        try:
            data = json.dumps(body, allow_nan=False).encode("utf-8")
        except ValueError:
            raise ValidationError(
                "request contains non-finite floats that strict JSON cannot "
                "represent; use transport='binary' to send them bit-exact"
            ) from None
        if len(data) > self.max_body:
            raise PayloadTooLargeError(
                f"JSON request body of {len(data)} bytes exceeds the "
                f"{self.max_body}-byte cap; use transport='binary' — its "
                "framed float64 payload is several times smaller and streamed"
            )
        return data

    @staticmethod
    def _early_rejection(conn):
        """Read a response the server sent *before* consuming our body.

        A server refusing a request from its headers alone (a 413 off
        the declared Content-Length) responds and closes its read side
        while the client is still streaming the body — the client then
        hits EPIPE mid-send with the real answer already buffered on
        the socket. Returns that response fully buffered (the
        connection itself is unusable), or ``None`` if there is none.
        """
        try:
            response = conn.getresponse()
            return _BufferedResponse(
                response.status,
                response.read(),
                {name.lower(): value for name, value in response.getheaders()},
            )
        except Exception:
            return None

    def _send_once(self, path: str, data, headers: Dict[str, str], method: str = "POST"):
        """One request/response over the pooled connection (lock held).

        Retries exactly once, and only when an idle keep-alive
        connection turned out to be dead — the server closed it before
        this request could have been processed. A timeout or a failure
        on a fresh connection is NOT retried: the request may have
        executed (predicts would run twice, reloads would double-swap).
        ``data`` may be a zero-argument factory returning the body
        (bytes or a chunk iterator) so a streamed body is rebuilt fresh
        for the retry instead of resending a half-consumed generator.
        """
        for attempt in (0, 1):
            reused = self._conn is not None
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                body = data() if callable(data) else data
                self._conn.request(method, path, body=body, headers=headers)
                return self._conn.getresponse()
            except (http.client.HTTPException, OSError) as exc:
                early = None
                if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
                    early = self._early_rejection(self._conn)
                self.close_locked()
                if early is not None:
                    return early
                stale_keepalive = reused and isinstance(
                    exc,
                    (
                        http.client.RemoteDisconnected,
                        BrokenPipeError,
                        ConnectionResetError,
                    ),
                )
                if attempt or not stale_keepalive:
                    raise ServerError(
                        f"request to {self.host}:{self.port}{path} failed: {exc}"
                    ) from exc

    def _finish_json(self, status: int, raw: bytes, retry_after_header=None) -> dict:
        """Parse a JSON response body; raise the typed error on >= 400."""
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServerError(f"malformed response from server: {exc}") from exc
        if status >= 400:
            error = payload.get("error", {}) if isinstance(payload, dict) else {}
            retry_after = error.get("retry_after")
            if retry_after is None:
                retry_after = retry_after_header
            raise exception_from_wire(
                error.get("type", "ServerError"),
                error.get("message", f"HTTP {status}"),
                retry_after,
            )
        return payload

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> dict:
        """One JSON-transport request (the seam the retry tests stub)."""
        return self._exchange(method, path, "json", body, extra_headers)

    def _exchange(
        self,
        method: str,
        path: str,
        transport: str,
        body: Optional[dict] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ):
        """One request on ``transport``, decoded by what came back.

        A binary body is streamed (explicit Content-Length, chunk by
        chunk — never concatenated). A binary response is decoded
        incrementally into preallocated arrays and returned as one dict
        (meta plus arrays, the shape of the JSON answer it replaces);
        ``text/plain`` comes back as ``str``; anything else is JSON —
        including every error, re-raised typed. A response cut off
        mid-stream raises :class:`ServerError` and is never retried:
        the request executed.
        """
        headers, data = ({}, None) if body is None else self._encode(transport, body)
        headers.update(extra_headers or {})
        with self._lock:
            response = self._send_once(path, data, headers, method=method)
            # Past this point the request EXECUTED — no retries below.
            status = response.status
            ctype = response.getheader("Content-Type") or ""
            try:
                if status < 400 and wire.is_binary(ctype):
                    meta, arrays = wire.read_message(response.read)
                    response.read()  # finish the body so the connection
                    return dict(meta, **arrays)  # stays reusable
                raw = response.read()
            except (WireFormatError, http.client.HTTPException, OSError) as exc:
                self.close_locked()
                raise ServerError(
                    f"response from {self.host}:{self.port}{path} "
                    f"was cut short: {exc}"
                ) from exc
            retry_after = response.getheader("Retry-After")
        if status < 400 and ctype.startswith("text/plain"):
            return raw.decode("utf-8")
        return self._finish_json(status, raw, retry_after)

    def close_locked(self) -> None:
        """Drop the pooled connection (caller holds the lock)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._conn = None

    def close(self) -> None:
        """Close the pooled connection (safe to keep using the client)."""
        with self._lock:
            self.close_locked()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------- API
    @staticmethod
    def _validate_predict_args(
        targets: object, z: Optional[object]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Validate predict arrays *before* any bytes are encoded.

        Ragged target lists, object dtypes, and non-numeric entries
        raise a typed :class:`~repro.exceptions.ValidationError` naming
        the offending argument instead of an opaque numpy conversion
        error from deep inside the encoder.
        """
        targets = check_locations(targets, "targets")
        if z is not None:
            z = as_float_array(z, "z")
        return targets, z

    def predict(
        self,
        model_id: str,
        targets: np.ndarray,
        *,
        z: Optional[np.ndarray] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        detail: bool = False,
        transport: Optional[str] = None,
    ) -> np.ndarray:
        """Conditional mean at ``targets`` — the remote twin of
        :meth:`~repro.serving.service.PredictionService.predict`.

        ``deadline`` (seconds) travels as the ``X-Repro-Deadline``
        header; the server turns it into an absolute deadline at the
        edge and every layer below inherits the shrinking remainder.
        With ``detail``, returns ``(prediction, flags)`` where flags
        carry the server's ``degraded`` bit — true when the answer came
        from a last-known-good engine generation. ``transport``
        overrides the client default per call (both transports return
        bit-identical predictions; binary is several times smaller on
        the wire and streamed).
        """
        targets, z = self._validate_predict_args(targets, z)
        transport = self._check_transport(transport)
        headers = {}
        if deadline is not None:
            headers["X-Repro-Deadline"] = f"{float(deadline):.6f}"
        if not _telemetry.enabled():
            return self._predict_transport(
                model_id, targets, z, priority, detail, transport, headers or None
            )
        # The trace is born here, at the caller: ``client.predict`` is
        # the root span, its ids travel in X-Repro-Trace, and
        # ``/v1/trace/<trace_id>`` joins the server-side spans back
        # under it. The whole request — retries included — is timed.
        with _telemetry.span(
            "client.predict", model=str(model_id), transport=transport
        ) as root:
            headers[_trace_context.TRACE_HEADER] = _trace_context.to_header(root.ctx)
            return self._predict_transport(
                model_id, targets, z, priority, detail, transport, headers
            )

    def _predict_transport(
        self,
        model_id: str,
        targets: np.ndarray,
        z: Optional[np.ndarray],
        priority: int,
        detail: bool,
        transport: str,
        headers: Optional[Dict[str, str]],
    ):
        """One predict over the chosen transport (validated arguments)."""
        body = self._predict_body(model_id, targets, z, priority)
        payload = self._request("POST", "/v1/predict", body, headers, transport)
        # A list from JSON (also when a server ignored Accept), the
        # decoded float64 array itself from a binary answer.
        prediction = np.asarray(payload["prediction"], dtype=np.float64)
        if detail:
            return prediction, {"degraded": bool(payload.get("degraded", False))}
        return prediction

    def register(self, model_id: str, path: Union[str, "object"]) -> dict:
        """Register a bundle path on the owning worker."""
        return self._request(
            "POST", f"/v1/models/{self._quote(model_id)}", {"path": str(path)}
        )

    def upload(self, model_id: str, bundle) -> dict:
        """Register a :class:`~repro.serving.store.ModelBundle` by
        uploading it over the binary transport — no shared filesystem
        required. The server persists it into its upload directory and
        registers the saved copy on the owning worker atomically."""
        meta, arrays = bundle.to_payload()
        return self._request(
            "POST",
            f"/v1/models/{self._quote(model_id)}",
            {**meta, **arrays},
            transport="binary",
        )

    def reload(self, model_id: str, path: Optional[Union[str, "object"]] = None) -> dict:
        """Hot-swap ``model_id``'s bundle (default: re-read its registered path)."""
        body = {} if path is None else {"path": str(path)}
        return self._request("POST", f"/v1/models/{self._quote(model_id)}/reload", body)

    @staticmethod
    def _quote(model_id: str) -> str:
        """Percent-encode a model id for a URL path segment, so ids with
        ``/`` or spaces address the same model they predict against."""
        return urllib.parse.quote(str(model_id), safe="")

    # ------------------------------------------------------------ fitting
    def fit(
        self,
        *,
        model_id: Optional[str] = None,
        from_model: Optional[str] = None,
        bundle_path: Optional[Union[str, "object"]] = None,
        locations: Optional[np.ndarray] = None,
        z: Optional[np.ndarray] = None,
        **options: object,
    ) -> dict:
        """Submit a fit job (``POST /v1/fit``); returns ``{"job_id", ...}``.

        ``from_model`` refits an already-served model (its bundle
        supplies data, substrate, and — by default — a warm-start
        theta); inline ``locations``/``z`` override the bundle's data.
        Remaining keyword ``options`` are
        :class:`~repro.fitting.FitJobSpec` fields (``n_starts``,
        ``seed``, ``maxiter``, ``warm_start``, ``bounds``, ...). On
        completion the server saves the fit as a bundle and hot-reloads
        ``model_id`` — poll with :meth:`job` / :meth:`wait_job`.
        """
        body: dict = dict(options)
        if model_id is not None:
            body["model_id"] = str(model_id)
        if from_model is not None:
            body["from_model"] = str(from_model)
        if bundle_path is not None:
            body["bundle_path"] = str(bundle_path)
        if locations is not None:
            body["locations"] = check_locations(locations, "locations").tolist()
        if z is not None:
            body["z"] = as_float_array(z, "z").tolist()
        return self._request("POST", "/v1/fit", body)

    def job(self, job_id: str, *, trace: bool = True) -> dict:
        """One fit job's record: status, result, and (with ``trace``,
        the default) the per-start per-iteration trajectory. Status
        pollers should pass ``trace=False`` — the trace grows with
        every iteration."""
        suffix = "" if trace else "?trace=0"
        return self._request("GET", f"/v1/jobs/{self._quote(job_id)}{suffix}")

    def jobs(self) -> List[dict]:
        """State summaries of every fit job on the server."""
        return self._request("GET", "/v1/jobs")["jobs"]

    def wait_job(
        self,
        job_id: str,
        *,
        timeout: float = 600.0,
        poll: float = 0.1,
        require_served: bool = True,
    ) -> dict:
        """Poll until the job finishes; returns its final record.

        With ``require_served`` (default) a job that targets a serving
        ``model_id`` is also waited on until the server published its
        bundle (hot-reload committed), so a following ``predict`` is
        guaranteed to see the new theta.

        Raises
        ------
        FittingError
            The job ``failed``, its publish step failed, or ``timeout``
            elapsed first.
        """
        deadline = time.monotonic() + timeout
        while True:
            # Poll without the trace (it grows per iteration); the full
            # record is fetched once, after the job settles.
            record = self.job(job_id, trace=False)
            status = record.get("status")
            if status == "failed":
                raise FittingError(
                    f"fit job {job_id} failed: {record.get('error')}"
                )
            if status == "done":
                if record.get("serve_error"):
                    raise FittingError(
                        f"fit job {job_id} finished but publishing failed: "
                        f"{record['serve_error']}"
                    )
                if (
                    not require_served
                    or not record.get("model_id")
                    or record.get("served")
                ):
                    return self.job(job_id)  # now with the full trace
            if time.monotonic() >= deadline:
                raise FittingError(
                    f"fit job {job_id} still {status!r} after {timeout}s"
                )
            time.sleep(poll)

    def models(self) -> Dict[str, List[str]]:
        """Model ids known to each worker."""
        return self._request("GET", "/v1/models")["models"]

    def metrics(self, *, format: str = "json"):
        """Per-worker metrics and fleet aggregates.

        ``format="prometheus"`` returns the fleet's merged telemetry
        registry as Prometheus text exposition (a ``str``) instead of
        the JSON dict.
        """
        if format == "prometheus":
            return self._request("GET", "/v1/metrics?format=prometheus")
        return self._request("GET", "/v1/metrics")

    def plan(
        self,
        n: int,
        *,
        m: Optional[int] = None,
        substrate: Optional[str] = None,
        accuracy: Optional[float] = None,
    ) -> dict:
        """Ask the server's calibrated planner for the cheapest config.

        ``GET /v1/plan`` — answered router-side from the server's
        :class:`~repro.perfmodel.autotune.CalibrationProfile`, no
        worker round-trip. ``n`` is the problem size; ``m`` the number
        of prediction points (server default 100); ``substrate`` pins
        ``full-block``/``full-tile``/``tlr``; ``accuracy`` pins the TLR
        tolerance. Returns the plan dict (``config``, ``predicted``,
        ``memory``, ``search``, ``profile``). Malformed parameters or
        an infeasible search raise :class:`~repro.exceptions.PlanError`.
        """
        params: Dict[str, str] = {"n": str(int(n))}
        if m is not None:
            params["m"] = str(int(m))
        if substrate is not None:
            params["substrate"] = substrate
        if accuracy is not None:
            params["accuracy"] = repr(float(accuracy))
        return self._request("GET", "/v1/plan?" + urllib.parse.urlencode(params))

    def trace(self, trace_id: str) -> dict:
        """The assembled span tree of one request trace.

        ``trace_id`` is the id :meth:`predict` sent in its
        ``X-Repro-Trace`` header — with telemetry armed, obtain it from
        :func:`repro.telemetry.span` around the call (the span's
        ``ctx.trace_id``) or a :func:`repro.telemetry.new_trace` you
        activated yourself. Raises
        :class:`~repro.exceptions.TraceNotFoundError` for unknown ids.
        """
        return self._request("GET", f"/v1/trace/{self._quote(trace_id)}")

    def health(self) -> dict:
        """Router + worker liveness."""
        return self._request("GET", "/healthz")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingClient(http://{self.host}:{self.port})"
