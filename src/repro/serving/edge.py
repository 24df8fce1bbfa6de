"""The HTTP edge: one route table, one matcher, the body readers and reply writers.

:data:`ROUTES` is the whole HTTP surface of
:class:`~repro.serving.server.ServingServer` — ``(method, path
template, handler)`` rows, documented endpoint by endpoint in
:mod:`repro.serving.server`. :func:`match` is the only code that looks
at a request path: it cuts the query string off first (parsed once,
never part of the match), answers literal paths from a dict, and
otherwise splits on raw ``/``, percent-decodes each segment and
compares segment by segment — so ``/v1/jobsx`` is no route, a model id
containing ``%2F`` stays one segment, and ``?x=1`` never turns a route
into a 404.

A handler receives the :class:`_Handler` (for the body readers, the
parsed ``query`` and the edge-parsed ``deadline``) plus the captured
``<...>`` segments, calls one ``ServingServer`` operation, and returns
the JSON payload to send as a 200 — or writes its own reply (binary
predictions, Prometheus text) and returns ``None``. Errors raised
anywhere below become ``{"error": {"type", "message"}}`` with the
status :func:`~repro.exceptions.status_for_exception` assigns.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import (
    PayloadTooLargeError,
    PredictionError,
    WireFormatError,
    status_for_exception,
)
from ..resilience.faults import fault_point
from ..resilience.policy import Deadline
from ..telemetry import context as _trace_context
from ..telemetry import spans as _telemetry
from . import wire

__all__ = ["ROUTES", "match"]


class _Handler(BaseHTTPRequestHandler):
    """Reads request bodies, dispatches through :data:`ROUTES`, writes replies.

    With ``protocol_version = "HTTP/1.1"`` the stdlib reuses ONE
    handler instance for every keep-alive request on a connection
    (``handle()`` loops ``handle_one_request`` on self), so the
    per-request state (``_streamed``, ``_body_read``, ``deadline``,
    ``query``) is reset by :meth:`_dispatch`, not per instance.

    Every accepted socket gets ``TCP_NODELAY``: a reply leaves as
    several small writes (headers, then each body chunk), and under
    Nagle each write after the first waits out the client's ~40 ms
    delayed ACK.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args: object) -> None:  # noqa: D102 - quiet
        pass

    @property
    def owner(self):
        """The :class:`ServingServer` this connection belongs to."""
        return self.server.owner  # type: ignore[attr-defined]

    # ------------------------------------------------------------ request body
    def _content_length(self) -> int:
        """The request's validated body length.

        Malformed or negative declarations raise ``ValueError`` (→ 400)
        instead of leaking as a 500; declarations over the server's
        ``max_body`` cap raise :class:`PayloadTooLargeError` (→ 413)
        *before a single body byte is read*, so an oversized upload
        costs the server a header parse, not a buffered gigabyte.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except (TypeError, ValueError):
            raise ValueError(f"malformed Content-Length header {raw!r}") from None
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        max_body = self.owner.max_body
        if length > max_body:
            hint = ""
            if not self._is_binary_request():
                hint = (
                    f" — the binary transport (Content-Type: {wire.CONTENT_TYPE})"
                    " is several times smaller and streamed"
                )
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the server's "
                f"{max_body}-byte cap (max_body=){hint}"
            )
        return length

    def _body(self) -> dict:
        length = self._content_length()
        if length == 0:
            self._body_read = True
            return {}
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _is_binary_request(self) -> bool:
        return wire.is_binary(self.headers.get("Content-Type"))

    def _wants_binary(self) -> bool:
        return wire.CONTENT_TYPE in (self.headers.get("Accept") or "")

    def _read_binary(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Decode a binary request body into ``(meta, arrays)``.

        The read is bounded by the (already capped) Content-Length and
        decoded incrementally into preallocated arrays; a decode error
        drains the remaining body so the keep-alive connection stays
        usable for the error reply and the next request.
        """
        length = self._content_length()
        if length == 0:
            self._body_read = True
            raise WireFormatError("binary request carries an empty body")
        reader = wire.BoundedReader(self.rfile, length)
        try:
            return wire.read_message(
                reader.read, max_bytes=self.owner.max_body, deadline=self.deadline
            )
        finally:
            try:
                reader.drain()
                self._body_read = True
            except OSError:
                self.close_connection = True

    def _drain_body(self) -> None:
        """Read and discard the body (unrouted requests keep framing sane)."""
        length = self._content_length()
        if length:
            wire.BoundedReader(self.rfile, length).drain()
        self._body_read = True

    # ----------------------------------------------------------------- replies
    def _send(
        self,
        status: int,
        content_type: str,
        data: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _reply(
        self, status: int, payload: dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        try:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError:
            # A non-finite float slipped past the typed checks. Plain
            # json.dumps would emit bare NaN/Infinity tokens — which are
            # not JSON and explode in strict parsers — so degrade to a
            # typed error instead of ever sending an unparseable body.
            return self._reply_error(
                PredictionError(
                    "response contains non-finite floats that strict JSON "
                    "cannot represent; use the binary transport "
                    f"(Accept: {wire.CONTENT_TYPE}) to receive them bit-exact"
                )
            )
        self._send(status, "application/json", data, headers)

    def _reply_binary(self, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Stream a binary message as a 200 with its exact Content-Length.

        The message is planned once, so the declared length and the
        streamed body cannot disagree. The deadline is re-checked per
        chunk (a slow-reading client cannot pin a handler thread past
        the request's budget), and ``wire.stream`` is a fault-injection
        site so chaos tests can drop the connection mid-response.
        """
        plan = wire.plan_message(meta, arrays)
        self._streamed = True
        self.send_response(200)
        self.send_header("Content-Type", wire.CONTENT_TYPE)
        self.send_header("Content-Length", str(plan.length))
        self.end_headers()
        for chunk in plan.chunks(deadline=self.deadline):
            fault_point("wire.stream")
            self.wfile.write(chunk)

    def _safe_error(self, exc: BaseException) -> None:
        """Report ``exc`` to the client without ever corrupting the stream.

        Once a binary response has started, its status line is gone —
        the only honest signal left is killing the connection so the
        client sees a body shorter than its Content-Length (a typed
        wire error) instead of a silently short prediction. An error raised *before* the body
        was consumed (413, malformed Content-Length) likewise closes
        the connection: unread body bytes would desync the next
        keep-alive request.
        """
        if self._streamed:
            self.close_connection = True
            return
        if not self._body_read:
            self.close_connection = True
        self._reply_error(exc)

    def _reply_error(self, exc: BaseException) -> None:
        error = {"type": type(exc).__name__, "message": str(exc)}
        headers = None
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            # Load shedding / open breakers tell clients *when* to come
            # back — both in the JSON (typed clients) and as the
            # standard header (generic HTTP clients).
            error["retry_after"] = float(retry_after)
            headers = {"Retry-After": f"{max(0.0, float(retry_after)):.3f}"}
        self._reply(status_for_exception(exc), {"error": error}, headers)

    # ---------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        """Every request: match once, run the handler, reply or report."""
        # Stale _streamed from a previous request on this connection
        # would make _safe_error drop the connection instead of
        # replying; stale _body_read would defeat the close-on-unread-
        # body guard and desync keep-alive framing. A GET has no body
        # to leave unread.
        bodyless = self.command == "GET"
        self._streamed = False
        self._body_read = bodyless
        try:
            if "Transfer-Encoding" in self.headers:
                # Bodies are Content-Length framed only. Read as empty,
                # such a body would be parsed as the next request on
                # this connection (request smuggling), so refuse it and
                # close before a single body byte is read.
                self.close_connection = True
                raise ValueError(
                    "Transfer-Encoding is not supported; send the body "
                    "with a Content-Length"
                )
            # The deadline header is parsed at the very edge — before
            # the body is read — so streamed body reads already run
            # under the client's budget, and it wins over the body's
            # ``deadline`` field (proxies can impose a budget without
            # re-encoding the payload).
            self.deadline = (
                None
                if bodyless
                else Deadline.from_header(self.headers.get("X-Repro-Deadline"))
            )
            handler, args, self.query = match(self.command, self.path)
            if handler is None:
                self._drain_body()
                # 404, but as ServerError: a routing mistake must not look
                # like a missing *model* to clients that react to
                # ModelNotFoundError.
                error = {"type": "ServerError", "message": f"no route {self.path!r}"}
                self._reply(404, {"error": error})
                return
            payload = handler(self, *args)
            if payload is not None:
                self._reply(200, payload)
        except ConnectionError:  # client went away mid-reply: drop quietly
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the client
            self._safe_error(exc)

    do_GET = do_POST = _dispatch  # noqa: N815 - http.server API


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, owner) -> None:
        self.owner = owner
        super().__init__(address, _Handler)


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------


def _predict(h: _Handler) -> None:
    if not _telemetry.enabled():
        return _predict_negotiated(h)
    # Trace ingress, parsed at the same edge as the deadline: continue
    # the client's trace when the header parses, start a fresh one
    # otherwise, so server-side spans are always connected under a
    # single router span.
    ctx = _trace_context.from_header(h.headers.get(_trace_context.TRACE_HEADER))
    with _trace_context.activate(ctx or _trace_context.new_trace()):
        with _telemetry.span("router.predict"):
            return _predict_negotiated(h)


def _predict_negotiated(h: _Handler) -> None:
    """Per-side transport negotiation: Content-Type picks the request
    decoder, Accept picks the response encoder, and the two compose
    freely. Replies inside the router span, so the span covers the write."""
    if h._is_binary_request():
        meta, arrays = h._read_binary()
        body = dict(meta)
        body.update(arrays)
    else:
        body = h._body()
    if h._wants_binary():
        out = h.owner.predict_arrays_request(body, deadline=h.deadline)
        prediction = out.pop("prediction")
        h._reply_binary(out, {"prediction": prediction})
    else:
        h._reply(200, h.owner.predict_request(body, deadline=h.deadline))


def _metrics(h: _Handler) -> Optional[dict]:
    fmt = h.query.get("format", ["json"])[0]
    if fmt == "json":
        return h.owner.metrics()
    if fmt != "prometheus":
        raise ValueError(
            f"unknown metrics format {fmt!r} (expected 'json' or 'prometheus')"
        )
    h._send(
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        h.owner.metrics_prometheus().encode("utf-8"),
    )
    return None


def _register(h: _Handler, model_id: str) -> dict:
    if h._is_binary_request():  # register-by-upload: the body IS the bundle
        return h.owner.register_upload_request(model_id, *h._read_binary())
    return h.owner.register_request(model_id, h._body())


def _job(h: _Handler, job_id: str) -> dict:
    include_trace = h.query.get("trace", ["1"])[0] not in ("0", "false")
    return h.owner.job_request(job_id, include_trace=include_trace)


#: The HTTP surface: ``(method, path template, handler)``. ``<name>``
#: segments are captured and passed to the handler in order.
ROUTES: List[Tuple[str, str, Callable]] = [
    ("POST", "/v1/predict", _predict),
    ("GET", "/healthz", lambda h: h.owner.health()),
    ("GET", "/v1/models", lambda h: h.owner.models()),
    ("GET", "/v1/metrics", _metrics),
    ("GET", "/v1/trace/<trace_id>", lambda h, tid: h.owner.trace_request(tid)),
    ("GET", "/v1/plan", lambda h: h.owner.plan_request(h.query)),
    ("POST", "/v1/models/<id>", _register),
    (
        "POST",
        "/v1/models/<id>/reload",
        lambda h, mid: h.owner.reload_request(mid, h._body()),
    ),
    ("POST", "/v1/fit", lambda h: h.owner.fit_request(h._body())),
    ("GET", "/v1/jobs", lambda h: {"jobs": h.owner.jobs_request()}),
    ("GET", "/v1/jobs/<id>", _job),
]


def _segments(template: str) -> Tuple[Optional[str], ...]:
    return tuple(None if s.startswith("<") else s for s in template.split("/") if s)


_PATTERNS = [
    (method, _segments(template), handler) for method, template, handler in ROUTES
]
_LITERAL = {
    (method, template): handler
    for method, template, handler in ROUTES
    if None not in _segments(template)
}


def match(method: str, target: str) -> Tuple[Optional[Callable], Tuple[str, ...], dict]:
    """Resolve a request line to ``(handler, captured segments, query)``.

    ``handler`` is ``None`` when no :data:`ROUTES` row matches. The
    query string is split off before matching and returned parsed
    (:func:`urllib.parse.parse_qs`), so it can never change the route.
    """
    path, _, query = target.partition("?")
    params = urllib.parse.parse_qs(query) if query else {}
    handler = _LITERAL.get((method, path))
    if handler is not None:
        return handler, (), params
    # Split on raw '/', then decode each segment: a model id with an
    # encoded '/' (%2F) stays one segment and routes correctly.
    parts = [urllib.parse.unquote(p) for p in path.split("/") if p]
    for route_method, segments, handler in _PATTERNS:
        if (
            route_method == method
            and len(segments) == len(parts)
            and all(s is None or s == p for s, p in zip(segments, parts))
        ):
            captured = tuple(p for s, p in zip(segments, parts) if s is None)
            return handler, captured, params
    return None, (), params
