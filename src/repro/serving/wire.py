"""Binary + streaming wire codec for the serving HTTP transport.

Realistic kriging requests carry 1e3–1e6 float64 targets. Encoding
them as JSON lists costs ~19 text bytes per float plus a ``repr`` pass
on both sides — the dominant wire and encode/decode cost of the HTTP
path (the pipe path between router and worker was always pickle). This
module is the shared codec that fixes it: raw little-endian float64
frames, streamed, decoded incrementally into one preallocated array.

Wire format (version 1)
-----------------------
A *message* is a sequence of length-prefixed frames over any byte
stream (an HTTP body, a socket, a file). Every frame starts with a
fixed 20-byte head::

    offset  size  field
    0       4     magic  b"RNPY"
    4       1     wire version (currently 1)
    5       1     frame kind: b"M" meta, b"A" array, b"E" end
    6       2     reserved (0)
    8       4     header length H, uint32 little-endian
    12      8     payload length P, uint64 little-endian
    20      H     header: UTF-8 JSON object (empty when H == 0)
    20+H    P     payload: raw bytes

and a message is exactly::

    META frame    H == 0; payload is the message's JSON meta object
                  (model id, flags, ... — everything scalar).
    ARRAY frame*  zero or more; header is ``{"name", "dtype", "shape",
                  "order"[, "encoding"]}``; payload is the array's raw
                  little-endian bytes in its own memory order
                  (npy-style, headerless): ``order`` is ``"C"``
                  (default when absent) or ``"F"`` — layout is
                  preserved because downstream BLAS picks code paths
                  by it, and a transpose-copy would shift results by
                  an ulp. ``encoding`` is ``"raw"`` (default when
                  absent) or ``"deflate"`` — a zlib-compressed payload
                  (P is then the *compressed* length; the decompressed
                  length is implied by dtype and shape). Encoders
                  apply deflate only when a sample probe shows the
                  payload actually shrinks — structured map-grid
                  coordinates compress ~6x, while random mantissas
                  ship raw rather than paying for nothing. Lossless
                  either way: bit-exactness is unconditional.
                  Supported dtypes: ``"<f8"``, ``"<i8"``.
    END frame     H == 0, P == 0. Closes the message: a reader that
                  hits end-of-stream before END reports a truncated
                  stream (a connection dropped mid-transfer) as a
                  typed :class:`~repro.exceptions.WireFormatError`
                  instead of silently returning partial arrays.

Because every float64 crosses as its 8 raw bytes, binary transport is
**bit-exact** by construction — including NaN/inf payloads that strict
JSON cannot represent at all — and ~2.7x smaller than JSON's
repr-encoded floats (8 bytes vs ~21 text bytes per value). Structured
payloads — above all regular map-grid target coordinates, the bulk
kriging-output workload — deflate on top of that to 10x+ smaller than
JSON; incompressible random mantissas ship raw (see ``encoding``
below).

Negotiation
-----------
The HTTP surface stays JSON by default (the debug surface). A request
whose ``Content-Type`` is :data:`CONTENT_TYPE`
(``application/x-repro-npy``) carries a binary message body; a
response is binary iff the request's ``Accept`` header includes
:data:`CONTENT_TYPE` (binary responses use HTTP/1.1 chunked transfer
encoding and are streamed frame by frame). Error responses are always
JSON, whatever was negotiated, so one error decoder serves both
transports. ``POST /v1/predict`` and ``POST /v1/models/<id>``
(register-by-upload) accept binary bodies.

Versioning rules
----------------
The version byte is bumped on any incompatible layout change; readers
reject a mismatched version with :class:`WireFormatError` rather than
guessing. Within a version, *new optional keys* may appear in meta and
array headers — readers must ignore keys they do not know. ``order``
and ``encoding`` are NOT such keys: they change how the payload bytes
are interpreted, so they are part of the version-1 spec and a reader
that meets an ``encoding`` value it does not support must reject the
frame, not skip the key. The ``reserved`` head bytes must be written
as zero and ignored on read.

Streaming
---------
:func:`iter_message` yields the encoded message as a sequence of
bounded chunks without ever concatenating an array payload — large
arrays are yielded as memoryview slices of their own buffers.
:func:`read_message` is the mirror image: it allocates each array once
from its header and reads the payload incrementally into that buffer,
so a million-target request is never materialized twice. Both loops
honor an optional :class:`~repro.resilience.policy.Deadline` (checked
per chunk) and the reader enforces an optional ``max_bytes`` budget
(:class:`~repro.exceptions.PayloadTooLargeError`) *before* allocating
from untrusted declared lengths.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import PayloadTooLargeError, WireFormatError
from ..resilience.faults import fault_point
from ..resilience.policy import Deadline
from ..telemetry import spans as _telemetry

__all__ = [
    "CONTENT_TYPE",
    "WIRE_VERSION",
    "MAGIC",
    "is_binary",
    "encode_message",
    "encoded_length",
    "iter_message",
    "plan_message",
    "read_message",
    "write_chunked",
    "BoundedReader",
    "ChunkedReader",
    "parse_http_head",
]

#: MIME type negotiated on ``Content-Type`` (request) / ``Accept`` (response).
CONTENT_TYPE = "application/x-repro-npy"


def is_binary(content_type: Optional[str]) -> bool:
    """True when a ``Content-Type`` header value names this format
    (parameters such as ``; charset=`` and letter case ignored)."""
    return (content_type or "").split(";")[0].strip().lower() == CONTENT_TYPE


MAGIC = b"RNPY"
WIRE_VERSION = 1

_KIND_META = ord("M")
_KIND_ARRAY = ord("A")
_KIND_END = ord("E")

#: magic, version, kind, reserved, header_len (u32), payload_len (u64).
_HEAD = struct.Struct("<4sBBHIQ")

#: Streaming granularity: large payloads cross in slices of this size.
CHUNK_SIZE = 256 * 1024

#: Default byte cap on one HTTP request body, JSON or binary — the
#: ``max_body=`` default of both ``ServingServer`` and ``ServingClient``.
MAX_BODY = 64 * 1024 * 1024

#: Sanity cap on a frame's JSON header — headers carry names and shapes,
#: never data, so anything bigger is a malformed (or hostile) stream.
_MAX_HEADER = 1 << 20

#: dtypes allowed on the wire (little-endian, matching the format spec).
_WIRE_DTYPES = ("<f8", "<i8")

_MAX_LINE = 65536  # HTTP status/header/chunk-size line bound

#: Payloads below this skip the compression probe outright.
_COMPRESS_MIN = 1024

#: Bytes of payload the compression probe samples.
_COMPRESS_SAMPLE = 65536

#: The probe sample must deflate below this fraction for the payload to
#: ship compressed — random float64 mantissas land near 0.95 and ship
#: raw; structured map-grid coordinates land near 0.2 and compress ~6x.
_COMPRESS_THRESHOLD = 0.75

_COMPRESS_LEVEL = 1  # speed over ratio: structured payloads crush anyway


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _wire_array(name: str, value: Any) -> Tuple[np.ndarray, str, str]:
    """Coerce ``value`` to a little-endian wire array + dtype tag + order.

    Memory order is preserved on the wire (npy-style): a
    Fortran-ordered array — e.g. a LAPACK Cholesky factor — crosses as
    its own bytes under ``order: "F"`` rather than being transposed
    into C order. Bit-exactness is not just about values: downstream
    BLAS picks its code path by memory layout, so changing the order
    would change results by an ulp.
    """
    arr = np.asarray(value)
    if arr.dtype.kind in "iu" and arr.dtype != np.dtype("<i8"):
        arr = arr.astype("<i8")
    elif arr.dtype.kind != "i" and arr.dtype != np.dtype("<f8"):
        arr = arr.astype("<f8")
    tag = "<i8" if arr.dtype.kind == "i" else "<f8"
    # astype above already handled byte order for converted arrays; a
    # pass-through big-endian f8/i8 still needs the swap:
    if arr.dtype.byteorder == ">":
        arr = arr.astype(tag)
    if arr.ndim >= 2 and arr.flags["F_CONTIGUOUS"] and not arr.flags["C_CONTIGUOUS"]:
        return arr, tag, "F"
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # preserves 0-d (ascontiguousarray
        # unconditionally would promote scalars to shape (1,))
    return arr, tag, "C"


def _byte_view(arr: np.ndarray, order: str) -> memoryview:
    """Flat writable byte view of ``arr``'s buffer (``arr.T`` of an
    F-ordered array is C-contiguous, exposing the same memory).

    ``memoryview.cast`` rejects 0-d and zero-size views, so the array
    is first flattened to 1-D (a view — the base is contiguous by
    construction) and the empty case short-circuits.
    """
    if arr.size == 0:
        return memoryview(bytearray(0))
    base = arr.T if order == "F" else arr
    return memoryview(base.reshape(-1)).cast("B")


def _frame_head(kind: int, header: bytes, payload_len: int) -> bytes:
    return _HEAD.pack(MAGIC, WIRE_VERSION, kind, 0, len(header), payload_len)


def _meta_bytes(meta: dict) -> bytes:
    try:
        return json.dumps(meta, allow_nan=False).encode("utf-8")
    except ValueError:
        raise WireFormatError(
            "message meta contains non-finite floats; meta is strict JSON "
            "— non-finite values belong in array payloads"
        ) from None


def _maybe_deflate(view: memoryview) -> Optional[bytes]:
    """Deflate ``view`` if a sample probe says it will actually shrink.

    Returns the compressed payload, or ``None`` to ship raw. The probe
    costs one small-sample compression on incompressible data, so raw
    payloads pay ~nothing for the option.
    """
    if len(view) < _COMPRESS_MIN:
        return None
    sample = bytes(view[:_COMPRESS_SAMPLE])
    if len(zlib.compress(sample, _COMPRESS_LEVEL)) >= _COMPRESS_THRESHOLD * len(sample):
        return None
    compressed = zlib.compress(view, _COMPRESS_LEVEL)
    return compressed if len(compressed) < len(view) else None


class _MessagePlan:
    """One encoded message, planned once: frame heads + headers built,
    compression decided (and its buffered output held), source-array
    payloads kept as memoryviews. ``chunks()`` can be called repeatedly
    — e.g. to rebuild a streamed HTTP body for a retry — without
    re-paying the analysis.
    """

    __slots__ = ("_pieces", "length")

    def __init__(self, pieces: List[Union[bytes, memoryview]]) -> None:
        self._pieces = pieces
        self.length = sum(len(p) for p in pieces)

    def chunks(
        self,
        chunk_size: int = CHUNK_SIZE,
        deadline: Optional[Deadline] = None,
    ) -> Iterator[bytes]:
        """Yield the message in bounded chunks (one deadline check per
        chunk). Large payloads cross as memoryview slices — nothing is
        concatenated, so peak extra memory is one ``chunk_size``."""
        for piece in self._pieces:
            if len(piece) <= chunk_size:
                if deadline is not None:
                    deadline.check("wire encode")
                yield piece
                continue
            view = memoryview(piece)
            for start in range(0, len(view), chunk_size):
                if deadline is not None:
                    deadline.check("wire encode")
                yield view[start : start + chunk_size]


def plan_message(
    meta: dict,
    arrays: Optional[Dict[str, Any]] = None,
    *,
    compress: bool = True,
) -> _MessagePlan:
    """Plan one message: returns an object exposing the exact encoded
    ``length`` (so a streaming sender can set ``Content-Length``
    without buffering the payload) and a reusable ``chunks()``
    iterator. The single place the compression decision is made, so
    length and body can never disagree.
    """
    # The encode span covers planning: array staging and the (probed)
    # compression pass — the CPU cost of the codec. Chunk streaming
    # afterwards is I/O-bound and accounted by the caller's span.
    with _telemetry.span("wire.encode", arrays=len(arrays or ())):
        pieces: List[Union[bytes, memoryview]] = []
        payload = _meta_bytes(meta)
        pieces.append(_frame_head(_KIND_META, b"", len(payload)) + payload)
        for name, value in (arrays or {}).items():
            arr, tag, order = _wire_array(name, value)
            view = _byte_view(arr, order)
            fields = {"name": str(name), "dtype": tag, "shape": list(arr.shape),
                      "order": order}
            body: Union[bytes, memoryview] = view
            if compress:
                deflated = _maybe_deflate(view)
                if deflated is not None:
                    fields["encoding"] = "deflate"
                    body = deflated
            header = json.dumps(fields).encode("utf-8")
            pieces.append(_frame_head(_KIND_ARRAY, header, len(body)) + header)
            pieces.append(body)
        pieces.append(_frame_head(_KIND_END, b"", 0))
        return _MessagePlan(pieces)


def iter_message(
    meta: dict,
    arrays: Optional[Dict[str, Any]] = None,
    *,
    chunk_size: int = CHUNK_SIZE,
    deadline: Optional[Deadline] = None,
    compress: bool = True,
) -> Iterator[bytes]:
    """Yield one encoded message as a stream of bounded chunks.

    One-shot convenience over :func:`plan_message` — callers that also
    need the length (to set ``Content-Length``) should plan once and
    use the plan's ``chunks()`` instead of paying the compression
    analysis twice.
    """
    return plan_message(meta, arrays, compress=compress).chunks(
        chunk_size, deadline
    )


def encode_message(
    meta: dict,
    arrays: Optional[Dict[str, Any]] = None,
    *,
    compress: bool = True,
) -> bytes:
    """The message as one bytes object (tests, small admin payloads)."""
    return b"".join(bytes(c) for c in iter_message(meta, arrays, compress=compress))


def encoded_length(
    meta: dict,
    arrays: Optional[Dict[str, Any]] = None,
    *,
    compress: bool = True,
) -> int:
    """Exact byte length :func:`iter_message` will produce."""
    return plan_message(meta, arrays, compress=compress).length


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _Budget:
    """Cumulative read budget guarding untrusted declared lengths."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, nbytes: int, what: str) -> None:
        self.used += int(nbytes)
        if self.limit is not None and self.used > self.limit:
            raise PayloadTooLargeError(
                f"binary message exceeds the {self.limit}-byte cap while "
                f"reading {what} (the server's max_body= governs its side)"
            )


def _read_exact(
    read: Callable[[int], bytes],
    view: memoryview,
    budget: _Budget,
    what: str,
    deadline: Optional[Deadline],
    chunk_size: int,
) -> None:
    """Fill ``view`` from ``read`` in bounded chunks (deadline-checked)."""
    offset, total = 0, len(view)
    while offset < total:
        if deadline is not None:
            deadline.check("wire decode")
        chunk = read(min(chunk_size, total - offset))
        if not chunk:
            raise WireFormatError(
                f"stream truncated while reading {what}: got {offset} of "
                f"{total} bytes (connection dropped mid-stream?)"
            )
        view[offset : offset + len(chunk)] = chunk
        offset += len(chunk)
    budget.charge(total, what)


def _inflate_into(
    read: Callable[[int], bytes],
    view: memoryview,
    payload_len: int,
    budget: _Budget,
    what: str,
    deadline: Optional[Deadline],
    chunk_size: int,
) -> None:
    """Stream-decompress a deflate payload of ``payload_len`` compressed
    bytes into ``view``, never letting the inflater produce more than
    the declared raw size (a decompression bomb dies at its first
    excess byte, not after an allocation)."""
    decomp = zlib.decompressobj()
    filled, total = 0, len(view)
    remaining = payload_len
    pending = b""
    while True:
        if pending:
            chunk, pending = pending, b""
        elif remaining:
            if deadline is not None:
                deadline.check("wire decode")
            chunk = read(min(chunk_size, remaining))
            if not chunk:
                raise WireFormatError(
                    f"stream truncated while reading {what}: got "
                    f"{payload_len - remaining} of {payload_len} compressed "
                    "bytes (connection dropped mid-stream?)"
                )
            remaining -= len(chunk)
            budget.charge(len(chunk), what)
        else:
            break
        cap = total - filled
        out = decomp.decompress(chunk, cap if cap > 0 else 1)
        if len(out) > cap:
            raise WireFormatError(
                f"{what} inflates past its declared {total}-byte size"
            )
        view[filled : filled + len(out)] = out
        filled += len(out)
        pending = decomp.unconsumed_tail
    if decomp.flush():
        raise WireFormatError(
            f"{what} inflates past its declared {total}-byte size"
        )
    if filled != total or not decomp.eof:
        raise WireFormatError(
            f"{what} inflated to {filled} of its declared {total} bytes "
            "(corrupt or truncated deflate stream)"
        )
    if decomp.unused_data:
        # The deflate stream ended before payload_len compressed bytes
        # were consumed; the remainder landed in unused_data. Trailing
        # bytes mean corruption — never decode them as a valid frame.
        raise WireFormatError(
            f"{what} carries {len(decomp.unused_data)} trailing bytes "
            f"after the end of its deflate stream (corrupt payload)"
        )


def read_message(
    read: Callable[[int], bytes],
    *,
    max_bytes: Optional[int] = None,
    deadline: Optional[Deadline] = None,
    chunk_size: int = CHUNK_SIZE,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Decode one message from a ``read(n) -> bytes`` stream.

    Each array is allocated exactly once from its header and filled
    incrementally — the "never materialized twice" half of the
    transport contract. Declared lengths are charged against
    ``max_bytes`` *before* allocation, so a hostile header cannot make
    the reader allocate unbounded memory; ``deadline`` is checked per
    chunk so a stalled peer cannot pin the reader past its budget.

    Returns ``(meta, arrays)``. Raises :class:`WireFormatError` for
    bad magic/version/kind, malformed headers, dtype/shape mismatches,
    and streams truncated before the END frame.
    """
    with _telemetry.span("wire.decode"):
        return _read_message_inner(read, max_bytes, deadline, chunk_size)


def _read_message_inner(
    read: Callable[[int], bytes],
    max_bytes: Optional[int],
    deadline: Optional[Deadline],
    chunk_size: int,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    budget = _Budget(max_bytes)
    meta: Optional[dict] = None
    arrays: Dict[str, np.ndarray] = {}
    head_buf = bytearray(_HEAD.size)
    while True:
        _read_exact(read, memoryview(head_buf), budget, "frame head", deadline, chunk_size)
        magic, version, kind, _reserved, header_len, payload_len = _HEAD.unpack(
            bytes(head_buf)
        )
        if magic != MAGIC:
            raise WireFormatError(
                f"bad frame magic {bytes(magic)!r} (want {MAGIC!r}); "
                "not a binary transport stream"
            )
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported wire version {version} (this build speaks "
                f"{WIRE_VERSION}); upgrade one side or fall back to JSON"
            )
        if header_len > _MAX_HEADER:
            raise WireFormatError(
                f"frame header of {header_len} bytes exceeds the "
                f"{_MAX_HEADER}-byte sanity cap"
            )
        budget.charge(header_len + payload_len, "declared frame")
        budget.used -= header_len + payload_len  # charged again as it is read
        header: dict = {}
        if header_len:
            raw = bytearray(header_len)
            _read_exact(read, memoryview(raw), budget, "frame header", deadline, chunk_size)
            try:
                header = json.loads(bytes(raw))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise WireFormatError(f"frame header is not valid JSON: {exc}") from None
        if kind == _KIND_END:
            if payload_len:
                raise WireFormatError("END frame must have an empty payload")
            if meta is None:
                raise WireFormatError("message ended before its META frame")
            return meta, arrays
        if kind == _KIND_META:
            if meta is not None:
                raise WireFormatError("message carries more than one META frame")
            raw = bytearray(payload_len)
            _read_exact(read, memoryview(raw), budget, "meta payload", deadline, chunk_size)
            try:
                meta = json.loads(bytes(raw))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise WireFormatError(f"meta payload is not valid JSON: {exc}") from None
            if not isinstance(meta, dict):
                raise WireFormatError(
                    f"meta payload must be a JSON object, got {type(meta).__name__}"
                )
            continue
        if kind != _KIND_ARRAY:
            raise WireFormatError(f"unknown frame kind {kind:#x}")
        if meta is None:
            raise WireFormatError("ARRAY frame arrived before the META frame")
        try:
            name = str(header["name"])
            dtype = str(header["dtype"])
            shape = tuple(int(s) for s in header["shape"])
            order = str(header.get("order", "C"))
            encoding = str(header.get("encoding", "raw"))
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError(f"malformed array header {header!r}: {exc}") from None
        if dtype not in _WIRE_DTYPES:
            raise WireFormatError(
                f"unsupported wire dtype {dtype!r} (supported: {_WIRE_DTYPES})"
            )
        if order not in ("C", "F"):
            raise WireFormatError(f"unsupported array order {order!r} (want C or F)")
        if encoding not in ("raw", "deflate"):
            raise WireFormatError(
                f"unsupported payload encoding {encoding!r} (want raw or deflate)"
            )
        if any(s < 0 for s in shape):
            raise WireFormatError(f"array {name!r} declares a negative shape {shape}")
        expected = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if encoding == "raw" and expected != payload_len:
            raise WireFormatError(
                f"array {name!r} declares shape {shape} ({expected} bytes) "
                f"but a {payload_len}-byte payload"
            )
        if name in arrays:
            raise WireFormatError(f"duplicate array {name!r} in one message")
        if encoding == "deflate":
            # Charge the *decompressed* size up front: a tiny compressed
            # payload must not buy a giant allocation past the cap.
            budget.charge(expected, f"array {name!r} (decompressed)")
        # One allocation, filled in place: the preallocated-decode path.
        arr = np.empty(shape, dtype=np.dtype(dtype), order=order)
        if encoding == "deflate":
            _inflate_into(
                read, _byte_view(arr, order), payload_len, budget,
                f"array {name!r}", deadline, chunk_size,
            )
        elif payload_len:
            _read_exact(
                read, _byte_view(arr, order), budget, f"array {name!r}",
                deadline, chunk_size,
            )
        arrays[name] = arr


# ---------------------------------------------------------------------------
# HTTP plumbing shared by the streaming server responses and the
# pipelining client (which parses responses off a raw socket).
# ---------------------------------------------------------------------------


def write_chunked(
    wfile,
    chunks: Iterator[bytes],
    *,
    deadline: Optional[Deadline] = None,
) -> None:
    """Write ``chunks`` as an HTTP/1.1 chunked-encoded body.

    The server's streamed-response loop: each codec chunk becomes one
    HTTP chunk, the deadline is re-checked per chunk (a slow-reading
    client cannot pin a handler thread past the request's budget), and
    ``wire.stream`` is a fault-injection site so chaos tests can drop
    the connection mid-response deterministically.
    """
    for chunk in chunks:
        if not chunk:
            continue
        fault_point("wire.stream")
        if deadline is not None:
            deadline.check("response stream")
        wfile.write(b"%x\r\n" % len(chunk))
        wfile.write(chunk)
        wfile.write(b"\r\n")
    wfile.write(b"0\r\n\r\n")


class BoundedReader:
    """``read(n)`` over exactly ``length`` bytes of an underlying stream.

    Bounds a request-body read by its ``Content-Length`` so a codec bug
    can never read into the next pipelined request on the connection.
    """

    __slots__ = ("_fp", "remaining")

    def __init__(self, fp, length: int) -> None:
        self._fp = fp
        self.remaining = int(length)

    def read(self, n: int = -1) -> bytes:
        if self.remaining <= 0:
            return b""
        if n < 0 or n > self.remaining:
            n = self.remaining
        data = self._fp.read(n)
        self.remaining -= len(data)
        return data

    def drain(self) -> None:
        """Consume any unread remainder (keeps keep-alive framing sane)."""
        while self.read(CHUNK_SIZE):
            pass


class ChunkedReader:
    """``read(n)`` across HTTP/1.1 chunked-encoding boundaries.

    The pipelining client's body reader: it decodes the chunk framing
    of one response off a shared buffered socket reader and stops at
    the terminal chunk, leaving the stream positioned at the next
    pipelined response.
    """

    __slots__ = ("_fp", "_remaining", "_eof")

    def __init__(self, fp) -> None:
        self._fp = fp
        self._remaining = 0
        self._eof = False

    def _readline(self, what: str) -> bytes:
        """One framing line, rejecting truncation and over-long lines.

        ``readline(_MAX_LINE)`` silently truncates an over-long line,
        which would make its remainder parse as the *next* line —
        so a line that hits the cap without a terminating newline is a
        wire error, as is EOF mid-line (connection dropped).
        """
        line = self._fp.readline(_MAX_LINE)
        if not line:
            raise WireFormatError(f"chunked stream truncated at {what}")
        if not line.endswith(b"\n"):
            if len(line) >= _MAX_LINE:
                raise WireFormatError(
                    f"{what} exceeds the {_MAX_LINE}-byte line cap"
                )
            raise WireFormatError(f"chunked stream truncated at {what}")
        return line

    def _next_chunk(self) -> None:
        line = self._readline("a chunk-size line")
        try:
            size = int(line.split(b";", 1)[0].strip() or b"0", 16)
        except ValueError:
            raise WireFormatError(f"malformed chunk-size line {line!r}") from None
        if size == 0:
            while True:  # consume optional trailers up to the blank line
                # EOF here is truncation, not completion: the terminal
                # CRLF after the 0-size chunk has not arrived yet.
                if self._readline("a trailer line") in (b"\r\n", b"\n"):
                    break
            self._eof = True
            return
        self._remaining = size

    def read(self, n: int) -> bytes:
        if self._eof:
            return b""
        if self._remaining == 0:
            self._next_chunk()
            if self._eof:
                return b""
        take = min(int(n), self._remaining)
        data = self._fp.read(take)
        if len(data) < take:
            raise WireFormatError(
                f"chunked stream truncated mid-chunk ({len(data)} of {take} bytes)"
            )
        self._remaining -= len(data)
        if self._remaining == 0:
            crlf = self._fp.read(2)
            if crlf not in (b"\r\n",):
                raise WireFormatError(f"chunk not terminated by CRLF (got {crlf!r})")
        return data

    def drain(self) -> None:
        """Read through the terminal chunk (positions the stream at the
        next pipelined response)."""
        while self.read(CHUNK_SIZE):
            pass


def parse_http_head(fp) -> Tuple[int, Dict[str, str]]:
    """Parse one HTTP/1.x response status line + headers off ``fp``.

    Returns ``(status, headers)`` with header names lower-cased. Used
    by the pipelining client, which multiplexes many responses over one
    buffered socket reader and therefore cannot use ``http.client``
    (each ``HTTPResponse`` would buffer past its own response).
    """
    line = fp.readline(_MAX_LINE)
    if not line:
        raise WireFormatError("connection closed before the response status line")
    parts = line.decode("latin-1").rstrip("\r\n").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise WireFormatError(f"malformed response status line {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise WireFormatError(f"malformed response status {parts[1]!r}") from None
    headers: Dict[str, str] = {}
    while True:
        line = fp.readline(_MAX_LINE)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers
