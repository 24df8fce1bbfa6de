"""Unit tests for the framed binary wire codec (`repro.serving.wire`).

Everything here is pure codec — no HTTP, no server. The transport
contract proven end-to-end in ``test_transport.py`` rests on these
properties: bit-exact round-trips (including NaN/inf and Fortran
memory order), exact ``encoded_length``, incremental single-allocation
decode, and typed errors for every malformed-stream shape a dropped
connection or hostile peer can produce.
"""

from __future__ import annotations

import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    DeadlineExceededError,
    PayloadTooLargeError,
    WireFormatError,
)
from repro.resilience.policy import Deadline
from repro.serving import wire


def _roundtrip(meta, arrays=None, **kwargs):
    blob = wire.encode_message(meta, arrays)
    return wire.read_message(io.BytesIO(blob).read, **kwargs)


# --------------------------------------------------------------------------
# Round-trips
# --------------------------------------------------------------------------


def test_roundtrip_meta_only():
    meta, arrays = _roundtrip({"model_id": "m", "priority": 2})
    assert meta == {"model_id": "m", "priority": 2}
    assert arrays == {}


def test_roundtrip_arrays_bit_exact():
    rng = np.random.default_rng(0)
    sent = {
        "targets": rng.random((100, 2)),
        "z": rng.standard_normal(144),
        "idx": np.arange(7, dtype=np.int64),
    }
    meta, got = _roundtrip({"model_id": "m"}, sent)
    assert set(got) == set(sent)
    for name, arr in sent.items():
        assert got[name].dtype == arr.dtype
        assert got[name].shape == arr.shape
        np.testing.assert_array_equal(got[name], arr)


def test_roundtrip_nan_inf_bit_exact():
    """The values strict JSON cannot represent at all cross bit-exact."""
    sent = np.array([np.nan, np.inf, -np.inf, -0.0, 1e308, 5e-324])
    _, got = _roundtrip({}, {"p": sent})
    assert got["p"].tobytes() == sent.tobytes()


def test_roundtrip_preserves_fortran_order():
    """A LAPACK-style F-ordered factor must come back F-ordered:
    downstream BLAS picks code paths by memory layout, so a transpose
    copy would shift predictions by an ulp."""
    factor = np.asfortranarray(np.random.default_rng(1).random((12, 12)))
    _, got = _roundtrip({}, {"factor": factor})
    assert got["factor"].flags["F_CONTIGUOUS"]
    assert not got["factor"].flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(got["factor"], factor)


def test_roundtrip_noncontiguous_and_scalarish_inputs():
    base = np.random.default_rng(2).random((10, 6))
    sent = {
        "strided": base[::2, ::3],       # non-contiguous view
        "listy": [[1.0, 2.0], [3.0, 4.0]],
        "scalar": 7.5,                   # 0-d array on the wire
        "i32": np.arange(5, dtype=np.int32),
    }
    _, got = _roundtrip({}, sent)
    np.testing.assert_array_equal(got["strided"], base[::2, ::3])
    np.testing.assert_array_equal(got["listy"], np.asarray(sent["listy"]))
    assert got["scalar"].shape == ()
    assert float(got["scalar"]) == 7.5
    assert got["i32"].dtype == np.dtype("<i8")
    np.testing.assert_array_equal(got["i32"], np.arange(5))


def test_roundtrip_empty_array():
    _, got = _roundtrip({}, {"empty": np.empty((0, 2))})
    assert got["empty"].shape == (0, 2)


def test_encoded_length_is_exact():
    rng = np.random.default_rng(3)
    cases = [
        ({"a": 1}, None),
        ({}, {"x": rng.random(1000)}),
        ({"m": "id"}, {"x": rng.random((50, 3)),
                       "f": np.asfortranarray(rng.random((8, 8)))}),
    ]
    for meta, arrays in cases:
        blob = wire.encode_message(meta, arrays)
        assert wire.encoded_length(meta, arrays) == len(blob)


def test_meta_rejects_non_finite_floats():
    with pytest.raises(WireFormatError, match="non-finite"):
        wire.encode_message({"bad": float("nan")})


# --------------------------------------------------------------------------
# Streaming behavior
# --------------------------------------------------------------------------


def test_plan_chunks_are_bounded():
    payload = np.random.default_rng(4).random(100_000)  # 800 kB
    chunks = list(wire.plan_message({}, {"p": payload}).chunks(chunk_size=4096))
    # Frame heads+headers ride with small chunks; payload slices obey the cap.
    assert max(len(c) for c in chunks) <= 4096 + 256
    assert b"".join(bytes(c) for c in chunks) == wire.encode_message({}, {"p": payload})


def test_read_message_survives_tiny_reads():
    """A peer dribbling one byte at a time still decodes correctly."""
    sent = np.random.default_rng(5).random((17, 3))
    blob = wire.encode_message({"m": "x"}, {"t": sent})
    stream = io.BytesIO(blob)

    def dribble(n):
        return stream.read(min(n, 1))

    meta, got = wire.read_message(dribble)
    assert meta == {"m": "x"}
    np.testing.assert_array_equal(got["t"], sent)


def test_read_message_deadline_checked_mid_stream():
    blob = wire.encode_message({}, {"p": np.zeros(100_000)})
    expired = Deadline.after(-1.0)
    with pytest.raises(DeadlineExceededError):
        wire.read_message(io.BytesIO(blob).read, deadline=expired, chunk_size=4096)


def test_bounded_reader_stops_at_its_length():
    fp = io.BytesIO(b"abcdefghij" + b"NEXT-REQUEST")
    reader = wire.BoundedReader(fp, 10)
    assert reader.read(4) == b"abcd"
    reader.drain()
    assert reader.read(100) == b""
    assert fp.read(4) == b"NEXT"  # the next keep-alive request is untouched


# --------------------------------------------------------------------------
# Planning and payload encodings
# --------------------------------------------------------------------------


def _grid_targets(k):
    xs = np.linspace(0.0, 1.0, k)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def test_plan_message_is_reusable():
    """``chunks()`` must be re-iterable — the retry path rebuilds the
    streamed body from the same plan."""
    plan = wire.plan_message({"m": 1}, {"t": _grid_targets(40)})
    first = b"".join(bytes(c) for c in plan.chunks())
    second = b"".join(bytes(c) for c in plan.chunks())
    assert first == second
    assert len(first) == plan.length


def test_unknown_encoding_is_rejected():
    """``raw`` (or no ``encoding`` key) is the only payload encoding;
    ``deflate`` included, anything else is refused, never skipped."""
    meta = wire.encode_message({})[: -wire._HEAD.size]
    end = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("E"), 0, 0, 0)
    for encoding in ("lzma", "deflate", "raw"):
        header = json.dumps({"name": "t", "dtype": "<f8", "shape": [1],
                             "order": "C", "encoding": encoding}).encode()
        frame = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("A"), 0,
                                len(header), 8) + header + b"\x00" * 8
        blob = meta + frame + end
        if encoding == "raw":
            _, got = wire.read_message(io.BytesIO(blob).read)
            np.testing.assert_array_equal(got["t"], [0.0])
            continue
        with pytest.raises(WireFormatError, match="encoding"):
            wire.read_message(io.BytesIO(blob).read)


# --------------------------------------------------------------------------
# Malformed streams -> typed errors
# --------------------------------------------------------------------------


def _frames(blob):
    """Split an encoded message into its raw frames for tampering."""
    frames, offset = [], 0
    while offset < len(blob):
        head = blob[offset : offset + wire._HEAD.size]
        _, _, _, _, hlen, plen = wire._HEAD.unpack(head)
        end = offset + wire._HEAD.size + hlen + plen
        frames.append(blob[offset:end])
        offset = end
    return frames


def test_truncated_stream_is_typed():
    blob = wire.encode_message({"m": 1}, {"t": np.zeros(1000)})
    for cut in (3, wire._HEAD.size + 2, len(blob) // 2, len(blob) - 1):
        with pytest.raises(WireFormatError, match="truncated"):
            wire.read_message(io.BytesIO(blob[:cut]).read)


def test_bad_magic_is_typed():
    blob = b"JUNK" + wire.encode_message({})[4:]
    with pytest.raises(WireFormatError, match="magic"):
        wire.read_message(io.BytesIO(blob).read)


def test_future_version_is_rejected():
    blob = bytearray(wire.encode_message({}))
    blob[4] = wire.WIRE_VERSION + 1
    with pytest.raises(WireFormatError, match="version"):
        wire.read_message(io.BytesIO(bytes(blob)).read)


def test_array_before_meta_is_rejected():
    frames = _frames(wire.encode_message({}, {"t": np.zeros(3)}))
    blob = frames[1] + frames[0] + frames[2]  # ARRAY, META, END
    with pytest.raises(WireFormatError, match="before the META"):
        wire.read_message(io.BytesIO(blob).read)


def test_duplicate_array_is_rejected():
    frames = _frames(wire.encode_message({}, {"t": np.zeros(3)}))
    blob = frames[0] + frames[1] + frames[1] + frames[2]
    with pytest.raises(WireFormatError, match="duplicate"):
        wire.read_message(io.BytesIO(blob).read)


def test_shape_payload_mismatch_is_rejected():
    """Also for shapes whose int64 element product wraps to the payload
    length (it must never reach ``np.empty``) or overflows, and shapes
    that are not finite — typed, never a numpy error."""
    meta = wire.encode_message({})[: -wire._HEAD.size]  # META frame only
    for shape, payload_len in (([100], 8), ([2**31, 2**31, 4], 0),
                               ([2**64], 0), ([float("inf")], 0)):
        header = json.dumps(
            {"name": "t", "dtype": "<f8", "shape": shape, "order": "C"}
        ).encode()
        lying = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("A"), 0,
                                len(header), payload_len) + header
        lying += b"\x00" * payload_len
        with pytest.raises(WireFormatError, match="declares shape|malformed"):
            wire.read_message(io.BytesIO(meta + lying).read)


def test_unsupported_dtype_and_order_are_rejected():
    for patch, match in (({"dtype": "<f4"}, "dtype"), ({"order": "K"}, "order")):
        fields = {"name": "t", "dtype": "<f8", "shape": [1], "order": "C"}
        fields.update(patch)
        header = json.dumps(fields).encode()
        meta = wire.encode_message({})[: -wire._HEAD.size]
        frame = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("A"), 0,
                                len(header), 8) + header + b"\x00" * 8
        with pytest.raises(WireFormatError, match=match):
            wire.read_message(io.BytesIO(meta + frame).read)


def test_hostile_declared_length_fails_before_allocation():
    """A header declaring an absurd payload must trip the budget from its
    *declared* size — before ``np.empty`` ever sees it."""
    header = json.dumps(
        {"name": "t", "dtype": "<f8", "shape": [1 << 50], "order": "C"}
    ).encode()
    meta = wire.encode_message({})[: -wire._HEAD.size]
    frame = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("A"), 0,
                            len(header), (1 << 50) * 8) + header
    with pytest.raises(PayloadTooLargeError):
        wire.read_message(io.BytesIO(meta + frame).read, max_bytes=1 << 20)


def test_max_bytes_budget_caps_honest_streams_too():
    # The budget sees the full 80 kB payload.
    blob = wire.encode_message({}, {"t": np.random.default_rng(9).random(10_000)})
    with pytest.raises(PayloadTooLargeError):
        wire.read_message(io.BytesIO(blob).read, max_bytes=1024)
    # A budget that fits decodes fine.
    wire.read_message(io.BytesIO(blob).read, max_bytes=len(blob) + 1024)


def test_unknown_header_keys_are_ignored():
    """Within a wire version, readers must skip keys they don't know."""
    header = json.dumps({"name": "t", "dtype": "<f8", "shape": [2],
                         "order": "C", "future_hint": 42}).encode()
    meta = wire.encode_message({})[: -wire._HEAD.size]
    end = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("E"), 0, 0, 0)
    payload = struct.pack("<2d", 1.0, 2.0)
    frame = wire._HEAD.pack(wire.MAGIC, wire.WIRE_VERSION, ord("A"), 0,
                            len(header), 16) + header + payload
    _, got = wire.read_message(io.BytesIO(meta + frame + end).read)
    np.testing.assert_array_equal(got["t"], [1.0, 2.0])


# --------------------------------------------------------------------------
# Structure-aware fuzzing: valid messages, then one mutation each
# --------------------------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)


@st.composite
def _messages(draw):
    """A valid message: random meta plus 0-3 arrays of random dtype,
    shape (empty and 0-d included), memory order and bit patterns."""
    meta = draw(st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=4))
    names = draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True))
    arrays = {}
    for name in names:
        dtype = draw(st.sampled_from(["<f8", "<i8"]))
        shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
        seed = draw(st.integers(0, 2**32 - 1))
        bits = np.random.default_rng(seed).integers(
            0, 256, size=8 * math.prod(shape), dtype=np.uint8
        )
        arr = bits.view(dtype).reshape(shape)  # any bits: NaN payloads too
        arrays[name] = np.asfortranarray(arr) if draw(st.booleans()) else arr
    return meta, arrays


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_fuzz_valid_messages_roundtrip_bit_exact(message):
    meta, sent = message
    blob = wire.encode_message(meta, sent)
    got_meta, got = wire.read_message(io.BytesIO(blob).read, max_bytes=len(blob))
    assert got_meta == meta
    assert set(got) == set(sent)
    for name, arr in sent.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()
        if arr.ndim >= 2 and not arr.flags["C_CONTIGUOUS"]:
            assert got[name].flags["F_CONTIGUOUS"]


#: Values an array-header rewrite may plant: wrong types, unsupported
#: tags, negative / huge / non-integer shapes, non-finite floats.
_HEADER_VALUES = st.one_of(
    _JSON_SCALARS,
    st.floats(),
    st.sampled_from(["<f8", "<i8", "<f4", "C", "F", "K", "raw", "deflate"]),
    st.lists(st.one_of(st.integers(-2, 2**70), st.floats()), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(_messages(), st.data())
def test_fuzz_mutated_messages_fail_typed(message, data):
    """One mutation of a valid message either still decodes or raises
    WireFormatError / PayloadTooLargeError — never another type — under
    a budget of the valid message's length. A truncated message never
    decodes."""
    meta, sent = message
    blob = wire.encode_message(meta, sent)
    frames = _frames(blob)
    array_frames = [k for k, f in enumerate(frames) if f[5] == ord("A")]
    mutations = ["truncate", "flip", "duplicate"] + (["rewrite"] if array_frames else [])
    mutation = data.draw(st.sampled_from(mutations))
    if mutation == "truncate":
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(WireFormatError, match="truncated"):
            wire.read_message(io.BytesIO(blob[:cut]).read, max_bytes=len(blob))
        return
    if mutation == "flip":
        mutated = bytearray(blob)
        mutated[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(
            st.integers(1, 255)
        )
    elif mutation == "duplicate":
        k = data.draw(st.integers(0, len(frames) - 1))
        mutated = b"".join(frames[: k + 1] + frames[k:])
    else:  # rewrite one field of an array header, keeping the frame well-formed
        k = data.draw(st.sampled_from(array_frames))
        _, _, _, _, hlen, plen = wire._HEAD.unpack(frames[k][: wire._HEAD.size])
        body = frames[k][wire._HEAD.size :]
        fields = json.loads(body[:hlen])
        key = data.draw(st.sampled_from(["name", "dtype", "shape", "order", "encoding"]))
        if data.draw(st.booleans()):
            fields.pop(key, None)
        else:
            fields[key] = data.draw(st.one_of(_HEADER_VALUES, st.sampled_from(list(sent))))
        header = json.dumps(fields).encode()
        frames[k] = wire._HEAD.pack(
            wire.MAGIC, wire.WIRE_VERSION, ord("A"), 0, len(header), plen
        ) + header + body[hlen:]
        mutated = b"".join(frames)
    try:
        wire.read_message(io.BytesIO(bytes(mutated)).read, max_bytes=len(blob))
    except (WireFormatError, PayloadTooLargeError):
        pass
