"""Span recording: nesting, ring bounds, sinks, adoption, arming."""

from __future__ import annotations

import json
import os

import pytest

from repro.config import use_config
from repro.runtime import AccessMode, Runtime
from repro.telemetry import spans as tspans
from repro.telemetry.spans import (
    SpanRecorder,
    annotate,
    configure,
    enabled,
    get_recorder,
    record_span,
    span,
)


def test_disabled_by_default_and_noop_is_shared():
    assert enabled() is False
    a, b = span("x"), span("y")
    assert a is b  # the disabled path allocates nothing
    with a:
        annotate("k", "v")  # must not raise
    assert get_recorder() is None


def test_config_knob_arms_lazily():
    with use_config(telemetry_enabled=True, telemetry_max_spans=7):
        assert enabled() is True
        assert get_recorder().max_spans == 7


def test_env_wins_over_config(monkeypatch):
    monkeypatch.setenv(tspans.ENV_ENABLED, "0")
    with use_config(telemetry_enabled=True):
        assert enabled() is False


def test_span_nesting_parents_correctly():
    configure(enabled=True)
    with span("parent") as parent:
        with span("child"):
            pass
    recs = get_recorder().snapshot()
    assert [r["name"] for r in recs] == ["child", "parent"]
    child, par = recs
    assert child["trace_id"] == par["trace_id"]
    assert child["parent_id"] == par["span_id"]
    assert par["span_id"] == parent.ctx.span_id
    assert child["duration"] <= par["duration"]
    assert child["pid"] == os.getpid()


def test_span_attrs_annotations_and_error_flag():
    configure(enabled=True)
    with pytest.raises(RuntimeError):
        with span("work", variant="tlr"):
            annotate("note", 42)
            raise RuntimeError("boom")
    (rec,) = get_recorder().snapshot()
    assert rec["attrs"] == {"variant": "tlr"}
    assert ["note", 42] in rec["annotations"]
    assert ["error", "RuntimeError"] in rec["annotations"]


def test_recorder_ring_drops_oldest_and_counts():
    rec = SpanRecorder(max_spans=3)
    for i in range(5):
        rec.record({"name": f"s{i}"})
    assert len(rec) == 3
    assert rec.dropped == 2
    assert [r["name"] for r in rec.snapshot()] == ["s2", "s3", "s4"]
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0


def test_record_span_uses_explicit_ctx():
    configure(enabled=True)
    from repro.telemetry import context as tctx

    ctx = tctx.new_trace()
    record_span("queue_wait", 0.25, ctx=ctx, model="m")
    (rec,) = get_recorder().for_trace(ctx.trace_id)
    assert rec["parent_id"] == ctx.span_id
    assert rec["duration"] == 0.25
    assert rec["attrs"] == {"model": "m"}


def test_runtime_task_spans_sit_on_the_wall_clock():
    configure(enabled=True)
    from repro.telemetry import context as tctx
    import time

    ctx = tctx.new_trace()
    with Runtime(num_workers=1) as rt:
        h = rt.register(None)
        with tctx.activate(ctx):  # captured at insert: workers never see it
            rt.insert_task(lambda x: time.sleep(0.01), [(h, AccessMode.READ)], name="potrf")
        rt.wait_all()
    (rec,) = get_recorder().for_trace(ctx.trace_id)
    assert rec["name"] == "task:potrf"
    assert rec["parent_id"] == ctx.span_id
    assert rec["attrs"] == {"worker": 0}
    assert rec["duration"] >= 0.01
    assert abs(rec["t_start"] - time.time()) < 5.0  # wall clock, not perf ticks


def test_jsonl_sink_bounded(tmp_path):
    sink = tmp_path / "sink"
    configure(enabled=True, max_spans=2, sink_dir=str(sink))
    for i in range(4):
        with span(f"s{i}"):
            pass
    files = list(sink.glob("spans-*.jsonl"))
    assert len(files) == 1
    lines = [json.loads(l) for l in files[0].read_text().splitlines()]
    assert [l["name"] for l in lines] == ["s0", "s1"]  # bounded: later drops


def test_configure_propagates_to_environment(tmp_path):
    configure(enabled=True, max_spans=123, sink_dir=str(tmp_path), propagate=True)
    assert os.environ[tspans.ENV_ENABLED] == "1"
    assert os.environ[tspans.ENV_MAX_SPANS] == "123"
    assert os.environ[tspans.ENV_SINK] == str(tmp_path)
    s = tspans.settings()
    assert s["enabled"] is True
    assert s["max_spans"] == 123
    assert s["sink_dir"] == str(tmp_path)


def test_settings_shape_when_disabled():
    assert tspans.settings() == {"enabled": False, "max_spans": 10_000, "sink_dir": None}
