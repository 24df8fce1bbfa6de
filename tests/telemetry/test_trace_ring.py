"""Runtime tasks record ``task:*`` spans straight into the telemetry
span ring; a ``Runtime`` stores events of its own only under
``trace=True`` (a plain list)."""

from __future__ import annotations

import numpy as np

from repro.linalg import TileMatrix, tile_cholesky
from repro.runtime import AccessMode, Runtime, TraceEvent
from repro.telemetry import context as tctx
from repro.telemetry.spans import configure, get_recorder, span


def _spd_tiles(n=48, nb=16):
    a = np.random.default_rng(0).random((n, n))
    return TileMatrix.from_dense(a @ a.T + n * np.eye(n), nb, symmetric_lower=True)


def _task_spans(trace_id):
    return [
        s for s in get_recorder().for_trace(trace_id) if s["name"].startswith("task:")
    ]


def test_runtime_trace_recorder_off_by_default():
    with Runtime(num_workers=1, engine="serial") as rt:
        assert rt.trace is None


def test_runtime_explicit_trace_stays_unbounded():
    configure(enabled=True, max_spans=4)
    with Runtime(num_workers=1, engine="serial", trace=True) as rt:
        h = rt.register(np.zeros(1))
        for _ in range(9):
            rt.insert_task(lambda x: None, [(h, AccessMode.READ)], name="probe")
        assert isinstance(rt.trace, list) and len(rt.trace) == 9
        assert all(isinstance(e, TraceEvent) and e.name == "probe" for e in rt.trace)
    assert len(get_recorder()) == 4  # the span ring is what stays bounded


def test_armed_runtime_keeps_no_event_storage():
    configure(enabled=True)
    with Runtime(num_workers=2) as rt:
        assert rt.trace is None
        with span("user") as user:
            tile_cholesky(_spd_tiles(), runtime=rt)
        assert rt.trace is None
    assert _task_spans(user.ctx.trace_id)


def test_tasks_outside_factor_at_nest_under_the_open_span():
    configure(enabled=True)
    with Runtime(num_workers=2) as rt:
        with span("user") as user:
            tile_cholesky(_spd_tiles(), runtime=rt)
    tasks = _task_spans(user.ctx.trace_id)
    # 3 tile columns: 3 panels + 3 trailing updates
    assert len(tasks) == 6
    for t in tasks:
        assert t["parent_id"] == user.ctx.span_id
        assert t["attrs"]["worker"] in (0, 1)


def test_runtime_built_before_arming_still_yields_task_spans():
    with Runtime(num_workers=1, engine="serial") as rt:
        configure(enabled=True)
        ctx = tctx.new_trace()
        with tctx.activate(ctx):
            tile_cholesky(_spd_tiles(), runtime=rt)
    assert len(_task_spans(ctx.trace_id)) == 6
