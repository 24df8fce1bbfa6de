"""Low-overhead timing spans with cross-process trace assembly.

The one function everybody calls is :func:`span`::

    with span("factorization", variant="tlr"):
        ...

When telemetry is **off** (the default) that costs one module-global
read plus a shared no-op context manager — the same nanosecond class
as the PR 6 ``fault_point`` hooks, cheap enough to leave in the MLE
hot loop. When **on**, each ``with`` block records one span dict into
a bounded process-local :class:`SpanRecorder` ring (and optionally a
JSONL sink), parented to the enclosing span via the contextvar in
:mod:`~repro.telemetry.context`.

Arming follows the fault-injection playbook: explicit
:func:`configure` wins; otherwise the first hook resolves lazily from
the ``REPRO_TELEMETRY`` / ``REPRO_TELEMETRY_MAX_SPANS`` /
``REPRO_TELEMETRY_SINK`` environment (how spawned workers and fit
legs self-arm) and falls back to this thread's
:class:`~repro.config.Config` knobs.

Spans are plain dicts — they cross pickle pipes and JSONL files
without a schema migration story::

    {"trace_id", "span_id", "parent_id", "name", "t_start" (epoch s),
     "duration" (s), "pid", "annotations" ([[key, value], ...]),
     "attrs" ({...})}
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

from ..config import get_config
from . import context as _ctx

__all__ = [
    "Span",
    "SpanRecorder",
    "annotate",
    "configure",
    "enabled",
    "get_recorder",
    "record_span",
    "reset_telemetry",
    "settings",
    "span",
]

ENV_ENABLED = "REPRO_TELEMETRY"
ENV_MAX_SPANS = "REPRO_TELEMETRY_MAX_SPANS"
ENV_SINK = "REPRO_TELEMETRY_SINK"

# Process-global switch. ``None`` means "not yet resolved": the first
# hook resolves from env/config exactly once, so the steady-state
# disabled path is a single global read.
_ENABLED: Optional[bool] = None
_RECORDER: Optional["SpanRecorder"] = None
_SINK: Optional["_JsonlSink"] = None
_LOCK = threading.Lock()

# The innermost *open* Span on this thread/task — what module-level
# :func:`annotate` (breaker transitions, fault firings) attaches to.
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("repro_active_span", default=None)


class SpanRecorder:
    """Bounded, thread-safe ring of finished spans (oldest dropped)."""

    def __init__(self, max_spans: int = 10_000) -> None:
        self.max_spans = max(1, int(max_spans))
        self._spans: deque = deque(maxlen=self.max_spans)
        self._dropped = 0
        self._lock = threading.Lock()

    def record(self, rec: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) == self.max_spans:
                self._dropped += 1
            self._spans.append(rec)

    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        return len(self._spans)

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [s for s in self._spans if s.get("trace_id") == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0


class _JsonlSink:
    """Bounded per-process JSONL span sink (``spans-<pid>.jsonl``).

    One file per pid so router, workers, and fit legs never interleave
    writes; :func:`repro.perfmodel.calibrate.load_spans` reads the
    whole directory back. Stops writing (and counts drops) past
    ``max_spans`` so a runaway soak can't fill the disk.
    """

    def __init__(self, directory: str, max_spans: int) -> None:
        self.directory = str(directory)
        self.max_spans = max(1, int(max_spans))
        self._written = 0
        self.dropped = 0
        self._fh = None
        self._lock = threading.Lock()

    def write(self, rec: Dict[str, Any]) -> None:
        with self._lock:
            if self._written >= self.max_spans:
                self.dropped += 1
                return
            if self._fh is None:
                os.makedirs(self.directory, exist_ok=True)
                path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
                self._fh = open(path, "a", encoding="utf-8")
            self._fh.write(json.dumps(rec) + "\n")
            self._fh.flush()
            self._written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _resolve() -> bool:
    """First-hook lazy arm: env wins, then this thread's config."""
    global _ENABLED, _RECORDER, _SINK
    with _LOCK:
        if _ENABLED is not None:  # lost the race to configure()
            return _ENABLED
        env = os.environ.get(ENV_ENABLED)
        if env is not None:
            on = env.strip() not in ("", "0", "false", "no")
        else:
            on = bool(get_config().telemetry_enabled)
        max_spans = _max_spans_hint()
        if on:
            _RECORDER = SpanRecorder(max_spans)
            sink_dir = os.environ.get(ENV_SINK)
            if sink_dir:
                _SINK = _JsonlSink(sink_dir, max_spans)
        _ENABLED = on
        return on


def _max_spans_hint() -> int:
    env = os.environ.get(ENV_MAX_SPANS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return int(get_config().telemetry_max_spans)


def configure(
    enabled: Optional[bool] = None,
    *,
    max_spans: Optional[int] = None,
    sink_dir: Optional[str] = None,
    propagate: bool = False,
) -> None:
    """Explicitly arm/disarm telemetry for this process.

    ``propagate=True`` additionally exports the settings to the
    environment so child processes (serving workers, fit legs)
    self-arm on their first hook — the same mechanism fault plans use.
    """
    global _ENABLED, _RECORDER, _SINK
    with _LOCK:
        if enabled is not None:
            _ENABLED = bool(enabled)
        elif _ENABLED is None:
            _ENABLED = True  # configure() with tuning args implies "on"
        n = int(max_spans) if max_spans is not None else _max_spans_hint()
        if _ENABLED:
            if _RECORDER is None or _RECORDER.max_spans != n:
                _RECORDER = SpanRecorder(n)
            if sink_dir is not None:
                if _SINK is not None:
                    _SINK.close()
                _SINK = _JsonlSink(sink_dir, n)
        else:
            _RECORDER = None
            if _SINK is not None:
                _SINK.close()
            _SINK = None
        if propagate:
            os.environ[ENV_ENABLED] = "1" if _ENABLED else "0"
            os.environ[ENV_MAX_SPANS] = str(n)
            if sink_dir is not None:
                os.environ[ENV_SINK] = str(sink_dir)


def reset_telemetry() -> None:
    """Test hook: back to the pristine 'unresolved' state."""
    global _ENABLED, _RECORDER, _SINK
    with _LOCK:
        _ENABLED = None
        _RECORDER = None
        if _SINK is not None:
            _SINK.close()
        _SINK = None
    for key in (ENV_ENABLED, ENV_MAX_SPANS, ENV_SINK):
        os.environ.pop(key, None)


def enabled() -> bool:
    e = _ENABLED
    if e is None:
        return _resolve()
    return e


def settings() -> Dict[str, Any]:
    """This process's resolved telemetry settings.

    The shape :func:`configure` accepts — what a parent process ships
    to children (serving workers, fit legs) so they arm identically
    regardless of start method.
    """
    on = enabled()  # forces resolution
    sink = _SINK
    return {
        "enabled": on,
        "max_spans": _max_spans_hint(),
        "sink_dir": sink.directory if sink is not None else os.environ.get(ENV_SINK),
    }


def get_recorder() -> Optional[SpanRecorder]:
    if not enabled():
        return None
    return _RECORDER


def _emit(rec: Dict[str, Any]) -> None:
    rec_recorder = _RECORDER
    if rec_recorder is not None:
        rec_recorder.record(rec)
    sink = _SINK
    if sink is not None:
        sink.write(rec)


class Span:
    """One open timing span; use via ``with span(name): ...``."""

    __slots__ = (
        "name",
        "attrs",
        "ctx",
        "annotations",
        "_t_wall",
        "_t0",
        "_ctx_token",
        "_active_token",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.annotations: List[List[Any]] = []
        parent = _ctx.current()
        self.ctx = _ctx.child_of(parent) if parent is not None else _ctx.new_trace()

    def __enter__(self) -> "Span":
        self._ctx_token = _ctx.set_current(self.ctx)
        self._active_token = _ACTIVE.set(self)
        self._t_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        _ACTIVE.reset(self._active_token)
        _ctx.reset_current(self._ctx_token)
        if exc_type is not None:
            self.annotations.append(["error", exc_type.__name__])
        rec: Dict[str, Any] = {
            "trace_id": self.ctx.trace_id,
            "span_id": self.ctx.span_id,
            "parent_id": self.ctx.parent_id,
            "name": self.name,
            "t_start": self._t_wall,
            "duration": duration,
            "pid": os.getpid(),
        }
        if self.annotations:
            rec["annotations"] = self.annotations
        if self.attrs:
            rec["attrs"] = self.attrs
        _emit(rec)
        return False

    def annotate(self, key: str, value: Any) -> None:
        self.annotations.append([key, value])


class _NoopSpan:
    """Shared do-nothing span — the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs: Any):
    """Open a named child span of whatever context is active.

    Disabled path: one global read and a shared no-op object.
    """
    e = _ENABLED
    if e is None:
        e = _resolve()
    if not e:
        return _NOOP
    return Span(name, attrs)


def annotate(key: str, value: Any) -> None:
    """Attach ``key=value`` to the innermost open span, if any.

    This is how out-of-band events (circuit-breaker transitions,
    fault-injection firings) land on the request trace that caused
    them. No-op (one global read) when telemetry is off or no span is
    open.
    """
    e = _ENABLED
    if e is None:
        e = _resolve()
    if not e:
        return
    active = _ACTIVE.get()
    if active is not None:
        active.annotate(key, value)


def record_span(
    name: str,
    duration: float,
    *,
    t_start: Optional[float] = None,
    ctx: Optional[_ctx.TraceContext] = None,
    parent_id: Optional[str] = None,
    annotations: Optional[List[List[Any]]] = None,
    **attrs: Any,
) -> Optional[Dict[str, Any]]:
    """Record an already-measured interval as a span.

    For phases whose start/end were captured elsewhere: queue-wait
    (measured from the request's submit timestamp) and the runtime's
    ``task:*`` spans (worker threads never see the submitter's
    contextvar, so :class:`~repro.runtime.Runtime` passes the context
    it captured at ``insert_task`` as *ctx*).
    """
    if not enabled():
        return None
    parent = ctx if ctx is not None else _ctx.current()
    if parent is not None:
        trace_id = parent.trace_id
        pid_of_parent = parent.span_id if parent_id is None else parent_id
    else:
        root = _ctx.new_trace()
        trace_id, pid_of_parent = root.trace_id, parent_id
    rec: Dict[str, Any] = {
        "trace_id": trace_id,
        "span_id": _ctx.new_span_id(),
        "parent_id": pid_of_parent,
        "name": name,
        "t_start": time.time() - duration if t_start is None else t_start,
        "duration": float(duration),
        "pid": os.getpid(),
    }
    if annotations:
        rec["annotations"] = annotations
    if attrs:
        rec["attrs"] = attrs
    _emit(rec)
    return rec
