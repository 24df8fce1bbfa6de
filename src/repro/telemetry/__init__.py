"""Unified observability: trace context, spans, metrics, export.

The one place the program records time and counts. Writers record
here directly — there is no second store to bridge from:
:class:`~repro.runtime.Runtime` emits a ``task:<name>`` span per
executed task (parented to the span open on the inserting thread),
:class:`~repro.utils.timer.StageTimes` emits ``stage:*`` spans next to
its always-on per-stage totals, and
:class:`~repro.serving.service.PredictionService` keeps its counters
and latencies in :mod:`~repro.telemetry.metrics` instruments it owns.

* :mod:`~repro.telemetry.context` — ``TraceContext`` carried in a
  contextvar, across HTTP via ``X-Repro-Trace``, and across the
  router's worker pipes.
* :mod:`~repro.telemetry.spans` — ``with span("phase"):`` nested
  timing with a nanosecond-class disabled path; bounded per-process
  ring + optional JSONL sink.
* :mod:`~repro.telemetry.metrics` — counters/gauges/histograms with
  explicit buckets, merged across workers by the router.
* :mod:`~repro.telemetry.export` — Prometheus text exposition and
  cross-process span-tree assembly.

Spans are **off by default** (metric instruments are always on); arm
them with
:func:`~repro.telemetry.configure`, ``Config(telemetry_enabled=True)``,
or ``REPRO_TELEMETRY=1`` (how spawned workers and fit legs inherit
the setting). Answering "where did this slow predict spend its time"
is then one request: ``client.trace(trace_id)``.
"""

from .context import (
    TRACE_HEADER,
    TraceContext,
    activate,
    child_of,
    current,
    from_header,
    from_wire,
    new_trace,
    to_header,
    to_wire,
)
from .export import assemble_trace, lint_prometheus, render_prometheus
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from .spans import (
    Span,
    SpanRecorder,
    annotate,
    configure,
    enabled,
    get_recorder,
    record_span,
    reset_telemetry,
    span,
)

#: Top-level-friendly alias (``repro.configure_telemetry``): the bare
#: name ``configure`` is too generic outside this subpackage.
configure_telemetry = configure

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "activate",
    "annotate",
    "assemble_trace",
    "child_of",
    "configure",
    "configure_telemetry",
    "current",
    "enabled",
    "from_header",
    "from_wire",
    "get_recorder",
    "get_registry",
    "lint_prometheus",
    "new_trace",
    "record_span",
    "render_prometheus",
    "reset_registry",
    "reset_telemetry",
    "span",
    "to_header",
    "to_wire",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
]
