"""MetricsRegistry: counters, gauges, histograms, merge, and the
service instruments rendered through it."""

from __future__ import annotations

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.telemetry.export import lint_prometheus, render_prometheus


def test_counter_monotonic_and_typed():
    reg = MetricsRegistry()
    c = reg.counter("requests", help="total requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(TelemetryError):
        c.inc(-1)
    # get-or-create returns the same object
    assert reg.counter("requests") is c


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("inflight")
    g.set(3.0)
    g.inc()
    g.dec(2.0)
    assert g.value == 2.0


def test_histogram_buckets_and_overflow():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == [0.1, 1.0]
    assert snap["counts"] == [1, 2, 1]  # last slot = overflow (+Inf)
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(6.05)


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TelemetryError):
        reg.gauge("x")


def test_snapshot_and_merge_sum_everything():
    a, b = MetricsRegistry(), MetricsRegistry()
    for reg, n in ((a, 1), (b, 2)):
        reg.counter("req").inc(n)
        reg.gauge("load").set(float(n))
        reg.histogram("lat", buckets=(1.0,)).observe(0.5 * n)
    merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
    assert merged["counters"]["req"] == 3
    assert merged["gauges"]["load"] == 3.0
    h = merged["histograms"]["lat"]
    assert h["count"] == 2
    assert h["counts"][0] == 2  # both observations under the 1.0 bucket
    assert h["sum"] == pytest.approx(1.5)


def test_merge_mismatched_buckets_folds_to_counts():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    b.histogram("lat", buckets=(0.5,)).observe(0.05)
    merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
    h = merged["histograms"]["lat"]
    assert h["count"] == 2  # totals survive even when buckets can't align
    assert h["sum"] == pytest.approx(0.1)


def test_default_buckets_are_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def test_service_snapshot_renders_the_service_exposition():
    """The service's one snapshot feeds both the JSON view and, through
    ``registry_view`` + ``merge``, the ``service_*`` Prometheus families
    — armed or not."""
    from repro.serving.service import ServiceInstruments, registry_view

    workers = []
    for n in (3, 4):
        m = ServiceInstruments()
        m.counters["requests"].inc(n)
        m.latency.observe(0.02)
        assert m.snapshot()["counters"]["requests"] == n
        workers.append(registry_view(m.snapshot()))
    merged = MetricsRegistry.merge(workers)
    assert merged["counters"]["service_requests"] == 7
    assert merged["histograms"]["service_latency_seconds"]["count"] == 2
    text = render_prometheus(merged)
    lint_prometheus(text)
    assert "repro_service_requests_total 7" in text
    assert 'repro_service_latency_seconds_bucket{le="0.03"} 2' in text


def test_service_instruments_stay_out_of_the_global_registry():
    from repro.serving.service import ServiceInstruments

    m = ServiceInstruments()
    m.counters["requests"].inc()
    m.latency.observe(0.01)
    snap = get_registry().snapshot()
    assert snap["counters"] == {}
    assert snap["histograms"] == {}
