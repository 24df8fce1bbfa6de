"""The service's instruments (``service.metrics``): empty-window latency
regressions, thread-safe counters, and construction-time validation of
serving knobs across the stack."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.serving import ModelRegistry, PredictionService
from repro.telemetry.metrics import RECENT_WINDOW


@pytest.fixture
def metrics():
    with ModelRegistry(max_models=2) as registry:
        yield PredictionService(registry).metrics


# --------------------------------------------------------------------------
# Empty-window latency regression.
# --------------------------------------------------------------------------


def test_percentiles_on_empty_window_are_zero_not_an_error(metrics):
    """Regression: a fresh service must answer every latency statistic
    with 0.0 — readers poll /v1/metrics before the first request
    completes."""
    latency = metrics.snapshot()["latency_seconds"]
    assert latency["p50"] == latency["p95"] == latency["max"] == 0.0
    metrics.latency.observe(0.25)
    assert metrics.snapshot()["latency_seconds"]["p50"] == 0.25


def test_snapshot_always_carries_latency_keys(metrics):
    """Regression: the latency block must carry count/mean/p50/p95/max
    even with zero samples, so snapshot consumers (benchmark writers,
    the HTTP /v1/metrics endpoint) never KeyError on a quiet service."""
    latency = metrics.snapshot()["latency_seconds"]
    assert {k: latency[k] for k in ("count", "mean", "p50", "p95", "max")} == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0
    }
    for v in (0.1, 0.2, 0.3):
        metrics.latency.observe(v)
    latency = metrics.snapshot()["latency_seconds"]
    assert latency["count"] == 3
    assert latency["max"] == 0.3
    assert latency["p50"] == 0.2
    assert latency["mean"] == pytest.approx(0.2)


def test_latency_window_is_bounded_and_recent(metrics):
    """count/sum are lifetime totals; percentiles and max describe only
    the newest RECENT_WINDOW samples, so memory stays bounded."""
    metrics.latency.observe(9.0)  # ages out of the window below
    for _ in range(RECENT_WINDOW):
        metrics.latency.observe(0.01)
    latency = metrics.snapshot()["latency_seconds"]
    assert latency["count"] == RECENT_WINDOW + 1
    assert latency["max"] == 0.01
    assert sum(latency["counts"]) == latency["count"]


def test_every_counter_reads_zero_before_traffic(metrics):
    counters = metrics.snapshot()["counters"]
    assert {"requests", "completed", "engine_calls", "coalesced_requests"} <= set(counters)
    assert all(v == 0 and isinstance(v, int) for v in counters.values())


def test_concurrent_incs_are_never_lost(metrics):
    """Executor threads and the event loop increment the same counters:
    N threads x M incs must read exactly N*M."""
    n_threads, n_incs = 8, 5000
    counter = metrics.counters["engine_calls"]

    def work():
        for _ in range(n_incs):
            counter.inc()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert metrics.snapshot()["counters"]["engine_calls"] == n_threads * n_incs


# --------------------------------------------------------------------------
# Construction-time rejection of nonsensical serving knobs — service
# and registry both fail at build time, not first request.
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch": 0},
        {"max_batch": -3},
        {"max_queue": 0},
        {"breaker_threshold": 0},
        {"breaker_recovery": 0.0},
    ],
)
def test_service_rejects_nonsense_knobs_at_construction(kwargs):
    """Regression: these used to be silently clamped (max_batch=0 served
    as 1); now they fail loudly before any request can hit them."""
    with ModelRegistry(max_models=2) as registry:
        with pytest.raises(ConfigurationError):
            PredictionService(registry, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_models": 0},
    ],
)
def test_registry_rejects_nonsense_knobs_at_construction(kwargs):
    with pytest.raises(ConfigurationError):
        ModelRegistry(**kwargs)
