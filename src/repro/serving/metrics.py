"""Counters, latency percentiles, and arrival rates for serving.

A deliberately small, dependency-free metrics surface: named monotonic
counters, a bounded reservoir of request latencies, and per-model
arrival timestamps, all behind one lock so the asyncio event loop,
executor worker threads, and benchmark readers can share a
:class:`ServiceMetrics` instance. ``snapshot()`` returns the plain-dict
form that the HTTP server's ``/v1/metrics`` endpoint reports per worker
(the perf ledger, ``benchmarks/ledger``, reads its per-request engine-call
and coalescing counters from there).

The arrival-timestamp window is what the adaptive batching policy
learns from: :meth:`arrival_rate` estimates a model's recent request
rate, and :class:`~repro.serving.service.PredictionService` sizes that
model's coalescing window to roughly the time a batch takes to fill.

Since the telemetry layer landed, :class:`ServiceMetrics` is also a
*compatibility façade* over the process-wide
:class:`~repro.telemetry.metrics.MetricsRegistry`: when telemetry is
armed, every counter increment mirrors into a
``service_<name>`` registry counter and every latency observation into
the ``service_latency_seconds`` histogram, so the router's Prometheus
exposition sees serving traffic without any caller changing its
``metrics.inc(...)`` calls. Snapshot/percentile behavior is unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from ..telemetry import metrics as _registry
from ..telemetry import spans as _telemetry

__all__ = ["ServiceMetrics"]


def _nearest_rank(samples: list, p: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty sample."""
    rank = max(0, min(len(samples) - 1, round(p / 100.0 * (len(samples) - 1))))
    return samples[rank]


class ServiceMetrics:
    """Thread-safe counters + latency reservoir for a prediction service.

    Parameters
    ----------
    max_samples:
        Latency samples retained (newest-wins ring buffer). Percentiles
        are computed over this window, so a long-running service reports
        *recent* latency, not lifetime latency.
    max_arrivals:
        Arrival timestamps retained per model for rate estimation.
    arrival_horizon:
        Seconds after which a model's newest arrival is considered
        stale; :meth:`arrival_rate` then reports ``None`` so the
        adaptive window falls back to its default instead of acting on
        ancient traffic.

    Counter names used by :class:`~repro.serving.service.PredictionService`:

    ``requests``            accepted submissions;
    ``completed``           requests answered successfully;
    ``engine_calls``        PredictionEngine invocations (the quantity
                            micro-batching minimizes);
    ``batches``             dispatch rounds that grouped >= 2 requests;
    ``coalesced_requests``  requests served through a grouped call;
    ``rejected_overload``   submissions refused by backpressure;
    ``deadline_exceeded``   requests expired before dispatch;
    ``batch_retries``       failed groups re-dispatched per request so
                            one bad request cannot poison its batch;
    ``errors``              requests failed by an engine error.
    """

    def __init__(
        self,
        max_samples: int = 4096,
        *,
        max_arrivals: int = 128,
        arrival_horizon: float = 30.0,
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        if max_arrivals < 2:
            raise ValueError(f"max_arrivals must be >= 2, got {max_arrivals}")
        if arrival_horizon <= 0:
            raise ValueError(f"arrival_horizon must be > 0, got {arrival_horizon}")
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._latencies: Deque[float] = deque(maxlen=int(max_samples))
        self._arrivals: Dict[str, Deque[float]] = {}
        self._max_arrivals = int(max_arrivals)
        self._arrival_horizon = float(arrival_horizon)
        # Telemetry mirror: per-name registry counters are cached so the
        # armed write path is one dict lookup + one add, and the whole
        # mirror is skipped (one global read) when telemetry is off.
        self._mirror: Dict[str, _registry.Counter] = {}
        self._mirror_hist: Optional[_registry.Histogram] = None

    # -------------------------------------------------------------- writers
    def inc(self, name: str, by: int = 1) -> None:
        """Increment counter ``name`` by ``by`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(by)
        if _telemetry.enabled():
            counter = self._mirror.get(name)
            if counter is None:
                counter = _registry.get_registry().counter(f"service_{name}")
                self._mirror[name] = counter
            counter.inc(int(by))

    def observe_latency(self, seconds: float) -> None:
        """Record one request's submit-to-answer latency."""
        with self._lock:
            self._latencies.append(float(seconds))
        if _telemetry.enabled():
            hist = self._mirror_hist
            if hist is None:
                hist = self._mirror_hist = _registry.get_registry().histogram(
                    "service_latency_seconds",
                    help="submit-to-answer request latency",
                )
            hist.observe(float(seconds))

    def record_arrival(self, model_id: str, t: Optional[float] = None) -> None:
        """Record one request arrival for ``model_id`` (monotonic seconds)."""
        t = time.monotonic() if t is None else float(t)
        with self._lock:
            window = self._arrivals.get(model_id)
            if window is None:
                window = deque(maxlen=self._max_arrivals)
                self._arrivals[model_id] = window
            window.append(t)

    def reset(self) -> None:
        """Zero every counter, drop all latency samples and arrivals."""
        with self._lock:
            self._counters.clear()
            self._latencies.clear()
            self._arrivals.clear()

    # -------------------------------------------------------------- readers
    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def percentile(self, p: float) -> float:
        """Latency percentile ``p`` in [0, 100] over the retained window.

        Nearest-rank on the sorted sample; 0.0 with no samples (an empty
        window must read as "no latency observed", never raise).
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            samples = sorted(self._latencies)
        if not samples:
            return 0.0
        return _nearest_rank(samples, p)

    def arrival_rate(self, model_id: str, t: Optional[float] = None) -> Optional[float]:
        """Recent request rate for ``model_id`` in requests/second.

        Estimated over the retained arrival window; ``None`` when fewer
        than two arrivals were seen, when the window spans no time, or
        when the newest arrival is older than ``arrival_horizon`` (the
        model has gone quiet — stale rates must not size its window).
        """
        now = time.monotonic() if t is None else float(t)
        with self._lock:
            window = self._arrivals.get(model_id)
            if window is None or len(window) < 2:
                return None
            first, last, count = window[0], window[-1], len(window)
        if now - last > self._arrival_horizon or last <= first:
            return None
        return (count - 1) / (last - first)

    def snapshot(self) -> dict:
        """Plain-dict view: all counters plus latency statistics (seconds).

        The latency block always carries ``count``/``mean``/``p50``/
        ``p95``/``max`` keys — 0.0 on an empty window — so readers
        (benchmark writers, the ``/v1/metrics`` endpoint) never need
        per-key existence checks.
        """
        now = time.monotonic()
        with self._lock:
            counters = dict(self._counters)
            samples = sorted(self._latencies)
            models = list(self._arrivals)
        latency = {
            "count": len(samples),
            "mean": sum(samples) / len(samples) if samples else 0.0,
            "p50": _nearest_rank(samples, 50.0) if samples else 0.0,
            "p95": _nearest_rank(samples, 95.0) if samples else 0.0,
            "max": samples[-1] if samples else 0.0,
        }
        rates = {}
        for model_id in models:
            rate = self.arrival_rate(model_id, t=now)
            if rate is not None:
                rates[model_id] = rate
        return {
            "counters": counters,
            "latency_seconds": latency,
            "arrival_rates": rates,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return f"ServiceMetrics({dict(self._counters)}, samples={len(self._latencies)})"
