"""Metric instruments — counters, gauges, histograms — and a registry.

Instruments are cheap enough to update unconditionally (one short
critical section). :class:`~repro.serving.service.PredictionService`
owns a :class:`Counter` per serving event and one latency
:class:`Histogram`, and writes nowhere else; the router pulls each
worker's service snapshot over the ``metrics`` pipe op and
:func:`MetricsRegistry.merge`\\ s them with the process-global registry
(:func:`get_registry`, for instruments the embedding program adds), so
``/v1/metrics?format=prometheus`` renders one exposition for the whole
server.

Histograms use **explicit** bucket upper bounds (Prometheus
``le``-style, cumulative at export time) so percentile-ish questions
("how many predicts were over 100 ms?") survive cross-process
aggregation, which a quantile sketch would not without a merge
protocol. Each histogram also keeps its newest :data:`RECENT_WINDOW`
samples, from which a snapshot reports the process-local recent
``mean`` / ``p50`` / ``p95`` / ``max``.
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import TelemetryError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
]

# Powers-of-~3 from 1 ms to 30 s: wide enough for a cold TLR factorize,
# fine enough to see batching effects at the fast end.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
)


#: Newest samples a :class:`Histogram` keeps for its recent-latency
#: statistics, so a long-running service reports *recent* percentiles.
RECENT_WINDOW = 4096


class Counter:
    """Monotonically increasing value, safe to ``inc`` from any thread.

    Integer increments keep the value an ``int`` (what the JSON metrics
    surfaces report).
    """

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, by: float = 1) -> None:
        if by < 0:
            raise TelemetryError(f"counter {self.name} cannot decrease (by={by})")
        # ``+=`` is a read-modify-write: executor threads and the event
        # loop increment the same serving counters.
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, warm engines)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        self._value += by

    def dec(self, by: float = 1.0) -> None:
        self._value -= by

    @property
    def value(self) -> float:
        return self._value


def _nearest_rank(samples: List[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty sample."""
    return samples[round(p / 100.0 * (len(samples) - 1))]


class Histogram:
    """Fixed explicit-bucket histogram (per-bucket counts + sum/count)
    plus a bounded window of the newest samples."""

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_recent", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> None:
        bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS)))
        if not bounds:
            raise TelemetryError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._recent: Deque[float] = deque(maxlen=RECENT_WINDOW)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            self._recent.append(value)

    def snapshot(self) -> Dict[str, Any]:
        """Lifetime ``buckets``/``counts``/``sum``/``count`` plus
        ``mean``/``p50``/``p95``/``max`` over the recent window (all 0.0
        while empty, so readers never need per-key existence checks)."""
        with self._lock:
            out = {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }
            recent = list(self._recent)
        recent = sorted(recent) or [0.0]
        out.update(
            mean=sum(recent) / len(recent),
            p50=_nearest_rank(recent, 50.0),
            p95=_nearest_rank(recent, 95.0),
            max=recent[-1],
        )
        return out


class MetricsRegistry:
    """Get-or-create instrument registry; one per process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and name in table:
                raise TelemetryError(
                    f"metric {name!r} already registered as a {other}"
                )

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._claim(name, "counter")
                c = self._counters[name] = Counter(name, help)
            return c

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._claim(name, "gauge")
                g = self._gauges[name] = Gauge(name, help)
            return g

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._claim(name, "histogram")
                h = self._histograms[name] = Histogram(name, buckets, help)
            elif buckets is not None and tuple(sorted(map(float, buckets))) != h.buckets:
                raise TelemetryError(
                    f"histogram {name!r} re-registered with different buckets"
                )
            return h

    def snapshot(self) -> Dict[str, Any]:
        """A picklable point-in-time view (crosses the worker pipe)."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {
                    n: h.snapshot() for n, h in self._histograms.items()
                },
                "help": {
                    **{n: c.help for n, c in self._counters.items() if c.help},
                    **{n: g.help for n, g in self._gauges.items() if g.help},
                    **{n: h.help for n, h in self._histograms.items() if h.help},
                },
            }

    @staticmethod
    def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Sum counters/histograms (and gauges — ours are additive:
        queue depths, warm-engine counts) across process snapshots.

        Histograms with mismatched bucket bounds keep the first
        process's bounds and fold the other's total into ``sum`` /
        ``count`` only — a version-skew guard, not an expected path.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        help_text: Dict[str, str] = {}
        for snap in snapshots:
            if not snap:
                continue
            for n, v in snap.get("counters", {}).items():
                counters[n] = counters.get(n, 0.0) + v
            for n, v in snap.get("gauges", {}).items():
                gauges[n] = gauges.get(n, 0.0) + v
            for n, h in snap.get("histograms", {}).items():
                agg = histograms.get(n)
                if agg is None:
                    histograms[n] = {
                        "buckets": list(h["buckets"]),
                        "counts": list(h["counts"]),
                        "sum": h["sum"],
                        "count": h["count"],
                    }
                elif agg["buckets"] == list(h["buckets"]):
                    agg["counts"] = [
                        a + b for a, b in zip(agg["counts"], h["counts"])
                    ]
                    agg["sum"] += h["sum"]
                    agg["count"] += h["count"]
                else:
                    agg["sum"] += h["sum"]
                    agg["count"] += h["count"]
            help_text.update(snap.get("help", {}))
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "help": help_text,
        }


_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Test hook: replace the process registry with a fresh one."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = MetricsRegistry()
        return _REGISTRY
