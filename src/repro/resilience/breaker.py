"""Circuit breakers and admission control for the serving stack.

Retries and respawns handle *transient* failures; a dependency that is
down for seconds at a time needs the opposite treatment — stop sending
it work, answer callers fast, and probe for recovery. That is the
circuit breaker, and it appears at two grains in this stack:

* **per model** inside each worker's
  :class:`~repro.serving.service.PredictionService` — repeated engine
  failures (corrupt rehydration, injected engine faults) open the
  model's breaker; while open the service serves the model's
  last-known-good engine generation (degraded) or fails fast with
  :class:`~repro.exceptions.CircuitOpenError` instead of queueing doomed
  work;
* **per worker** inside the router's worker handles — repeated
  transport failures (timeouts from a hung worker) open the worker's
  breaker so HTTP threads stop stacking up behind a 120-second timeout
  each; a respawned worker starts with a fresh, closed breaker.

:class:`AdmissionGate` is the load-shedding companion: a bounded count
of in-flight requests at the router. Beyond the bound, requests are
rejected *immediately* with :class:`~repro.exceptions.LoadShedError`
(HTTP 503 + ``Retry-After``) — an overloaded server that answers "come
back later" in microseconds beats one that makes every client wait out
a timeout.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from ..exceptions import ConfigurationError, LoadShedError
from ..telemetry import spans as _telemetry

__all__ = ["CircuitBreaker", "AdmissionGate"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic closed / open / half-open breaker, monotonic-clock based.

    Parameters
    ----------
    failure_threshold:
        Consecutive infrastructure failures that trip the breaker from
        closed to open. Typed per-request errors (bad shapes, unknown
        models, expired deadlines) are not reported to it.
    recovery_time:
        Seconds the breaker stays open before moving to half-open and
        admitting probes.
    half_open_max:
        Concurrent probes admitted while half-open. One is the safe
        default: a single request decides re-close vs re-open.
    clock:
        Injectable time source (tests advance a fake clock instead of
        sleeping).

    Thread-safe; every transition happens under one lock. Counters
    (``n_opens``, ``n_failures``, ``n_successes``) are cumulative for
    metrics surfaces.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        recovery_time: float = 2.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = int(failure_threshold)
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.recovery_time = float(recovery_time)
        if self.recovery_time <= 0:
            raise ConfigurationError(
                f"recovery_time must be > 0, got {recovery_time}"
            )
        if int(half_open_max) < 1:
            raise ConfigurationError(f"half_open_max must be >= 1, got {half_open_max}")
        self.half_open_max = int(half_open_max)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive, while closed
        self._probes = 0  # in-flight, while half-open
        self._opened_at = 0.0
        self.n_opens = 0
        self.n_failures = 0
        self.n_successes = 0

    # --------------------------------------------------------------- queries
    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (after lazily
        applying the open → half-open timeout transition)."""
        with self._lock:
            self._tick_locked()
            return self._state

    @property
    def retry_after(self) -> float:
        """Seconds until an open breaker admits probes (0 when not open)."""
        with self._lock:
            self._tick_locked()
            if self._state != OPEN:
                return 0.0
            return max(0.0, self._opened_at + self.recovery_time - self._clock())

    def allow(self) -> bool:
        """Whether a request may proceed right now.

        Open: denied until ``recovery_time`` elapses. Half-open: up to
        ``half_open_max`` probes are admitted; their outcomes (reported
        via :meth:`record_success` / :meth:`record_failure`) decide the
        next state. Callers that get ``True`` MUST report an outcome,
        or half-open probe slots leak.
        """
        with self._lock:
            self._tick_locked()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probes < self.half_open_max:
                self._probes += 1
                return True
            return False

    # -------------------------------------------------------------- outcomes
    def record_success(self) -> None:
        """Report a successful call: closes a half-open breaker, clears
        the consecutive-failure count of a closed one."""
        with self._lock:
            self.n_successes += 1
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probes = 0
                # State transitions land on the request trace that
                # caused them — the "why was this degraded/fast-failed"
                # breadcrumb. No-op when telemetry is off.
                _telemetry.annotate("breaker", "half-open -> closed")
            self._failures = 0

    def record_failure(self) -> None:
        """Report a failed call: trips a closed breaker at the threshold,
        re-opens a half-open one immediately."""
        with self._lock:
            self.n_failures += 1
            if self._state == HALF_OPEN:
                self._open_locked()
                return
            if self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._open_locked()

    def _open_locked(self) -> None:
        previous = self._state
        self._state = OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probes = 0
        self.n_opens += 1
        _telemetry.annotate("breaker", f"{previous} -> open")

    def _tick_locked(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._state = HALF_OPEN
            self._probes = 0
            _telemetry.annotate("breaker", "open -> half-open")

    def snapshot(self) -> dict:
        """Plain-dict state for metrics endpoints."""
        with self._lock:
            self._tick_locked()
            return {
                "state": self._state,
                "n_opens": self.n_opens,
                "n_failures": self.n_failures,
                "n_successes": self.n_successes,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state!r}, opens={self.n_opens})"


class AdmissionGate:
    """Bounded in-flight admission: shed load instead of queueing it.

    Parameters
    ----------
    max_inflight:
        Requests allowed inside the gate at once; beyond it requests
        are shed immediately instead of queueing without bound.
    retry_after:
        The ``Retry-After`` hint (seconds) attached to shed requests.

    Use as a context manager around the guarded section::

        with gate.admit():          # raises LoadShedError when full
            handle_request()
    """

    def __init__(
        self,
        *,
        max_inflight: int = 128,
        retry_after: float = 0.1,
    ) -> None:
        self.max_inflight = int(max_inflight)
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if float(retry_after) < 0:
            raise ConfigurationError(f"retry_after must be >= 0, got {retry_after}")
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._inflight = 0
        self.n_shed = 0
        self.n_admitted = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self.max_inflight:
                self.n_shed += 1
                return False
            self._inflight += 1
            self.n_admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def admit(self) -> "_Admission":
        """Context manager form; raises :class:`LoadShedError` when full."""
        if not self.try_acquire():
            raise LoadShedError(
                f"server is at its {self.max_inflight} in-flight request limit",
                retry_after=self.retry_after,
            )
        return _Admission(self)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "n_shed": self.n_shed,
                "n_admitted": self.n_admitted,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdmissionGate({self.inflight}/{self.max_inflight}, shed={self.n_shed})"


class _Admission:
    """Releases one admission slot on exit (success or error)."""

    __slots__ = ("_gate",)

    def __init__(self, gate: AdmissionGate) -> None:
        self._gate = gate

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc: object) -> None:
        self._gate.release()


# Convenience: per-key breaker pools (per model, per worker) share one
# configuration and create breakers lazily.
class BreakerPool:
    """Lazily-created :class:`CircuitBreaker` per key, shared options."""

    def __init__(self, **options: object) -> None:
        self._options = options
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, key: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(**self._options)  # type: ignore[arg-type]
                self._breakers[key] = breaker
            return breaker

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            items = list(self._breakers.items())
        return {key: breaker.snapshot() for key, breaker in items}


__all__.append("BreakerPool")
