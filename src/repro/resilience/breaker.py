"""The circuit breaker of the serving stack.

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
  each, and the fleet-wide routes skip the worker instead of waiting on
  it; a respawned worker starts with a fresh, closed breaker.

Overload is not a breaker's business: the one admission bound is each
model's ``max_queue`` in the service, which rejects a full queue with
:class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429) before the
request executes.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..exceptions import ConfigurationError
from ..telemetry import spans as _telemetry

__all__ = ["CircuitBreaker"]

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
        admitting one probe: that single request decides re-close vs
        re-open.
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
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive, while closed
        self._probing = False  # the half-open probe is in flight
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

        Open: denied until ``recovery_time`` elapses. Half-open: one
        probe is admitted; its outcome (reported via
        :meth:`record_success` / :meth:`record_failure`) decides the
        next state. Callers that get ``True`` MUST report an outcome,
        or the half-open probe slot leaks.
        """
        with self._lock:
            self._tick_locked()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    # -------------------------------------------------------------- outcomes
    def record_success(self) -> None:
        """Report a successful call: closes a half-open breaker, clears
        the consecutive-failure count of a closed one."""
        with self._lock:
            self.n_successes += 1
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probing = False
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
        self._probing = False
        self.n_opens += 1
        _telemetry.annotate("breaker", f"{previous} -> open")

    def _tick_locked(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._state = HALF_OPEN
            self._probing = False
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
