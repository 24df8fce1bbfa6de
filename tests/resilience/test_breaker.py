"""The circuit breaker's closed / open / half-open state machine."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.resilience import CircuitBreaker


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


def _breaker(clock, threshold=3, recovery=5.0, **kw):
    return CircuitBreaker(
        failure_threshold=threshold, recovery_time=recovery, clock=clock, **kw
    )


# ---------------------------------------------------------------------------
# State machine
# ---------------------------------------------------------------------------


def test_closed_breaker_admits_everything(clock):
    brk = _breaker(clock)
    assert brk.state == "closed"
    assert all(brk.allow() for _ in range(10))
    assert brk.retry_after == 0.0


def test_trips_open_at_the_failure_threshold(clock):
    brk = _breaker(clock, threshold=3)
    brk.record_failure()
    brk.record_failure()
    assert brk.state == "closed"  # 2 of 3
    brk.record_failure()
    assert brk.state == "open"
    assert not brk.allow()
    assert brk.n_opens == 1


def test_success_resets_the_consecutive_failure_count(clock):
    brk = _breaker(clock, threshold=3)
    for _ in range(5):
        brk.record_failure()
        brk.record_failure()
        brk.record_success()  # failures are consecutive, not cumulative
    assert brk.state == "closed"
    assert brk.n_opens == 0


def test_retry_after_counts_down_the_recovery_window(clock):
    brk = _breaker(clock, threshold=1, recovery=5.0)
    brk.record_failure()
    assert brk.retry_after == 5.0
    clock.advance(2.0)
    assert brk.retry_after == 3.0


def test_open_becomes_half_open_after_recovery_time(clock):
    brk = _breaker(clock, threshold=1, recovery=5.0)
    brk.record_failure()
    clock.advance(4.9)
    assert not brk.allow()  # still open
    clock.advance(0.2)
    assert brk.state == "half-open"
    assert brk.allow()  # the probe


def test_half_open_admits_only_the_probe_quota(clock):
    brk = _breaker(clock, threshold=1, recovery=1.0)
    brk.record_failure()
    clock.advance(1.0)
    assert brk.allow()
    assert not brk.allow()  # the one probe is out, outcome still pending
    brk.record_failure()
    clock.advance(1.0)
    assert brk.allow()  # a re-opened breaker hands out a fresh probe


def test_probe_success_recloses(clock):
    brk = _breaker(clock, threshold=1, recovery=1.0)
    brk.record_failure()
    clock.advance(1.0)
    assert brk.allow()
    brk.record_success()
    assert brk.state == "closed"
    assert all(brk.allow() for _ in range(5))


def test_probe_failure_reopens_immediately(clock):
    brk = _breaker(clock, threshold=3, recovery=1.0)
    for _ in range(3):
        brk.record_failure()
    clock.advance(1.0)
    assert brk.allow()
    brk.record_failure()  # one probe failure suffices — not threshold-many
    assert brk.state == "open"
    assert brk.n_opens == 2
    assert not brk.allow()


def test_snapshot_reports_state_and_cumulative_counters(clock):
    brk = _breaker(clock, threshold=1, recovery=1.0)
    brk.record_failure()
    clock.advance(1.0)
    brk.allow()
    brk.record_success()
    assert brk.snapshot() == {
        "state": "closed",
        "n_opens": 1,
        "n_failures": 1,
        "n_successes": 1,
    }


def test_invalid_settings_rejected(clock):
    with pytest.raises(ConfigurationError):
        CircuitBreaker(failure_threshold=0, clock=clock)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(recovery_time=0.0, clock=clock)
