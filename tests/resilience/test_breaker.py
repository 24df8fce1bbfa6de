"""Circuit breakers and admission control: state machine + shedding."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ConfigurationError, LoadShedError
from repro.resilience import AdmissionGate, BreakerPool, CircuitBreaker


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
    brk = _breaker(clock, threshold=1, recovery=1.0, half_open_max=2)
    brk.record_failure()
    clock.advance(1.0)
    assert brk.allow()
    assert brk.allow()
    assert not brk.allow()  # quota of 2 spent, outcome still pending


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
    with pytest.raises(ConfigurationError):
        CircuitBreaker(half_open_max=0, clock=clock)


# ---------------------------------------------------------------------------
# BreakerPool
# ---------------------------------------------------------------------------


def test_pool_creates_one_breaker_per_key_lazily(clock):
    pool = BreakerPool(failure_threshold=1, recovery_time=9.0, clock=clock)
    assert pool.snapshot() == {}
    a = pool.get("model-a")
    assert pool.get("model-a") is a  # stable identity per key
    assert a.failure_threshold == 1 and a.recovery_time == 9.0
    a.record_failure()
    snap = pool.snapshot()
    assert snap["model-a"]["state"] == "open"
    assert pool.get("model-b").state == "closed"  # keys are independent


# ---------------------------------------------------------------------------
# AdmissionGate
# ---------------------------------------------------------------------------


def test_gate_sheds_beyond_the_inflight_cap():
    gate = AdmissionGate(max_inflight=2, retry_after=0.5)
    first, second = gate.admit(), gate.admit()
    with pytest.raises(LoadShedError) as excinfo:
        gate.admit()
    assert excinfo.value.retry_after == 0.5
    first.__exit__(None, None, None)
    with gate.admit():  # a released slot readmits
        pass
    second.__exit__(None, None, None)
    assert gate.snapshot() == {
        "inflight": 0,
        "max_inflight": 2,
        "n_shed": 1,
        "n_admitted": 3,
    }


def test_gate_releases_on_exception():
    gate = AdmissionGate(max_inflight=1)
    with pytest.raises(RuntimeError):
        with gate.admit():
            raise RuntimeError("handler blew up")
    assert gate.inflight == 0
    with gate.admit():  # the slot came back
        pass


def test_gate_is_thread_safe_under_contention():
    gate = AdmissionGate(max_inflight=4)
    peak, lock = [0], threading.Lock()
    barrier = threading.Barrier(16)

    def worker():
        barrier.wait()
        for _ in range(200):
            if gate.try_acquire():
                with lock:
                    peak[0] = max(peak[0], gate.inflight)
                gate.release()

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert gate.inflight == 0
    assert 1 <= peak[0] <= 4  # the cap held under contention
    snap = gate.snapshot()
    assert snap["n_admitted"] + snap["n_shed"] == 16 * 200


def test_gate_invalid_settings_rejected():
    with pytest.raises(ConfigurationError):
        AdmissionGate(max_inflight=0)
    with pytest.raises(ConfigurationError):
        AdmissionGate(retry_after=-1.0)
