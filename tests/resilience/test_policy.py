"""Client backoff and deadlines: determinism, budgets, clamping."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.resilience import Deadline, RetryPolicy


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


def test_after_none_is_none():
    assert Deadline.after(None) is None


def test_remaining_and_expired():
    d = Deadline.after(30.0)
    assert 29.0 < d.remaining <= 30.0
    assert not d.expired
    past = Deadline(time.monotonic() - 1.0)
    assert past.expired
    assert past.remaining < 0


def test_check_raises_only_once_expired():
    Deadline.after(30.0).check("predict")  # plenty left: no raise
    past = Deadline(time.monotonic() - 0.5)
    with pytest.raises(DeadlineExceededError, match="predict deadline expired"):
        past.check("predict")


def test_clamp_bounds_a_layer_timeout():
    d = Deadline.after(1.0)
    assert d.clamp(30.0) <= 1.0  # the deadline wins over a generous timeout
    assert d.clamp(0.01) == 0.01  # a tight timeout stays tight
    expired = Deadline(time.monotonic() - 1.0)
    assert expired.clamp(30.0) == 0.0  # floored, never negative


# ---------------------------------------------------------------------------
# RetryPolicy validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"base_delay": -0.1},
        {"multiplier": 0.5},
        {"max_delay": -1.0},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ],
)
def test_invalid_settings_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Deterministic backoff
# ---------------------------------------------------------------------------


def test_delay_sequence_is_deterministic():
    a = RetryPolicy(max_attempts=5, base_delay=0.1, seed=11)
    b = RetryPolicy(max_attempts=5, base_delay=0.1, seed=11)
    assert [a.delay(i) for i in range(4)] == [b.delay(i) for i in range(4)]
    c = RetryPolicy(max_attempts=5, base_delay=0.1, seed=12)
    assert [a.delay(i) for i in range(4)] != [c.delay(i) for i in range(4)]


def test_zero_jitter_is_exact_exponential():
    pol = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.0, max_delay=10.0)
    assert [pol.delay(i) for i in range(4)] == [0.1, 0.2, 0.4, 0.8]


def test_jitter_stays_within_the_configured_band():
    pol = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.5, seed=3)
    for attempt in range(6):
        raw = min(pol.max_delay, 0.1 * 2.0**attempt)
        assert raw * 0.5 <= pol.delay(attempt) <= raw * 1.5


def test_max_delay_caps_the_curve():
    pol = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0)
    assert pol.delay(5) == 2.0


def test_seed_defaults_to_configured_rng_seed():
    from repro.config import get_config

    assert RetryPolicy().seed == get_config().rng_seed


# ---------------------------------------------------------------------------
# Attempt budget
# ---------------------------------------------------------------------------


def test_allows_counts_total_attempts():
    pol = RetryPolicy(max_attempts=3)
    assert [pol.allows(i) for i in range(4)] == [True, True, True, False]


def test_budget_exhaustion_stops_retries():
    # The client's question after a not-executed rejection of 0-based
    # attempt ``a`` is ``allows(a + 1)``.
    pol = RetryPolicy(max_attempts=2)
    assert pol.allows(0 + 1)
    assert not pol.allows(1 + 1)  # attempt 1 was the last of 2
