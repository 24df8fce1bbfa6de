"""Client backoff and request deadlines.

* :class:`RetryPolicy` is the backoff of
  :class:`~repro.serving.client.ServingClient` when it resubmits a
  rejection the server did not execute (a full model queue, an open
  breaker): a bounded attempt budget and a jittered exponential delay
  curve. The jitter derives from a seed (default: the configured
  ``rng_seed``), so a test run's retry timing — like everything else in
  this library — replays exactly. The router's retry-once after a
  worker respawn and the fit orchestrator's per-leg restart budget are
  plain counters where they live; neither sleeps.
* A :class:`Deadline` is a point on the monotonic clock, created once
  at the edge (the HTTP handler) and passed down; every layer
  re-derives "seconds remaining" from it, so queueing time in one
  layer shrinks the budget of the next instead of each layer granting
  itself a fresh timeout.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from ..config import get_config
from ..exceptions import ConfigurationError, DeadlineExceededError

__all__ = ["RetryPolicy", "Deadline"]


class Deadline:
    """An absolute point in monotonic time a piece of work must finish by.

    Examples
    --------
    >>> d = Deadline.after(30.0)
    >>> d.remaining > 29.0
    True
    >>> Deadline.after(None) is None
    True
    """

    __slots__ = ("t_end",)

    def __init__(self, t_end: float) -> None:
        self.t_end = float(t_end)

    @classmethod
    def after(cls, budget: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``budget`` seconds from now; ``None`` stays ``None``
        (no deadline), so optional budgets thread through unchanged."""
        if budget is None:
            return None
        return cls(time.monotonic() + float(budget))

    @classmethod
    def from_header(cls, value: Optional[str]) -> Optional["Deadline"]:
        """A deadline from an ``X-Repro-Deadline`` header (budget seconds).

        ``None`` (no header) stays ``None``. A malformed value raises
        ``ValueError`` with the header named, which the HTTP layer maps
        to a 400 — a proxy's typo must not silently serve without the
        budget it meant to impose. Parsed at the *edge*, before the
        request body is read, so streaming body reads are already
        bounded by the client's budget.
        """
        if value is None:
            return None
        try:
            budget = float(value)
        except ValueError:
            raise ValueError(
                f"malformed X-Repro-Deadline header {value!r} (want seconds)"
            ) from None
        return cls.after(budget)

    @property
    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.t_end - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() > self.t_end

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if already expired."""
        overdue = time.monotonic() - self.t_end
        if overdue > 0:
            raise DeadlineExceededError(
                f"{what} deadline expired {overdue:.3f}s ago"
            )

    def clamp(self, timeout: float) -> float:
        """``timeout`` bounded by the time remaining (floored at 0)."""
        return max(0.0, min(float(timeout), self.remaining))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(remaining={self.remaining:.3f}s)"


class RetryPolicy:
    """Jittered exponential backoff with a bounded attempt budget.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (1 = no retries).
    base_delay:
        Backoff before the first retry, in seconds.
    multiplier:
        Exponential growth factor between retries.
    max_delay:
        Cap on any single backoff sleep.
    jitter:
        Fraction in [0, 1] by which each delay is randomized:
        ``delay * (1 ± jitter)``, clamped non-negative. ``0`` disables
        jitter entirely.
    seed:
        Seed of the deterministic jitter stream (default: configured
        ``rng_seed``) — two policies with equal settings produce equal
        delay sequences.

    Examples
    --------
    >>> policy = RetryPolicy(max_attempts=3, base_delay=0.1, seed=7)
    >>> policy.delay(0) == RetryPolicy(max_attempts=3, base_delay=0.1, seed=7).delay(0)
    True
    """

    __slots__ = (
        "max_attempts",
        "base_delay",
        "multiplier",
        "max_delay",
        "jitter",
        "seed",
    )

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 5.0,
        jitter: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        if int(max_attempts) < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
        if float(base_delay) < 0:
            raise ConfigurationError(f"base_delay must be >= 0, got {base_delay}")
        if float(multiplier) < 1.0:
            raise ConfigurationError(f"multiplier must be >= 1, got {multiplier}")
        if float(max_delay) < 0:
            raise ConfigurationError(f"max_delay must be >= 0, got {max_delay}")
        if not (0.0 <= float(jitter) <= 1.0):
            raise ConfigurationError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = get_config().rng_seed if seed is None else int(seed)

    # -------------------------------------------------------------- queries
    def allows(self, attempt: int) -> bool:
        """Whether 0-based ``attempt`` is within budget (attempt 0 always is)."""
        return int(attempt) < self.max_attempts

    def delay(self, attempt: int) -> float:
        """Backoff before the retry that follows 0-based ``attempt``.

        Deterministic: the jitter factor is drawn from a generator
        seeded by ``(seed, attempt)``, so a given policy configuration
        yields one fixed delay sequence.
        """
        raw = min(self.max_delay, self.base_delay * self.multiplier ** int(attempt))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        u = random.Random(self.seed * 1_000_003 + int(attempt)).random()
        return max(0.0, raw * (1.0 + self.jitter * (2.0 * u - 1.0)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, jitter={self.jitter}, "
            f"seed={self.seed})"
        )
