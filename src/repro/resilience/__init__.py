"""Resilience primitives: fault injection, client backoff, deadlines, breakers.

Long-running MLE and kriging services meet partial failure long before
they meet FLOP limits: torn bundle writes, killed workers, stragglers,
overload. This package holds the pieces the serving and fitting code
handles failure with:

* :mod:`~repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` with named injection sites threaded through
  serving, fitting, and the runtime; a no-op when unarmed.
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` (the serving
  client's jittered exponential backoff) and :class:`Deadline`
  (absolute, propagated from the HTTP edge down to the engine).
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`
  (closed/open/half-open, per model and per worker).
"""

from .breaker import CircuitBreaker
from .faults import (
    PLAN_ENV,
    SITES,
    FaultPlan,
    FaultRule,
    active_plan,
    arm,
    disarm,
    fault_point,
)
from .policy import Deadline, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultRule",
    "arm",
    "disarm",
    "active_plan",
    "fault_point",
    "SITES",
    "PLAN_ENV",
    "RetryPolicy",
    "Deadline",
    "CircuitBreaker",
]
