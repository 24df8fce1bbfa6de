"""The per-stage time accumulator of the MLE evaluators.

The paper reports the time of *one iteration* of the MLE optimization,
broken down implicitly into covariance generation, factorization, solve,
and log-determinant stages. :class:`StageTimes` accumulates named stage
durations so evaluators can report the same decomposition.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator

from ..telemetry import spans as _telemetry

__all__ = ["StageTimes"]


@dataclass
class StageTimes:
    """Named cumulative stage timings (seconds).

    Used by likelihood evaluators to report generation / factorization /
    solve / logdet breakdowns per iteration.
    """

    stages: Dict[str, float] = field(default_factory=dict)

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager accumulating wall time into stage ``name``.

        Doubles as a telemetry hook: every stage also records a
        ``stage:<name>`` span when telemetry is armed, so the
        generation / factorization / solve decomposition shows up
        nested inside whatever request or fit span is active — no
        second instrumentation pass over the evaluators.
        """
        t0 = time.perf_counter()
        try:
            with _telemetry.span(f"stage:{name}"):
                yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0
