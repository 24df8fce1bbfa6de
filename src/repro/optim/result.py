"""Result containers for the derivative-free optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

__all__ = ["HistoryEntry", "OptimizeResult"]


class HistoryEntry(NamedTuple):
    """One iteration of the optimizer's trajectory.

    Attributes
    ----------
    iteration:
        1-based simplex iteration number.
    theta:
        Best parameter vector at the start of the iteration (a copy).
    fun:
        Objective value at ``theta``.
    """

    iteration: int
    theta: np.ndarray
    fun: float


@dataclass
class OptimizeResult:
    """Outcome of a derivative-free minimization.

    Attributes
    ----------
    x:
        Best parameter vector found.
    fun:
        Objective value at ``x``.
    nfev:
        Number of objective evaluations.
    nit:
        Number of simplex iterations.
    converged:
        True when a tolerance criterion (not the iteration cap) stopped
        the search.
    message:
        Human-readable termination reason.
    history:
        Per-iteration trajectory — :class:`HistoryEntry` records of
        ``(iteration, theta, fun)`` for the best vertex after each
        simplex ordering. This is the optimizer's ``callback`` stream
        materialized on the result, so fit-progress reporting (the
        fitting service's per-iteration log-likelihood trace) needs no
        side channel.
    elapsed:
        Wall-clock seconds the search took, resumed processes included
        (stamped by :meth:`~repro.mle.estimator.MLEstimator.run_leg`;
        ``nelder_mead`` itself keeps no clock and leaves it at 0).
    """

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    converged: bool
    message: str
    history: List[HistoryEntry] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def history_fun(self) -> List[float]:
        """Best objective value after each iteration (convergence curve)."""
        return [entry.fun for entry in self.history]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizeResult(fun={self.fun:.6g}, nfev={self.nfev}, nit={self.nit}, "
            f"converged={self.converged}, x={np.array2string(self.x, precision=5)})"
        )
