"""Bound-constrained Nelder-Mead simplex minimization (from scratch).

Implements the standard Nelder-Mead method (reflection, expansion,
outside/inside contraction, shrink) with the adaptive coefficients of
Gao & Han (2012) for dimension-robustness, plus NLopt-style box
constraints: every trial vertex is clamped to the bounds before
evaluation. Termination follows the usual twin criteria on the simplex's
function-value spread (``ftol``) and geometric diameter (``xtol``).

The optimizer's entire iteration state is the simplex, its function
values, and a pair of counters. :class:`SimplexState` packages exactly
that, and ``nelder_mead`` can both emit one per iteration
(``state_callback``) and start from one (``state``) — resuming from any
snapshot replays the remaining iterations bit-identically, which is what
lets the fitting service checkpoint a long MLE fit and survive a kill
(see :mod:`repro.fitting.checkpoint`).

This module runs *one* search from *one* start.
:func:`multistart_points` draws the deterministic start list of a
multistart fit; running a leg per start and keeping the best is
:class:`~repro.mle.estimator.MLEstimator`'s ``run_leg`` / ``merge_legs``,
the only caller of :func:`nelder_mead` outside this package — in a loop
for an in-process fit, one process per leg for a fit job.

The MLE drivers *maximize* the log-likelihood by minimizing its negation;
this module is a pure minimizer and knows nothing about likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import OptimizationError
from ..utils.rng import SeedLike, as_generator
from ..utils.validation import as_float_array
from .bounds import clip_to_bounds, validate_bounds
from .result import HistoryEntry, OptimizeResult

__all__ = [
    "SimplexState",
    "nelder_mead",
    "multistart_points",
]


@dataclass
class SimplexState:
    """The complete iteration state of one Nelder-Mead run.

    A snapshot taken after iteration ``iteration`` completed; feeding it
    back through ``nelder_mead(..., state=...)`` continues the run as if
    it had never stopped — same iterates, same evaluation count, same
    final vertex, bit for bit (the algorithm is deterministic given the
    simplex and the objective).

    Attributes
    ----------
    simplex:
        ``(n + 1, n)`` vertex matrix after the iteration's update.
    fvals:
        ``(n + 1,)`` objective values of the vertices.
    iteration:
        Number of completed iterations.
    nfev:
        Objective evaluations spent so far.
    history:
        Trajectory entries accumulated so far (one per iteration).
    elapsed:
        Wall-clock seconds the run had consumed at the snapshot, over
        every process that worked on it. The optimizer keeps no clock;
        its driver (:meth:`~repro.mle.estimator.MLEstimator.run_leg`)
        stamps the snapshots so a resumed run reports its whole time.
    """

    simplex: np.ndarray
    fvals: np.ndarray
    iteration: int
    nfev: int
    history: List[HistoryEntry]
    elapsed: float = 0.0

    def validate(self, n: int) -> "SimplexState":
        """Check the state describes an ``n``-dimensional simplex."""
        simplex = np.asarray(self.simplex, dtype=np.float64)
        fvals = np.asarray(self.fvals, dtype=np.float64)
        if simplex.shape != (n + 1, n):
            raise OptimizationError(
                f"resume state simplex has shape {simplex.shape}, expected {(n + 1, n)}"
            )
        if fvals.shape != (n + 1,):
            raise OptimizationError(
                f"resume state fvals has shape {fvals.shape}, expected {(n + 1,)}"
            )
        if self.iteration < 0 or self.nfev < 0:
            raise OptimizationError(
                f"resume state counters must be >= 0, got iteration={self.iteration} "
                f"nfev={self.nfev}"
            )
        return self


def _initial_simplex(
    x0: np.ndarray, lower: np.ndarray, upper: np.ndarray, scale: float
) -> np.ndarray:
    """Axis-aligned initial simplex around ``x0``, kept inside the box.

    Each extra vertex perturbs one coordinate by ``scale`` times the box
    width in that coordinate, flipping direction when the step would
    leave the box.
    """
    n = x0.size
    simplex = np.repeat(x0[None, :], n + 1, axis=0)
    widths = upper - lower
    for i in range(n):
        step = scale * widths[i]
        candidate = x0[i] + step
        if candidate > upper[i]:
            candidate = x0[i] - step
        simplex[i + 1, i] = candidate
    return clip_to_bounds(simplex, lower, upper)


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0: Optional[Sequence[float]],
    lower: Sequence[float],
    upper: Sequence[float],
    *,
    ftol: float = 1e-7,
    xtol: float = 1e-7,
    maxiter: int = 500,
    initial_scale: float = 0.10,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
    state: Optional[SimplexState] = None,
    state_callback: Optional[Callable[[SimplexState], None]] = None,
) -> OptimizeResult:
    """Minimize ``fn`` over a box with the Nelder-Mead simplex method.

    Parameters
    ----------
    fn:
        Objective; called with a 1-D parameter vector inside the box.
        May return ``+inf`` (e.g. penalty for a failed factorization).
    x0:
        Starting point (clamped into the box). May be ``None`` when
        resuming from ``state`` — the simplex is the whole start.
    lower, upper:
        Box constraints (elementwise, strict ``lower < upper``).
    ftol:
        Objective-spread tolerance: the simplex's best-worst spread must
        fall below ``ftol * (|f_best| + ftol)``.
    xtol:
        Diameter tolerance: the simplex diameter (relative to box width)
        must fall below ``xtol``. Termination requires **both** the
        ftol and xtol criteria (scipy semantics; either alone fires
        spuriously on symmetric or plateaued objectives).
    maxiter:
        Iteration cap (one reflection cycle per iteration; resuming
        counts the checkpointed iterations against the same cap).
    initial_scale:
        Initial simplex size as a fraction of the box width per axis.
    callback:
        Called as ``callback(iteration, best_x, best_f)`` once per
        iteration — the hook the MLE driver uses to log per-iteration
        timings (the quantity Figures 3-4 report). On resume it fires
        for the *remaining* iterations only, so appended logs carry no
        duplicates.
    state:
        Resume from this :class:`SimplexState` instead of building an
        initial simplex around ``x0``. The continuation is bit-identical
        to the uninterrupted run.
    state_callback:
        Called with a fresh :class:`SimplexState` snapshot after every
        iteration's simplex update — the checkpoint stream. Snapshots
        own their arrays (safe to persist or keep).

    Returns
    -------
    :class:`OptimizeResult`
    """
    lo, hi = validate_bounds(lower, upper)
    if state is None:
        if x0 is None:
            raise OptimizationError("x0 is required when no resume state is given")
        x0 = clip_to_bounds(as_float_array(x0, "x0"), lo, hi)
        n = x0.size
    else:
        n = lo.size
    if n == 0:
        raise OptimizationError("cannot optimize a zero-dimensional parameter vector")
    if maxiter < 1:
        raise OptimizationError(f"maxiter must be >= 1, got {maxiter}")

    # Gao-Han adaptive coefficients.
    alpha = 1.0
    beta = 1.0 + 2.0 / n
    gamma = 0.75 - 1.0 / (2.0 * n)
    delta = 1.0 - 1.0 / n

    nfev = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        val = float(fn(x))
        if np.isnan(val):
            # NaN poisons simplex ordering; treat as "worse than anything".
            return np.inf
        return val

    if state is None:
        simplex = _initial_simplex(x0, lo, hi, initial_scale)
        fvals = np.array([evaluate(v) for v in simplex])
        history: List[HistoryEntry] = []
        first_iteration = 1
    else:
        state.validate(n)
        simplex = np.array(state.simplex, dtype=np.float64, copy=True)
        fvals = np.array(state.fvals, dtype=np.float64, copy=True)
        history = list(state.history)
        nfev = int(state.nfev)
        first_iteration = int(state.iteration) + 1

    widths = hi - lo
    converged = False
    message = "maximum number of iterations reached"
    it = first_iteration - 1
    for it in range(first_iteration, maxiter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        best, worst = fvals[0], fvals[-1]
        best_x = simplex[0].copy()
        history.append(HistoryEntry(it, best_x, float(best)))
        if callback is not None:
            callback(it, best_x, float(best))

        # Termination: require BOTH criteria (as scipy does) — the
        # f-spread alone fires spuriously when distinct vertices share an
        # objective value (symmetric objectives), and the diameter alone
        # can linger on flat plateaus.
        f_spread = worst - best
        f_ok = np.isfinite(best) and f_spread <= ftol * (abs(best) + ftol)
        diam = float(np.max(np.abs(simplex[1:] - simplex[0]) / widths))
        if f_ok and diam <= xtol:
            converged = True
            message = "simplex spread below ftol and diameter below xtol"
            break

        centroid = simplex[:-1].mean(axis=0)
        xr = clip_to_bounds(centroid + alpha * (centroid - simplex[-1]), lo, hi)
        fr = evaluate(xr)
        if fr < fvals[0]:
            # Try expanding further along the reflection direction.
            xe = clip_to_bounds(centroid + beta * (xr - centroid), lo, hi)
            fe = evaluate(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                # Outside contraction.
                xc = clip_to_bounds(centroid + gamma * (xr - centroid), lo, hi)
                fc = evaluate(xc)
                accept = fc <= fr
            else:
                # Inside contraction.
                xc = clip_to_bounds(centroid - gamma * (centroid - simplex[-1]), lo, hi)
                fc = evaluate(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                # Shrink toward the best vertex.
                for i in range(1, n + 1):
                    simplex[i] = clip_to_bounds(
                        simplex[0] + delta * (simplex[i] - simplex[0]), lo, hi
                    )
                    fvals[i] = evaluate(simplex[i])

        if state_callback is not None:
            state_callback(
                SimplexState(
                    simplex=simplex.copy(),
                    fvals=fvals.copy(),
                    iteration=it,
                    nfev=nfev,
                    history=list(history),
                )
            )

    order = np.argsort(fvals, kind="stable")
    simplex = simplex[order]
    fvals = fvals[order]
    return OptimizeResult(
        x=simplex[0].copy(),
        fun=float(fvals[0]),
        nfev=nfev,
        nit=it,
        converged=converged,
        message=message,
        history=history,
    )


def multistart_points(
    lower: Sequence[float],
    upper: Sequence[float],
    *,
    n_starts: int = 3,
    x0: Optional[Sequence[float]] = None,
    seed: SeedLike = None,
) -> List[np.ndarray]:
    """The deterministic start list a multistart search runs from.

    The first start is ``x0`` (when given); the rest are drawn
    log-uniformly inside the box when all lower bounds are positive
    (which suits positive scale parameters like the Matérn theta), and
    uniformly otherwise. A pure function of ``(bounds, x0, seed)``, so
    every process that works on a fit regenerates the identical list
    and claims one index.
    """
    lo, hi = validate_bounds(lower, upper)
    rng = as_generator(seed)
    starts: List[np.ndarray] = []
    if x0 is not None:
        starts.append(clip_to_bounds(as_float_array(x0, "x0"), lo, hi))
    log_ok = bool(np.all(lo > 0.0))
    while len(starts) < max(1, n_starts):
        u = rng.random(lo.size)
        if log_ok:
            starts.append(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))
        else:
            starts.append(lo + u * (hi - lo))
    return starts
