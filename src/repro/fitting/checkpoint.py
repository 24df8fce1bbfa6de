"""Durable Nelder-Mead checkpoints: crash-safe persistence of fit state.

A long MLE fit is a long sequence of expensive likelihood evaluations
wrapped around a tiny optimizer state — the simplex, its objective
values, and two counters (:class:`~repro.optim.neldermead.SimplexState`).
Persisting that state after an iteration makes the whole fit resumable:
feed the snapshot back through ``nelder_mead(..., state=...)`` and the
continuation is bit-identical to a run that was never interrupted (the
algorithm is deterministic given the simplex and the objective; the
parity is property-tested in ``tests/fitting/test_checkpoint.py``).

Writes are atomic (temp file + ``os.replace``), so a process killed
mid-write leaves the *previous* checkpoint intact instead of a torn
file — the invariant the orchestrator's auto-restart relies on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..exceptions import CheckpointError
from ..optim.neldermead import SimplexState
from ..optim.result import HistoryEntry
from ..utils.durable import atomic_write

__all__ = ["save_state", "load_state", "Checkpointer"]

#: Format marker inside the ``.npz``; bumped on breaking layout changes.
CHECKPOINT_VERSION = 1


def save_state(path: Union[str, Path], state: SimplexState) -> Path:
    """Atomically persist a :class:`SimplexState` snapshot at ``path``.

    The snapshot lands as a single ``.npz`` holding the simplex, the
    objective values, the counters, the seconds spent, and the flattened
    history trajectory. ``os.replace`` makes the swap atomic on POSIX, so
    readers only ever observe a complete checkpoint.
    """
    path = Path(path)
    n = state.simplex.shape[1] if state.simplex.ndim == 2 else 0
    hist_iters = np.array([e.iteration for e in state.history], dtype=np.int64)
    hist_funs = np.array([e.fun for e in state.history], dtype=np.float64)
    if state.history:
        hist_thetas = np.stack([np.asarray(e.theta, dtype=np.float64) for e in state.history])
    else:
        hist_thetas = np.zeros((0, n), dtype=np.float64)
    with atomic_write(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(CHECKPOINT_VERSION),
            simplex=np.asarray(state.simplex, dtype=np.float64),
            fvals=np.asarray(state.fvals, dtype=np.float64),
            iteration=np.int64(state.iteration),
            nfev=np.int64(state.nfev),
            elapsed=np.float64(state.elapsed),
            hist_iters=hist_iters,
            hist_funs=hist_funs,
            hist_thetas=hist_thetas,
        )
    return path


def load_state(path: Union[str, Path]) -> Optional[SimplexState]:
    """Read a checkpoint written by :func:`save_state`.

    Returns ``None`` when no checkpoint exists yet (a fresh fit).

    Raises
    ------
    CheckpointError
        The file exists but is truncated, not a checkpoint, or from an
        unsupported version — the caller decides whether to restart
        from scratch or surface the corruption.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with np.load(path) as npz:
            version = int(npz["version"])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {version} unsupported "
                    f"(this build reads version {CHECKPOINT_VERSION})"
                )
            simplex = np.asarray(npz["simplex"], dtype=np.float64)
            fvals = np.asarray(npz["fvals"], dtype=np.float64)
            iteration = int(npz["iteration"])
            nfev = int(npz["nfev"])
            # Absent from checkpoints written before legs carried their clock.
            elapsed = float(npz["elapsed"]) if "elapsed" in npz else 0.0
            hist_iters = npz["hist_iters"]
            hist_funs = npz["hist_funs"]
            hist_thetas = npz["hist_thetas"]
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile/KeyError/ValueError → one typed error
        raise CheckpointError(f"checkpoint at {path} is unreadable: {exc}") from exc
    if len(hist_iters) != len(hist_funs) or len(hist_iters) != len(hist_thetas):
        raise CheckpointError(f"checkpoint at {path} has inconsistent history arrays")
    history = [
        HistoryEntry(int(it), np.asarray(theta, dtype=np.float64), float(fun))
        for it, theta, fun in zip(hist_iters, hist_thetas, hist_funs)
    ]
    return SimplexState(
        simplex=simplex,
        fvals=fvals,
        iteration=iteration,
        nfev=nfev,
        history=history,
        elapsed=elapsed,
    )


class Checkpointer:
    """``state_callback`` adapter that persists every ``every``-th state.

    Wire an instance into ``nelder_mead(..., state_callback=ckpt)`` and
    the fit leaves a resumable trail at ``path`` with bounded I/O
    overhead. The final state before a normal return is *not* special —
    a resume from the last written checkpoint replays at most
    ``every - 1`` iterations.
    """

    def __init__(self, path: Union[str, Path], *, every: int = 1) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.n_saved = 0
        self.last_iteration: Optional[int] = None

    def __call__(self, state: SimplexState) -> None:
        if state.iteration % self.every == 0:
            save_state(self.path, state)
            self.n_saved += 1
            self.last_iteration = state.iteration

    def load(self) -> Optional[SimplexState]:
        """The last persisted state, or ``None`` for a fresh fit."""
        return load_state(self.path)
