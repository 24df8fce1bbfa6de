"""Triangular solves against a dense tile Cholesky factor.

Forward/backward block substitution by column panel. The right-hand side
is one contiguous copy; solving block ``j`` is one small TRSM, and its
effect on everything below is one stacked product with the sub-diagonal
panel of column ``j`` (``b[j+1:] -= P_j[nb:] @ x_j``; the transposed
solve gathers with ``P_j[nb:].T`` instead) — ``nt`` GEMV/GEMM calls per
sweep rather than one per tile. This is the structure the paper's
prediction operation (eq. (4)) executes after factorizing ``Sigma_22``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..exceptions import ShapeError
from .tile_matrix import TileMatrix

__all__ = ["tile_solve_triangular", "tile_cholesky_solve"]


def tile_solve_triangular(
    factor: TileMatrix, b: np.ndarray, *, trans: bool = False
) -> np.ndarray:
    """Solve ``L x = b`` (or ``L^T x = b`` with ``trans=True``).

    Parameters
    ----------
    factor:
        Lower tile Cholesky factor (``symmetric_lower`` layout holds the
        lower triangle; its strictly-upper mirror is *not* part of L).
    b:
        ``(n,)`` or ``(n, m)`` right-hand side (not modified).

    Returns
    -------
    Solution with the same shape as ``b``.
    """
    g = factor.grid
    if b.shape[0] != g.n:
        raise ShapeError(f"rhs leading dimension {b.shape[0]} != {g.n}")
    x = np.array(b, dtype=np.float64, copy=True)
    order = range(g.nt - 1, -1, -1) if trans else range(g.nt)
    for j in order:
        panel = factor.panel(j)
        nb = panel.shape[1]
        xj, below = x[g.tile_slice(j)], x[g.offset(j) + nb :]
        if trans:
            # Block row j of L^T is [L_jj^T, P_j[nb:]^T].
            xj -= panel[nb:].T @ below
        xj[...] = sla.solve_triangular(
            panel[:nb], xj, lower=True, trans="T" if trans else "N", check_finite=False
        )
        if not trans:
            below -= panel[nb:] @ xj
    return x


def tile_cholesky_solve(factor: TileMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the tile factor (forward then backward)."""
    y = tile_solve_triangular(factor, b, trans=False)
    return tile_solve_triangular(factor, y, trans=True)
