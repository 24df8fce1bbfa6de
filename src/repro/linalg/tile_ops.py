"""Dense column-panel codelets: PANEL (POTRF + TRSM) and UPDATE (paper §V).

The two kernels of the column-panel tile Cholesky, plain functions over
the C-contiguous column arrays of a
:class:`~repro.linalg.tile_matrix.TileMatrix`, mutating their output
column in place — called directly by the serial loop or inserted as
runtime tasks (the runtime passes the column payloads positionally).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrsm

from ..exceptions import NotPositiveDefiniteError

__all__ = ["potrf_codelet", "panel_codelet", "update_codelet"]


def potrf_codelet(dkk: np.ndarray) -> None:
    """In-place lower Cholesky of a diagonal tile: ``dkk <- chol(dkk)``.

    The strict upper triangle is zeroed so the stored factor is exactly
    lower-triangular (simplifies ``to_dense`` and debugging).
    """
    try:
        factor = sla.cholesky(dkk, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"diagonal tile not positive definite: {exc}") from exc
    dkk[:] = np.tril(factor)


def panel_codelet(pk: np.ndarray) -> None:
    """Factor column ``k`` in place: POTRF of its diagonal tile, then one
    TRSM over the whole sub-diagonal panel, ``pk[nb:] <- pk[nb:] @ inv(lkk).T``.
    """
    nb = pk.shape[1]
    lkk = pk[:nb]
    potrf_codelet(lkk)
    if pk.shape[0] > nb:
        # Solve lkk @ X^T = pk[nb:]^T. The transposes of C-contiguous
        # arrays are Fortran-contiguous, so BLAS gets them without a copy
        # and ``overwrite_b`` lands in the caller's storage.
        dtrsm(1.0, lkk.T, pk[nb:].T, side=0, lower=0, trans_a=1, overwrite_b=1)


def update_codelet(pk: np.ndarray, pj: np.ndarray, off: int) -> None:
    """Apply factored column ``k`` to column ``j``: ``pj -= pk[off:] @ ljk.T``.

    ``off`` is the row of ``pk`` where column ``j``'s rows start, so
    ``ljk = pk[off : off + nb_j]`` is tile ``(j, k)``. One stacked GEMM
    covers the SYRK on the diagonal tile of column ``j`` and every GEMM
    below it; ``numpy.matmul`` releases the GIL around it (the f2py BLAS
    wrappers do not), which is what lets two updates overlap.
    """
    rows = pk[off:]
    pj -= rows @ rows[: pj.shape[1]].T
