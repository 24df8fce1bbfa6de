"""Dense column-panel codelets: PANEL (POTRF + TRSM) and UPDATE (paper §V).

The two kernels of the column-panel tile Cholesky, plain functions over
the C-contiguous column arrays of a
:class:`~repro.linalg.tile_matrix.TileMatrix`, mutating their output
column in place — called directly by the serial loop or inserted as
runtime tasks (the runtime passes the column payloads positionally).
Every BLAS/LAPACK call goes through :mod:`~repro.linalg.nogil_lapack`,
which releases the GIL, so two workers' kernels overlap.
"""

from __future__ import annotations

import numpy as np

from . import nogil_lapack

__all__ = ["potrf_codelet", "panel_codelet", "update_codelet"]


def potrf_codelet(dkk: np.ndarray) -> None:
    """In-place lower Cholesky of a diagonal tile: ``dkk <- chol(dkk)``.

    Reads only the lower triangle. The strict upper triangle is zeroed
    so the stored factor is exactly lower-triangular (simplifies
    ``to_dense`` and debugging). The DIAG task of the TLR Cholesky calls
    it too.

    Raises
    ------
    NotPositiveDefiniteError
        If the tile is not positive definite.
    """
    nogil_lapack.potrf(dkk)
    np.copyto(dkk, 0.0, where=~np.tri(dkk.shape[0], dtype=bool))


def panel_codelet(pk: np.ndarray) -> None:
    """Factor column ``k`` in place: POTRF of its diagonal tile, then one
    TRSM over the whole sub-diagonal panel, ``pk[nb:] <- pk[nb:] @ inv(lkk).T``.
    """
    nb = pk.shape[1]
    lkk = pk[:nb]
    potrf_codelet(lkk)
    if pk.shape[0] > nb:
        nogil_lapack.trsm(lkk, pk[nb:])


def update_codelet(pk: np.ndarray, pj: np.ndarray, off: int) -> None:
    """Apply factored column ``k`` to column ``j``: ``pj -= pk[off:] @ ljk.T``.

    ``off`` is the row of ``pk`` where column ``j``'s rows start, so
    ``ljk = pk[off : off + nb_j]`` is tile ``(j, k)``. One in-place
    ``dgemm`` (``alpha = -1, beta = 1``) covers the SYRK on the diagonal
    tile of column ``j`` and every GEMM below it, with no temporary and
    without the GIL.
    """
    rows = pk[off:]
    nogil_lapack.gemm(rows, rows[: pj.shape[1]], pj)
