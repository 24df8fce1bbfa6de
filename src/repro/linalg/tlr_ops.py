"""TLR codelets: the kernels of the left-looking TLR Cholesky (paper §V).

Each codelet mutates its output in place (a dense tile, or the ``V``
factor of a :class:`LowRank` block), so the same functions serve the
serial loop and the task runtime.

Kernel inventory (lower Cholesky, column ``k``, updates from columns
``l < k``):

* :func:`~repro.linalg.tile_ops.potrf_codelet` (shared with the dense
  PANEL) — dense POTRF on ``D_kk``;
* :func:`tlr_trsm_codelet` — ``A_ik <- A_ik L_kk^{-T}`` touches only the
  ``k x nb`` factor ``V_ik`` (this is where TLR wins its flops);
* :func:`tlr_syrk_codelet` — dense diagonal update
  ``D_kk -= U_kl (V_kl V_kl^T) U_kl^T`` via two skinny GEMMs;
* :func:`tlr_update_codelet` — dense off-diagonal update
  ``A_ik -= U_il ((V_il V_kl^T) U_kl^T)`` of a tile that is compressed
  only after its last update.

The POTRF and TRSM go through :mod:`~repro.linalg.nogil_lapack` and the
GEMMs through ``numpy.matmul``; both release the GIL.
"""

from __future__ import annotations

import numpy as np

from . import nogil_lapack
from .compression import LowRank

__all__ = [
    "tlr_trsm_codelet",
    "tlr_syrk_codelet",
    "tlr_update_codelet",
]


def tlr_trsm_codelet(lkk: np.ndarray, block: LowRank) -> None:
    """``block <- block @ inv(lkk).T`` applied to the V factor only, in place.

    With ``A_ik = U V``, the panel TRSM ``A_ik L_kk^{-T}`` equals
    ``U (V L_kk^{-T})``; cost ``O(k nb^2)`` instead of ``O(nb^3)``.
    """
    if block.rank == 0:
        return
    nogil_lapack.trsm(lkk, block.v)


def tlr_syrk_codelet(aik: LowRank, dii: np.ndarray) -> None:
    """Dense diagonal update ``dii -= aik @ aik.T`` from a low-rank panel.

    Factored as ``(U (V V^T)) U^T`` — two ``nb x k`` GEMMs plus a ``k x k``
    Gram matrix, ``O(k nb^2 + k^2 nb)`` flops.
    """
    if aik.rank == 0:
        return
    w = aik.v @ aik.v.T
    t = aik.u @ w
    dii -= t @ aik.u.T


def tlr_update_codelet(dense: np.ndarray, ail: LowRank, akl: LowRank) -> None:
    """Dense off-diagonal update ``dense -= ail @ akl.T`` from two factor tiles.

    Factored as ``U_il ((V_il V_kl^T) U_kl^T)``: a ``k_il x k_kl`` core,
    a ``k_il x nb`` product and one ``nb x nb`` GEMM of inner dimension
    ``k_il``. The sum stays exact, so the tile is rounded once, by the
    compression that follows its last update.
    """
    if ail.rank == 0 or akl.rank == 0:
        return
    dense -= ail.u @ ((ail.v @ akl.v.T) @ akl.u.T)
