"""Task-based dense tile Cholesky (the paper's **Full-tile** variant).

Column-panel factorization over a lower-symmetric :class:`TileMatrix`,
whose storage is one contiguous array ``P_j`` per tile column, diagonal
tile first (see :mod:`~repro.linalg.tile_matrix`):

    for k:  PANEL(P_k)         POTRF of the diagonal tile, then one TRSM
                               over the whole sub-diagonal panel
            UPDATE(P_k, P_j)   for j > k: one stacked GEMM
                               P_j -= P_k[off:] @ L_jk^T — the SYRK and
                               every GEMM of column j at once

The DAG has one data handle per column: ``PANEL(k)`` reads-writes column
``k``; ``UPDATE(j, k)`` reads column ``k`` and reads-writes column ``j``.
The updates of one step run concurrently while the updates of one column
stay in ``k`` order, so every schedule accumulates in the serial loop's
order and the factor is bit-identical for any worker count. That is
``nt + nt(nt-1)/2`` tasks, each a BLAS-3 call 1..nt tiles tall; a
per-tile graph (``O(nt^3/6)`` tasks of one ``nb x nb`` call each) spends
more time handing tasks over than in BLAS once ``nb`` is small.

Priorities keep the look-ahead path short. Earlier steps outrank later
ones; within a step ``PANEL(k)`` comes first, then ``UPDATE(k+1, k)`` —
the only update ``PANEL(k+1)`` waits for — so the next panel is factored
while the rest of the trailing matrix is still being updated.

``runtime=None`` runs the same two kernels in program order; otherwise
the graph goes through the :class:`~repro.runtime.Runtime`, which is how
ExaGeoStat drives Chameleon through StarPU.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import NotPositiveDefiniteError, ShapeError
from ..runtime import AccessMode, DataHandle, Runtime
from .tile_matrix import TileMatrix
from .tile_ops import panel_codelet, update_codelet

__all__ = ["tile_cholesky", "logdet_from_tile_factor"]


def tile_cholesky(
    a: TileMatrix,
    runtime: Optional[Runtime] = None,
    *,
    handles: Optional[Sequence[DataHandle]] = None,
) -> TileMatrix:
    """Factor a lower-symmetric tile matrix in place: ``A = L L^T``.

    Parameters
    ----------
    a:
        SPD matrix as a ``symmetric_lower`` :class:`TileMatrix`. Mutated
        into its lower tile Cholesky factor.
    runtime:
        Optional task runtime; serial loop when omitted.
    handles:
        Pre-registered per-column handles of ``a`` (requires ``runtime``),
        as returned by
        :func:`~repro.linalg.generation.insert_tile_generation_tasks`:
        each column's first factorization task then depends on that
        column's generation task rather than on a global barrier.

    Returns
    -------
    The same object, now holding the factor.
    """
    if not a.symmetric_lower:
        raise ShapeError("tile_cholesky expects a symmetric_lower TileMatrix")
    nt, nb = a.nt, a.grid.nb
    if runtime is None:
        if handles is not None:
            raise ShapeError("handles require a runtime")
        for k in range(nt):
            pk = a.panel(k)
            panel_codelet(pk)
            for j in range(k + 1, nt):
                update_codelet(pk, a.panel(j), (j - k) * nb)
        return a
    if handles is None:
        handles = [runtime.register(a.panel(j)) for j in range(nt)]
    R, RW = AccessMode.READ, AccessMode.READWRITE
    for k in range(nt):
        base = nt - k
        runtime.insert_task(
            panel_codelet, [(handles[k], RW)], name=("panel", k), priority=3 * base
        )
        for j in range(k + 1, nt):
            runtime.insert_task(
                update_codelet,
                [(handles[k], R), (handles[j], RW)],
                args=((j - k) * nb,),
                name=("update", j, k),
                priority=2 * base if j == k + 1 else base,
            )
    try:
        runtime.wait_all()
    finally:
        # Drop the completed task graph so long-lived runtimes (one per MLE
        # fit, many factorizations) do not accumulate bookkeeping.
        runtime.tracker.reset()
    return a


def logdet_from_tile_factor(factor: TileMatrix) -> float:
    """``log |A|`` from a tile Cholesky factor (sum over diagonal tiles).

    Raises
    ------
    NotPositiveDefiniteError
        If any diagonal entry of the factor is not strictly positive —
        taking ``log`` would otherwise silently turn the log-likelihood
        into NaN instead of triggering the evaluator's penalty path.
    """
    total = 0.0
    for k in range(factor.nt):
        diag = np.diagonal(factor.tile(k, k))
        if not np.all(diag > 0.0):
            raise NotPositiveDefiniteError(
                f"tile Cholesky factor has a non-positive diagonal in tile ({k},{k})"
            )
        total += float(np.sum(np.log(diag)))
    return 2.0 * total
