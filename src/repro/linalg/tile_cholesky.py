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

:func:`tile_cholesky_from_source` puts one more task per column ahead of
that graph, ``GEN(P_j)``, which writes column ``j`` with one
:meth:`~repro.linalg.tile_matrix.TileSource.fill` of the whole panel, in
its own storage. Each column's first
factorization task depends on its own ``GEN`` task only, so early panels
are factored while late columns are still being generated — generation
as tasks on the runtime that factors, with no barrier between the two
(ExaGeoStat's sequential-task-flow).

Priorities keep the look-ahead path short. ``GEN`` outranks everything
and decreases with the column, the order the panels consume them.
Earlier steps outrank later ones; within a step ``PANEL(k)`` comes
first, then ``UPDATE(k+1, k)`` — the only update ``PANEL(k+1)`` waits
for — so the next panel is factored while the rest of the trailing
matrix is still being updated.

``runtime=None`` runs the same tasks as they are inserted (every ``GEN``,
then the column loop); otherwise the graph goes through the
:class:`~repro.runtime.Runtime`, which is how ExaGeoStat drives Chameleon
through StarPU.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import NotPositiveDefiniteError, ShapeError
from ..runtime import AccessMode, Runtime
from .tile_matrix import TileMatrix, TileSource
from .tile_ops import panel_codelet, update_codelet

__all__ = ["tile_cholesky", "tile_cholesky_from_source", "logdet_from_tile_factor"]


def tile_cholesky(a: TileMatrix, runtime: Optional[Runtime] = None) -> TileMatrix:
    """Factor a lower-symmetric tile matrix in place: ``A = L L^T``.

    Parameters
    ----------
    a:
        SPD matrix as a ``symmetric_lower`` :class:`TileMatrix`. Mutated
        into its lower tile Cholesky factor.
    runtime:
        Optional task runtime; serial loop when omitted.

    Returns
    -------
    The same object, now holding the factor.
    """
    return _factor(a, None, runtime)


def tile_cholesky_from_source(
    a: TileMatrix, source: TileSource, *, runtime: Optional[Runtime] = None
) -> TileMatrix:
    """Generate ``a`` from ``source`` and factor it, in one graph.

    ``a`` supplies the grid and the storage (its contents are
    overwritten); ``source`` fills each column panel once, from a ``GEN``
    task per column. The factor is bit-identical to filling ``a`` first
    and calling :func:`tile_cholesky`, for any runtime.
    """
    return _factor(a, source, runtime)


def _factor(
    a: TileMatrix, source: Optional[TileSource], runtime: Optional[Runtime]
) -> TileMatrix:
    """The graph of both entry points: ``GEN`` tasks when there is a
    ``source``, then PANEL/UPDATE."""
    if not a.symmetric_lower:
        raise ShapeError("tile_cholesky expects a symmetric_lower TileMatrix")
    nt, nb = a.nt, a.grid.nb
    if runtime is None:
        columns = [a.panel(j) for j in range(nt)]

        def insert(fn, accesses, *, args=(), **_):
            fn(*(payload for payload, _ in accesses), *args)

    else:
        columns = [runtime.register(a.panel(j)) for j in range(nt)]
        insert = runtime.insert_task
    R, RW = AccessMode.READ, AccessMode.READWRITE
    if source is not None:
        for j in range(nt):
            insert(
                # The column payload only orders the task; the write goes
                # through ``a``.
                lambda _column, j=j: a.fill_column(j, source),
                [(columns[j], RW)],
                name=("gen", j),
                priority=4 * (nt - j),
            )
    for k in range(nt):
        base = nt - k
        insert(panel_codelet, [(columns[k], RW)], name=("panel", k), priority=3 * base)
        for j in range(k + 1, nt):
            insert(
                update_codelet,
                [(columns[k], R), (columns[j], RW)],
                args=((j - k) * nb,),
                name=("update", j, k),
                priority=2 * base if j == k + 1 else base,
            )
    if runtime is not None:
        runtime.wait_all()
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
