"""TLR Cholesky factorization (paper §V; HiCMA's core operation).

Left-looking lower Cholesky into a :class:`TLRMatrix`. Each tile comes
from a dense *source* (a covariance generator, or ``U V`` of an already
compressed matrix) and is updated while still dense:

    DIAG(k)        D_kk = src(k, k) - sum_{l<k} U_kl (V_kl V_kl^T) U_kl^T; POTRF
    OFFDIAG(i, k)  A_ik = src(i, k) - sum_{l<k} U_il ((V_il V_kl^T) U_kl^T),
                   ascending l; compress once; TRSM of its V

so every off-diagonal tile is compressed exactly once, where a
right-looking sweep rounds each of its ``O(nt^3)`` low-rank updates with
a QR+SVD. The dense tile of a task is transient: the stored footprint is
the TLR one.

The graph is ``nt`` DIAG tasks plus, per column ``k``,
``ceil((nt - k - 1) / compression_batch)`` OFFDIAG tasks over runs of
consecutive rows. Handles only order the tasks (each declares every tile
it reads); codelets go through the matrix. A tile's arithmetic depends
only on its inputs, so ``runtime=None``, any worker count and any batch
give a bit-identical factor. Priorities favour earlier columns and, in a
column, DIAG and then the task holding row ``k + 1``, which ``DIAG(k+1)``
waits for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import get_config
from ..exceptions import ConfigurationError, NotPositiveDefiniteError
from ..runtime import AccessMode, Runtime
from .compression import compress
from .tile_matrix import TileSource
from .tile_ops import potrf_codelet
from .tlr_matrix import TLRMatrix
from .tlr_ops import tlr_syrk_codelet, tlr_trsm_codelet, tlr_update_codelet

__all__ = ["tlr_cholesky", "tlr_cholesky_from_source", "logdet_from_tlr_factor"]


def _diag_task(*_payloads: object, a: TLRMatrix, k: int, source: TileSource) -> None:
    """DIAG(k): source, update from the factor tiles of row ``k``, POTRF."""
    dkk = a.diag[k]
    src = source(k, k)
    if src is not dkk:
        dkk[...] = src
    for l in range(k):
        tlr_syrk_codelet(a.low[(k, l)], dkk)
    potrf_codelet(dkk)


def _offdiag_task(
    *_payloads: object,
    a: TLRMatrix,
    k: int,
    rows: range,
    source: TileSource,
    acc: float,
    method: str,
    rule: str,
    seed: Optional[int],
) -> None:
    """OFFDIAG(rows, k): per row, source, update, compress once, TRSM."""
    kwargs = {} if seed is None else {"seed": seed}
    lkk = a.diag[k]
    for i in rows:
        dense = source(i, k)
        for l in range(k):
            tlr_update_codelet(dense, a.low[(i, l)], a.low[(k, l)])
        lr = compress(dense, acc, method=method, rule=rule, **kwargs)
        tlr_trsm_codelet(lkk, lr)
        a.low[(i, k)].set_factors(lr.u, lr.v)


def tlr_cholesky_from_source(
    a: TLRMatrix,
    source: TileSource,
    acc: float,
    *,
    method: str,
    rule: str,
    runtime: Optional[Runtime] = None,
    compression_batch: Optional[int] = None,
) -> TLRMatrix:
    """Run the left-looking graph, writing the factor of ``source`` into ``a``.

    ``a`` supplies the grid and the storage (dense diagonal buffers,
    :class:`LowRank` blocks whose factors are replaced); off-diagonal
    tiles are compressed to ``acc``. ``method``/``rule`` must be
    pre-resolved: runtime workers do not read the thread-local config,
    so the ``rsvd`` seed and ``compression_batch`` are resolved here.
    ``compression_batch`` below 1 raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    nt, cfg = a.nt, get_config()
    batch = cfg.compression_batch if compression_batch is None else int(compression_batch)
    if batch < 1:
        raise ConfigurationError(f"compression_batch must be >= 1, got {compression_batch}")
    comp = {
        "acc": float(acc),
        "method": method,
        "rule": rule,
        "seed": cfg.rng_seed if method == "rsvd" else None,
    }
    if runtime is None:
        for k in range(nt):
            _diag_task(a=a, k=k, source=source)
            _offdiag_task(a=a, k=k, rows=range(k + 1, nt), source=source, **comp)
        return a
    dh = [runtime.register(a.diag[k], name=f"D[{k}]") for k in range(nt)]
    lh = {key: runtime.register(lr, name=f"L[{key[0]},{key[1]}]") for key, lr in a.low.items()}
    R, RW = AccessMode.READ, AccessMode.READWRITE
    for k in range(nt):
        base = nt - k
        runtime.insert_task(
            _diag_task,
            [(dh[k], RW)] + [(lh[(k, l)], R) for l in range(k)],
            kwargs={"a": a, "k": k, "source": source},
            name=("diag", k),
            priority=3 * base,
        )
        for start in range(k + 1, nt, batch):
            rows = range(start, min(start + batch, nt))
            runtime.insert_task(
                _offdiag_task,
                [(lh[(i, k)], RW) for i in rows]
                + [(dh[k], R)]
                + [(lh[(k, l)], R) for l in range(k)]
                + [(lh[(i, l)], R) for i in rows for l in range(k)],
                kwargs={"a": a, "k": k, "rows": rows, "source": source, **comp},
                name=("offdiag", start, k),
                priority=2 * base if start == k + 1 else base,
            )
    runtime.wait_all()
    return a


def tlr_cholesky(
    a: TLRMatrix,
    acc: Optional[float] = None,
    *,
    rule: Optional[str] = None,
    runtime: Optional[Runtime] = None,
) -> TLRMatrix:
    """Factor a symmetric TLR matrix in place: ``A = L L^T`` in TLR form.

    Runs the left-looking graph on ``a``'s own tiles (``U V`` of each
    off-diagonal tile), each factor tile compressed once with the
    configured compressor.

    Parameters
    ----------
    a:
        SPD matrix in TLR format; overwritten with the factor (dense
        lower-triangular diagonal tiles, low-rank off-diagonal tiles).
    acc:
        Compression accuracy of the factor tiles; defaults to the
        matrix's construction accuracy ``a.acc`` (the paper uses one
        threshold end to end).
    rule:
        Truncation rule override (``"relative"`` / ``"absolute"``).
    runtime:
        Optional task runtime for parallel execution.

    Returns
    -------
    The same object, now holding the TLR Cholesky factor.
    """
    cfg = get_config()
    return tlr_cholesky_from_source(
        a,
        lambda i, j: a.diag[i] if i == j else a.low[(i, j)].to_dense(),
        a.acc if acc is None else acc,
        method=cfg.compression_method,
        rule=rule or cfg.truncation,
        runtime=runtime,
    )


def logdet_from_tlr_factor(factor: TLRMatrix) -> float:
    """``log |A|`` from a TLR Cholesky factor's dense diagonal tiles.

    Raises
    ------
    NotPositiveDefiniteError
        If any diagonal entry of the factor is not strictly positive —
        taking ``log`` would otherwise silently propagate NaN into the
        log-likelihood instead of triggering the evaluator's penalty
        path.
    """
    total = 0.0
    for k in range(factor.nt):
        diag = np.diagonal(factor.diag[k])
        if not np.all(diag > 0.0):
            raise NotPositiveDefiniteError(
                f"TLR Cholesky factor has a non-positive diagonal in tile ({k},{k})"
            )
        total += float(np.sum(np.log(diag)))
    return 2.0 * total
