"""Low-rank tile compression (paper §V, Fig. 1).

Off-diagonal tiles of the covariance matrix are approximated as
``A_ij ~= U_ij @ V_ij`` where ``U`` is ``nb x k`` and ``V`` is ``k x nb``,
with the rank ``k`` chosen per tile so the truncation error respects a
user-defined accuracy threshold — low thresholds give small ranks
(memory-bound regime), high thresholds give large ranks (compute-bound),
exactly the trade-off the paper studies.

Three compressors, mirroring the options named in the paper:

* :func:`svd_compress` — deterministic truncated SVD (reference);
* :func:`rsvd_compress` — adaptive randomized SVD (Halko et al. style
  range finder with doubling rank until the threshold is met);
* :func:`aca_compress` — cross approximation with full pivoting on the
  explicit residual (robust; tiles are materialized anyway during
  generation), with Frobenius-norm stopping.

The TLR Cholesky compresses each factor tile once, after its last
update (:mod:`~repro.linalg.tlr_cholesky`), so no low-rank rounding of
sums is needed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from ..config import get_config
from ..exceptions import CompressionError, ShapeError
from ..utils.rng import SeedLike, as_generator

__all__ = [
    "LowRank",
    "svd_compress",
    "rsvd_compress",
    "aca_compress",
    "compress",
    "truncation_rank",
]


class LowRank:
    """A mutable low-rank block ``A ~= u @ v``.

    Attributes
    ----------
    u:
        ``(m, k)`` left factor (singular values absorbed here).
    v:
        ``(k, n)`` right factor.

    Mutability is deliberate: TLR codelets *replace* the factors (TRSM
    rewrites ``v``; the factorization's one compression rewrites both
    with a new rank) while the containing
    :class:`~repro.linalg.tlr_matrix.TLRMatrix` and runtime handles keep
    referring to the same object.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[0]:
            raise ShapeError(f"incompatible low-rank factors {u.shape} x {v.shape}")
        self.u = u
        self.v = v

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the represented dense block."""
        return (self.u.shape[0], self.v.shape[1])

    @property
    def rank(self) -> int:
        """Current rank ``k``."""
        return self.u.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes of the two factors."""
        return int(self.u.nbytes + self.v.nbytes)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense block ``u @ v``."""
        if self.rank == 0:
            return np.zeros(self.shape, dtype=np.float64)
        return self.u @ self.v

    def copy(self) -> "LowRank":
        """Deep copy."""
        return LowRank(self.u.copy(), self.v.copy())

    def set_factors(self, u: np.ndarray, v: np.ndarray) -> None:
        """Replace both factors (rank may change)."""
        if u.shape[0] != self.u.shape[0] or v.shape[1] != self.v.shape[1]:
            raise ShapeError(
                f"replacement factors change block shape: {u.shape} x {v.shape} "
                f"vs {self.shape}"
            )
        if u.shape[1] != v.shape[0]:
            raise ShapeError(f"incompatible factors {u.shape} x {v.shape}")
        self.u = u
        self.v = v

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LowRank(shape={self.shape}, rank={self.rank})"


def truncation_rank(s: np.ndarray, acc: float, rule: str) -> int:
    """Rank needed so discarded singular values fall below the threshold.

    Parameters
    ----------
    s:
        Singular values, descending.
    acc:
        Accuracy threshold ``eps``.
    rule:
        ``"relative"``: keep ``s_i > eps * s_0``; ``"absolute"``: keep
        ``s_i > eps``.
    """
    if s.size == 0:
        return 0
    if rule == "relative":
        thresh = acc * float(s[0])
    elif rule == "absolute":
        thresh = acc
    else:
        raise ShapeError(f"unknown truncation rule {rule!r}")
    return int(np.count_nonzero(s > thresh))


def svd_compress(a: np.ndarray, acc: float, *, rule: Optional[str] = None) -> LowRank:
    """Deterministic truncated-SVD compression to accuracy ``acc``.

    Guarantees ``||a - u@v||_2 <= acc * ||a||_2`` (relative rule) or
    ``<= acc`` (absolute rule).
    """
    rule = rule or get_config().truncation
    u, s, vt = sla.svd(a, full_matrices=False, check_finite=False)
    k = truncation_rank(s, acc, rule)
    return LowRank(np.ascontiguousarray(u[:, :k] * s[:k]), np.ascontiguousarray(vt[:k]))


def rsvd_compress(
    a: np.ndarray,
    acc: float,
    *,
    rule: Optional[str] = None,
    oversample: int = 8,
    power_iters: int = 1,
    initial_rank: int = 8,
    seed: SeedLike = None,
) -> LowRank:
    """Adaptive randomized-SVD compression (Halko-Martinsson-Tropp).

    Starts from ``initial_rank`` and doubles the sketch size until the
    truncation threshold is resolved inside the captured range (i.e. the
    smallest captured singular value falls below the threshold), falling
    back to the exact SVD when the block is effectively full-rank.

    The range finder is orthonormalised subspace iteration (Halko et al.
    2011, Alg. 4.4): a QR after every product with ``a`` or ``a.T``. An
    unorthonormalised power step ``a (a.T y)`` squares the spectrum, so
    in floating point it loses every direction below ``~sqrt(eps)``
    times the top singular value — the accuracy contract then fails
    below ``acc ~ 1e-6``.
    """
    rule = rule or get_config().truncation
    rng = as_generator(seed)
    m, n = a.shape
    max_rank = min(m, n)
    k_try = min(max_rank, max(1, initial_rank))

    def orth(y: np.ndarray) -> np.ndarray:
        return sla.qr(y, mode="economic", check_finite=False)[0]

    while True:
        ell = min(max_rank, k_try + oversample)
        omega = rng.standard_normal((n, ell))
        q = orth(a @ omega)
        for _ in range(power_iters):
            q = orth(a @ orth(a.T @ q))
        b = q.T @ a
        ub, s, vt = sla.svd(b, full_matrices=False, check_finite=False)
        k = truncation_rank(s, acc, rule)
        # Resolved if the threshold cuts strictly inside the captured
        # spectrum, or we already captured everything.
        if k < s.size or ell >= max_rank:
            u = q @ ub[:, :k]
            return LowRank(np.ascontiguousarray(u * s[:k]), np.ascontiguousarray(vt[:k]))
        k_try = min(max_rank, 2 * k_try)


def aca_compress(
    a: np.ndarray,
    acc: float,
    *,
    rule: Optional[str] = None,
    max_rank: Optional[int] = None,
) -> LowRank:
    """Cross-approximation compression with full pivoting.

    Greedily peels rank-1 crosses off an explicit residual until its
    Frobenius norm drops below ``acc * ||a||_F`` (relative) or ``acc``
    (absolute). Since ``||.||_F >= ||.||_2``, the spectral-norm accuracy
    contract of :func:`svd_compress` is met (often with a slightly larger
    rank).

    Raises
    ------
    CompressionError
        If ``max_rank`` crosses do not reach the target accuracy.
    """
    rule = rule or get_config().truncation
    m, n = a.shape
    limit = min(m, n) if max_rank is None else min(max_rank, min(m, n))
    norm_a = float(np.linalg.norm(a))
    target = acc * norm_a if rule == "relative" else acc
    if rule not in ("relative", "absolute"):
        raise ShapeError(f"unknown truncation rule {rule!r}")
    if norm_a == 0.0 or norm_a <= target:
        return LowRank(np.zeros((m, 0)), np.zeros((0, n)))
    residual = np.array(a, dtype=np.float64, copy=True)
    # Squared residual norm, maintained incrementally across rank-1 steps
    # via the standard update identity
    #   ||R - c r||^2 = ||R||^2 - 2 <R, c r>_F + ||c||^2 ||r||^2,
    # with <R, c r>_F = c' (R r') — one BLAS gemv instead of the full
    # O(m n) Frobenius pass the seed recomputed on every step (and again
    # after the loop). The maintained value carries O(k n eps ||a||^2)
    # rounding drift, so it cannot certify thresholds below its drift
    # floor; when it reaches the floor or the target we confirm with one
    # exact pass over the residual — at most one per iteration, and only
    # in the convergence endgame.
    norm2 = norm_a * norm_a
    target2 = target * target
    drift_unit = 16.0 * max(m, n) * float(np.finfo(np.float64).eps) * norm2
    exact = True  # norm2 currently equals the exact squared norm
    us, vs = [], []

    def _finish() -> LowRank:
        u = np.ascontiguousarray(np.column_stack(us))
        v = np.ascontiguousarray(np.vstack(vs))
        return LowRank(u, v)

    for step in range(limit):
        flat = np.argmax(np.abs(residual))
        i, j = divmod(int(flat), n)
        pivot = residual[i, j]
        if pivot == 0.0:
            break
        col = residual[:, j].copy()
        row = residual[i, :] / pivot
        us.append(col)
        vs.append(row)
        cross = float(col @ (residual @ row))
        norm2 = max(0.0, norm2 - 2.0 * cross + float(col @ col) * float(row @ row))
        residual -= np.outer(col, row)
        exact = False
        if norm2 <= max(target2, (step + 1) * drift_unit):
            norm2 = float(np.einsum("ij,ij->", residual, residual))
            exact = True
        if exact and norm2 <= target2:
            return _finish()
    if not exact:
        norm2 = float(np.einsum("ij,ij->", residual, residual))
    if us and norm2 <= target2:
        return _finish()
    raise CompressionError(
        f"ACA did not reach accuracy {acc:g} within rank {limit} "
        f"(residual {math.sqrt(norm2):.3e}, target {target:.3e})"
    )


_METHODS = {"svd": svd_compress, "rsvd": rsvd_compress, "aca": aca_compress}


def compress(
    a: np.ndarray,
    acc: float,
    *,
    method: Optional[str] = None,
    rule: Optional[str] = None,
    **kwargs: object,
) -> LowRank:
    """Compress a dense block with the configured (or given) method."""
    cfg = get_config()
    method = method or cfg.compression_method
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ShapeError(f"unknown compression method {method!r}") from None
    return fn(a, acc, rule=rule, **kwargs)  # type: ignore[operator]
