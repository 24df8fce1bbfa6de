"""Low-rank tile compression (paper §V, Fig. 1).

Off-diagonal tiles of the covariance matrix are approximated as
``A_ij ~= U_ij @ V_ij`` where ``U`` is ``nb x k`` and ``V`` is ``k x nb``,
with the rank ``k`` chosen per tile so the truncation error respects a
user-defined accuracy threshold — low thresholds give small ranks
(memory-bound regime), high thresholds give large ranks (compute-bound),
exactly the trade-off the paper studies.

Two compressors:

* :func:`svd_compress` — deterministic and certified: a column-pivoted
  QR reveals how many leading rows of ``R`` carry the tile, and an SVD
  of only those rows picks the truncation (reference and default);
* :func:`rsvd_compress` — adaptive randomized SVD (Halko et al. style
  range finder with doubling rank until the threshold is met).

Both aim at ``||A - U V||_2 <= acc ||A||_2`` (relative rule) or
``<= acc`` (absolute rule) — ``svd`` certifies it, ``rsvd`` meets it
with high probability — and both raise
:class:`~repro.exceptions.CompressionError` on a tile with a NaN or
infinite entry. The TLR Cholesky compresses each factor tile once,
after its last update (:mod:`~repro.linalg.tlr_cholesky`), so no
low-rank rounding of sums is needed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from ..config import get_config
from ..exceptions import CompressionError, ShapeError
from ..utils.rng import SeedLike, as_generator
from . import nogil_lapack

__all__ = [
    "LowRank",
    "svd_compress",
    "rsvd_compress",
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


#: Share of the threshold the discarded rows of the pivoted QR may use.
#: The rows kept go to an SVD that spends the remaining ``1 - ETA``; a
#: smaller value keeps more rows, a larger one lets the ranks drift
#: above the exact SVD truncation's.
ETA = 1e-2


def _empty(m: int, n: int) -> LowRank:
    return LowRank(np.zeros((m, 0)), np.zeros((0, n)))


def svd_compress(a: np.ndarray, acc: float, *, rule: Optional[str] = None) -> LowRank:
    """Certified truncated-SVD compression to accuracy ``acc``.

    Guarantees ``||a - u@v||_2 <= acc * ||a||_2`` (relative rule) or
    ``<= acc`` (absolute rule); ``u`` holds left singular vectors scaled
    by their singular values and ``v`` has orthonormal rows.

    Algorithm. A column-pivoted QR ``a P = Q R`` (LAPACK ``dgeqp3``),
    then ``tail[j] = ||R[j:, :]||_F`` from the cumulative row norms of
    ``R``. ``R`` is upper triangular, so those rows are exactly the
    trailing block ``R22`` and ``||a P - Q[:, :j] R[:j]||_2 =
    ||R22||_2 <= tail[j]``. The first ``j`` with ``tail[j] <= ETA * t``
    (``t = acc * |R00|`` relative, ``|R00| <= ||a||_2``; ``t = acc``
    absolute) fixes how many rows to keep; ``j = 0`` is rank 0. An SVD
    of the ``j x n`` block ``R[:j] = U_b S V_b`` keeps the singular
    values ``s_i > acc * s_0 - tail[j]`` (relative) or
    ``> acc - tail[j]`` (absolute), and ``u = Q[:, :j] U_b[:, :k] S_k``
    is applied through the Householder reflectors (``dormqr``) without
    forming ``Q``.

    Certificate. The error is at most ``s_k + ||R22||_2 <= acc * s_0
    <= acc * ||a||_2`` (``s_0 = ||R[:j]||_2``), whatever the pivoting
    does: a pivoting that reveals the rank poorly only makes ``j``
    larger. Since ``tail[j]`` is at most ``ETA`` (1 %) of the threshold,
    the rank matches the exact SVD truncation's except on a singular
    value within 1 % of the threshold.

    Cost. ``4/3 nb^3`` for the pivoted QR plus ``O(nb j^2)`` for the SVD
    and the reflectors, against ``O(nb^3)`` with a larger constant for a
    full SVD that computes all ``nb`` singular triplets.

    Raises
    ------
    CompressionError
        If ``a`` has a NaN or infinite entry.
    """
    rule = rule or get_config().truncation
    if rule not in ("relative", "absolute"):
        raise ShapeError(f"unknown truncation rule {rule!r}")
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    p = min(m, n)
    if p == 0:
        return _empty(m, n)
    # dgeqp3 overwrites a column-major matrix: hand it a C-ordered copy of
    # a.T. qr is then its result, column-major.
    qt = np.array(a.T, order="C")
    jpvt, tau = nogil_lapack.geqp3(qt)
    qr = qt.T
    r = np.triu(qr[:p])
    row2 = np.einsum("ij,ij->i", r, r)
    tail = np.sqrt(np.append(np.cumsum(row2[::-1])[::-1], 0.0))
    if not math.isfinite(tail[0]):
        raise CompressionError("cannot compress a tile with a NaN or infinite entry")
    scale = abs(float(qr[0, 0])) if rule == "relative" else 1.0
    j = int(np.argmax(tail <= ETA * acc * scale))
    if j == 0:
        return _empty(m, n)
    ub, s, vt = nogil_lapack.gesdd(np.ascontiguousarray(r[:j].T))
    thresh = (acc * float(s[0]) if rule == "relative" else acc) - float(tail[j])
    k = int(np.count_nonzero(s > thresh))
    if k == 0:
        return _empty(m, n)
    ct = np.zeros((k, m))  # c.T: u before the reflectors, column-major
    ct[:, :j] = (ub[:, :k] * s[:k]).T
    # Reflectors past j act on rows >= j, where c is zero: skip them.
    nogil_lapack.ormqr(qt[:j], tau[:j], ct)
    v = np.empty((k, n))
    v[:, jpvt - 1] = vt[:k]
    return LowRank(np.ascontiguousarray(ct.T), v)


#: :func:`rsvd_compress`'s sketch: ``RSVD_INITIAL_RANK`` to start, doubled
#: until resolved, plus ``RSVD_OVERSAMPLE`` columns, with
#: ``RSVD_POWER_ITERS`` orthonormalised power passes per sketch.
RSVD_INITIAL_RANK = 8
RSVD_OVERSAMPLE = 8
RSVD_POWER_ITERS = 1


def rsvd_compress(
    a: np.ndarray,
    acc: float,
    *,
    rule: Optional[str] = None,
    seed: SeedLike = None,
) -> LowRank:
    """Adaptive randomized-SVD compression (Halko-Martinsson-Tropp).

    Starts from a sketch of rank ``RSVD_INITIAL_RANK`` and doubles it
    until the truncation threshold is resolved inside the captured range
    (the smallest captured singular value falls below the threshold) or
    the sketch spans the whole block, whose SVD is then exact.

    The range finder is orthonormalised subspace iteration (Halko et al.
    2011, Alg. 4.4): a QR after every product with ``a`` or ``a.T``. An
    unorthonormalised power step ``a (a.T y)`` squares the spectrum, so
    in floating point it loses every direction below ``~sqrt(eps)``
    times the top singular value — the accuracy contract then fails
    below ``acc ~ 1e-6``.

    Raises
    ------
    CompressionError
        If ``a`` has a NaN or infinite entry (seen in the sketch).
    """
    rule = rule or get_config().truncation
    rng = as_generator(seed)
    m, n = a.shape
    max_rank = min(m, n)
    k_try = min(max_rank, RSVD_INITIAL_RANK)

    def orth(y: np.ndarray) -> np.ndarray:
        return sla.qr(y, mode="economic", check_finite=False)[0]

    while True:
        ell = min(max_rank, k_try + RSVD_OVERSAMPLE)
        omega = rng.standard_normal((n, ell))
        y = a @ omega
        if not np.isfinite(y).all():  # O(m ell), against O(m n ell) for the sketch
            raise CompressionError("cannot compress a tile with a NaN or infinite entry")
        q = orth(y)
        for _ in range(RSVD_POWER_ITERS):
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


_METHODS = {"svd": svd_compress, "rsvd": rsvd_compress}


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
