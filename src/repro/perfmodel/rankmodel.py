"""Parametric model of TLR tile ranks (drives paper-scale estimates).

After Morton ordering, tile-index separation ``d = |i - j|`` tracks
spatial separation, and Matérn covariance tiles decay in rank with
``d``. We model the rank of tile ``(i, j)`` as

    k(d) = kmin + (a0 + a1 * log10(1/acc)) * sqrt(nb / nb_ref) / (1 + d)^p

— rank grows ~linearly in the number of accurate digits requested
(log-spaced accuracy sweeps in the paper), grows ~sqrt with tile size
(a tile twice as large covers twice the points of the same geometry),
and decays polynomially with separation (smooth kernels compress
distant interactions hard).

Defaults were calibrated against measured ranks of Matérn covariance
matrices built by this library (see
:func:`calibrate_rank_model` and ``benchmarks/bench_fig1_compression``);
stronger correlation (larger range θ2) raises the effective ``a1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["RankModel", "calibrate_rank_model", "DEFAULT_RANK_MODEL"]


@dataclass(frozen=True)
class RankModel:
    """Rank of an off-diagonal TLR tile as a function of separation.

    Attributes
    ----------
    a0, a1:
        Base rank and per-decade-of-accuracy growth at separation 0.
    p:
        Polynomial decay exponent in tile separation.
    kmin:
        Rank floor (compression never goes below this).
    nb_ref:
        Tile size the coefficients were calibrated at.
    """

    a0: float = 58.0
    a1: float = 8.3
    p: float = 0.5
    kmin: float = 2.0
    nb_ref: int = 250

    def rank(self, d: int, acc: float, nb: int) -> int:
        """Predicted rank of a tile with index separation ``d >= 1``."""
        if d < 1:
            raise ConfigurationError("off-diagonal tiles have separation >= 1")
        return int(self._ranks(np.float64(d), acc, nb))

    def rank_array(self, nt: int, acc: float, nb: int) -> np.ndarray:
        """Ranks for separations ``1..nt-1`` (vectorized :meth:`rank`)."""
        return self._ranks(np.arange(1, nt, dtype=np.float64), acc, nb)

    def _ranks(self, d, acc: float, nb: int) -> np.ndarray:
        """``k(d)`` rounded half to even and clipped to ``[1, nb]``."""
        decades = np.log10(1.0 / acc)
        amp = (self.a0 + self.a1 * decades) * np.sqrt(nb / self.nb_ref)
        k = self.kmin + amp / (1.0 + d) ** self.p
        return np.clip(np.round(k), 1, nb).astype(np.int64)

    def mean_rank(self, nt: int, acc: float, nb: int) -> float:
        """Average rank over all strictly-lower tiles of an ``nt x nt`` grid.

        Separation ``d`` occurs ``nt - d`` times in the lower triangle.
        """
        if nt < 2:
            return 0.0
        ranks = self.rank_array(nt, acc, nb)
        weights = np.arange(nt - 1, 0, -1, dtype=np.float64)
        return float(np.sum(ranks * weights) / np.sum(weights))


#: Calibration for Matérn-class covariances at medium correlation.
DEFAULT_RANK_MODEL = RankModel()


def calibrate_rank_model(
    rank_matrix: np.ndarray,
    acc: float,
    nb: int,
    *,
    kmin: float = 2.0,
    p_grid: Optional[np.ndarray] = None,
) -> RankModel:
    """Fit a :class:`RankModel` to a measured tile-rank matrix.

    Parameters
    ----------
    rank_matrix:
        Output of :meth:`repro.linalg.TLRMatrix.rank_matrix` (diagonal
        entries are -1 and ignored).
    acc:
        Accuracy the matrix was compressed to.
    nb:
        Tile size of the measured matrix (becomes ``nb_ref``).
    kmin:
        Rank floor to assume.
    p_grid:
        Decay exponents to scan (default 0.3..2.0); for each ``p`` the
        amplitude has a closed-form least-squares solution, so the fit
        is a 1-D scan plus projection.

    Returns
    -------
    A fitted :class:`RankModel` with ``a1`` carrying the amplitude (so
    re-scaling to other accuracies follows the default decade slope
    proportionally).
    """
    rm = np.asarray(rank_matrix)
    nt = rm.shape[0]
    seps, ks = [], []
    for i in range(nt):
        for j in range(i):
            if rm[i, j] >= 0:
                seps.append(i - j)
                ks.append(rm[i, j])
    if not seps:
        raise ConfigurationError("rank matrix has no off-diagonal entries to fit")
    d = np.asarray(seps, dtype=np.float64)
    k = np.asarray(ks, dtype=np.float64)
    y = np.maximum(k - kmin, 0.25)
    if p_grid is None:
        p_grid = np.linspace(0.3, 2.0, 35)
    decades = np.log10(1.0 / acc)
    best = None
    for p in p_grid:
        basis = 1.0 / (1.0 + d) ** p
        amp = float(np.dot(y, basis) / np.dot(basis, basis))
        resid = float(np.sum((y - amp * basis) ** 2))
        if best is None or resid < best[0]:
            best = (resid, p, amp)
    assert best is not None
    _, p, amp = best
    # Split the amplitude into the a0 + a1*decades form, keeping the
    # default a0:a1 proportion at this accuracy.
    a1 = amp / (decades + DEFAULT_RANK_MODEL.a0 / max(DEFAULT_RANK_MODEL.a1, 1e-9))
    a0 = amp - a1 * decades
    return RankModel(a0=float(a0), a1=float(a1), p=float(p), kmin=kmin, nb_ref=nb)
