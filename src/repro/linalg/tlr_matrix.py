"""The Tile Low-Rank matrix format (paper §V, Fig. 1; HiCMA substitute).

A symmetric TLR matrix keeps its ``nt`` diagonal tiles **dense** and every
off-diagonal lower tile ``(i, j), i > j`` as a :class:`LowRank` pair
``(U_ij, V_ij)`` truncated to a fixed accuracy. Ranks vary per tile —
weakly coupled (spatially distant) tile pairs compress harder — and the
format's memory footprint is the paper's headline saving over the dense
representation.

Construction from a covariance kernel generates one dense tile at a time
and compresses it immediately, so the full dense matrix never exists —
this is what lets TLR ExaGeoStat run problem sizes whose dense form
would exceed memory (the missing full-tile points of Fig. 4).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..config import get_config
from ..exceptions import ShapeError
from .compression import LowRank, compress
from .tile_matrix import TileGrid, tile_source

__all__ = ["TLRMatrix"]


class TLRMatrix:
    """Symmetric TLR matrix: dense diagonal, low-rank lower off-diagonal.

    Parameters
    ----------
    grid:
        Tile decomposition of the ``n x n`` matrix.
    acc:
        Accuracy threshold the off-diagonal tiles were truncated to.

    Notes
    -----
    Only the lower triangle is stored (the matrix is symmetric); the TLR
    Cholesky overwrites this storage with the lower factor.
    """

    def __init__(self, grid: TileGrid, acc: float) -> None:
        self.grid = grid
        self.acc = float(acc)
        self.diag: list[np.ndarray] = [None] * grid.nt  # type: ignore[list-item]
        self.low: Dict[Tuple[int, int], LowRank] = {}

    # -------------------------------------------------------- constructors
    @classmethod
    def from_generator(
        cls,
        n: int,
        nb: int,
        generate: Callable[[slice, slice], np.ndarray],
        acc: Optional[float] = None,
        *,
        method: Optional[str] = None,
        rule: Optional[str] = None,
    ) -> "TLRMatrix":
        """Build from a tile generator, compressing off-diagonals on the fly.

        Parameters
        ----------
        generate:
            ``generate(row_slice, col_slice) -> dense tile``; typically
            ``CovarianceModel.tile`` partially applied to the locations.
        acc:
            Accuracy threshold (default: configured ``tlr_accuracy``).
        method, rule:
            Compression method / truncation rule overrides.
        """
        cfg = get_config()
        acc = cfg.tlr_accuracy if acc is None else float(acc)
        method = method or cfg.compression_method
        rule = rule or cfg.truncation
        grid = TileGrid(n, nb)
        tlr = cls(grid, acc)
        source = tile_source(grid, generate)
        for i in range(grid.nt):
            tlr.diag[i] = source(i, i)
            for j in range(i):
                tlr.low[(i, j)] = compress(source(i, j), acc, method=method, rule=rule)
        return tlr

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        nb: int,
        acc: Optional[float] = None,
        *,
        method: Optional[str] = None,
        rule: Optional[str] = None,
    ) -> "TLRMatrix":
        """Compress an existing dense symmetric matrix into TLR format."""
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected square matrix, got {a.shape}")

        def gen(rs: slice, cs: slice) -> np.ndarray:
            return a[rs, cs]

        return cls.from_generator(a.shape[0], nb, gen, acc, method=method, rule=rule)

    # ------------------------------------------------------------ accessors
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.grid.n

    @property
    def nt(self) -> int:
        """Tiles per dimension."""
        return self.grid.nt

    def rank(self, i: int, j: int) -> int:
        """Rank of off-diagonal tile ``(i, j)`` (either triangle)."""
        if i == j:
            raise ShapeError("diagonal tiles are dense; rank is undefined")
        key = (i, j) if i > j else (j, i)
        return self.low[key].rank

    def rank_matrix(self) -> np.ndarray:
        """``(nt, nt)`` integer matrix of tile ranks (-1 on the diagonal).

        This is the quantity visualized by the paper's Figure 1.
        """
        nt = self.nt
        out = -np.ones((nt, nt), dtype=np.int64)
        for (i, j), lr in self.low.items():
            out[i, j] = lr.rank
            out[j, i] = lr.rank
        return out

    def max_rank(self) -> int:
        """Largest off-diagonal tile rank (0 when nt == 1)."""
        return max((lr.rank for lr in self.low.values()), default=0)

    def mean_rank(self) -> float:
        """Mean off-diagonal tile rank (0.0 when nt == 1)."""
        if not self.low:
            return 0.0
        return float(np.mean([lr.rank for lr in self.low.values()]))

    # ------------------------------------------------------------- memory
    @property
    def nbytes(self) -> int:
        """Bytes held by the TLR representation (lower storage)."""
        total = sum(int(d.nbytes) for d in self.diag if d is not None)
        total += sum(lr.nbytes for lr in self.low.values())
        return int(total)

    def dense_nbytes(self) -> int:
        """Bytes the equivalent dense lower-symmetric storage would need."""
        g = self.grid
        total = 0
        for i in range(g.nt):
            for j in range(i + 1):
                total += g.tile_size(i) * g.tile_size(j) * 8
        return total

    def compression_ratio(self) -> float:
        """Dense bytes divided by TLR bytes (> 1 means TLR is smaller)."""
        return self.dense_nbytes() / max(1, self.nbytes)

    # ------------------------------------------------------------- exports
    def to_dense(self) -> np.ndarray:
        """Materialize the full symmetric dense matrix.

        Intended for validation at small sizes only (defeats the format's
        purpose at scale).
        """
        g = self.grid
        out = np.zeros((g.n, g.n), dtype=np.float64)
        for i in range(g.nt):
            out[g.tile_slice(i), g.tile_slice(i)] = self.diag[i]
        for (i, j), lr in self.low.items():
            dense = lr.to_dense()
            out[g.tile_slice(i), g.tile_slice(j)] = dense
            out[g.tile_slice(j), g.tile_slice(i)] = dense.T
        return out

    def copy(self) -> "TLRMatrix":
        """Deep copy (fresh tile buffers and factor arrays)."""
        dup = TLRMatrix(self.grid, self.acc)
        dup.diag = [d.copy() for d in self.diag]
        dup.low = {key: lr.copy() for key, lr in self.low.items()}
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TLRMatrix(n={self.n}, nb={self.grid.nb}, nt={self.nt}, acc={self.acc:g}, "
            f"max_rank={self.max_rank()}, ratio={self.compression_ratio():.2f}x)"
        )
