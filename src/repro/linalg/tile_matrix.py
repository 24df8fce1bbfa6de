"""Tile decomposition of dense matrices (paper §V, Chameleon substitute).

Tile algorithms split an ``n x n`` matrix into ``nt x nt`` square tiles of
size ``nb`` (the last row/column of tiles may be smaller when ``nb`` does
not divide ``n``). Fine-grained per-tile tasks weaken synchronization
points relative to LAPACK's fork-join blocks and expose look-ahead — the
motivation recalled in the paper's §V.

:class:`TileGrid` is the index arithmetic; :class:`TileMatrix` is dense
storage, one C-contiguous float64 array per tile *column*: column ``j``
of a ``symmetric_lower`` matrix is a ``(n - j*nb) x nb_j`` array holding
the diagonal tile and everything below it (a full matrix stores all
``n`` rows), and tile ``(i, j)`` is ``nb_i`` consecutive rows of it. A
row-slice of a C-contiguous array is itself C-contiguous, so every
``tile(i, j)`` — and every run of tiles stacked below one another — is
a contiguous writable view BLAS can use directly. That is what lets the
column-panel Cholesky (:mod:`~repro.linalg.tile_cholesky`) and the panel
solves issue one BLAS-3 call over 1..nt tiles instead of one per tile,
in the same bytes as one array per tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..utils.validation import check_square

__all__ = ["TileGrid", "TileMatrix", "TileSource", "tile_source"]

@dataclass(frozen=True)
class TileGrid:
    """Index arithmetic for a 1-D tiling of ``n`` rows with tile size ``nb``.

    Attributes
    ----------
    n:
        Matrix dimension.
    nb:
        Tile size (the paper tunes 560 for dense, 1900 for TLR at scale).
    """

    n: int
    nb: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ShapeError(f"n must be >= 1, got {self.n}")
        if self.nb < 1:
            raise ShapeError(f"nb must be >= 1, got {self.nb}")

    @property
    def nt(self) -> int:
        """Number of tiles per dimension."""
        return -(-self.n // self.nb)

    def tile_size(self, i: int) -> int:
        """Rows in tile ``i`` (the last tile may be ragged)."""
        self._check_index(i)
        return min(self.nb, self.n - i * self.nb)

    def offset(self, i: int) -> int:
        """Global row index where tile ``i`` starts."""
        self._check_index(i)
        return i * self.nb

    def tile_slice(self, i: int) -> slice:
        """Global row slice covered by tile ``i``."""
        off = self.offset(i)
        return slice(off, off + self.tile_size(i))

    def partition(self, x: np.ndarray) -> list:
        """Split the leading axis of ``x`` into per-tile contiguous copies.

        Copies (never views): block solvers update these buffers in place
        and must not clobber the caller's array.
        """
        if x.shape[0] != self.n:
            raise ShapeError(f"expected leading dimension {self.n}, got {x.shape[0]}")
        return [np.array(x[self.tile_slice(i)], dtype=np.float64, copy=True) for i in range(self.nt)]

    def unpartition(self, blocks: list) -> np.ndarray:
        """Concatenate per-tile blocks back along the leading axis."""
        if len(blocks) != self.nt:
            raise ShapeError(f"expected {self.nt} blocks, got {len(blocks)}")
        return np.concatenate(blocks, axis=0)

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self.nt):
            raise ShapeError(f"tile index {i} out of range [0, {self.nt})")


class TileSource:
    """Blocks of a matrix from a ``generate(row_slice, col_slice)`` generator
    over ``grid``: the one contract the Cholesky graphs generate from.

    ``source(i, j)`` returns tile ``(i, j)`` as a C-contiguous float64
    array the caller owns (a TLR task's tile); :meth:`fill` writes any
    block into a given array (a full-tile ``GEN`` task's whole column).
    A generator with a ``fill(out, rows, cols)`` method of its own
    (:meth:`~repro.linalg.generation.TileDistanceCache.generator`'s)
    computes in ``out``; any other is called and its block copied (it may
    be a view, e.g. ``TLRMatrix.from_dense``'s). A block of the wrong
    shape raises :class:`~repro.exceptions.ShapeError`.
    """

    def __init__(self, grid: TileGrid, generate: Callable[[slice, slice], np.ndarray]) -> None:
        self.grid = grid
        self.generate = generate

    def __call__(self, i: int, j: int) -> np.ndarray:
        rows, cols = self.grid.tile_slice(i), self.grid.tile_slice(j)
        tile = np.asarray(self.generate(rows, cols), dtype=np.float64)
        if tile.base is not None or not tile.flags["C_CONTIGUOUS"]:
            tile = tile.copy()
        _check_block(tile, (self.grid.tile_size(i), self.grid.tile_size(j)), (i, j))
        return tile

    def fill(self, out: np.ndarray, rows: slice, cols: slice) -> None:
        """Write block ``[rows, cols]`` into ``out``, an array of its shape."""
        fill = getattr(self.generate, "fill", None)
        if fill is not None:
            fill(out, rows, cols)
            return
        block = np.asarray(self.generate(rows, cols), dtype=np.float64)
        _check_block(block, out.shape, (rows, cols))
        out[...] = block


def _check_block(block: np.ndarray, expected: Tuple[int, ...], where: object) -> None:
    if block.shape != expected:
        raise ShapeError(
            f"generator returned shape {block.shape} for block {where}, expected {expected}"
        )


#: ``tile_source(grid, generate)``: the :class:`TileSource` of ``generate``.
tile_source = TileSource


class TileMatrix:
    """Dense matrix stored as one contiguous array per tile column.

    Parameters
    ----------
    grid:
        The tiling.
    symmetric_lower:
        When True only tiles with ``i >= j`` are stored; ``tile(i, j)``
        with ``i < j`` returns the transpose of the mirrored tile
        (a copy — callers must not mutate it).

    The column arrays are allocated uninitialized; contents are undefined
    until written through :meth:`set_tile` or a ``tile``/``panel`` view.
    """

    def __init__(self, grid: TileGrid, *, symmetric_lower: bool = False) -> None:
        self.grid = grid
        self.symmetric_lower = symmetric_lower
        self._columns: List[np.ndarray] = [
            np.empty((grid.n - self._row0(j), grid.tile_size(j)))
            for j in range(grid.nt)
        ]

    def _row0(self, j: int) -> int:
        """Global row where column ``j``'s storage starts."""
        return j * self.grid.nb if self.symmetric_lower else 0

    # -------------------------------------------------------- constructors
    @classmethod
    def from_dense(
        cls, a: np.ndarray, nb: int, *, symmetric_lower: bool = False
    ) -> "TileMatrix":
        """Tile an existing dense matrix (copies into the column arrays)."""
        check_square(a, "a")
        tm = cls(TileGrid(a.shape[0], nb), symmetric_lower=symmetric_lower)
        for j, column in enumerate(tm._columns):
            column[...] = a[tm._row0(j) :, tm.grid.tile_slice(j)]
        return tm

    @classmethod
    def from_generator(
        cls,
        n: int,
        nb: int,
        generate: Callable[[slice, slice], np.ndarray],
        *,
        symmetric_lower: bool = False,
    ) -> "TileMatrix":
        """Build tiles by calling ``generate(row_slice, col_slice)``.

        This is the covariance *generation* stage of ExaGeoStat: the dense
        matrix never exists as a single allocation. Generation as tasks
        of the factorization graph is
        :func:`~repro.linalg.tile_cholesky.tile_cholesky_from_source`.
        """
        tm = cls(TileGrid(n, nb), symmetric_lower=symmetric_lower)
        source = tile_source(tm.grid, generate)
        for j in range(tm.nt):
            tm.fill_column(j, source)
        return tm

    def fill_column(self, j: int, source: TileSource) -> None:
        """Write every stored tile of column ``j`` with one
        :meth:`TileSource.fill` of the whole column array (the panel of a
        ``symmetric_lower`` matrix), in place."""
        rows = slice(self._row0(j), self.grid.n)
        source.fill(self._columns[j], rows, self.grid.tile_slice(j))

    # ------------------------------------------------------------ accessors
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.grid.n

    @property
    def nt(self) -> int:
        """Tiles per dimension."""
        return self.grid.nt

    def panel(self, j: int) -> np.ndarray:
        """Column ``j`` from its diagonal tile down: ``(n - j*nb) x nb_j``.

        A C-contiguous writable view (the whole column array of a
        ``symmetric_lower`` matrix) — the operand of the panel kernels.
        """
        return self._columns[j][j * self.grid.nb - self._row0(j) :]

    def tile(self, i: int, j: int) -> np.ndarray:
        """Tile ``(i, j)``: a C-contiguous view that writes through.

        For ``i < j`` of a symmetric matrix, a transposed *copy* of the
        mirrored tile.
        """
        if self.symmetric_lower and i < j:
            return self.tile(j, i).T.copy()
        rows = self.grid.tile_size(i)  # validates i
        r0 = i * self.grid.nb - self._row0(j)
        return self._columns[j][r0 : r0 + rows]

    def set_tile(self, i: int, j: int, tile: np.ndarray) -> None:
        """Copy ``tile`` into position ``(i, j)`` (never aliases ``tile``)."""
        if self.symmetric_lower and i < j:
            raise ShapeError("symmetric_lower matrices store only i >= j tiles")
        out = self.tile(i, j)
        if np.shape(tile) != out.shape:
            raise ShapeError(
                f"tile ({i},{j}) must have shape {out.shape}, got {np.shape(tile)}"
            )
        out[...] = tile

    def iter_stored(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Iterate physically stored tiles as ``(i, j, view)``, row-major."""
        for i in range(self.nt):
            for j in range(i + 1 if self.symmetric_lower else self.nt):
                yield i, j, self.tile(i, j)

    # ------------------------------------------------------------- exports
    def to_dense(self) -> np.ndarray:
        """Assemble the full dense matrix (symmetric mirror applied)."""
        g = self.grid
        out = np.zeros((g.n, g.n), dtype=np.float64)
        for j, column in enumerate(self._columns):
            cols = g.tile_slice(j)
            out[self._row0(j) :, cols] = column
            if self.symmetric_lower:
                out[cols, cols.stop :] = column[cols.stop - cols.start :].T
        return out

    def copy(self) -> "TileMatrix":
        """Deep copy (fresh column arrays)."""
        tm = TileMatrix(self.grid, symmetric_lower=self.symmetric_lower)
        for dst, src in zip(tm._columns, self._columns):
            dst[...] = src
        return tm

    @property
    def nbytes(self) -> int:
        """Bytes of stored tile payloads."""
        return int(sum(column.nbytes for column in self._columns))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TileMatrix(n={self.n}, nb={self.grid.nb}, nt={self.nt}, "
            f"symmetric_lower={self.symmetric_lower})"
        )
