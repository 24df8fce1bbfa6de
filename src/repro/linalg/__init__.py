"""Linear algebra substrates (paper §V).

Three families, mirroring the paper's three computation variants:

* ``blocklapack`` — the **Full-block** reference (LAPACK-style dense
  Cholesky via scipy; the paper's Intel MKL baseline);
* ``tile_*`` — the **Full-tile** dense tile algorithms (Chameleon
  substitute): tile matrices, task-based tile Cholesky, tile solves;
* ``compression`` + ``tlr_*`` — the **TLR** data format and algorithms
  (HiCMA substitute): per-tile low-rank compression (SVD / RSVD),
  a left-looking TLR Cholesky that updates each tile while it is dense
  and compresses it once, and TLR solves.

Both Cholesky graphs read their tiles from one contract,
:class:`~repro.linalg.tile_matrix.TileSource`:
``tile_cholesky.tile_cholesky_from_source`` generates each tile column
into its storage in a task of the factorization graph,
``tlr_cholesky.tlr_cholesky_from_source`` each tile inside the task that
updates and compresses it.

``generation`` is the covariance *generation pipeline* shared by the tile
and TLR variants: :class:`~repro.linalg.generation.TileDistanceCache`,
whose generator computes each block's distances in the task, from
coordinates, and ``generate_and_factor_*``, which feed a generator to
those graphs.
"""

from .blocklapack import (
    block_cholesky,
    block_cholesky_solve,
    block_logdet_from_factor,
)
from .tile_matrix import TileGrid, TileMatrix
from .tile_cholesky import tile_cholesky, logdet_from_tile_factor
from .tile_solve import tile_cholesky_solve, tile_solve_triangular
from .compression import LowRank, compress
from .tlr_matrix import TLRMatrix
from .tlr_cholesky import tlr_cholesky, logdet_from_tlr_factor
from .tlr_solve import tlr_cholesky_solve, tlr_solve_triangular
from .generation import (
    CrossDistanceCache,
    TileDistanceCache,
    generate_and_factor_tile_matrix,
    generate_and_factor_tlr_matrix,
)

__all__ = [
    "CrossDistanceCache",
    "TileDistanceCache",
    "generate_and_factor_tile_matrix",
    "generate_and_factor_tlr_matrix",
    "block_cholesky",
    "block_cholesky_solve",
    "block_logdet_from_factor",
    "TileGrid",
    "TileMatrix",
    "tile_cholesky",
    "logdet_from_tile_factor",
    "tile_cholesky_solve",
    "tile_solve_triangular",
    "LowRank",
    "compress",
    "TLRMatrix",
    "tlr_cholesky",
    "logdet_from_tlr_factor",
    "tlr_cholesky_solve",
    "tlr_solve_triangular",
]
