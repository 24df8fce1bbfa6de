"""Linear algebra substrates (paper §V).

Three families, mirroring the paper's three computation variants:

* ``blocklapack`` — the **Full-block** reference (LAPACK-style dense
  Cholesky via scipy; the paper's Intel MKL baseline);
* ``tile_*`` — the **Full-tile** dense tile algorithms (Chameleon
  substitute): tile matrices, task-based tile Cholesky, tile solves;
* ``compression`` + ``tlr_*`` — the **TLR** data format and algorithms
  (HiCMA substitute): per-tile low-rank compression (SVD / RSVD / ACA),
  a left-looking TLR Cholesky that updates each tile while it is dense
  and compresses it once, TLR solves and matvec.

``generation`` is the covariance *generation pipeline* shared by the tile
and TLR variants: a per-fit :class:`~repro.linalg.generation.TileDistanceCache`
amortizing pairwise-distance work across likelihood evaluations, and
task-parallel generation fused into the factorization task graph.
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
from .tlr_matvec import tlr_symmetric_matvec
from .generation import (
    CrossDistanceCache,
    TileDistanceCache,
    empty_tile_matrix,
    empty_tlr_matrix,
    generate_and_factor_tile_matrix,
    generate_and_factor_tlr_matrix,
    generate_tlr_matrix,
    insert_tile_generation_tasks,
    insert_tlr_generation_tasks,
)

__all__ = [
    "CrossDistanceCache",
    "TileDistanceCache",
    "empty_tile_matrix",
    "empty_tlr_matrix",
    "generate_tlr_matrix",
    "generate_and_factor_tile_matrix",
    "generate_and_factor_tlr_matrix",
    "insert_tile_generation_tasks",
    "insert_tlr_generation_tasks",
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
    "tlr_symmetric_matvec",
]
