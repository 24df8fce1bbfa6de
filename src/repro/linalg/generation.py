"""The covariance generation pipeline: distances computed in the task,
from coordinates.

The MLE hot loop evaluates ``theta -> loglik`` hundreds of times, and
every evaluation starts by *generating* ``Sigma(theta)`` block by block:
``variance * correlation(distances) (+ nugget)``.

1. **Distances are computed in the task, from coordinates.** The
   generator of :class:`TileDistanceCache` computes a block's distances
   inside the task that uses the block and applies the kernel in the
   same storage — ExaGeoStat's generation codelet. Nothing is kept
   between factorizations: an engine holds ``O(n)`` location data, not
   the ``~4 n^2`` bytes of a distance cache (more than the TLR factor it
   would feed). A full-tile ``GEN`` task generates its whole column
   panel with one call, in the tile matrix's own storage.

2. **Generation is embarrassingly parallel and need not be a barrier.**
   The ExaGeoStat paper task-parallelizes generation on the same runtime
   that executes the factorization. Both substrates' Cholesky graphs
   take their blocks from a :class:`~repro.linalg.tile_matrix.TileSource`
   and :func:`generate_and_factor_tile_matrix` /
   :func:`generate_and_factor_tlr_matrix` feed them one. The full-tile
   graph (:func:`~repro.linalg.tile_cholesky.tile_cholesky_from_source`)
   puts one generation task per tile column ahead of the factorization,
   and each column's factorization depends on its own generation task
   only — early panels are factored while late columns are still being
   generated (sequential-task-flow, no global barrier). The TLR graph
   (:func:`~repro.linalg.tlr_cholesky.tlr_cholesky_from_source`) goes one
   step further: each of its tasks generates its own tile, updates it
   while dense and compresses it once.

Both pieces are value-preserving: every block's distances come from
:func:`~repro.kernels.distance.pairwise_distance_block`, whose entries
do not depend on the block they are generated in (a one-row block
excepted: numpy hands a one-row product to a vector kernel), and the
fused graphs give the factor of the serial generate-then-factor loop,
bit for bit.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..kernels.covariance import CovarianceModel
from ..kernels.distance import pairwise_distance, pairwise_distance_block
from ..runtime import Runtime
from ..utils.validation import check_locations
from .compression import LowRank
from .tile_cholesky import tile_cholesky, tile_cholesky_from_source
from .tile_matrix import TileGrid, TileMatrix, tile_source
from .tlr_cholesky import tlr_cholesky_from_source
from .tlr_matrix import TLRMatrix

__all__ = [
    "TileDistanceCache",
    "CrossDistanceCache",
    "array_content_key",
    "generate_and_factor_tile_matrix",
    "generate_and_factor_tlr_matrix",
]


def array_content_key(arr: np.ndarray) -> Tuple[Tuple[int, ...], bytes]:
    """Shape + content digest of an array, usable as a dict key
    (how :class:`CrossDistanceCache` keys its target sets)."""
    return (arr.shape, hashlib.sha1(arr.tobytes()).digest())


class TileDistanceCache:
    """Distance blocks over fixed locations, computed from coordinates.

    The engine's generator object: :meth:`generator` gives ``Sigma_22``'s
    blocks (a TLR task's tiles, a full-tile ``GEN`` task's column panels)
    with the distances computed in the task. :meth:`block` keeps nothing
    it computes; only :meth:`warm` stores blocks (for tools that replay
    one generation's kernels).

    Parameters
    ----------
    locations:
        ``(n, d)`` spatial locations (fixed for the object's lifetime).
    nb:
        Tile size of :attr:`grid` (what :meth:`warm` stores); any
        tiling-compatible slices may be asked for.
    metric:
        Distance metric, as in :func:`~repro.kernels.distance.pairwise_distance`.

    Notes
    -----
    Memory: unwarmed, the object holds the ``(n, d)`` locations only.
    :meth:`warm` stores the lower triangle's distances, ``~4 n^2`` bytes
    of float64 (half the dense matrix); the engine never calls it.

    Thread safety: concurrent :meth:`block` calls are safe under the GIL
    (the hit/miss counters may undercount).
    """

    def __init__(self, locations: np.ndarray, nb: int, *, metric: str = "euclidean") -> None:
        self.locations = check_locations(locations, "locations")
        self.grid = TileGrid(self.locations.shape[0], nb)
        self.metric = metric
        self._blocks: Dict[Tuple[int, int, int, int], np.ndarray] = {}
        self.hits = 0  # blocks served from warm()'s store
        self.misses = 0  # blocks computed

    def block(self, rows: slice, cols: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Distance block for ``locations[rows] x locations[cols]``.

        The block :meth:`warm` stored (shared: callers must treat it as
        read-only), or one computed now — in ``out`` when given — and
        not kept. With ``out``, a stored block is copied into it.
        """
        d = self._blocks.get((rows.start or 0, rows.stop, cols.start or 0, cols.stop))
        if d is None:
            self.misses += 1
            return pairwise_distance_block(self.locations, rows, cols, metric=self.metric, out=out)
        self.hits += 1
        if out is None:
            return d
        out[...] = d
        return out

    def generator(self, model: CovarianceModel) -> "_CovarianceGenerator":
        """The covariance block generator of ``model`` over these locations.

        ``generate(rows, cols)`` returns a new block, bit-identical to
        ``model.tile(locations, rows, cols)``; ``generate.fill(out, rows,
        cols)`` computes it in ``out`` (what
        :meth:`~repro.linalg.tile_matrix.TileSource.fill` calls).
        """
        return _CovarianceGenerator(self, model)

    def warm(self) -> "TileDistanceCache":
        """Compute and store every lower-triangular tile's distances."""
        for i in range(self.grid.nt):
            for j in range(i + 1):
                rows, cols = self.grid.tile_slice(i), self.grid.tile_slice(j)
                self._blocks[(rows.start, rows.stop, cols.start, cols.stop)] = self.block(rows, cols)
        return self

    def clear(self) -> None:
        """Drop all stored blocks (and hit/miss counters)."""
        self._blocks.clear()
        self.hits = 0
        self.misses = 0

    def export_blocks(self) -> Dict[Tuple[int, int, int, int], np.ndarray]:
        """Snapshot of the stored blocks, keyed ``(r0, r1, c0, c1)``; the
        arrays are shared (not copied) and must be treated as read-only."""
        return dict(self._blocks)

    @property
    def n_blocks(self) -> int:
        """Number of stored distance blocks."""
        return len(self._blocks)

    @property
    def nbytes(self) -> int:
        """Bytes held by stored distance blocks."""
        return int(sum(b.nbytes for b in self._blocks.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TileDistanceCache(n={self.grid.n}, nb={self.grid.nb}, "
            f"blocks={self.n_blocks}, {self.nbytes / 1e6:.1f} MB)"
        )


class _CovarianceGenerator:
    """:meth:`TileDistanceCache.generator`: ``model``'s covariance blocks."""

    def __init__(self, cache: TileDistanceCache, model: CovarianceModel) -> None:
        self.cache = cache
        self.model = model

    def __call__(self, rows: slice, cols: slice) -> np.ndarray:
        n = self.cache.grid.n
        out = np.empty((len(range(n)[rows]), len(range(n)[cols])))
        self.fill(out, rows, cols)
        return out

    def fill(self, out: np.ndarray, rows: slice, cols: slice) -> None:
        """Block ``[rows, cols]`` computed in ``out``: distances, then the kernel."""
        self.model.tile_from_distances(self.cache.block(rows, cols, out), rows, cols, out=out)


class CrossDistanceCache:
    """Byte-bounded LRU of cross-distance matrices ``d(targets, locations)``.

    The prediction operation (paper eq. (4)) needs the ``m x n``
    cross-covariance ``Sigma_12`` between the prediction targets and the
    fixed training locations on every call. Targets are routinely reused
    — repeated prediction over realizations of one fitted model, or a
    fixed evaluation grid — so this cache keys the (theta-independent)
    distance matrix by a content digest of the target coordinates, the
    cross analogue of :class:`TileDistanceCache`.

    Only small target sets are worth holding: the distances are a
    fraction of the cross-covariance cost (the correlation function is
    the rest), so a large matrix costs more memory than it saves time.
    A target set whose matrix alone exceeds ``max_bytes`` is never
    stored — :meth:`lookup` reports it as a miss and returns ``None``,
    and the engine streams its distances in row blocks instead.

    Parameters
    ----------
    locations:
        ``(n, d)`` training locations (fixed for the cache's lifetime).
    metric:
        Distance metric, as in :func:`~repro.kernels.distance.pairwise_distance`.
    max_bytes:
        Bound on the bytes of stored matrices (least-recently-used
        eviction). The default holds nine ``32 x 1600`` target sets;
        an ``18 x 18`` grid against 1 600 locations (4.1 MB) is streamed.
    """

    def __init__(
        self, locations: np.ndarray, *, metric: str = "euclidean", max_bytes: int = 4_000_000
    ) -> None:
        self.locations = check_locations(locations, "locations")
        self.metric = metric
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Tuple[Tuple[int, ...], bytes], np.ndarray]" = OrderedDict()
        self.nbytes = 0  # bytes held by stored matrices
        self.hits = 0
        self.misses = 0

    def lookup(self, targets: np.ndarray) -> Optional[np.ndarray]:
        """Distance matrix ``targets x locations`` if it fits the budget.

        A hit returns the stored matrix; a miss computes and stores it,
        evicting least-recently-used sets down to ``max_bytes``. A set
        whose matrix exceeds ``max_bytes`` counts as a miss and returns
        ``None``. Stored matrices are read-only: they are shared across
        calls, and a write into one raises instead of corrupting later
        predictions.
        """
        t = check_locations(targets, "targets")
        if t.shape[0] * self.locations.shape[0] * 8 > self.max_bytes:
            self.misses += 1
            return None
        key = array_content_key(t)
        d = self._entries.get(key)
        if d is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return d
        self.misses += 1
        d = pairwise_distance(t, self.locations, metric=self.metric)
        d.setflags(write=False)
        self._entries[key] = d
        self.nbytes += d.nbytes
        while self.nbytes > self.max_bytes:
            self.nbytes -= self._entries.popitem(last=False)[1].nbytes
        return d

    def matrix(self, targets: np.ndarray) -> np.ndarray:
        """Distance matrix ``targets x locations``: :meth:`lookup`'s, or
        a fresh one for a set over the budget."""
        d = self.lookup(targets)
        if d is None:
            d = pairwise_distance(targets, self.locations, metric=self.metric)
        return d

    def clear(self) -> None:
        """Drop all cached target sets (and hit/miss counters)."""
        self._entries.clear()
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    @property
    def n_entries(self) -> int:
        """Number of cached target sets."""
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossDistanceCache(n={self.locations.shape[0]}, "
            f"entries={self.n_entries}, {self.nbytes / 1e6:.1f} MB)"
        )


# --------------------------------------------------------------------------
# Generate-and-factor: the two substrates' Cholesky graphs, fed by one
# ``generate -> TileSource`` adapter.
# --------------------------------------------------------------------------


def generate_and_factor_tile_matrix(
    n: int,
    nb: int,
    generate: Callable[[slice, slice], np.ndarray],
    *,
    runtime: Optional[Runtime] = None,
    fused: bool = False,
    times: Optional["StageTimes"] = None,
) -> TileMatrix:
    """Generate a symmetric tile matrix and Cholesky-factor it in place.

    The generation+factorization protocol shared by the MLE hot loop
    (:class:`~repro.mle.loglik.LikelihoodEvaluator`) and the prediction
    path (:class:`~repro.mle.prediction_engine.PredictionEngine`):
    with ``fused`` (and a runtime), the graph of
    :func:`~repro.linalg.tile_cholesky.tile_cholesky_from_source`
    generates each column in a task that the column's factorization
    depends on; otherwise generation is a serial loop and the
    factorization runs serially or on the runtime.

    ``times`` optionally accumulates the ``generation`` /
    ``factorization`` stage split (in fused mode the ``generation``
    stage is the allocation only — the generation work itself overlaps
    the factorization).
    """
    from ..utils.timer import StageTimes  # local: utils must not import linalg

    times = StageTimes() if times is None else times
    if fused and runtime is not None:
        with times.stage("generation"):
            tiles = TileMatrix(TileGrid(n, nb), symmetric_lower=True)
        with times.stage("factorization"):
            return tile_cholesky_from_source(
                tiles, tile_source(tiles.grid, generate), runtime=runtime
            )
    with times.stage("generation"):
        tiles = TileMatrix.from_generator(n, nb, generate, symmetric_lower=True)
    with times.stage("factorization"):
        return tile_cholesky(tiles, runtime=runtime)


def _empty_tlr_matrix(n: int, nb: int, acc: float) -> TLRMatrix:
    """A :class:`TLRMatrix` with empty diagonal buffers and rank-0 off-diagonals.

    The factorization's tasks fill diagonal tiles in place and *replace*
    the factors of the placeholder :class:`LowRank` blocks (rank changes
    are part of the LowRank contract).
    """
    grid = TileGrid(n, nb)
    tlr = TLRMatrix(grid, acc)
    for i in range(grid.nt):
        tlr.diag[i] = np.empty((grid.tile_size(i), grid.tile_size(i)))
        for j in range(i):
            m, k = grid.tile_size(i), grid.tile_size(j)
            tlr.low[(i, j)] = LowRank(np.zeros((m, 0)), np.zeros((0, k)))
    return tlr


def generate_and_factor_tlr_matrix(
    n: int,
    nb: int,
    generate: Callable[[slice, slice], np.ndarray],
    acc: float,
    *,
    method: str,
    rule: str,
    runtime: Optional[Runtime] = None,
    fused: bool = False,
    times: Optional["StageTimes"] = None,
    compression_batch: Optional[int] = None,
) -> TLRMatrix:
    """Generate, compress and Cholesky-factor a TLR matrix in one graph.

    The TLR analogue of :func:`generate_and_factor_tile_matrix`: the
    left-looking graph of
    :func:`~repro.linalg.tlr_cholesky.tlr_cholesky_from_source` with
    ``generate`` as its dense source, so every task generates its tile,
    updates it while dense and compresses it once. The same codelets run
    serially (``runtime=None``) or as runtime tasks, with
    ``compression_batch`` off-diagonal tiles of one column per task, and
    give a bit-identical factor. Generation always happens inside the
    graph's tasks, so ``fused`` changes nothing here, and the
    ``generation`` stage of ``times`` holds only the allocation of the
    empty matrix. ``method``/``rule`` must be pre-resolved.
    """
    from ..utils.timer import StageTimes  # local: utils must not import linalg

    times = StageTimes() if times is None else times
    with times.stage("generation"):
        tlr = _empty_tlr_matrix(n, nb, acc)
    with times.stage("factorization"):
        return tlr_cholesky_from_source(
            tlr, tile_source(tlr.grid, generate), acc, method=method, rule=rule,
            runtime=runtime, compression_batch=compression_batch,
        )
