"""The covariance generation pipeline (distance caching + fused tasks).

The MLE hot loop evaluates ``theta -> loglik`` hundreds of times, and
every evaluation starts by *generating* ``Sigma(theta)`` tile by tile.
Two observations make this stage much cheaper than the seed
implementation's serial regenerate-everything loop:

1. **Locations are fixed for the whole fit.** A covariance tile is
   ``variance * correlation(distances) (+ nugget)``; only the
   correlation parameters change between evaluations. The
   :class:`TileDistanceCache` computes each tile's pairwise-distance
   block once (the GEMM + sqrt — or haversine trigonometry — that
   dominates generation) and every subsequent evaluation only applies
   the correlation function to the cached block. ExaGeoStatR makes the
   same locations-fixed observation to amortize generation cost.

2. **Generation is embarrassingly parallel and need not be a barrier.**
   The ExaGeoStat paper task-parallelizes generation on the same runtime
   that executes the factorization. :func:`insert_tile_generation_tasks`
   / :func:`insert_tlr_generation_tasks` insert one generation task per
   tile column (dense) or one generate+compress task per tile (TLR) into
   a :class:`~repro.runtime.Runtime` and hand back the data handles, so
   the Cholesky task graph submitted on the *same* handles depends on
   each generation task individually — the factorization of early panels
   starts while late columns are still being generated
   (sequential-task-flow, no global barrier).

Both pieces are value-preserving: cached-distance tiles are bit-identical
to directly generated ones (they share the
:func:`~repro.kernels.distance.pairwise_distance_block` code path), and
task-parallel generation produces identical matrices to the serial loop.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..config import get_config
from ..exceptions import ShapeError
from ..kernels.covariance import CovarianceModel
from ..kernels.distance import pairwise_distance, pairwise_distance_block
from ..runtime import AccessMode, Runtime
from ..runtime.handle import DataHandle
from ..utils.validation import check_locations
from .compression import LowRank, compress
from .tile_matrix import TileGrid, TileMatrix, materialize_tile
from .tlr_matrix import TLRMatrix

__all__ = [
    "TileDistanceCache",
    "CrossDistanceCache",
    "array_content_key",
    "insert_tile_generation_tasks",
    "insert_tlr_generation_tasks",
    "generate_tlr_matrix",
    "generate_and_factor_tile_matrix",
    "generate_and_factor_tlr_matrix",
    "empty_tile_matrix",
    "empty_tlr_matrix",
]


def array_content_key(arr: np.ndarray) -> Tuple[Tuple[int, ...], bytes]:
    """Shape + content digest of an array, usable as a dict key
    (how :class:`CrossDistanceCache` keys its target sets)."""
    return (arr.shape, hashlib.sha1(arr.tobytes()).digest())


class TileDistanceCache:
    """Per-fit cache of tile distance blocks over fixed locations.

    Parameters
    ----------
    locations:
        ``(n, d)`` spatial locations (fixed for the lifetime of the
        cache — one MLE fit).
    nb:
        Tile size; blocks are cached per ``(row_slice, col_slice)`` pair,
        so any tiling-compatible slices work (the grid is advisory).
    metric:
        Distance metric, as in :func:`~repro.kernels.distance.pairwise_distance`.

    Notes
    -----
    Memory: caching the lower triangle of an ``n x n`` problem costs
    ``~4 n^2`` bytes of float64 distance data (half the dense matrix).
    Disable with ``cache_distances=False`` on the engine when memory-bound.

    Thread safety: concurrent :meth:`block` calls are safe under the GIL.
    Distinct tiles never collide; duplicate keys at worst recompute the
    same values (a benign race — both arrays are identical and read-only
    by convention).
    """

    def __init__(self, locations: np.ndarray, nb: int, *, metric: str = "euclidean") -> None:
        self.locations = check_locations(locations, "locations")
        self.grid = TileGrid(self.locations.shape[0], nb)
        self.metric = metric
        self._blocks: Dict[Tuple[int, int, int, int], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """Distance block for ``locations[rows] x locations[cols]`` (cached).

        The returned array is shared across calls — callers must treat it
        as read-only (covariance application allocates fresh output).
        """
        key = (rows.start or 0, rows.stop, cols.start or 0, cols.stop)
        d = self._blocks.get(key)
        if d is None:
            self.misses += 1
            d = pairwise_distance_block(self.locations, rows, cols, metric=self.metric)
            self._blocks[key] = d
        else:
            self.hits += 1
        return d

    def generator(self, model: CovarianceModel) -> Callable[[slice, slice], np.ndarray]:
        """A tile generator closure applying ``model`` to cached distances.

        Drop-in replacement for ``lambda rs, cs: model.tile(locs, rs, cs)``
        with bit-identical output.
        """

        def generate(rows: slice, cols: slice) -> np.ndarray:
            return model.tile_from_distances(self.block(rows, cols), rows, cols)

        return generate

    def warm(self) -> "TileDistanceCache":
        """Precompute every lower-triangular block of the grid."""
        for i in range(self.grid.nt):
            for j in range(i + 1):
                self.block(self.grid.tile_slice(i), self.grid.tile_slice(j))
        return self

    def clear(self) -> None:
        """Drop all cached blocks (and hit/miss counters)."""
        self._blocks.clear()
        self.hits = 0
        self.misses = 0

    def export_blocks(self) -> Dict[Tuple[int, int, int, int], np.ndarray]:
        """Snapshot of the cached blocks, keyed ``(r0, r1, c0, c1)``.

        Used by :mod:`repro.serving.store` to persist the distance work
        of a fit alongside the fitted model; the arrays are shared (not
        copied) and must be treated as read-only.
        """
        return dict(self._blocks)

    def load_blocks(
        self, blocks: Mapping[Tuple[int, int, int, int], np.ndarray]
    ) -> int:
        """Rehydrate previously exported blocks into this cache.

        The serving counterpart of :meth:`export_blocks`: a cache built
        over the same locations and metric can be pre-seeded from a
        persisted bundle so a freshly loaded model pays no distance
        computation at all. Keys are ``(row_start, row_stop, col_start,
        col_stop)`` tuples; installing counts as neither hit nor miss.

        Returns the number of blocks installed.
        """
        count = 0
        for key, d in blocks.items():
            r0, r1, c0, c1 = (int(v) for v in key)
            arr = np.asarray(d, dtype=np.float64)
            expected = (r1 - r0, c1 - c0)
            if arr.shape != expected:
                raise ShapeError(
                    f"distance block {key} has shape {arr.shape}, expected {expected}"
                )
            self._blocks[(r0, r1, c0, c1)] = arr
            count += 1
        return count

    @property
    def n_blocks(self) -> int:
        """Number of cached distance blocks."""
        return len(self._blocks)

    @property
    def nbytes(self) -> int:
        """Bytes held by cached distance blocks."""
        return int(sum(b.nbytes for b in self._blocks.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TileDistanceCache(n={self.grid.n}, nb={self.grid.nb}, "
            f"blocks={self.n_blocks}, {self.nbytes / 1e6:.1f} MB)"
        )


class CrossDistanceCache:
    """Cache of cross-distance matrices ``d(targets, locations)``.

    The prediction operation (paper eq. (4)) builds the ``m x n``
    cross-covariance ``Sigma_12`` between the prediction targets and the
    fixed training locations on every call. Targets are routinely reused
    — repeated prediction over realizations of one fitted model, or a
    fixed evaluation grid — so this cache keys the (theta-independent)
    distance matrix by a content digest of the target coordinates, the
    cross analogue of :class:`TileDistanceCache`.

    Parameters
    ----------
    locations:
        ``(n, d)`` training locations (fixed for the cache's lifetime).
    metric:
        Distance metric, as in :func:`~repro.kernels.distance.pairwise_distance`.
    max_entries:
        Bound on retained target sets (least-recently-used eviction);
        each entry holds an ``m x n`` float64 matrix.
    """

    def __init__(
        self, locations: np.ndarray, *, metric: str = "euclidean", max_entries: int = 8
    ) -> None:
        self.locations = check_locations(locations, "locations")
        self.metric = metric
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[Tuple[int, ...], bytes], np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(targets: np.ndarray) -> Tuple[Tuple[int, ...], bytes]:
        return array_content_key(targets)

    def matrix(self, targets: np.ndarray) -> np.ndarray:
        """Distance matrix ``targets x locations`` (cached by content).

        The returned array is shared across calls — callers must treat it
        as read-only (covariance application allocates fresh output).
        """
        t = check_locations(targets, "targets")
        key = self._key(t)
        d = self._entries.get(key)
        if d is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return d
        self.misses += 1
        d = pairwise_distance(t, self.locations, metric=self.metric)
        self._entries[key] = d
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return d

    def clear(self) -> None:
        """Drop all cached target sets (and hit/miss counters)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    @property
    def n_entries(self) -> int:
        """Number of cached target sets."""
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes held by cached cross-distance matrices."""
        return int(sum(d.nbytes for d in self._entries.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossDistanceCache(n={self.locations.shape[0]}, "
            f"entries={self.n_entries}, {self.nbytes / 1e6:.1f} MB)"
        )


# --------------------------------------------------------------------------
# Fused (task-parallel) generation: tasks write pre-registered tile payloads
# so a factorization graph submitted on the same handles depends on each
# tile's generation task individually.
# --------------------------------------------------------------------------


def empty_tile_matrix(n: int, nb: int, *, symmetric_lower: bool = True) -> TileMatrix:
    """A :class:`TileMatrix` with uninitialized storage, for generation
    tasks to fill in place."""
    return TileMatrix(TileGrid(n, nb), symmetric_lower=symmetric_lower)


def empty_tlr_matrix(n: int, nb: int, acc: float) -> TLRMatrix:
    """A :class:`TLRMatrix` with empty diagonal buffers and rank-0 off-diagonals.

    Generation tasks fill diagonal tiles in place and *replace* the
    factors of the placeholder :class:`LowRank` blocks (rank changes are
    part of the LowRank contract, exactly as TLR GEMM recompression does).
    """
    grid = TileGrid(n, nb)
    tlr = TLRMatrix(grid, acc)
    for i in range(grid.nt):
        tlr.diag[i] = np.empty((grid.tile_size(i), grid.tile_size(i)))
        for j in range(i):
            m, k = grid.tile_size(i), grid.tile_size(j)
            tlr.low[(i, j)] = LowRank(np.zeros((m, 0)), np.zeros((0, k)))
    return tlr


def _fill_dense_codelet(
    out: np.ndarray,
    generate: Callable[[slice, slice], np.ndarray],
    rows: slice,
    cols: slice,
    i: int,
    j: int,
) -> None:
    """Codelet: generate tile ``(i, j)`` into the pre-registered buffer."""
    out[...] = materialize_tile(generate(rows, cols), out.shape, i, j)


def _fill_lowrank_batch_codelet(*packed: object) -> None:
    """Codelet: generate + compress one or more tiles in one runtime task.

    The leading payloads are the batch's :class:`LowRank` blocks (in the
    order of ``specs``); the single trailing argument carries everything
    else, so the variable payload count stays unambiguous. Per-tile
    arithmetic does not depend on the batch size — batching only
    amortizes per-task runtime overhead when tiles are small.
    ``method``/``rule``/``seed`` arrive resolved by the submitting thread.
    """
    lrs = packed[:-1]
    generate, specs, acc, method, rule, seed = packed[-1]  # type: ignore[misc]
    kwargs = {} if seed is None else {"seed": seed}
    for lr, (rows, cols, i, j) in zip(lrs, specs):
        dense = materialize_tile(generate(rows, cols), lr.shape, i, j)
        c = compress(dense, acc, method=method, rule=rule, **kwargs)
        lr.set_factors(c.u, c.v)


def insert_tile_generation_tasks(
    runtime: Runtime,
    tiles: TileMatrix,
    generate: Callable[[slice, slice], np.ndarray],
) -> List[DataHandle]:
    """Insert one generation task per tile column of ``tiles``.

    Returns the per-column handles to pass to
    :func:`~repro.linalg.tile_cholesky.tile_cholesky` so factorization
    tasks depend on each column's generation task (no barrier). The
    caller owns synchronization: the tiles are valid only after the
    runtime's ``wait_all`` (which the fused Cholesky performs).

    Each task fills its column tile by tile through ``generate`` — the
    calls, and with them the :class:`TileDistanceCache` keys, of the
    serial loop. Priorities sit above the factorization's panel tasks
    and decrease with the column, the order the Cholesky consumes them.
    """
    nt = tiles.nt
    handles = [runtime.register(tiles.panel(j)) for j in range(nt)]
    for j in range(nt):
        runtime.insert_task(
            # The column payload only orders the task; the write goes
            # through ``tiles``.
            lambda _column, j=j: tiles.fill_column(j, generate),
            [(handles[j], AccessMode.READWRITE)],
            name=("gen", j),
            priority=4 * (nt - j),
        )
    return handles


def insert_tlr_generation_tasks(
    runtime: Runtime,
    tlr: TLRMatrix,
    generate: Callable[[slice, slice], np.ndarray],
    *,
    method: str,
    rule: str,
    compression_batch: Optional[int] = None,
) -> Tuple[Dict[int, DataHandle], Dict[Tuple[int, int], DataHandle]]:
    """Insert generate(+compress) tasks for every tile of ``tlr``.

    Returns ``(diag_handles, low_handles)`` for
    :func:`~repro.linalg.tlr_cholesky.tlr_cholesky`, fusing generation
    and compression into the factorization task graph. ``method`` and
    ``rule`` must be pre-resolved (workers do not consult the
    thread-local config).

    ``compression_batch`` groups that many off-diagonal tiles' SVDs into
    one task (default: configured ``compression_batch``, resolved on the
    submitting thread). When ``nb`` is small relative to ``nt`` each
    per-tile compression is cheap and per-task overhead dominates;
    batching amortizes it. Tiles are grouped in column-major order — the
    order the right-looking Cholesky first consumes them — and values
    are identical for any batch size.
    """
    grid = tlr.grid
    nt = grid.nt
    batch = (
        get_config().compression_batch
        if compression_batch is None
        else max(1, int(compression_batch))
    )
    # The adaptive randomized compressor seeds itself from the config when
    # unseeded; resolve that here too, on the submitting thread.
    seed = get_config().rng_seed if method == "rsvd" else None
    dh: Dict[int, DataHandle] = {
        k: runtime.register(tlr.diag[k], name=f"D[{k}]") for k in range(nt)
    }
    lh: Dict[Tuple[int, int], DataHandle] = {
        key: runtime.register(lr, name=f"L[{key[0]},{key[1]}]") for key, lr in tlr.low.items()
    }
    for k in range(nt):
        runtime.insert_task(
            _fill_dense_codelet,
            [(dh[k], AccessMode.READWRITE)],
            args=(generate, grid.tile_slice(k), grid.tile_slice(k), k, k),
            name=f"gen({k},{k})",
            priority=4 * (nt - k),
        )
    keys = sorted(tlr.low, key=lambda ij: (ij[1], ij[0]))  # column-major
    for start in range(0, len(keys), batch):
        group = keys[start : start + batch]
        specs = [
            (grid.tile_slice(i), grid.tile_slice(j), i, j) for (i, j) in group
        ]
        runtime.insert_task(
            _fill_lowrank_batch_codelet,
            [(lh[key], AccessMode.READWRITE) for key in group],
            args=((generate, specs, tlr.acc, method, rule, seed),),
            name=f"genb({group[0][0]},{group[0][1]})x{len(group)}",
            priority=4 * (nt - group[0][1]),
        )
    return dh, lh


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
    with ``fused`` (and a runtime), generation tasks are inserted via
    :func:`insert_tile_generation_tasks` and the factorization's task
    graph depends on them per column; otherwise generation is a serial
    loop and the factorization runs serially or on the runtime.

    ``times`` optionally accumulates the ``generation`` /
    ``factorization`` stage split (in fused mode the ``generation``
    stage is task-submission time only — the generation work itself
    overlaps the factorization).
    """
    from ..utils.timer import StageTimes  # local: utils must not import linalg
    from .tile_cholesky import tile_cholesky  # local: avoid import cycle

    times = StageTimes() if times is None else times
    handles = None
    with times.stage("generation"):
        if fused and runtime is not None:
            tiles = empty_tile_matrix(n, nb, symmetric_lower=True)
            handles = insert_tile_generation_tasks(runtime, tiles, generate)
        else:
            tiles = TileMatrix.from_generator(n, nb, generate, symmetric_lower=True)
    with times.stage("factorization"):
        tile_cholesky(tiles, runtime=runtime, handles=handles)
    return tiles


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
    """Generate+compress a TLR matrix and Cholesky-factor it in place.

    The TLR analogue of :func:`generate_and_factor_tile_matrix` (fused
    mode additionally folds per-tile compression into the task graph,
    ``compression_batch`` tiles per task). ``method``/``rule`` must be
    pre-resolved, as for :func:`insert_tlr_generation_tasks`.
    """
    from ..utils.timer import StageTimes  # local: utils must not import linalg
    from .tlr_cholesky import tlr_cholesky  # local: avoid import cycle

    times = StageTimes() if times is None else times
    if fused and runtime is not None:
        with times.stage("generation"):
            tlr = empty_tlr_matrix(n, nb, acc)
            handles = insert_tlr_generation_tasks(
                runtime,
                tlr,
                generate,
                method=method,
                rule=rule,
                compression_batch=compression_batch,
            )
        with times.stage("factorization"):
            tlr_cholesky(tlr, runtime=runtime, handles=handles)
    else:
        with times.stage("generation"):
            tlr = TLRMatrix.from_generator(
                n, nb, generate, acc=acc, method=method, rule=rule
            )
        with times.stage("factorization"):
            tlr_cholesky(tlr, runtime=runtime)
    return tlr


def generate_tlr_matrix(
    n: int,
    nb: int,
    generate: Callable[[slice, slice], np.ndarray],
    acc: float,
    runtime: Runtime,
    *,
    method: str,
    rule: str,
    compression_batch: Optional[int] = None,
) -> TLRMatrix:
    """Task-parallel standalone generation of a :class:`TLRMatrix`.

    One generate+compress task per ``compression_batch`` tiles, then a
    barrier; used by ``TLRMatrix.from_generator(runtime=...)``.
    ``method``/``rule`` must be pre-resolved.
    """
    tlr = empty_tlr_matrix(n, nb, acc)
    insert_tlr_generation_tasks(
        runtime, tlr, generate, method=method, rule=rule,
        compression_batch=compression_batch,
    )
    try:
        runtime.wait_all()
    finally:
        runtime.tracker.reset()
    return tlr
