"""The model registry: lazy bundles, warm engines, sharded runtimes.

A serving worker holds many fitted models but only a bounded number of
them warm: each warm model is a :class:`~repro.mle.prediction_engine.
PredictionEngine` whose ``Sigma_22`` factor and distance caches are
O(n²) memory. :class:`ModelRegistry` is the thread-safe keeper of that
working set:

* **Lazy loading.** Models are *registered* by bundle path (cheap);
  the bundle is read and its engine built on the first request.
* **LRU bounding.** At most ``max_models`` engines stay resident;
  the least-recently-used engine is dropped and transparently
  rehydrated from its bundle when requested again.
* **Sharding.** Models are assigned to ``num_shards`` shards by a
  stable hash of their id. Each shard owns (lazily) one
  :class:`~repro.runtime.Runtime` worker pool shared by its engines —
  the single-process analogue of spreading models across serving
  workers, bounding total thread count regardless of model count.
  Runtime shutdown is idempotent, so :meth:`close` (or the context
  manager) can always recycle the pools safely.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import BundleCorruptError, ConfigurationError, ModelNotFoundError
from ..mle.prediction_engine import GENERATION_OPTIONS, PredictionEngine
from ..resilience.faults import fault_point
from ..runtime import Runtime
from ..telemetry import spans as _telemetry
from .store import ModelBundle, load_model

__all__ = ["ModelRegistry"]


def _stable_shard(model_id: str, num_shards: int) -> int:
    """Deterministic shard assignment, stable across processes and runs."""
    digest = hashlib.sha1(model_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_shards


class ModelRegistry:
    """Thread-safe registry of persisted models and warm engines.

    Parameters
    ----------
    max_models:
        Engines kept warm; least-recently-used eviction beyond that
        (an evicted model rehydrates from its bundle on the next request).
    num_shards:
        Shards the model space is hashed into. Only meaningful together
        with ``workers_per_shard``.
    workers_per_shard:
        When set, each shard lazily creates a
        :class:`~repro.runtime.Runtime` with that many workers, shared
        by every engine on the shard (task-parallel factorizations).
        ``None`` (default) builds serial engines — the right choice for
        many small models.
    **engine_options:
        Any of :data:`~repro.mle.prediction_engine.GENERATION_OPTIONS`,
        forwarded to every
        :meth:`~repro.serving.store.ModelBundle.build_engine` call; see
        :class:`~repro.mle.prediction_engine.PredictionEngine`.

    Examples
    --------
    >>> from repro.serving import ModelRegistry
    >>> registry = ModelRegistry(max_models=2)      # doctest: +SKIP
    >>> registry.register("soil", "fits/soil.bundle")  # doctest: +SKIP
    >>> registry.engine("soil").predict(targets)    # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        max_models: int = 8,
        num_shards: int = 1,
        workers_per_shard: Optional[int] = None,
        **engine_options: object,
    ) -> None:
        # Nonsense knobs are rejected here, at construction, instead of
        # being silently clamped or surfacing as a confusing failure on
        # the first request.
        if int(max_models) < 1:
            raise ConfigurationError(f"max_models must be >= 1, got {max_models}")
        self.max_models = int(max_models)
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        if workers_per_shard is not None and int(workers_per_shard) < 1:
            raise ConfigurationError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        self.workers_per_shard = workers_per_shard
        unknown = sorted(set(engine_options) - set(GENERATION_OPTIONS))
        if unknown:
            raise ConfigurationError(
                f"unknown registry options {unknown}; engine options are "
                f"{GENERATION_OPTIONS}"
            )
        self.engine_options = engine_options
        self._lock = threading.RLock()
        self._load_locks: Dict[str, threading.Lock] = {}  # per-model cold loads
        self._paths: Dict[str, Path] = {}
        self._bundles: Dict[str, ModelBundle] = {}  # in-memory (unsaved) bundles
        self._engines: "OrderedDict[str, PredictionEngine]" = OrderedDict()
        # Last-known-good engine per model, held *outside* the LRU so a
        # bundle that turns corrupt after its engine was evicted can still
        # be served (degraded) from the previous generation.
        self._lkg: Dict[str, PredictionEngine] = {}
        self._degraded: set = set()
        self._runtimes: Dict[int, Runtime] = {}
        self._closed = False
        self.n_loads = 0
        self.n_evictions = 0
        self.n_hits = 0
        self.n_reloads = 0
        self.n_fallbacks = 0

    # ------------------------------------------------------------- register
    def register(self, model_id: str, path: Union[str, Path]) -> "ModelRegistry":
        """Register a persisted bundle under ``model_id`` (no I/O yet)."""
        with self._lock:
            self._check_open()
            self._paths[model_id] = Path(path)
        return self

    def add_bundle(self, model_id: str, bundle: ModelBundle) -> "ModelRegistry":
        """Register an in-memory bundle (kept resident; survives eviction)."""
        with self._lock:
            self._check_open()
            self._bundles[model_id] = bundle
        return self

    def add_engine(self, model_id: str, engine: PredictionEngine) -> "ModelRegistry":
        """Install a pre-built engine directly (counts toward ``max_models``).

        Without a registered path or bundle for ``model_id`` the engine
        cannot be rehydrated after eviction — intended for engines whose
        fit just happened in this process, and for tests.
        """
        with self._lock:
            self._install_locked(model_id, engine)
        return self

    # --------------------------------------------------------------- lookup
    def shard_of(self, model_id: str) -> int:
        """The shard ``model_id`` is hashed onto (stable across runs)."""
        return _stable_shard(model_id, self.num_shards)

    def path_of(self, model_id: str) -> Optional[Path]:
        """The bundle path ``model_id`` is registered at, or ``None``
        for purely in-memory models. The fitting service uses this to
        point a warm-start refit (:class:`~repro.fitting.FitJobSpec`
        ``bundle_path``) at a served model's data and theta."""
        with self._lock:
            return self._paths.get(model_id)

    def has(self, model_id: str) -> bool:
        """True when ``model_id`` can currently be served (warm or loadable)."""
        with self._lock:
            return (
                not self._closed
                and (
                    model_id in self._engines
                    or model_id in self._bundles
                    or model_id in self._paths
                )
            )

    def engine(self, model_id: str) -> PredictionEngine:
        """The warm engine for ``model_id``, loading/rehydrating as needed.

        A cold load (disk read + engine construction) runs under a
        per-model lock with the registry-wide lock *released*, so one
        model's load never stalls warm lookups of other models;
        concurrent requests for the same cold model still load it once.

        Raises
        ------
        ModelNotFoundError
            If ``model_id`` was never registered, or was installed only
            via :meth:`add_engine` and has since been evicted.
        """
        with self._lock:
            self._check_open()
            engine = self._engines.get(model_id)
            if engine is not None:
                self._engines.move_to_end(model_id)
                self.n_hits += 1
                return engine
            if model_id not in self._bundles and model_id not in self._paths:
                raise ModelNotFoundError(
                    f"model {model_id!r} is not registered (or was evicted "
                    f"with no bundle to rehydrate from)"
                )
            load_lock = self._load_locks.setdefault(model_id, threading.Lock())
        with load_lock:
            with self._lock:  # another thread may have finished the load
                self._check_open()
                engine = self._engines.get(model_id)
                if engine is not None:
                    self._engines.move_to_end(model_id)
                    self.n_hits += 1
                    return engine
                bundle = self._bundles.get(model_id)
                path = self._paths.get(model_id)
                runtime = self._shard_runtime(model_id)
            try:
                # A cold load is the largest single latency cliff a
                # predict can hit — worth its own span on the trace.
                with _telemetry.span("registry.load", model=model_id):
                    if bundle is None:
                        if path is None:
                            raise ModelNotFoundError(
                                f"model {model_id!r} is not registered (or was evicted "
                                f"with no bundle to rehydrate from)"
                            )
                        fault_point("registry.rehydrate")
                        bundle = load_model(path)
                    engine = bundle.build_engine(runtime=runtime, **self.engine_options)
            except BundleCorruptError:
                # The persisted bundle is gone (quarantined), but a
                # previous engine generation may still be in memory —
                # serve it, flagged degraded, instead of failing hard.
                fallback = self._install_fallback_locked(model_id)
                if fallback is None:
                    raise
                return fallback
            with self._lock:
                self._install_locked(model_id, engine)
                self.n_loads += 1
                return engine

    def _install_locked(
        self, model_id: str, engine: PredictionEngine, *, degraded: bool = False
    ) -> None:
        """Make ``engine`` the warm (most recently used) engine of
        ``model_id`` — the caller holds the lock. A healthy install also
        becomes the last-known-good generation; a ``degraded`` one is
        that generation being put back in service."""
        self._check_open()
        self._engines[model_id] = engine
        self._engines.move_to_end(model_id)
        if degraded:
            self._degraded.add(model_id)
        else:
            self._lkg[model_id] = engine
            self._degraded.discard(model_id)
        self._evict_over_budget()

    def _install_fallback_locked(self, model_id: str) -> Optional[PredictionEngine]:
        """Re-install the last-known-good engine as the warm engine,
        marking the model degraded. ``None`` when no LKG exists."""
        with self._lock:
            engine = self._lkg.get(model_id)
            if engine is None:
                return None
            self._install_locked(model_id, engine, degraded=True)
            self.n_fallbacks += 1
            return engine

    def fallback_engine(self, model_id: str) -> Optional[PredictionEngine]:
        """The last-known-good engine for ``model_id`` (or ``None``).

        Unlike :meth:`engine` this never touches disk: it is the
        degraded-serving path used when the primary is broken or a
        circuit breaker is open.
        """
        with self._lock:
            return self._lkg.get(model_id)

    def is_degraded(self, model_id: str) -> bool:
        """True while ``model_id`` serves from a fallback generation."""
        with self._lock:
            return model_id in self._degraded

    @property
    def degraded_models(self) -> List[str]:
        """Model ids currently serving from a fallback generation."""
        with self._lock:
            return sorted(self._degraded)

    def _shard_runtime(self, model_id: str) -> Optional[Runtime]:
        if self.workers_per_shard is None:
            return None
        shard = self.shard_of(model_id)
        rt = self._runtimes.get(shard)
        if rt is None or rt.closed:
            rt = Runtime(num_workers=self.workers_per_shard)
            self._runtimes[shard] = rt
        return rt

    def _evict_over_budget(self) -> None:
        while len(self._engines) > self.max_models:
            evicted_id, _ = self._engines.popitem(last=False)
            self.n_evictions += 1

    # -------------------------------------------------------------- reload
    def reload(
        self,
        model_id: str,
        *,
        path: Optional[Union[str, Path]] = None,
        bundle: Optional[ModelBundle] = None,
    ) -> PredictionEngine:
        """Atomically swap in a re-fitted bundle under a stable model id.

        The replacement engine is built *before* the swap, off the
        registry lock, so warm lookups of every model — including the
        one being reloaded — keep succeeding on the old engine while
        the new one loads. The swap itself is a dict update under the
        lock: in-flight predicts holding the old engine finish on it,
        every later :meth:`engine` call sees the new one.

        Parameters
        ----------
        model_id:
            The stable id clients keep using across the swap.
        path:
            New bundle directory to load from (also becomes the model's
            registered path for future rehydrations). Default: re-read
            the currently registered path — the re-fit overwrote the
            bundle in place.
        bundle:
            An in-memory replacement bundle (mutually exclusive with
            ``path``).

        Raises
        ------
        ModelNotFoundError
            ``model_id`` has no registered path or bundle to load from.
        BundleError
            The replacement bundle is missing or malformed (the old
            engine stays installed and keeps serving).
        """
        if path is not None and bundle is not None:
            raise ConfigurationError("pass either path or bundle to reload(), not both")
        with self._lock:
            self._check_open()
            if bundle is not None:
                src_bundle, src_path = bundle, None
            elif path is not None:
                src_bundle, src_path = None, Path(path)
            else:
                src_bundle = self._bundles.get(model_id)
                src_path = self._paths.get(model_id)
            if src_bundle is None and src_path is None:
                raise ModelNotFoundError(
                    f"model {model_id!r} has no bundle or path to reload from"
                )
            load_lock = self._load_locks.setdefault(model_id, threading.Lock())
        with load_lock:
            with self._lock:
                self._check_open()
                runtime = self._shard_runtime(model_id)
            if src_bundle is None:
                src_bundle = load_model(src_path)
            engine = src_bundle.build_engine(runtime=runtime, **self.engine_options)
            with self._lock:
                self._check_open()
                # Commit only now: a load/build failure above leaves the
                # previous registration — and the warm engine — intact,
                # so the model keeps serving and rehydrating from the
                # last good bundle.
                if bundle is not None:
                    self._bundles[model_id] = bundle
                    self._paths.pop(model_id, None)
                elif path is not None:
                    self._paths[model_id] = Path(path)
                    self._bundles.pop(model_id, None)
                self._install_locked(model_id, engine)
                self.n_reloads += 1
                return engine

    # ------------------------------------------------------------ lifecycle
    def evict(self, model_id: str) -> bool:
        """Drop ``model_id``'s warm engine (if any); returns True if dropped."""
        with self._lock:
            if self._engines.pop(model_id, None) is not None:
                self.n_evictions += 1
                return True
            return False

    def close(self) -> None:
        """Drop every engine and shut down shard runtimes (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._engines.clear()
            self._lkg.clear()
            self._degraded.clear()
            runtimes = list(self._runtimes.values())
            self._runtimes.clear()
        for rt in runtimes:
            rt.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ModelNotFoundError("registry is closed")

    # ------------------------------------------------------------- plumbing
    @property
    def known_models(self) -> List[str]:
        """Every registered model id (warm or not)."""
        with self._lock:
            return sorted(set(self._paths) | set(self._bundles) | set(self._engines))

    @property
    def loaded_models(self) -> List[str]:
        """Model ids with a warm engine, least- to most-recently used."""
        with self._lock:
            return list(self._engines)

    def stats(self) -> dict:
        """Load/hit/eviction counters and the warm set (for tests/benchmarks)."""
        with self._lock:
            return {
                "n_loads": self.n_loads,
                "n_hits": self.n_hits,
                "n_evictions": self.n_evictions,
                "n_reloads": self.n_reloads,
                "n_fallbacks": self.n_fallbacks,
                "degraded": sorted(self._degraded),
                "loaded": list(self._engines),
                "known": self.known_models,
                "shards": {
                    mid: self.shard_of(mid)
                    for mid in sorted(set(self._paths) | set(self._bundles))
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ModelRegistry(known={len(self.known_models)}, "
                f"warm={len(self._engines)}/{self.max_models}, "
                f"shards={self.num_shards})"
            )
