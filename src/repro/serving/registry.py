"""The model registry: lazy bundles and an LRU of warm engines.

A serving worker holds many fitted models but only a bounded number of
them warm: each warm model is a :class:`~repro.mle.prediction_engine.
PredictionEngine` whose ``Sigma_22`` factor is O(n²) memory. :class:`ModelRegistry` is the thread-safe keeper of that
working set:

* **Lazy loading.** Models are *registered* by bundle path (cheap);
  the bundle is read and its engine built on the first request.
* **LRU bounding.** At most ``max_models`` engines stay warm in the
  LRU; the least-recently-used one is dropped from it and rehydrated
  from its bundle when requested again.
* **Last-known-good.** Each model's last healthy engine is also kept
  outside the LRU, as the fallback when its bundle turns corrupt, so
  an evicted engine stays in memory until the model's next load or
  reload replaces it, or the registry closes. Resident engines are
  therefore bounded by the number of models served since startup (one
  each, plus a replaced engine still finishing in-flight predicts),
  not by ``max_models``.

A served engine is its bundle's :meth:`~repro.serving.store.ModelBundle.
build_engine`, nothing added; :class:`~repro.serving.server.ServingServer`'s
worker processes are the shards.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import BundleCorruptError, ConfigurationError, ModelNotFoundError
from ..mle.prediction_engine import PredictionEngine
from ..resilience.faults import fault_point
from ..telemetry import spans as _telemetry
from .store import load_model

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Thread-safe registry of persisted models and warm engines.

    Parameters
    ----------
    max_models:
        Engines kept warm in the LRU; least-recently-used eviction
        beyond that (an evicted model rehydrates from its bundle on the
        next request). The last-known-good engines are held outside
        this bound (see the module docstring).

    Examples
    --------
    >>> from repro.serving import ModelRegistry
    >>> registry = ModelRegistry(max_models=2)      # doctest: +SKIP
    >>> registry.register("soil", "fits/soil.bundle")  # doctest: +SKIP
    >>> registry.engine("soil").predict(targets)    # doctest: +SKIP
    """

    def __init__(self, *, max_models: int = 8) -> None:
        # A nonsense budget is rejected here, at construction, instead of
        # being silently clamped or surfacing on the first request.
        if int(max_models) < 1:
            raise ConfigurationError(f"max_models must be >= 1, got {max_models}")
        self.max_models = int(max_models)
        self._lock = threading.RLock()
        self._load_locks: Dict[str, threading.Lock] = {}  # per-model cold loads
        self._paths: Dict[str, Path] = {}
        self._engines: "OrderedDict[str, PredictionEngine]" = OrderedDict()
        # Last-known-good engine per model, held *outside* the LRU so a
        # bundle that turns corrupt after its engine was evicted can still
        # be served (degraded) from the previous generation.
        self._lkg: Dict[str, PredictionEngine] = {}
        self._degraded: set = set()
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

    def add_engine(self, model_id: str, engine: PredictionEngine) -> "ModelRegistry":
        """Install a pre-built engine directly (counts toward ``max_models``).

        Without a registered path for ``model_id`` the engine cannot be
        rehydrated after eviction — intended for engines whose fit just
        happened in this process, and for tests.
        """
        with self._lock:
            self._install_locked(model_id, engine)
        return self

    # --------------------------------------------------------------- lookup
    def has(self, model_id: str) -> bool:
        """True when ``model_id`` can currently be served (warm or loadable)."""
        with self._lock:
            return not self._closed and (
                model_id in self._engines or model_id in self._paths
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
            if model_id not in self._paths:
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
                path = self._paths[model_id]
            try:
                # A cold load is the largest single latency cliff a
                # predict can hit — worth its own span on the trace.
                with _telemetry.span("registry.load", model=model_id):
                    fault_point("registry.rehydrate")
                    engine = load_model(path).build_engine()
            except BundleCorruptError:
                # The persisted bundle is gone (quarantined), but a
                # previous engine generation may still be in memory —
                # serve it, flagged degraded, instead of failing hard.
                fallback = self._install_fallback(model_id)
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
        while len(self._engines) > self.max_models:
            self._engines.popitem(last=False)
            self.n_evictions += 1

    def _install_fallback(self, model_id: str) -> Optional[PredictionEngine]:
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

    # -------------------------------------------------------------- reload
    def reload(
        self, model_id: str, *, path: Optional[Union[str, Path]] = None
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

        Raises
        ------
        ModelNotFoundError
            ``model_id`` has no registered path to load from.
        BundleError
            The replacement bundle is missing or malformed (the old
            engine stays installed and keeps serving).
        """
        with self._lock:
            self._check_open()
            src = self._paths.get(model_id) if path is None else Path(path)
            if src is None:
                raise ModelNotFoundError(
                    f"model {model_id!r} has no bundle path to reload from"
                )
            load_lock = self._load_locks.setdefault(model_id, threading.Lock())
        with load_lock:
            self._check_open()
            engine = load_model(src).build_engine()
            with self._lock:
                # Commit only now: a load/build failure above leaves the
                # previous registration — and the warm engine — intact,
                # so the model keeps serving and rehydrating from the
                # last good bundle.
                self._check_open()
                self._paths[model_id] = src
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
        """Drop every engine (idempotent); later lookups raise
        :class:`~repro.exceptions.ModelNotFoundError`."""
        with self._lock:
            self._closed = True
            self._engines.clear()
            self._lkg.clear()
            self._degraded.clear()

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
            return sorted(set(self._paths) | set(self._engines))

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
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ModelRegistry(known={len(self.known_models)}, "
                f"warm={len(self._engines)}/{self.max_models})"
            )
