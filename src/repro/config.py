"""Global configuration for the :mod:`repro` library.

The paper's software stack exposes a handful of knobs that matter for both
performance and accuracy: the tile size ``nb``, the TLR accuracy threshold,
the compression method, and the number of worker threads used by the
runtime. This module centralizes their defaults and offers a context
manager for scoped overrides, so experiments can run hermetically.

Examples
--------
>>> from repro.config import get_config, use_config
>>> get_config().tile_size
250
>>> with use_config(tile_size=100, tlr_accuracy=1e-7):
...     get_config().tile_size
100
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from typing import Iterator

from .exceptions import ConfigurationError
from .substrate import Substrate

__all__ = ["Config", "get_config", "set_config", "use_config", "reset_config"]


@dataclasses.dataclass
class Config:
    """Defaults for the paper's substrate knobs, plus per-process switches.

    Thread-local, and read once, on the caller's thread, by public
    constructors: the substrate defaults (and ``auto_tune``) only by
    :meth:`~repro.substrate.Substrate.resolve`, whose resolved value is
    what travels on — into worker threads, worker processes, bundle
    ``meta.json`` and job ``spec.json`` — so nothing downstream consults
    its own (default) copy.

    A setting of one object is that object's constructor keyword —
    default in the signature, range check in the constructor:
    ``Runtime(engine=)``, ``sample_gaussian_field(jitter=)``,
    ``PredictionEngine(cache_distances=, parallel_generation=)``, and the
    batch, capacity, restart and breaker keywords of the serving and
    fitting objects: ``PredictionService(max_batch=, max_queue=,
    breaker_threshold=, breaker_recovery=)``, ``ModelRegistry(
    max_models=)``, ``ServingServer(request_timeout=,
    max_worker_restarts=, max_body=)``, ``ServingClient(timeout=,
    retry_policy=, max_body=)``, ``FitOrchestrator(max_workers=,
    checkpoint_every=, max_restarts=)`` and ``CircuitBreaker(
    failure_threshold=, recovery_time=)``.

    Attributes
    ----------
    tile_size, tlr_accuracy, compression_method, truncation, compression_batch:
        Defaults of the :class:`~repro.substrate.Substrate` fields of
        the same names (``tlr_accuracy`` is its ``acc``). The paper tunes
        ``nb`` to 560 dense / 1900 TLR on Shaheen-2 (Python scale wants
        smaller) and sweeps the accuracy over 1e-5 … 1e-12.
    num_workers:
        Worker threads for the task runtime. ``0`` means "auto": the
        ``REPRO_NUM_WORKERS`` environment variable, else ``os.cpu_count()``.
    rng_seed:
        Seed used when an API that needs randomness gets no generator.
    telemetry_enabled:
        Arm :mod:`~repro.telemetry` in this process (spans and runtime
        tasks record into the bounded span ring; a ``ServingServer`` ships
        the setting to its workers). ``REPRO_TELEMETRY=1`` in the
        environment overrides it — that is how fit legs inherit it.
    telemetry_max_spans:
        Bound on spans kept per process (the ring drops the oldest and
        counts drops; the JSONL sink stops writing past the bound).
    auto_tune:
        Opt-in: with ``tile_size`` left unset, ``MLEstimator``,
        ``ModelBundle`` and an inline-data ``FitJobSpec`` adopt the tile
        size the calibrated planner
        (:mod:`repro.perfmodel.planner`) picks for the problem; planning
        failures fall back silently to ``tile_size``. The planner's
        host constants come from one in-process calibration, run on
        first use and cached for the process
        (:func:`~repro.perfmodel.planner.default_profile`); nothing
        about it is configured here.
    """

    tile_size: int = 250
    tlr_accuracy: float = 1e-9
    compression_method: str = "svd"
    truncation: str = "relative"
    compression_batch: int = 1
    num_workers: int = 0
    rng_seed: int = 2018
    telemetry_enabled: bool = False
    telemetry_max_spans: int = 10_000
    auto_tune: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any field is invalid."""
        Substrate("full-block", self.tile_size, self.tlr_accuracy,  # the substrate check
                  self.compression_method, self.truncation, self.compression_batch)
        for name, minimum in (("num_workers", 0), ("telemetry_max_spans", 1)):  # 0: auto
            if getattr(self, name) < minimum:
                raise ConfigurationError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)}"
                )
        if not isinstance(self.auto_tune, bool):
            raise ConfigurationError(
                f"auto_tune must be a bool, got {self.auto_tune!r}"
            )

    def resolved_workers(self) -> int:
        """Number of worker threads after resolving the ``0 = auto`` rule."""
        if self.num_workers > 0:
            return self.num_workers
        env = os.environ.get("REPRO_NUM_WORKERS")
        if not env:
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigurationError(
                f"REPRO_NUM_WORKERS must be a positive integer, got {env!r}"
            )
        return workers


_state = threading.local()


def get_config() -> Config:
    """Return the active configuration for the current thread."""
    cfg = getattr(_state, "config", None)
    if cfg is None:
        cfg = _state.config = Config()
    return cfg


def set_config(config: Config) -> None:
    """Install ``config`` as the active configuration for this thread."""
    config.validate()
    _state.config = config


def reset_config() -> None:
    """Restore the built-in defaults for this thread."""
    _state.config = Config()


@contextlib.contextmanager
def use_config(**overrides: object) -> Iterator[Config]:
    """Scoped configuration override.

    Parameters are any :class:`Config` field names; the previous
    configuration is restored on exit even if the body raises.
    """
    previous = get_config()
    updated = dataclasses.replace(previous, **overrides)  # validates
    set_config(updated)
    try:
        yield updated
    finally:
        set_config(previous)
