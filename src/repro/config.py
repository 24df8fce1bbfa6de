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

__all__ = ["Config", "get_config", "set_config", "use_config", "reset_config"]


_VALID_COMPRESSION = ("svd", "rsvd")
_VALID_TRUNCATION = ("relative", "absolute")


@dataclasses.dataclass
class Config:
    """Defaults for the paper's substrate knobs, plus per-process switches.

    Thread-local. Public constructors
    (:class:`~repro.mle.prediction_engine.PredictionEngine`,
    :class:`~repro.serving.store.ModelBundle`,
    :class:`~repro.runtime.Runtime`, ``JobStore.create``) read it once,
    on the caller's thread, and carry the resolved values explicitly
    from there — into worker threads, worker processes and persisted
    job specs — so nothing downstream consults its own (default) copy.

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
    tile_size:
        Tile size ``nb`` for tile and TLR algorithms (the paper tunes 560
        dense / 1900 TLR on Shaheen-2; Python scale wants smaller).
    tlr_accuracy:
        TLR accuracy threshold ``eps`` (the paper sweeps 1e-5 … 1e-12).
    compression_method:
        Per-tile compressor: ``"svd"`` (deterministic and certified: a
        pivoted QR, then an SVD of only the rows of ``R`` it keeps;
        reference) or ``"rsvd"`` (adaptive randomized).
    truncation:
        ``"relative"`` keeps singular values above ``eps * sigma_1``;
        ``"absolute"`` keeps singular values above ``eps``.
    compression_batch:
        Off-diagonal TLR tiles per runtime task: consecutive rows of one
        column of the TLR Cholesky (each updated, then compressed once).
        Amortizes per-task overhead for small tiles; values are identical
        for any batch.
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
        Opt-in: with ``tile_size`` left unset, ``MLEstimator`` and
        ``ModelBundle`` adopt the tile size the calibrated planner
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
        for name, minimum in (
            ("tile_size", 2),
            ("compression_batch", 1),
            ("num_workers", 0),  # 0 = auto
            ("telemetry_max_spans", 1),
        ):
            if getattr(self, name) < minimum:
                raise ConfigurationError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)}"
                )
        if not (0.0 < self.tlr_accuracy < 1.0):
            raise ConfigurationError(
                f"tlr_accuracy must be in (0, 1), got {self.tlr_accuracy}"
            )
        for name, valid in (
            ("compression_method", _VALID_COMPRESSION),
            ("truncation", _VALID_TRUNCATION),
        ):
            if getattr(self, name) not in valid:
                raise ConfigurationError(
                    f"{name} must be one of {valid}, got {getattr(self, name)!r}"
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
