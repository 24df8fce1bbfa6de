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


_VALID_COMPRESSION = ("svd", "rsvd", "aca")
_VALID_TRUNCATION = ("relative", "absolute")
_VALID_ENGINE = ("threads", "serial")


@dataclasses.dataclass
class Config:
    """Library-wide default parameters.

    Attributes
    ----------
    tile_size:
        Default tile size ``nb`` for tile and TLR algorithms. The paper
        tunes ``nb = 560`` for dense tiles and ``nb = 1900`` for TLR on
        Shaheen-2; at Python scale a smaller default keeps per-tile Python
        overhead amortized while leaving several tiles per matrix.
    tlr_accuracy:
        Default TLR accuracy threshold ``eps`` (the paper sweeps 1e-5,
        1e-7, 1e-9, 1e-12).
    compression_method:
        Per-tile compressor: ``"svd"`` (deterministic, reference),
        ``"rsvd"`` (adaptive randomized), or ``"aca"`` (adaptive cross
        approximation).
    truncation:
        ``"relative"`` keeps singular values above ``eps * sigma_1``;
        ``"absolute"`` keeps singular values above ``eps``.
    num_workers:
        Worker threads for the task runtime. ``0`` means "auto"
        (``os.cpu_count()``).
    runtime_engine:
        ``"threads"`` for the asynchronous pool, ``"serial"`` for
        deterministic in-order execution (debugging, tests).
    cache_distances:
        Reuse per-tile distance blocks across likelihood evaluations of
        one fit (locations are fixed while theta varies, so the
        ``pairwise_distance`` work is a one-time cost). Costs one extra
        copy of the lower-triangular distance data in memory; values are
        bit-identical to the uncached path. The same knob governs the
        prediction path: a
        :class:`~repro.mle.prediction_engine.PredictionEngine` caches
        ``Sigma_22`` distance blocks and ``Sigma_12`` cross-distance
        matrices across predict calls.
    parallel_generation:
        Generate (and, for TLR, compress) covariance tiles as runtime
        tasks fused into the factorization task graph instead of a
        serial loop with a barrier before the Cholesky. Only takes
        effect when an evaluator — or a prediction engine — is given a
        :class:`~repro.runtime.Runtime`.
    compression_batch:
        Number of TLR tiles compressed per runtime task in the fused
        generation path. With small tiles (``nb`` small relative to
        ``nt``) each per-tile SVD is cheap and per-task overhead
        dominates; batching several tiles into one task amortizes it.
        ``1`` (the default) keeps one task per tile. Values are
        identical for any batch size.
    cholesky_jitter:
        Diagonal regularization added by samplers (not by the MLE path)
        to keep synthetic covariance factorizations stable.
    rng_seed:
        Default seed used when an API that needs randomness is called
        without an explicit generator.
    serving_batch_window:
        Seconds the :class:`~repro.serving.service.PredictionService`
        micro-batcher waits after the first queued request to coalesce
        concurrent requests for the same model into one engine call.
        ``0`` dispatches immediately (no coalescing window).
    serving_max_batch:
        Upper bound on requests coalesced into one engine call.
    serving_queue_size:
        Per-model bound on queued requests; submissions beyond it are
        rejected with ``ServiceOverloadedError`` (backpressure).
    serving_max_models:
        Engines the :class:`~repro.serving.registry.ModelRegistry`
        keeps warm (least-recently-used eviction; evicted models are
        rehydrated from their bundles on the next request).
    serving_workers:
        Worker processes a :class:`~repro.serving.server.ServingServer`
        spawns; each hosts its own registry + service and owns the
        models hashed onto its shard.
    fit_workers:
        Worker *processes* a
        :class:`~repro.fitting.orchestrator.FitOrchestrator` runs fit
        tasks on — the concurrency cap across all queued jobs and the
        fan-out width for a single job's multistart search.
    fit_checkpoint_every:
        Iterations between on-disk Nelder-Mead checkpoints of a running
        fit task. ``1`` checkpoints every iteration (cheapest possible
        resume, most I/O); larger values amortize the write.
    fit_max_restarts:
        Times the orchestrator respawns each fit task (one multistart
        leg) whose worker process died abnormally (killed, OOM) before
        declaring the job failed — counted per task, so one machine-wide
        event that kills every leg of a job once does not exhaust the
        budget. Restarts resume from the task's last checkpoint, so
        paid iterations are never re-fit from scratch.
    breaker_threshold:
        Consecutive infrastructure failures that trip a serving circuit
        breaker (per model in the service, per worker in the router)
        from closed to open. Typed per-request errors (bad shapes,
        unknown models, expired deadlines) do not count.
    breaker_recovery:
        Seconds an open circuit breaker waits before moving to
        half-open and admitting probe traffic.
    serving_max_inflight:
        Server-wide cap on concurrently in-flight HTTP requests; beyond
        it, requests are shed immediately with 503 + ``Retry-After``
        (``LoadShedError``) instead of queueing without bound.
    serving_max_body:
        Byte cap on a single HTTP request body (JSON or binary). The
        router rejects larger declared bodies with 413
        (``PayloadTooLargeError``) *before* reading them, and the
        :class:`~repro.serving.client.ServingClient` refuses to
        JSON-encode a body over the cap with a message pointing at the
        binary transport (``transport="binary"``), whose framed float64
        payload is several times smaller and streamed.
    telemetry_enabled:
        Arm the :mod:`~repro.telemetry` layer in this process: ``with
        span(...)`` blocks and every :class:`~repro.runtime.Runtime`
        task record into the bounded per-process span ring, and a
        :class:`~repro.serving.server.ServingServer` propagates the
        setting to its worker processes (serving ``/v1/trace/<id>``).
        Serving counters and latencies are always on and do not depend
        on this knob. Off by default: the
        disabled hooks cost nanoseconds, like the fault-injection
        sites. ``REPRO_TELEMETRY=1`` in the environment overrides this
        knob — that is how spawned workers and fit legs inherit it.
    telemetry_max_spans:
        Bound on spans kept per process (the in-memory ring drops the
        oldest and counts drops; the optional JSONL sink stops writing
        past the bound). Runtime ``task:*`` spans share this one ring;
        a ``Runtime`` keeps no event storage of its own unless built
        with ``trace=True``.
    auto_tune:
        Opt-in self-tuning: when the caller leaves ``tile_size`` at its
        default, :class:`~repro.mle.estimator.MLEstimator` and bundle
        registration (:class:`~repro.serving.store.ModelBundle`) adopt
        the tile size planned by the calibrated performance model
        (:mod:`repro.perfmodel.planner`) for the problem's ``n`` and
        substrate instead of the static ``tile_size`` default. The plan
        comes from ``autotune_profile`` when set, else from a cached
        quick in-process calibration. Planning failures fall back
        silently to the static default — auto-tuning must never make a
        fit fail. Off by default.
    autotune_profile:
        Path of a persisted
        :class:`~repro.perfmodel.autotune.CalibrationProfile` to plan
        from (created with ``python -m repro.perfmodel.autotune --out
        ...``). Empty string (the default) means "calibrate this host
        in-process on first use and cache the result for the process
        lifetime". If the path does not exist yet it is created by
        running the quick probe suite and saved for reuse.
    """

    tile_size: int = 250
    tlr_accuracy: float = 1e-9
    compression_method: str = "svd"
    truncation: str = "relative"
    num_workers: int = 0
    runtime_engine: str = "threads"
    cache_distances: bool = True
    parallel_generation: bool = True
    compression_batch: int = 1
    cholesky_jitter: float = 1e-10
    rng_seed: int = 2018
    serving_batch_window: float = 0.002
    serving_max_batch: int = 64
    serving_queue_size: int = 256
    serving_max_models: int = 8
    serving_workers: int = 2
    fit_workers: int = 2
    fit_checkpoint_every: int = 5
    fit_max_restarts: int = 2
    breaker_threshold: int = 5
    breaker_recovery: float = 2.0
    serving_max_inflight: int = 128
    serving_max_body: int = 64 * 1024 * 1024
    telemetry_enabled: bool = False
    telemetry_max_spans: int = 10_000
    auto_tune: bool = False
    autotune_profile: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any field is invalid."""
        if self.tile_size < 2:
            raise ConfigurationError(f"tile_size must be >= 2, got {self.tile_size}")
        if not (0.0 < self.tlr_accuracy < 1.0):
            raise ConfigurationError(
                f"tlr_accuracy must be in (0, 1), got {self.tlr_accuracy}"
            )
        if self.compression_method not in _VALID_COMPRESSION:
            raise ConfigurationError(
                f"compression_method must be one of {_VALID_COMPRESSION}, "
                f"got {self.compression_method!r}"
            )
        if self.truncation not in _VALID_TRUNCATION:
            raise ConfigurationError(
                f"truncation must be one of {_VALID_TRUNCATION}, got {self.truncation!r}"
            )
        if self.num_workers < 0:
            raise ConfigurationError(
                f"num_workers must be >= 0 (0 = auto), got {self.num_workers}"
            )
        if self.runtime_engine not in _VALID_ENGINE:
            raise ConfigurationError(
                f"runtime_engine must be one of {_VALID_ENGINE}, got {self.runtime_engine!r}"
            )
        if self.compression_batch < 1:
            raise ConfigurationError(
                f"compression_batch must be >= 1, got {self.compression_batch}"
            )
        if self.cholesky_jitter < 0:
            raise ConfigurationError("cholesky_jitter must be >= 0")
        if self.serving_batch_window < 0:
            raise ConfigurationError(
                f"serving_batch_window must be >= 0, got {self.serving_batch_window}"
            )
        if self.serving_max_batch < 1:
            raise ConfigurationError(
                f"serving_max_batch must be >= 1, got {self.serving_max_batch}"
            )
        if self.serving_queue_size < 1:
            raise ConfigurationError(
                f"serving_queue_size must be >= 1, got {self.serving_queue_size}"
            )
        if self.serving_max_models < 1:
            raise ConfigurationError(
                f"serving_max_models must be >= 1, got {self.serving_max_models}"
            )
        if self.serving_workers < 1:
            raise ConfigurationError(
                f"serving_workers must be >= 1, got {self.serving_workers}"
            )
        if self.fit_workers < 1:
            raise ConfigurationError(
                f"fit_workers must be >= 1, got {self.fit_workers}"
            )
        if self.fit_checkpoint_every < 1:
            raise ConfigurationError(
                f"fit_checkpoint_every must be >= 1, got {self.fit_checkpoint_every}"
            )
        if self.fit_max_restarts < 0:
            raise ConfigurationError(
                f"fit_max_restarts must be >= 0, got {self.fit_max_restarts}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_recovery <= 0:
            raise ConfigurationError(
                f"breaker_recovery must be > 0, got {self.breaker_recovery}"
            )
        if self.serving_max_inflight < 1:
            raise ConfigurationError(
                f"serving_max_inflight must be >= 1, got {self.serving_max_inflight}"
            )
        if self.serving_max_body < 1024:
            raise ConfigurationError(
                f"serving_max_body must be >= 1024 bytes, got {self.serving_max_body}"
            )
        if self.telemetry_max_spans < 1:
            raise ConfigurationError(
                f"telemetry_max_spans must be >= 1, got {self.telemetry_max_spans}"
            )
        if not isinstance(self.auto_tune, bool):
            raise ConfigurationError(
                f"auto_tune must be a bool, got {self.auto_tune!r}"
            )
        if not isinstance(self.autotune_profile, str):
            raise ConfigurationError(
                "autotune_profile must be a path string ('' = in-process "
                f"calibration), got {self.autotune_profile!r}"
            )

    def resolved_workers(self) -> int:
        """Number of worker threads after resolving the ``0 = auto`` rule."""
        if self.num_workers > 0:
            return self.num_workers
        env = os.environ.get("REPRO_NUM_WORKERS")
        if env:
            return max(1, int(env))
        return max(1, os.cpu_count() or 1)

    def replace(self, **overrides: object) -> "Config":
        """Return a copy with ``overrides`` applied (validated)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


_state = threading.local()


def _default() -> Config:
    return Config()


def get_config() -> Config:
    """Return the active configuration for the current thread."""
    cfg = getattr(_state, "config", None)
    if cfg is None:
        cfg = _default()
        _state.config = cfg
    return cfg


def set_config(config: Config) -> None:
    """Install ``config`` as the active configuration for this thread."""
    config.validate()
    _state.config = config


def reset_config() -> None:
    """Restore the built-in defaults for this thread."""
    _state.config = _default()


@contextlib.contextmanager
def use_config(**overrides: object) -> Iterator[Config]:
    """Scoped configuration override.

    Parameters are any :class:`Config` field names; the previous
    configuration is restored on exit even if the body raises.
    """
    previous = get_config()
    updated = previous.replace(**overrides)
    set_config(updated)
    try:
        yield updated
    finally:
        set_config(previous)
