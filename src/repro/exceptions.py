"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so downstream users can catch library failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid global or per-call configuration value was supplied."""


class ValidationError(ReproError):
    """An argument failed validation before any work was attempted.

    The message names the offending argument. Raised, for example, for
    ragged/object-dtype target lists that :func:`numpy.asarray` would
    otherwise reject with an opaque conversion error deep inside the
    transport.
    """


class ShapeError(ValidationError):
    """An array argument has an incompatible shape."""


class NotPositiveDefiniteError(ReproError):
    """A covariance matrix (or one of its tiles) failed Cholesky.

    This typically signals a too-aggressive TLR accuracy threshold or a
    degenerate parameter vector explored by the optimizer; MLE drivers catch
    it and assign a penalty likelihood rather than aborting the search.
    """


class CompressionError(ReproError):
    """Low-rank compression could not meet the requested accuracy."""


class RuntimeEngineError(ReproError):
    """The task runtime was used incorrectly (e.g. after shutdown)."""


class SimulationError(ReproError):
    """The distributed performance simulator hit an inconsistent state."""


class OutOfMemoryModelError(SimulationError):
    """A modeled execution exceeds per-node memory (paper: missing points).

    Raised (or recorded, depending on API) when the performance model
    predicts that a configuration does not fit in the modeled node memory,
    mirroring the out-of-memory gaps in Figure 4 of the paper.
    """


class OptimizationError(ReproError):
    """The derivative-free optimizer failed to make progress."""


class CalibrationError(ReproError):
    """A performance-model calibration could not be produced.

    Raised when the host probes' timings are degenerate (a non-positive
    clock delta, no positive rate to fit, a missing kernel class) and
    when a span sink that :mod:`repro.perfmodel.calibrate` replays holds
    no usable measurements (telemetry was never armed with
    ``sink_dir=``, or the run emitted nothing). The message says which
    input was empty/bad and what to do about it.
    """


class PlanError(ReproError):
    """The planner could not produce a feasible execution plan.

    Raised for invalid plan requests (non-positive ``n``, unknown
    substrate, out-of-range accuracy) and when every candidate
    configuration is modeled out-of-memory on the calibrated host.
    Maps to HTTP 400 on ``GET /v1/plan``.
    """


class FittingError(ReproError):
    """Base class for errors raised by the :mod:`repro.fitting` subsystem.

    Raised for invalid job specifications, corrupt job stores, and fit
    jobs that terminally failed (a crashed worker that exhausted its
    restart budget, an objective that raised, ...).
    """


class JobNotFoundError(FittingError):
    """A fit-job id is not known to the :class:`~repro.fitting.JobStore`."""


class CheckpointError(FittingError):
    """A fit checkpoint file is missing, truncated, or inconsistent."""


class InjectedFaultError(ReproError):
    """A deliberately injected fault (:mod:`repro.resilience.faults`).

    Raised by an armed :class:`~repro.resilience.FaultPlan` rule with
    action ``"raise"`` — never by production code paths. Seeing this
    outside a chaos test means a fault plan was left armed.
    """


class TelemetryError(ReproError):
    """The :mod:`repro.telemetry` registry was used inconsistently.

    Raised for programming errors only — re-registering a metric name
    as a different instrument kind, conflicting histogram buckets, or
    decrementing a counter. Recording into a valid instrument never
    raises: observability must not take the observed path down.
    """


class ServingError(ReproError):
    """Base class for errors raised by the :mod:`repro.serving` subsystem."""


class BundleError(ServingError):
    """A persisted model bundle is missing, malformed, or incompatible."""


class BundleCorruptError(BundleError):
    """A bundle's payload failed its integrity check (torn write, bit rot).

    Raised when ``arrays.npz`` does not match the sha256 checksum
    recorded in ``meta.json`` (or cannot be parsed at all). The bundle
    directory is quarantine-renamed to ``*.corrupt`` so retries do not
    keep re-reading the bad copy; the registry falls back to the
    model's last-known-good engine generation when one exists.
    """


class ModelNotFoundError(ServingError):
    """A model id is not known to the :class:`~repro.serving.ModelRegistry`."""


class TraceNotFoundError(ServingError):
    """``/v1/trace/<id>`` found no spans for that trace id.

    Either the id is wrong, telemetry is disabled, or the spans have
    aged out of the bounded per-process rings (``telemetry_max_spans``).
    Maps to HTTP 404.
    """


class ServiceOverloadedError(ServingError):
    """A request was rejected because the service's bounded queue is full.

    This is the backpressure signal: clients should retry with backoff
    or shed load rather than pile more requests onto a saturated model.
    """


class DeadlineExceededError(ServingError):
    """A request's deadline expired before the service could execute it."""


class CircuitOpenError(ServingError):
    """A circuit breaker is open and the request was failed fast.

    Carries ``retry_after`` — the seconds until the breaker next admits
    probe traffic — surfaced over HTTP as a 503 with a ``Retry-After``
    header. The request was **not** executed.
    """

    def __init__(self, message: str = "", retry_after: float = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class LoadShedError(ServingError):
    """A request was shed before execution because the server is saturated.

    No server path raises it: the per-model bounded queue's
    :class:`ServiceOverloadedError` (HTTP 429) is the one admission
    bound. The class stays because the wire mapping (503 +
    ``Retry-After``) and clients that count rejections name it; a
    request shed this way was **not** executed, so clients may safely
    retry.
    """

    def __init__(self, message: str = "", retry_after: float = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClosedError(ServingError):
    """The prediction service is not running (not started, or stopped)."""


class PredictionError(ServingError):
    """A prediction completed but its values cannot be delivered.

    Raised when a degenerate model produces non-finite (NaN/inf)
    predictions and the negotiated transport cannot represent them:
    strict JSON has no ``NaN``/``Infinity`` tokens, so the JSON surface
    answers this typed error instead of emitting unparseable output.
    The binary transport carries the raw float64 bits and therefore
    delivers non-finite predictions verbatim.
    """


class PayloadTooLargeError(ServingError):
    """A request body exceeds the ``max_body`` cap of the server or client.

    Maps to HTTP 413. Raised server-side for oversized declared bodies
    (before reading them) and client-side when asked to JSON-encode a
    body over the cap — the fix for large target sets is the binary
    transport (``transport="binary"``), whose framed float64 payload is
    several times smaller and is streamed instead of materialized.
    """


class WireFormatError(ServingError):
    """A binary-transport message violates the framed wire format.

    Bad magic, an unsupported wire version, a malformed frame header,
    an unsupported dtype, or a stream truncated mid-frame (a connection
    dropped mid-stream). See :mod:`repro.serving.wire` for the format.
    """


class ServerError(ServingError):
    """The serving transport failed (worker crash, protocol error, timeout).

    Raised by the HTTP front-end and client when a request could not be
    answered by a worker at all — as opposed to the typed per-request
    failures (:class:`ModelNotFoundError`, :class:`ServiceOverloadedError`,
    ...) which a worker produced deliberately and which cross the wire
    unchanged.
    """


# --------------------------------------------------------------------------
# Crossing the worker pipe / HTTP boundary: errors travel as
# ``(type name, message)`` and are rebuilt by name on the other side.

#: Every :class:`ReproError` subclass defined above, plus the three
#: builtins request validation raises — the only classes a peer may name.
_WIRE_EXCEPTIONS = {
    name: obj
    for name, obj in list(globals().items())
    if isinstance(obj, type) and issubclass(obj, ReproError)
}
_WIRE_EXCEPTIONS.update(ValueError=ValueError, TypeError=TypeError, KeyError=KeyError)

#: Looked up along ``type(exc).__mro__``, so the most specific entry wins
#: regardless of order (BundleCorruptError is a server-side integrity
#: failure, not the malformed request plain BundleError maps to).
_HTTP_STATUS = {
    ModelNotFoundError: 404,
    JobNotFoundError: 404,
    TraceNotFoundError: 404,
    TelemetryError: 400,
    ServiceOverloadedError: 429,
    DeadlineExceededError: 504,
    CircuitOpenError: 503,
    LoadShedError: 503,
    ServiceClosedError: 503,
    BundleCorruptError: 500,
    BundleError: 400,
    ConfigurationError: 400,
    CheckpointError: 500,
    FittingError: 400,
    InjectedFaultError: 500,
    PayloadTooLargeError: 413,
    PlanError: 400,
    CalibrationError: 500,
    PredictionError: 500,
    WireFormatError: 400,
    ShapeError: 400,
    ValidationError: 400,
    ServerError: 502,
    # A model whose Sigma_22 cannot be factorized: deterministic for
    # this (model, request) pair, so not a retryable 5xx.
    NotPositiveDefiniteError: 422,
    CompressionError: 500,
    OptimizationError: 500,
    RuntimeEngineError: 500,
    ValueError: 400,
    TypeError: 400,
    KeyError: 400,
}


def status_for_exception(exc: BaseException) -> int:
    """HTTP status code a failure maps to (500 for anything unknown)."""
    for cls in type(exc).__mro__:
        status = _HTTP_STATUS.get(cls)
        if status is not None:
            return status
    return 500


def exception_from_wire(
    type_name: str, message: str, retry_after: float = None
) -> BaseException:
    """Rebuild a typed exception from its wire form (whitelisted names).

    Unknown names come back as :class:`ServerError` so a worker can
    never make the router raise an arbitrary class. ``retry_after`` is
    restored on the classes that carry it (:class:`CircuitOpenError`,
    :class:`LoadShedError`) and ignored elsewhere.
    """
    cls = _WIRE_EXCEPTIONS.get(type_name)
    if cls is None:
        return ServerError(f"{type_name}: {message}")
    exc = cls(message)
    if retry_after is not None and hasattr(exc, "retry_after"):
        exc.retry_after = float(retry_after)
    return exc
