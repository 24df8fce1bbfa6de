"""PredictionService: micro-batching parity, coalescing, deadlines,
backpressure, and lifecycle.

Tests drive asyncio explicitly (``asyncio.run``) so no async test
plugin is required.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator
from repro.serving import ModelBundle, ModelRegistry, PredictionService
from repro.telemetry import reset_telemetry
from repro.telemetry.spans import configure, get_recorder

N, NB, ACC = 144, 36, 1e-9
VARIANTS = ("full-block", "full-tile", "tlr")


@pytest.fixture(scope="module")
def problem():
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=1)
    return locs, z, model


@pytest.fixture(scope="module")
def bundle_paths(problem, tmp_path_factory):
    """One saved bundle per substrate, over ``problem``."""
    locs, z, model = problem
    root = tmp_path_factory.mktemp("bundles")
    return {
        variant: ModelBundle(
            model=model, locations=locs, z=z, variant=variant, tile_size=NB, acc=ACC
        ).save(root / f"{variant}.bundle")
        for variant in VARIANTS
    }


def make_registry(bundle_paths, variant="full-block") -> ModelRegistry:
    return ModelRegistry(max_models=4).register("m", bundle_paths[variant])


# --------------------------------------------------------------------------
# Coalescing parity: micro-batched == sequential, bit for bit.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_concurrent_requests_bit_identical_to_sequential(bundle_paths, variant):
    registry = make_registry(bundle_paths, variant)
    rng = np.random.default_rng(5)
    target_sets = [
        np.ascontiguousarray(rng.random((m, 2))) for m in (7, 3, 11, 5, 9, 4)
    ]
    # Sequential reference: one engine, one predict per target set.
    sequential = [registry.engine("m").predict(t) for t in target_sets]

    async def main():
        async with PredictionService(registry, max_batch=32) as svc:
            outs = await asyncio.gather(
                *[svc.predict("m", t) for t in target_sets]
            )
            return outs, svc.metrics.snapshot()

    with registry:
        outs, snap = asyncio.run(main())
    for got, ref in zip(outs, sequential):
        np.testing.assert_array_equal(got, ref)
    # >= 4 concurrent requests coalesced into <= 2 engine calls.
    assert snap["counters"]["requests"] == len(target_sets)
    assert snap["counters"]["engine_calls"] <= 2
    assert snap["counters"]["coalesced_requests"] >= 4


@pytest.mark.parametrize("variant", VARIANTS)
def test_concurrent_explicit_z_requests_bit_identical(problem, bundle_paths, variant):
    """Same targets, different ``z``, in one round: every explicit-z
    request is its own engine call, bit-identical to a standalone
    predict (regression: they were stacked into one multi-RHS solve,
    off by solver rounding)."""
    locs, z, model = problem
    registry = make_registry(bundle_paths, variant)
    targets = generate_irregular_grid(8, seed=7)
    rng = np.random.default_rng(3)
    zs = [z, z + 0.1 * rng.standard_normal(N), rng.standard_normal(N)]
    engine = registry.engine("m")
    sequential = [engine.predict(targets, z=zi) for zi in zs]

    async def main():
        async with PredictionService(registry) as svc:
            outs = await asyncio.gather(
                *[svc.predict("m", targets, z=zi) for zi in zs]
            )
            return outs, svc.metrics.snapshot()

    with registry:
        outs, snap = asyncio.run(main())
    for got, ref in zip(outs, sequential):
        np.testing.assert_array_equal(got, ref)
    assert snap["counters"]["engine_calls"] == len(zs)


def test_mixed_traffic_grouping(problem, bundle_paths):
    locs, z, model = problem
    registry = make_registry(bundle_paths)
    t_shared = generate_irregular_grid(6, seed=11)
    t_solo = generate_irregular_grid(4, seed=12)
    engine = registry.engine("m")
    ref_shared = engine.predict(t_shared)
    ref_solo = engine.predict(t_solo, z=2.0 * z)

    async def main():
        async with PredictionService(registry, max_batch=16) as svc:
            shared_calls = [svc.predict("m", t_shared) for _ in range(3)]
            solo_call = svc.predict("m", t_solo, z=2.0 * z)
            out = await asyncio.gather(*shared_calls, solo_call)
            return out, svc.metrics.snapshot()

    with registry:
        out, snap = asyncio.run(main())
    for got in out[:3]:
        np.testing.assert_array_equal(got, ref_shared)
    np.testing.assert_array_equal(out[3], ref_solo)
    # One stacked call for the bound-z trio + one single for the override.
    assert snap["counters"]["engine_calls"] <= 2


def test_unbatched_mode_one_call_per_request(bundle_paths):
    registry = make_registry(bundle_paths)
    targets = generate_irregular_grid(5, seed=2)

    async def main():
        async with PredictionService(registry, max_batch=1) as svc:
            for _ in range(4):
                await svc.predict("m", targets)
            return svc.metrics.snapshot()

    with registry:
        snap = asyncio.run(main())
    assert snap["counters"]["engine_calls"] == 4
    assert snap["counters"].get("coalesced_requests", 0) == 0


# --------------------------------------------------------------------------
# Deadlines, backpressure, lifecycle.
# --------------------------------------------------------------------------


def test_expired_deadline_rejected_before_dispatch(bundle_paths):
    registry = make_registry(bundle_paths)
    targets = generate_irregular_grid(5, seed=2)

    async def main():
        async with PredictionService(registry) as svc:
            with pytest.raises(DeadlineExceededError):
                await svc.predict("m", targets, deadline=-1.0)
            # A sane deadline still succeeds.
            out = await svc.predict("m", targets, deadline=30.0)
            return out, svc.metrics.snapshot()

    with registry:
        out, snap = asyncio.run(main())
    assert out.shape == (5,)
    assert snap["counters"]["deadline_exceeded"] == 1
    assert snap["counters"]["completed"] == 1


class _BlockingEngine:
    """Engine stub whose predict blocks until released (backpressure tests)."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0
        self.sizes = []  # requests served per call

    def predict(self, targets, z=None):
        self.calls += 1
        self.sizes.append(1)
        assert self.release.wait(timeout=30.0)
        return np.zeros(np.asarray(targets).shape[0])

    def predict_many(self, target_sets, z=None):
        self.calls += 1
        self.sizes.append(len(target_sets))
        assert self.release.wait(timeout=30.0)
        return [np.zeros(np.asarray(t).shape[0]) for t in target_sets]


def test_backpressure_rejects_when_queue_full(problem):
    registry = ModelRegistry(max_models=2)
    blocker = _BlockingEngine()
    registry.add_engine("slow", blocker)
    targets = np.random.default_rng(0).random((4, 2))

    async def main():
        async with PredictionService(registry, max_batch=1, max_queue=2) as svc:
            first = asyncio.ensure_future(svc.predict("slow", targets))
            # Wait until the batcher has taken `first` off the queue and is
            # blocked inside the engine call.
            for _ in range(200):
                await asyncio.sleep(0.005)
                if blocker.calls:
                    break
            assert blocker.calls == 1
            queued = [asyncio.ensure_future(svc.predict("slow", targets)) for _ in range(2)]
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadedError):
                await svc.predict("slow", targets)  # queue (2) is full
            blocker.release.set()
            results = await asyncio.gather(first, *queued)
            return results, svc.metrics.snapshot()

    with registry:
        results, snap = asyncio.run(main())
    assert len(results) == 3 and all(r.shape == (4,) for r in results)
    assert snap["counters"]["rejected_overload"] == 1
    assert snap["counters"]["completed"] == 3


def test_default_service_dispatches_a_lone_request_without_idling():
    """A request with nothing behind it opens and closes its round at
    once (regression: a 2 ms default batch window idled every unloaded
    request for stragglers that could not come)."""
    registry = ModelRegistry(max_models=2)
    engine = _BlockingEngine()
    engine.release.set()
    registry.add_engine("m", engine)
    targets = np.random.default_rng(0).random((4, 2))

    async def main():
        async with PredictionService(registry) as svc:
            for _ in range(5):
                await svc.predict("m", targets)

    configure(enabled=True)
    try:
        with registry:
            asyncio.run(main())
        rounds = [
            s for s in get_recorder().snapshot() if s["name"] == "service.coalesce"
        ]
    finally:
        reset_telemetry()
    assert engine.sizes == [1] * 5
    assert len(rounds) == 5
    assert max(s["duration"] for s in rounds) < 1e-3


def test_default_service_coalesces_the_backlog_of_a_busy_engine():
    """The engine's busy time is the coalescing window: requests queued
    while one call runs are served by ONE coalesced call."""
    registry = ModelRegistry(max_models=2)
    blocker = _BlockingEngine()
    registry.add_engine("slow", blocker)
    targets = np.random.default_rng(0).random((4, 2))

    async def main():
        async with PredictionService(registry) as svc:
            first = asyncio.ensure_future(svc.predict("slow", targets))
            for _ in range(200):
                await asyncio.sleep(0.005)
                if blocker.calls:
                    break
            assert blocker.calls == 1
            backlog = [
                asyncio.ensure_future(svc.predict("slow", targets)) for _ in range(4)
            ]
            await asyncio.sleep(0)  # all four are queued behind the busy call
            blocker.release.set()
            await asyncio.gather(first, *backlog)
            return svc.metrics.snapshot()

    with registry:
        snap = asyncio.run(main())
    assert blocker.sizes == [1, 4]
    assert snap["counters"]["coalesced_requests"] == 4
    assert snap["counters"]["completed"] == 5


def test_engine_errors_propagate_to_callers(problem):
    registry = ModelRegistry(max_models=2)

    class _Boom:
        def predict(self, targets, z=None):
            raise ValueError("engine exploded")

        def predict_many(self, target_sets, z=None):
            raise ValueError("engine exploded")

    registry.add_engine("boom", _Boom())

    async def main():
        async with PredictionService(registry) as svc:
            with pytest.raises(ValueError, match="engine exploded"):
                await svc.predict("boom", np.zeros((3, 2)))
            return svc.metrics.snapshot()

    with registry:
        snap = asyncio.run(main())
    assert snap["counters"]["errors"] == 1


def test_model_breakers_are_per_model_and_made_on_first_use():
    """Each model gets its own breaker with the service's settings, made
    on its first request: one model's engine failure opens its breaker
    (threshold 1) and leaves the other's closed."""
    registry = ModelRegistry(max_models=2)

    class _Broken:
        def predict(self, targets, z=None):
            raise RuntimeError("engine down")

    healthy = _BlockingEngine()
    healthy.release.set()
    registry.add_engine("broken", _Broken())
    registry.add_engine("healthy", healthy)
    targets = np.zeros((3, 2))

    async def main():
        async with PredictionService(
            registry, breaker_threshold=1, breaker_recovery=30.0
        ) as svc:
            before = svc.breaker_states()
            with pytest.raises(RuntimeError, match="engine down"):
                await svc.predict("broken", targets)
            await svc.predict("healthy", targets)
            return before, svc.breaker_states()

    with registry:
        before, after = asyncio.run(main())
    assert before == {}
    assert after["broken"] == {
        "state": "open",
        "n_opens": 1,
        "n_failures": 1,
        "n_successes": 0,
    }
    assert after["healthy"] == {
        "state": "closed",
        "n_opens": 0,
        "n_failures": 0,
        "n_successes": 1,
    }


def test_closed_service_rejects_and_stop_fails_queued(bundle_paths):
    registry = make_registry(bundle_paths)
    targets = generate_irregular_grid(5, seed=2)
    svc = PredictionService(registry)

    async def not_started():
        with pytest.raises(ServiceClosedError):
            await svc.predict("m", targets)

    asyncio.run(not_started())

    async def stopped():
        async with PredictionService(registry) as svc2:
            await svc2.predict("m", targets)
        with pytest.raises(ServiceClosedError):
            await svc2.predict("m", targets)
        await svc2.stop()  # idempotent

    with registry:
        asyncio.run(stopped())


def test_stop_fails_inflight_requests(problem):
    registry = ModelRegistry(max_models=2)
    blocker = _BlockingEngine()
    registry.add_engine("slow", blocker)
    targets = np.random.default_rng(0).random((4, 2))

    async def main():
        svc = PredictionService(registry, max_batch=1)
        await svc.start()
        pending = asyncio.ensure_future(svc.predict("slow", targets))
        for _ in range(200):
            await asyncio.sleep(0.005)
            if blocker.calls:
                break
        # Release only after stop() has cancelled the dispatch, so the
        # request deterministically fails closed; the timer unblocks the
        # executor thread so stop()'s executor shutdown can complete.
        threading.Timer(0.2, blocker.release.set).start()
        await svc.stop()
        with pytest.raises(ServiceClosedError):
            await pending

    with registry:
        asyncio.run(main())


def test_fit_save_serve_end_to_end(problem, tmp_path):
    """The acceptance path: fit -> save -> registry -> service, bit-identical."""
    locs, z, model = problem
    est = MLEstimator(locs, z, variant="tlr", tile_size=NB, acc=ACC)
    fit = est.fit(maxiter=12)
    targets = generate_irregular_grid(10, seed=21)
    reference = est.predict(fit, targets)
    path = est.save_fit(fit, tmp_path / "m.bundle")

    async def main():
        with ModelRegistry() as registry:
            registry.register("m", path)
            async with PredictionService(registry) as svc:
                outs = await asyncio.gather(*[svc.predict("m", targets) for _ in range(4)])
                return outs, svc.metrics.snapshot()

    outs, snap = asyncio.run(main())
    for got in outs:
        np.testing.assert_array_equal(got, reference)
    assert snap["counters"]["engine_calls"] <= 2
    # The bundle's factor was adopted — serving never factorized.
    assert snap["counters"]["completed"] == 4


def test_stop_fails_requests_waiting_behind_a_blocked_group():
    """Regression: a request already dequeued into a round, whose group
    waits behind an earlier group still in the engine, must fail on
    stop() — the queue drain can no longer reach it."""
    registry = ModelRegistry(max_models=2)
    blocker = _BlockingEngine()
    registry.add_engine("slow", blocker)
    targets = np.random.default_rng(0).random((4, 2))
    zs = np.random.default_rng(1).standard_normal((2, 4))

    async def main():
        svc = PredictionService(registry)
        await svc.start()
        # Two explicit-z requests: one round, two single-request groups.
        first, behind = [
            asyncio.ensure_future(svc.predict("slow", targets, z=zi)) for zi in zs
        ]
        for _ in range(200):
            await asyncio.sleep(0.005)
            if blocker.calls:
                break
        assert blocker.calls == 1 and svc._queues["slow"].empty()
        # Release only after stop() has cancelled the dispatch; the timer
        # unblocks the executor thread so the executor shutdown completes.
        threading.Timer(0.2, blocker.release.set).start()
        await svc.stop()
        for pending in (first, behind):
            with pytest.raises(ServiceClosedError):
                await pending
        assert blocker.calls == 1  # the waiting group never reached the engine

    with registry:
        asyncio.run(main())


def test_unknown_model_rejected_at_submission(bundle_paths):
    """Regression: bogus model ids must not allocate queues/batcher tasks."""
    from repro.exceptions import ModelNotFoundError

    registry = make_registry(bundle_paths)

    async def main():
        async with PredictionService(registry) as svc:
            with pytest.raises(ModelNotFoundError):
                await svc.predict("no-such-model", np.zeros((3, 2)))
            assert "no-such-model" not in svc._queues  # nothing leaked

    with registry:
        asyncio.run(main())


# --------------------------------------------------------------------------
# Priority ordering and per-request retry.
# --------------------------------------------------------------------------


class _RecordingEngine:
    """Engine stub recording the order of coalesced calls."""

    def __init__(self):
        self.calls = []

    def predict(self, targets, z=None):
        self.calls.append(("single", None if z is None else z.shape))
        return np.zeros(np.asarray(targets).shape[0])

    def predict_many(self, target_sets, z=None):
        self.calls.append(("stack", len(target_sets)))
        return [np.zeros(np.asarray(t).shape[0]) for t in target_sets]


def test_priority_group_dispatches_before_bulk(problem):
    """Within one round, the group holding the priority request runs
    first — its engine call precedes the bulk stack."""
    registry = ModelRegistry(max_models=2)
    engine = _RecordingEngine()
    registry.add_engine("rec", engine)
    rng = np.random.default_rng(0)
    t_bulk, t_urgent = rng.random((4, 2)), rng.random((3, 2))
    z = rng.standard_normal(3)

    async def main():
        async with PredictionService(registry, max_batch=8) as svc:
            bulk = [asyncio.ensure_future(svc.predict("rec", t_bulk)) for _ in range(3)]
            urgent = asyncio.ensure_future(
                svc.predict("rec", t_urgent, z=z, priority=5)
            )
            await asyncio.gather(*bulk, urgent)

    with registry:
        asyncio.run(main())
    kinds = [kind for kind, _ in engine.calls]
    assert "single" in kinds and "stack" in kinds
    # The urgent explicit-z single call ran before the bulk stack.
    assert kinds.index("single") < kinds.index("stack")


def test_malformed_request_does_not_poison_batch(bundle_paths):
    """Regression: one bad request in a coalesced group fails alone; the
    group retries per-request so innocent callers still get answers."""
    registry = make_registry(bundle_paths)
    rng = np.random.default_rng(13)
    good_sets = [np.ascontiguousarray(rng.random((m, 2))) for m in (6, 4)]
    bad = rng.random((5, 3))  # 3-D targets: fails only inside the engine
    engine = registry.engine("m")
    references = [engine.predict(t) for t in good_sets]

    async def main():
        async with PredictionService(registry, max_batch=8) as svc:
            results = await asyncio.gather(
                *[svc.predict("m", t) for t in (good_sets[0], bad, good_sets[1])],
                return_exceptions=True,
            )
            return results, svc.metrics.snapshot()

    with registry:
        (good_a, bad_result, good_b), snap = asyncio.run(main())
    np.testing.assert_array_equal(good_a, references[0])
    np.testing.assert_array_equal(good_b, references[1])
    assert isinstance(bad_result, Exception)
    assert snap["counters"]["errors"] == 1
    assert snap["counters"]["batch_retries"] == 1
