"""Hot-reload under load: soak/stress tests for registry + service + HTTP.

The contract being proven: :meth:`ModelRegistry.reload` swaps a
re-fitted bundle under a stable model id with **zero failed requests**
— in-flight predicts finish on the old engine, later predicts see the
new one, every answer is bit-identical to one of the two engines —
while LRU evictions and rehydrations churn underneath.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import ModelNotFoundError
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.serving import (
    ModelBundle,
    ModelRegistry,
    PredictionService,
    ServingClient,
    ServingServer,
)

N, NB, ACC = 144, 36, 1e-9
THETA_A = (1.0, 0.1, 0.5)
THETA_B = (1.8, 0.2, 0.9)


def _bundle(variant, theta, with_factor=True):
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(*theta)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant=variant, tile_size=NB, acc=ACC
    )
    if with_factor:
        bundle.factor = bundle.build_engine().factor()
    return bundle


@pytest.fixture(scope="module")
def soak_paths(tmp_path_factory):
    """Three models (one per substrate) at theta A, plus theta-B variants
    of each for the reload swaps."""
    root = tmp_path_factory.mktemp("soak")
    paths = {}
    for variant in ("full-block", "full-tile", "tlr"):
        paths[variant, "A"] = _bundle(variant, THETA_A).save(
            root / f"{variant}-A.bundle"
        )
        paths[variant, "B"] = _bundle(variant, THETA_B).save(
            root / f"{variant}-B.bundle"
        )
    return paths


@pytest.fixture(scope="module")
def targets():
    return np.ascontiguousarray(np.random.default_rng(9).random((7, 2)))


# --------------------------------------------------------------------------
# In-process soak: asyncio clients vs concurrent reloads vs LRU churn.
# --------------------------------------------------------------------------


def test_soak_reload_under_concurrent_traffic(soak_paths, targets):
    """Concurrent clients hammer 3 models (LRU budget 2 → constant
    evict/rehydrate) while reload() swaps each model A→B mid-flight.
    Zero failures, every answer bit-identical to the A- or B-engine,
    and the counters reconcile."""
    models = ("full-block", "full-tile", "tlr")
    references = {
        (m, gen): PredictionEngine.from_bundle(soak_paths[m, gen]).predict(targets)
        for m in models
        for gen in ("A", "B")
    }
    # A and B engines must actually disagree, or the parity check is vacuous.
    for m in models:
        assert not np.array_equal(references[m, "A"], references[m, "B"])

    n_clients, rounds = 6, 10
    registry = ModelRegistry(max_models=2)
    for m in models:
        registry.register(m, soak_paths[m, "A"])

    async def main():
        results: list = []
        async with PredictionService(registry, max_batch=8) as service:
            loop = asyncio.get_running_loop()

            async def client(cid: int):
                for r in range(rounds):
                    model = models[(cid + r) % len(models)]
                    out = await service.predict(model, targets)
                    results.append((model, out))

            async def reloader():
                for m in models:
                    await asyncio.sleep(0.01)
                    await loop.run_in_executor(
                        None, lambda m=m: registry.reload(m, path=soak_paths[m, "B"])
                    )

            await asyncio.gather(*[client(i) for i in range(n_clients)], reloader())
            snapshot = service.metrics.snapshot()
        return results, snapshot

    try:
        results, snapshot = asyncio.run(main())
    finally:
        registry.close()

    total = n_clients * rounds
    assert len(results) == total  # zero failed requests
    for model, out in results:
        assert np.array_equal(out, references[model, "A"]) or np.array_equal(
            out, references[model, "B"]
        ), f"{model}: answer matches neither the old nor the new engine"
    counters = snapshot["counters"]
    assert counters["requests"] == total
    assert counters["completed"] == total
    assert counters.get("errors", 0) == 0
    assert counters.get("deadline_exceeded", 0) == 0
    stats = registry.stats()
    assert stats["n_reloads"] == len(models)
    assert stats["n_evictions"] > 0  # the LRU actually churned


def test_reload_swaps_predictions_and_keeps_id_stable(soak_paths, targets):
    registry = ModelRegistry(max_models=4)
    registry.register("m", soak_paths["full-block", "A"])
    ref_a = PredictionEngine.from_bundle(soak_paths["full-block", "A"]).predict(targets)
    ref_b = PredictionEngine.from_bundle(soak_paths["full-block", "B"]).predict(targets)
    with registry:
        old_engine = registry.engine("m")
        np.testing.assert_array_equal(old_engine.predict(targets), ref_a)
        new_engine = registry.reload("m", path=soak_paths["full-block", "B"])
        assert new_engine is not old_engine
        np.testing.assert_array_equal(registry.engine("m").predict(targets), ref_b)
        # The old engine object still answers in-flight work unchanged.
        np.testing.assert_array_equal(old_engine.predict(targets), ref_a)
        # Rehydration after eviction uses the *new* path.
        registry.evict("m")
        np.testing.assert_array_equal(registry.engine("m").predict(targets), ref_b)
        assert registry.stats()["n_reloads"] == 1


def test_reload_in_place_rereads_the_registered_path(soak_paths, targets, tmp_path):
    """reload() with no path re-reads the registered bundle — the re-fit
    overwrote it in place."""
    path = tmp_path / "inplace.bundle"
    _bundle("full-block", THETA_A).save(path)
    ref_a = PredictionEngine.from_bundle(path).predict(targets)
    with ModelRegistry(max_models=2) as registry:
        registry.register("m", path)
        np.testing.assert_array_equal(registry.engine("m").predict(targets), ref_a)
        _bundle("full-block", THETA_B).save(path)  # re-fit lands in place
        ref_b = PredictionEngine.from_bundle(path).predict(targets)
        registry.reload("m")
        np.testing.assert_array_equal(registry.engine("m").predict(targets), ref_b)


def test_reload_failure_keeps_old_engine_serving(soak_paths, targets, tmp_path):
    from repro.exceptions import BundleError

    with ModelRegistry(max_models=2) as registry:
        registry.register("m", soak_paths["tlr", "A"])
        ref = registry.engine("m").predict(targets)
        with pytest.raises(BundleError):
            registry.reload("m", path=tmp_path / "missing.bundle")
        # Old engine still installed and serving; the bad path did not
        # poison future rehydrations of the warm engine.
        np.testing.assert_array_equal(registry.engine("m").predict(targets), ref)
        assert registry.stats()["n_reloads"] == 0
        # Regression: the failed reload must not have committed the bad
        # path — rehydration after eviction still reads the good bundle.
        registry.evict("m")
        np.testing.assert_array_equal(registry.engine("m").predict(targets), ref)


def test_reload_unknown_model_raises(soak_paths):
    with ModelRegistry() as registry:
        with pytest.raises(ModelNotFoundError):
            registry.reload("ghost")


# --------------------------------------------------------------------------
# HTTP soak: threads of remote clients vs admin reloads.
# --------------------------------------------------------------------------


def test_http_soak_reload_under_concurrent_clients(soak_paths, targets):
    """The acceptance scenario over the real transport: concurrent HTTP
    clients against multi-process workers while the admin endpoint
    hot-swaps both models. Zero failed requests; every response is
    bit-identical to the old or new engine; counters reconcile."""
    models = ("full-block", "tlr")
    references = {
        (m, gen): PredictionEngine.from_bundle(soak_paths[m, gen]).predict(targets)
        for m in models
        for gen in ("A", "B")
    }
    n_threads, per_thread = 6, 8
    results: list = []
    errors: list = []
    lock = threading.Lock()

    with ServingServer(
        {m: soak_paths[m, "A"] for m in models},
        num_workers=2,
        service_options={"max_batch": 8},
    ) as server:

        def hammer(tid: int):
            with ServingClient(server.url) as cli:
                for r in range(per_thread):
                    model = models[(tid + r) % len(models)]
                    try:
                        out = cli.predict(model, targets)
                        with lock:
                            results.append((model, out))
                    except Exception as exc:  # noqa: BLE001 - the soak counts these
                        with lock:
                            errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        with ServingClient(server.url) as admin:
            for m in models:
                admin.reload(m, soak_paths[m, "B"])
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()

        with ServingClient(server.url) as cli:
            # After the swaps, traffic sees only the new engines.
            for m in models:
                np.testing.assert_array_equal(
                    cli.predict(m, targets), references[m, "B"]
                )
            counters = cli.metrics()["aggregate"]["counters"]
            health = cli.health()

    assert errors == []  # zero failed requests across the reloads
    assert len(results) == n_threads * per_thread
    for model, out in results:
        assert np.array_equal(out, references[model, "A"]) or np.array_equal(
            out, references[model, "B"]
        )
    total = n_threads * per_thread + len(models)  # + the post-swap checks
    assert counters["requests"] == total
    assert counters["completed"] == total
    assert counters.get("errors", 0) == 0
    assert health["status"] == "ok" and all(health["alive"])
