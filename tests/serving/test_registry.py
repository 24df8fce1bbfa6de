"""ModelRegistry: lazy loading, LRU eviction + rehydration, thread
safety, and lifecycle."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import ModelNotFoundError
from repro.kernels import MaternCovariance
from repro.serving import ModelBundle, ModelRegistry

N = 100


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Two persisted models with different parameters, plus targets."""
    root = tmp_path_factory.mktemp("bundles")
    locs = generate_irregular_grid(N, seed=0)
    paths, references = {}, {}
    targets = generate_irregular_grid(10, seed=9)
    for name, theta in (("a", (1.0, 0.1, 0.5)), ("b", (2.0, 0.25, 1.0))):
        model = MaternCovariance(*theta)
        z = sample_gaussian_field(locs, model, seed=4)
        bundle = ModelBundle(model=model, locations=locs, z=z, variant="full-block")
        paths[name] = bundle.save(root / f"{name}.bundle")
        references[name] = bundle.build_engine().predict(targets)
    return paths, references, targets


def test_lazy_load_and_warm_hits(bundles):
    paths, references, targets = bundles
    with ModelRegistry(max_models=4) as reg:
        reg.register("a", paths["a"]).register("b", paths["b"])
        assert reg.loaded_models == []  # nothing read yet
        np.testing.assert_array_equal(reg.engine("a").predict(targets), references["a"])
        np.testing.assert_array_equal(reg.engine("b").predict(targets), references["b"])
        assert reg.n_loads == 2
        first = reg.engine("a")
        assert reg.engine("a") is first  # warm hit, same engine object
        assert reg.n_loads == 2 and reg.n_hits >= 2


def test_lru_eviction_and_rehydration(bundles):
    paths, references, targets = bundles
    with ModelRegistry(max_models=1) as reg:
        reg.register("a", paths["a"]).register("b", paths["b"])
        engine_a = reg.engine("a")
        assert reg.loaded_models == ["a"]
        reg.engine("b")  # evicts a (LRU, max_models=1)
        assert reg.loaded_models == ["b"]
        assert reg.n_evictions == 1
        rehydrated = reg.engine("a")  # transparently reloaded from disk
        assert rehydrated is not engine_a
        assert reg.n_loads == 3
        np.testing.assert_array_equal(rehydrated.predict(targets), references["a"])


def test_recency_order_protects_hot_models(bundles):
    paths, _, targets = bundles
    with ModelRegistry(max_models=2) as reg:
        reg.register("a", paths["a"]).register("b", paths["b"])
        reg.register("c", paths["a"])
        reg.engine("a")
        reg.engine("b")
        reg.engine("a")  # refresh a: now b is least recently used
        reg.engine("c")
        assert reg.loaded_models == ["a", "c"]


def test_unknown_and_evicted_engine_only_models(bundles):
    paths, references, targets = bundles
    with ModelRegistry(max_models=1) as reg:
        with pytest.raises(ModelNotFoundError):
            reg.engine("nope")
        engine = ModelBundle.load(paths["a"]).build_engine()
        reg.add_engine("ephemeral", engine)
        assert reg.engine("ephemeral") is engine
        reg.evict("ephemeral")
        with pytest.raises(ModelNotFoundError):  # nothing to rehydrate from
            reg.engine("ephemeral")


def test_concurrent_access_loads_each_model_once(bundles):
    paths, references, targets = bundles
    with ModelRegistry(max_models=4) as reg:
        reg.register("a", paths["a"]).register("b", paths["b"])
        outputs: dict = {}
        errors: list = []

        def hammer(idx: int):
            try:
                name = "a" if idx % 2 == 0 else "b"
                outputs[idx] = (name, reg.engine(name).predict(targets))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(12)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30.0)
        assert not errors and len(outputs) == 12
        assert reg.n_loads == 2  # the lock serializes loading: once per model
        for name, got in outputs.values():
            np.testing.assert_array_equal(got, references[name])


def test_served_engine_is_serial_and_close_is_idempotent(bundles):
    paths, references, targets = bundles
    reg = ModelRegistry(max_models=4)
    reg.register("a", paths["a"])
    engine = reg.engine("a")
    assert engine.runtime is None  # built from the bundle alone
    np.testing.assert_array_equal(engine.predict(targets), references["a"])
    reg.close()
    assert reg.closed and reg.loaded_models == []
    reg.close()  # idempotent: a second close is a no-op
    assert reg.closed
    with pytest.raises(ModelNotFoundError):
        reg.engine("a")


def test_stats_surface(bundles):
    paths, _, targets = bundles
    with ModelRegistry(max_models=2) as reg:
        reg.register("a", paths["a"]).register("b", paths["b"])
        reg.engine("a")
        stats = reg.stats()
        assert stats["n_loads"] == 1
        assert stats["loaded"] == ["a"]
        assert set(stats["known"]) == {"a", "b"}
