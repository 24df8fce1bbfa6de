"""Tests for validation, timing, RNG, logging, and config utilities."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import Config, get_config, reset_config, set_config, use_config
from repro.exceptions import ConfigurationError, ShapeError
from repro.utils.durable import atomic_write
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timer import StageTimes
from repro.utils.logging import get_logger
from repro.utils.validation import (
    as_float_array,
    check_locations,
    check_positive,
    check_square,
    check_symmetric,
    check_vector,
)


class TestValidation:
    def test_as_float_array_conversion(self):
        arr = as_float_array([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_as_float_array_rejects_nan(self):
        with pytest.raises(ShapeError):
            as_float_array([1.0, np.nan])
        with pytest.raises(ShapeError):
            as_float_array([1.0, np.inf])

    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        assert check_positive(0.0, "x", strict=False) == 0.0
        with pytest.raises(ShapeError):
            check_positive(0.0, "x")
        with pytest.raises(ShapeError):
            check_positive(-1.0, "x", strict=False)

    def test_check_square_symmetric(self, rng):
        a = rng.random((4, 4))
        check_square(a)
        with pytest.raises(ShapeError):
            check_square(rng.random((3, 4)))
        s = a + a.T
        check_symmetric(s)
        with pytest.raises(ShapeError):
            check_symmetric(a + np.eye(4))

    def test_check_vector(self, rng):
        v = rng.random(5)
        check_vector(v, 5)
        with pytest.raises(ShapeError):
            check_vector(v, 6)
        with pytest.raises(ShapeError):
            check_vector(rng.random((2, 2)))

    def test_check_locations(self, rng):
        pts = check_locations(rng.random(7))
        assert pts.shape == (7, 1)
        with pytest.raises(ShapeError):
            check_locations(rng.random((3, 4)))
        with pytest.raises(ShapeError):
            check_locations(np.empty((0, 2)))


class TestTimers:
    def test_stage_times(self):
        st = StageTimes()
        with st.stage("a"):
            time.sleep(0.005)
        with st.stage("a"):
            pass
        with pytest.raises(KeyError):
            with st.stage("b"):
                raise KeyError("still timed")
        assert set(st.stages) == {"a", "b"}
        assert st.stages["a"] >= 0.004 and st.stages["b"] >= 0.0


class TestRng:
    def test_as_generator_normalization(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_default_seed_is_configured(self):
        with use_config(rng_seed=777):
            a = as_generator(None).random(4)
            b = as_generator(None).random(4)
        np.testing.assert_array_equal(a, b)

    def test_spawn_independent_streams(self):
        gens = spawn_generators(4, seed=9)
        draws = [g.random(10) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_spawn_reproducible(self):
        a = [g.random(3) for g in spawn_generators(3, seed=1)]
        b = [g.random(3) for g in spawn_generators(3, seed=1)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_generators(-1)


class TestConfig:
    def test_defaults_valid(self):
        cfg = Config()
        assert cfg.tile_size >= 2
        assert cfg.resolved_workers() >= 1

    def test_validation_errors(self):
        for bad in (
            dict(tile_size=1),
            dict(tlr_accuracy=0.0),
            dict(tlr_accuracy=2.0),
            dict(compression_method="qr"),
            dict(compression_method="aca"),  # deleted: svd and rsvd remain
            dict(truncation="weird"),
            dict(num_workers=-1),
            dict(compression_batch=0),
        ):
            with pytest.raises(ConfigurationError):
                Config(**bad)  # type: ignore[arg-type]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_count_in_environment_is_typed(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NUM_WORKERS", value)
        with pytest.raises(ConfigurationError, match=f"REPRO_NUM_WORKERS.*{value}"):
            Config().resolved_workers()
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        assert Config().resolved_workers() == 3
        assert Config(num_workers=2).resolved_workers() == 2  # explicit wins

    def test_use_config_scoped(self):
        reset_config()
        base = get_config().tile_size
        with use_config(tile_size=99):
            assert get_config().tile_size == 99
            with use_config(tlr_accuracy=1e-5):
                assert get_config().tile_size == 99
                assert get_config().tlr_accuracy == 1e-5
        assert get_config().tile_size == base

    def test_use_config_restores_on_error(self):
        reset_config()
        base = get_config().tile_size
        with pytest.raises(RuntimeError):
            with use_config(tile_size=77):
                raise RuntimeError("boom")
        assert get_config().tile_size == base

    def test_set_config_validates(self):
        cfg = Config()
        object.__setattr__(cfg, "tile_size", 1)
        with pytest.raises(ConfigurationError):
            set_config(cfg)
        reset_config()


class TestAtomicWrite:
    def test_commits_on_clean_exit(self, tmp_path):
        target = tmp_path / "state.json"
        with atomic_write(target) as fh:
            fh.write("v1")
            assert not target.exists()  # nothing visible before the rename
        assert target.read_text() == "v1"
        with atomic_write(target, "wb") as fh:
            fh.write(b"v2")
        assert target.read_bytes() == b"v2"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_failure_leaves_previous_file_and_no_temp(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"committed")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(target) as fh:
                fh.write("half a reco")
                raise RuntimeError("boom")
        assert target.read_bytes() == b"committed"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class TestLogging:
    def test_logger_namespace(self):
        log = get_logger("unit")
        assert log.name == "repro.unit"
        log.debug("message does not raise")
