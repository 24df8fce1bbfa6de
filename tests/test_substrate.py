"""One substrate value from engine to bundle to fit job.

:class:`~repro.substrate.Substrate` is resolved and checked once per
public constructor; these tests pin its rules, that every layer rejects
the same bad values with its own typed error, that the resolved value
(not the caller's config at a later call) travels with estimators, fits
and bundles, and that files written before it existed still load.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.config import get_config, use_config
from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import BundleError, ConfigurationError, FittingError
from repro.fitting import FitJobSpec
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator, PredictionEngine
from repro.serving import ModelBundle, load_model
from repro.substrate import Substrate

FIXTURES = Path(__file__).parent / "fixtures" / "compat"


@pytest.fixture(scope="module")
def problem():
    locs = generate_irregular_grid(64, seed=0)
    model = MaternCovariance(1.0, 0.1, 0.5)
    return locs, sample_gaussian_field(locs, model, seed=1), model


# --------------------------------------------------------------- the value
def test_resolve_fills_unset_fields_from_the_callers_config():
    with use_config(tile_size=40, tlr_accuracy=1e-5, truncation="absolute",
                    compression_method="rsvd", compression_batch=3):
        sub = Substrate.resolve("tlr")
    assert sub == Substrate("tlr", 40, 1e-5, "rsvd", "absolute", 3)
    assert Substrate.resolve().variant == "full-block"


def test_resolve_fills_unset_fields_from_a_base_not_the_config():
    base = Substrate("tlr", 40, 1e-5, "rsvd", "absolute", 3)
    assert Substrate.resolve(base) == base
    assert Substrate.resolve(variant=base) == base
    assert Substrate.resolve(tile_size=20, base=base) == Substrate(
        "tlr", 20, 1e-5, "rsvd", "absolute", 3
    )
    assert Substrate.resolve("full-tile", base=base).variant == "full-tile"


@pytest.mark.parametrize(
    "bad",
    [
        dict(acc=5.0), dict(acc=-1.0), dict(acc=0.0), dict(acc=1.0),
        dict(acc=math.nan), dict(acc=math.inf), dict(tile_size=1), dict(tile_size=0),
        dict(compression_batch=0), dict(variant="bogus"),
        dict(compression_method="aca"), dict(truncation="weird"), dict(acc="x"),
        dict(variant=""), dict(truncation=""),
    ],
)
def test_every_bad_value_is_one_typed_error(bad):
    with pytest.raises(ConfigurationError):
        Substrate.resolve(**bad)
    with pytest.raises(FittingError):
        Substrate.resolve(**bad, error=FittingError)


def test_meta_round_trip_is_exact():
    sub = Substrate("tlr", 17, 3.3e-7, "rsvd", "absolute", 2)
    assert Substrate.from_meta(json.loads(json.dumps(sub.to_meta()))) == sub
    old = {k: v for k, v in sub.to_meta().items() if k != "compression_batch"}
    assert Substrate.from_meta(old).compression_batch == get_config().compression_batch
    with pytest.raises(BundleError, match="substrate section"):
        Substrate.from_meta({"variant": "tlr"}, error=BundleError)
    with pytest.raises(BundleError, match="substrate section"):
        Substrate.from_meta(["tlr"], error=BundleError)


# ------------------------------------------------- every layer, one check
@pytest.mark.parametrize(
    "bad", [dict(acc=5.0), dict(acc=-1.0), dict(acc=math.nan), dict(tile_size=1)]
)
def test_out_of_range_values_fail_typed_at_construction(problem, bad):
    locs, z, model = problem
    kwargs = {"variant": "tlr", "tile_size": 16, **bad}
    with pytest.raises(ConfigurationError):
        PredictionEngine(locs, z, model, **kwargs)
    with pytest.raises(ConfigurationError):
        MLEstimator(locs, z, model=model, **kwargs)
    with pytest.raises(BundleError):
        ModelBundle(model=model, locations=locs, z=z, **kwargs)
    with pytest.raises(FittingError):
        FitJobSpec(locations=locs, z=z, **kwargs)


def test_fit_job_rejects_tile_size_zero(problem):
    locs, z, _ = problem
    with pytest.raises(FittingError, match="tile_size"):
        FitJobSpec(locations=locs, z=z, tile_size=0)


@pytest.mark.parametrize("key, value", [("acc", 5.0), ("acc", -1.0), ("tile_size", 1)])
def test_bundle_load_rejects_out_of_range_substrate(problem, tmp_path, key, value):
    """Disk load and register-by-upload share ``from_payload``."""
    locs, z, model = problem
    path = ModelBundle(model=model, locations=locs, z=z, variant="tlr", tile_size=16).save(
        tmp_path / "b.bundle"
    )
    meta = json.loads((path / "meta.json").read_text())
    meta["substrate"][key] = value
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(BundleError, match=key):
        load_model(path)
    with pytest.raises(BundleError, match=key):
        ModelBundle.from_payload(meta, {"locations": locs})


# ---------------------------------------------- the value travels with fits
def test_fit_and_estimator_carry_the_resolved_accuracy(problem):
    """Regression: both reported ``acc=None`` while the evaluator ran at
    1e-5, and a substrate override at predict time took ``acc`` from the
    caller's config then."""
    locs, z, model = problem
    with use_config(tlr_accuracy=1e-5):
        est = MLEstimator(locs, z, model=model, variant="tlr", tile_size=16)
    fit = est.fit(maxiter=8)
    assert est.acc == fit.acc == est.evaluator.acc == 1e-5
    assert fit.substrate == est.substrate == est.evaluator.substrate
    assert fit.variant == "tlr"
    targets = generate_irregular_grid(6, seed=4)
    other = est.predict(fit, targets, tile_size=32)  # default config here: 1e-9
    engine = PredictionEngine(
        est.locations, est.z, model.with_theta(fit.theta), variant="tlr", acc=1e-5,
        tile_size=32,
    )
    np.testing.assert_array_equal(other, engine.predict(targets))


def test_bundle_of_a_fit_keeps_the_whole_substrate(problem, tmp_path):
    locs, z, model = problem
    est = MLEstimator(
        locs, z, model=model, variant="tlr", tile_size=16, acc=1e-4,
        truncation="absolute", compression_batch=2,
    )
    fit = est.fit(maxiter=5)
    bundle = load_model(est.save_fit(fit, tmp_path / "b.bundle"))
    assert bundle.substrate == est.substrate
    assert bundle.build_engine().substrate == est.substrate
    meta = json.loads((tmp_path / "b.bundle" / "meta.json").read_text())
    assert meta["substrate"] == est.substrate.to_meta()


def test_resolved_names_are_read_only(problem):
    locs, z, model = problem
    engine = PredictionEngine(locs, z, model)
    bundle = ModelBundle(model=model, locations=locs, z=z)
    spec = FitJobSpec(locations=locs, z=z)
    for obj, name in ((engine, "acc"), (bundle, "truncation"), (spec, "tile_size")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)


# ------------------------------------------------------- older files load
def _expected():
    return json.loads((FIXTURES / "expected.json").read_text())


def test_bundle_written_before_substrate_loads_and_predicts_bit_identically():
    expected = _expected()["bundle"]
    bundle = load_model(FIXTURES / "tlr_absolute.bundle")
    assert bundle.substrate == Substrate.resolve(**expected["substrate"])
    assert bundle.substrate.truncation == "absolute"
    assert bundle.factor is not None
    targets = np.array([[float.fromhex(v) for v in row] for row in expected["targets"]])
    got = bundle.build_engine().predict(targets)
    assert [float(v).hex() for v in got] == expected["prediction"]


def test_job_spec_written_before_substrate_loads_with_its_substrate():
    expected = _expected()["inline_job"]
    spec = FitJobSpec.load(FIXTURES / "inline_job")
    assert spec.substrate == Substrate(**expected["substrate"])
    estimator, plan = spec.resolve()
    assert estimator.substrate == spec.substrate
    assert [[float(v).hex() for v in s] for s in plan.starts] == expected["starts"]
