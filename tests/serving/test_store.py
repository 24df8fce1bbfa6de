"""Round-trip tests for the serving store: a persisted fit must serve
predictions bit-identical to the process that ran the fit."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import use_config
from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import BundleCorruptError, BundleError
from repro.kernels import ExponentialCovariance, MaternCovariance
from repro.kernels.covariance import (
    GaussianCovariance,
    PoweredExponentialCovariance,
    WhittleCovariance,
)
from repro.mle import MLEstimator, PredictionEngine
from repro.serving import ModelBundle, bundle_from_fit, load_model, save_model

N, NB, ACC = 144, 36, 1e-9
FIXTURES = Path(__file__).parent.parent / "fixtures" / "compat"
VARIANTS = ("full-block", "full-tile", "tlr")


@pytest.fixture(scope="module")
def problem():
    locs = generate_irregular_grid(N, seed=0)
    truth = MaternCovariance(1.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, truth, seed=1)
    targets = generate_irregular_grid(16, seed=3)
    return locs, z, targets


def _fit(problem, variant, **kwargs):
    locs, z, _ = problem
    est = MLEstimator(locs, z, variant=variant, tile_size=NB, acc=ACC, **kwargs)
    return est, est.fit(maxiter=12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_round_trip_predictions_bit_identical(problem, variant, tmp_path):
    locs, z, targets = problem
    est, fit = _fit(problem, variant)
    reference = est.predict(fit, targets)

    path = est.save_fit(fit, tmp_path / "model.bundle")
    engine = PredictionEngine.from_bundle(path)
    got = engine.predict(targets)

    np.testing.assert_array_equal(got, reference)
    # The persisted factor was adopted: no factorization on first predict.
    assert engine.n_factorizations == 0
    # Batched multi-RHS through the loaded engine also matches (to solver
    # rounding: a 2-column TRSM orders its flops differently than TRSV).
    batch = np.column_stack([engine.z, engine.z * 0.5])
    got_batch = engine.predict(targets, z=batch)
    np.testing.assert_allclose(got_batch[:, 0], reference, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_round_trip_conditional_variance(problem, variant, tmp_path):
    locs, z, targets = problem
    est, fit = _fit(problem, variant)
    reference = est.conditional_variance(fit, targets)
    path = est.save_fit(fit, tmp_path / "model.bundle")
    got = PredictionEngine.from_bundle(path).conditional_variance(targets)
    np.testing.assert_array_equal(got, reference)


def test_tile_factor_round_trip_bit_identical_and_not_held_twice(problem, tmp_path):
    """save -> load of a full-tile factor: same bits, tiles living in the
    factor's column arrays, and the per-tile arrays released as they land."""
    from repro.linalg import TileMatrix

    est, fit = _fit(problem, "full-tile")
    bundle = bundle_from_fit(est, fit)
    assert isinstance(bundle.factor, TileMatrix)

    loaded = load_model(bundle.save(tmp_path / "t.bundle"))
    assert isinstance(loaded.factor, TileMatrix)
    for (i, j, a), (_, _, b) in zip(bundle.factor.iter_stored(), loaded.factor.iter_stored()):
        np.testing.assert_array_equal(a, b)
        assert b.flags["C_CONTIGUOUS"] and np.shares_memory(b, loaded.factor.panel(j))

    # Factoring the same matrix again from the loaded bundle's model
    # reproduces the persisted factor bit for bit.
    engine = loaded.build_engine()
    engine.clear()  # drop the adopted factor
    np.testing.assert_array_equal(engine.factor().to_dense(), loaded.factor.to_dense())

    # from_payload moves each tile out of ``arrays`` as it is copied in.
    meta, arrays = bundle.to_payload()
    originals = {k: v for k, v in arrays.items() if k.startswith("factor_tile_")}
    assert len(originals) == loaded.factor.nt * (loaded.factor.nt + 1) // 2
    rebuilt = ModelBundle.from_payload(meta, arrays)
    assert not any(name.startswith("factor_tile_") for name in arrays)
    for name, tile in originals.items():
        _, _, i, j = name.split("_")
        assert not np.shares_memory(rebuilt.factor.tile(int(i), int(j)), tile)
    assert rebuilt.factor.nbytes == bundle.factor.nbytes


def test_tile_factor_with_a_missing_tile_is_rejected(problem, tmp_path):
    est, fit = _fit(problem, "full-tile")
    meta, arrays = bundle_from_fit(est, fit).to_payload()
    del arrays["factor_tile_1_0"]
    with pytest.raises(BundleError, match="tile factor has"):
        ModelBundle.from_payload(meta, arrays)


def test_metadata_round_trip(problem, tmp_path):
    est, fit = _fit(problem, "tlr")
    bundle = bundle_from_fit(est, fit)
    path = save_model(bundle, tmp_path / "m.bundle")
    loaded = load_model(path)

    assert type(loaded.model) is type(est.model)
    np.testing.assert_array_equal(loaded.model.theta, fit.theta)
    assert loaded.model.metric == est.model.metric
    assert loaded.model.nugget == est.model.nugget
    assert loaded.variant == "tlr"
    assert loaded.tile_size == NB and loaded.acc == ACC
    np.testing.assert_array_equal(loaded.locations, est.locations)  # Morton order kept
    np.testing.assert_array_equal(loaded.z, est.z)
    assert loaded.info["loglik"] == pytest.approx(fit.loglik)
    # The on-disk form is a plain directory with meta.json + arrays.npz.
    meta = json.loads((path / "meta.json").read_text())
    assert meta["format_version"] == 1
    assert meta["model"]["family"] == "MaternCovariance"


@pytest.mark.parametrize(
    "name",
    ["tile_distance_blocks.bundle", "full_block_distances.bundle"],
    ids=["tile", "full-block"],
)
def test_bundle_with_distance_arrays_still_loads(name, tmp_path):
    """Bundles written when fits could persist their distances (a tile
    bundle with ``dist_*`` blocks, a full-block one with
    ``full_distances``) load, drop those arrays and refactor from the
    coordinates to the predictions their writer served."""
    expected = json.loads((FIXTURES / "distance_arrays.json").read_text())
    with np.load(FIXTURES / name / "arrays.npz") as npz:
        assert any(k.startswith("dist_") or k == "full_distances" for k in npz.files)
    bundle = load_model(FIXTURES / name)
    assert bundle.factor is None
    targets = np.array([[float.fromhex(v) for v in row] for row in expected["targets"]])
    engine = bundle.build_engine()
    assert [float(v).hex() for v in engine.predict(targets)] == expected[name]
    assert engine.n_factorizations == 1
    # Saved again, the bundle carries no distance data.
    meta, arrays = load_model(bundle.save(tmp_path / name)).to_payload()
    assert not any(k.startswith("dist_") or k == "full_distances" for k in arrays)
    assert "n_distance_blocks" not in meta and "has_full_distances" not in meta


def test_bundle_without_factor_refactorizes_to_same_values(problem, tmp_path):
    locs, z, targets = problem
    est, fit = _fit(problem, "full-block")
    reference = est.predict(fit, targets)
    path = est.save_fit(fit, tmp_path / "m.bundle", include_factor=False)
    engine = PredictionEngine.from_bundle(path)
    got = engine.predict(targets)
    assert engine.n_factorizations == 1
    np.testing.assert_array_equal(got, reference)


def test_variance_only_bundle(problem, tmp_path):
    locs, z, targets = problem
    model = ExponentialCovariance(1.2, 0.15, nugget=1e-4)
    bundle = ModelBundle(model=model, locations=locs, z=None, variant="full-block")
    path = bundle.save(tmp_path / "m.bundle")
    engine = load_model(path).build_engine()
    var = engine.conditional_variance(targets)
    assert var.shape == (targets.shape[0],)
    # Explicit z still works; a bound-z predict does not exist.
    pred = engine.predict(targets, z=np.asarray(z))
    assert pred.shape == (targets.shape[0],)


def test_load_errors(tmp_path):
    with pytest.raises(BundleError):
        load_model(tmp_path / "missing.bundle")
    bad = tmp_path / "bad.bundle"
    bad.mkdir()
    (bad / "meta.json").write_text("{}")
    with pytest.raises(BundleError):
        load_model(bad)  # no arrays.npz
    est_path = tmp_path / "versioned.bundle"
    est_path.mkdir()
    (est_path / "meta.json").write_text(json.dumps({"format_version": 99}))
    (est_path / "arrays.npz").write_bytes(b"")
    with pytest.raises(BundleError):
        load_model(est_path)


# --------------------------------------------------------------------------
# Hypothesis: arbitrary bundles survive save -> load exactly, and malformed
# meta.json raises BundleError — never a bare KeyError.
# --------------------------------------------------------------------------

_FAMILIES = (
    MaternCovariance,
    ExponentialCovariance,
    WhittleCovariance,
    GaussianCovariance,
    PoweredExponentialCovariance,
)


@st.composite
def _bundles(draw):
    cls = draw(st.sampled_from(_FAMILIES))
    base = cls(
        metric=draw(st.sampled_from(["euclidean", "gcd"])),
        nugget=draw(st.floats(0.0, 1e-2, allow_nan=False)),
    )
    theta = draw(
        st.lists(
            st.floats(0.05, 1.9, allow_nan=False),
            min_size=len(base.param_names),
            max_size=len(base.param_names),
        )
    )
    model = base.with_theta(theta)
    n = draw(st.integers(4, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    locations = rng.random((n, 2))
    z_kind = draw(st.sampled_from(["none", "vector", "matrix"]))
    z = {
        "none": None,
        "vector": rng.standard_normal(n),
        "matrix": rng.standard_normal((n, draw(st.integers(1, 3)))),
    }[z_kind]
    return ModelBundle(
        model=model,
        locations=locations,
        z=z,
        variant=draw(st.sampled_from(["full-block", "full-tile", "tlr"])),
        acc=draw(st.floats(1e-12, 1e-2, allow_nan=False)),
        tile_size=draw(st.integers(2, 64)),
        compression_method=draw(st.sampled_from(["svd", "rsvd"])),
        truncation=draw(st.sampled_from(["relative", "absolute"])),
        info={
            "loglik": draw(st.floats(-1e12, 1e12, allow_nan=False)),
            "n_evals": draw(st.integers(0, 10_000)),
            "note": draw(st.text(max_size=20)),
        },
    )


@settings(max_examples=40, deadline=None)
@given(bundle=_bundles())
def test_property_bundle_round_trip_exact(bundle):
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_model(bundle.save(Path(tmp) / "b.bundle"))
    assert type(loaded.model) is type(bundle.model)
    np.testing.assert_array_equal(loaded.model.theta, bundle.model.theta)
    assert loaded.model.metric == bundle.model.metric
    assert loaded.model.nugget == bundle.model.nugget  # exact: JSON repr round-trips
    np.testing.assert_array_equal(loaded.locations, bundle.locations)
    if bundle.z is None:
        assert loaded.z is None
    else:
        np.testing.assert_array_equal(loaded.z, bundle.z)
        assert loaded.z.shape == bundle.z.shape
    assert loaded.variant == bundle.variant
    assert loaded.acc == bundle.acc
    assert loaded.tile_size == bundle.tile_size
    assert loaded.compression_method == bundle.compression_method
    assert loaded.truncation == bundle.truncation
    assert loaded.info == bundle.info


_META_KEYS = (
    ("model",),
    ("substrate",),
    ("n",),
    ("model", "metric"),
    ("model", "nugget"),
    ("model", "theta"),
    ("substrate", "variant"),
    ("substrate", "acc"),
    ("substrate", "tile_size"),
    ("substrate", "compression_method"),
    ("substrate", "truncation"),
)


@settings(max_examples=len(_META_KEYS), deadline=None)
@given(path_to_drop=st.sampled_from(_META_KEYS))
def test_property_missing_meta_key_raises_bundle_error(path_to_drop):
    """Deleting any required meta.json key must surface as BundleError
    (a typed, catchable ServingError) — never as a raw KeyError."""
    locs = np.random.default_rng(0).random((6, 2))
    bundle = ModelBundle(
        model=MaternCovariance(1.0, 0.1, 0.5), locations=locs, z=None
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = bundle.save(Path(tmp) / "b.bundle")
        meta = json.loads((path / "meta.json").read_text())
        node = meta
        for key in path_to_drop[:-1]:
            node = node[key]
        del node[path_to_drop[-1]]
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(BundleError):
            load_model(path)


@pytest.mark.parametrize(
    "content",
    ["not json at all", "[1, 2, 3]", '{"format_version": 1, "model": "nope"}'],
)
def test_malformed_meta_json_raises_bundle_error(tmp_path, content):
    locs = np.random.default_rng(0).random((6, 2))
    path = ModelBundle(
        model=MaternCovariance(1.0, 0.1, 0.5), locations=locs, z=None
    ).save(tmp_path / "b.bundle")
    (path / "meta.json").write_text(content)
    with pytest.raises(BundleError):
        load_model(path)


@pytest.mark.parametrize("key", ["family", "variant", "compression_method", "truncation"])
def test_unknown_family_rejected(tmp_path, key):
    """An unknown name fails at load as a BundleError (HTTP 400 on
    register-by-upload), not as a confusing error at the first
    factorization."""
    path = _small_bundle(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["model" if key == "family" else "substrate"][key] = "bogus"
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(BundleError, match="bogus"):
        load_model(path)


def test_bundle_naming_the_deleted_aca_compressor_fails_typed(tmp_path):
    """Only ``svd`` and ``rsvd`` remain; an older bundle whose meta names
    ``aca`` is a BundleError (HTTP 400 on register), not a late failure."""
    path = _small_bundle(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["substrate"]["compression_method"] = "aca"
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(BundleError, match="aca"):
        load_model(path)


def test_served_engine_keeps_the_bundles_truncation_rule(tmp_path):
    """A bundle's truncation rule, not the serving process's Config,
    decides how a re-factorization rounds."""
    locs = generate_irregular_grid(N, seed=0)
    model = MaternCovariance(4.0, 0.1, 0.5)
    z = sample_gaussian_field(locs, model, seed=1)
    kwargs = dict(variant="tlr", tile_size=NB, acc=1e-3)
    path = ModelBundle(
        model=model, locations=locs, z=z, truncation="absolute", **kwargs
    ).save(tmp_path / "abs.bundle")
    served = load_model(path).build_engine()  # caller's rule: "relative"
    assert served.truncation_rule == "absolute"
    with use_config(truncation="absolute"):
        absolute = PredictionEngine(locs, z, model, **kwargs)
    relative = PredictionEngine(locs, z, model, **kwargs)
    ranks = served.factor().rank_matrix()
    np.testing.assert_array_equal(ranks, absolute.factor().rank_matrix())
    assert not np.array_equal(ranks, relative.factor().rank_matrix())


# --------------------------------------------------------------------------
# Integrity: the sha256 recorded at save time is verified at load time;
# torn payloads raise a typed error and the bad copy is quarantined.
# --------------------------------------------------------------------------


def _small_bundle(tmp_path, name="b.bundle"):
    locs = np.random.default_rng(0).random((8, 2))
    bundle = ModelBundle(model=MaternCovariance(1.0, 0.1, 0.5), locations=locs, z=None)
    return bundle.save(tmp_path / name)


def test_save_records_the_arrays_checksum(tmp_path):
    path = _small_bundle(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    recorded = meta["checksums"]["arrays.npz"]
    import hashlib

    assert recorded == hashlib.sha256((path / "arrays.npz").read_bytes()).hexdigest()
    load_model(path)  # a clean bundle passes its own check


def test_corrupted_arrays_raise_typed_error_and_quarantine(tmp_path):
    path = _small_bundle(tmp_path)
    data = bytearray((path / "arrays.npz").read_bytes())
    data[len(data) // 2] ^= 0xFF  # one flipped byte, size unchanged
    (path / "arrays.npz").write_bytes(bytes(data))
    with pytest.raises(BundleCorruptError, match="integrity check"):
        load_model(path)
    # The bad copy was renamed aside so retries stop re-reading it...
    assert not path.exists()
    quarantined = path.with_name(path.name + ".corrupt")
    assert (quarantined / "arrays.npz").is_file()
    # ...and a later load of the (now missing) path is a plain BundleError.
    with pytest.raises(BundleError):
        load_model(path)


def test_truncated_arrays_raise_typed_error_and_quarantine(tmp_path):
    """A torn write (no checksum recorded, payload cut short) surfaces
    as BundleCorruptError from the npz reader, not a raw zipfile error."""
    path = _small_bundle(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    del meta["checksums"]  # pre-checksum bundle: only the reader can object
    (path / "meta.json").write_text(json.dumps(meta))
    payload = (path / "arrays.npz").read_bytes()
    (path / "arrays.npz").write_bytes(payload[: len(payload) // 3])
    with pytest.raises(BundleCorruptError, match="unreadable"):
        load_model(path)
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()


def test_bundle_corrupt_error_is_a_bundle_error(tmp_path):
    assert issubclass(BundleCorruptError, BundleError)


def test_legacy_bundle_without_checksums_still_loads(tmp_path):
    path = _small_bundle(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    del meta["checksums"]
    (path / "meta.json").write_text(json.dumps(meta))
    loaded = load_model(path)
    assert loaded.n == 8


def test_quarantine_names_do_not_collide(tmp_path):
    first = _small_bundle(tmp_path, "m.bundle")
    data = bytearray((first / "arrays.npz").read_bytes())
    data[10] ^= 0xFF
    (first / "arrays.npz").write_bytes(bytes(data))
    with pytest.raises(BundleCorruptError):
        load_model(first)
    second = _small_bundle(tmp_path, "m.bundle")  # same path, fresh save
    data = bytearray((second / "arrays.npz").read_bytes())
    data[10] ^= 0xFF
    (second / "arrays.npz").write_bytes(bytes(data))
    with pytest.raises(BundleCorruptError):
        load_model(second)
    assert (tmp_path / "m.bundle.corrupt").exists()
    assert (tmp_path / "m.bundle.corrupt1").exists()
