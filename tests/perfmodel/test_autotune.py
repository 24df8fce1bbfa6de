"""Calibration + planner: determinism, persistence, search invariants.

The profile is the planner's single input, so the important contracts
are byte-level: same seed and fake clock → identical profile JSON, a
saved profile plans exactly like the in-memory one it came from, and
every failure mode surfaces as a typed error instead of a garbage plan.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import MaternCovariance, use_config
from repro.data import generate_irregular_grid
from repro.exceptions import CalibrationError, PlanError
from repro.mle import MLEstimator
from repro.perfmodel.autotune import (
    CalibrationProfile,
    autotune,
    fit_constants,
    run_probes,
    samples_from_spans,
)
from repro.perfmodel.planner import (
    Plan,
    Planner,
    plan,
    planned_tile_size,
    predict_workload,
    set_default_profile,
    task_counts,
)
from repro.telemetry import spans as _telemetry

_HOST = {"hostname": "testhost", "machine": "x86_64", "cpu_count": 8, "mem_gb": 16.0}


class FakeClock:
    """Deterministic monotonic clock: every call advances by a fixed step."""

    def __init__(self, step: float = 1e-3) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _profile(**kw) -> CalibrationProfile:
    kw.setdefault("sizes", (32, 48))
    kw.setdefault("repeats", 1)
    kw.setdefault("seed", 0)
    kw.setdefault("clock", FakeClock())
    kw.setdefault("created", 0.0)
    kw.setdefault("host", _HOST)
    return autotune(**kw)


@pytest.fixture(autouse=True)
def _clear_default_profile():
    set_default_profile(None)
    yield
    set_default_profile(None)


# ---------------------------------------------------------- determinism
def test_same_seed_and_clock_give_byte_identical_profiles():
    a = _profile(clock=FakeClock())
    b = _profile(clock=FakeClock())
    assert a.to_json() == b.to_json()
    assert json.loads(a.to_json())["version"] == 1


def test_different_seed_changes_probe_record():
    a = _profile(clock=FakeClock())
    b = _profile(seed=1, clock=FakeClock())
    assert a.to_json() != b.to_json()
    assert a.seed == 0 and b.seed == 1


def test_saved_profile_plans_identically_to_fresh_fit(tmp_path):
    fresh = _profile()
    path = fresh.save(tmp_path / "profile.json")
    loaded = CalibrationProfile.load(path)
    assert loaded.to_json() == fresh.to_json()
    p1 = Planner(fresh).plan(600, substrate="full-tile")
    p2 = Planner(loaded).plan(600, substrate="full-tile")
    assert p1.to_dict()["config"] == p2.to_dict()["config"]
    assert p1.objective_s == pytest.approx(p2.objective_s)


# ---------------------------------------------------------- persistence
def test_save_is_atomic_no_tmp_file_left(tmp_path):
    profile = _profile()
    path = profile.save(tmp_path / "profile.json")
    assert path.is_file()
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


def test_load_missing_file_raises_calibration_error(tmp_path):
    with pytest.raises(CalibrationError):
        CalibrationProfile.load(tmp_path / "nope.json")


def test_load_malformed_json_raises_calibration_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{torn", encoding="utf-8")
    with pytest.raises(CalibrationError):
        CalibrationProfile.load(bad)


def test_version_mismatch_raises_calibration_error():
    d = _profile().to_dict()
    d["version"] = 999
    with pytest.raises(CalibrationError, match="version"):
        CalibrationProfile.from_dict(d)


def test_staleness_stamp():
    profile = _profile(created=1000.0)
    assert profile.age_s(now=1500.0) == pytest.approx(500.0)
    assert not profile.is_stale(now=1500.0)
    assert profile.is_stale(now=1000.0 + profile.max_age_s + 1.0)


# ---------------------------------------------------------- fitting
def test_fit_constants_are_positive_and_complete():
    constants = _profile().constants
    for key in (
        "dense_gflops",
        "lr_gflops",
        "gen_gflops",
        "copy_bw_gbs",
        "task_overhead_s",
    ):
        assert constants[key] >= 0.0
        assert np.isfinite(constants[key])
    assert constants["dense_gflops"] > 0.0


def test_fit_constants_rejects_missing_kernel_class():
    samples = [s for s in run_probes(sizes=(32,), repeats=1, clock=FakeClock())
               if s.kernel not in ("gemm", "potrf")]
    with pytest.raises(CalibrationError):
        fit_constants(samples)


def test_probe_spans_round_trip_through_telemetry_sink(tmp_path):
    _telemetry.reset_telemetry()
    _telemetry.configure(enabled=True, sink_dir=str(tmp_path))
    try:
        direct = run_probes(sizes=(32,), repeats=1, clock=FakeClock())
    finally:
        _telemetry.reset_telemetry()
    from repro.perfmodel.calibrate import load_spans

    recovered = samples_from_spans(load_spans(tmp_path))
    assert len(recovered) == len(direct)
    assert {s.kernel for s in recovered} == {s.kernel for s in direct}
    by_key = {(s.kernel, s.size): s for s in direct}
    for s in recovered:
        ref = by_key[(s.kernel, s.size)]
        assert s.work == pytest.approx(ref.work)


def test_samples_from_spans_without_probes_raises():
    with pytest.raises(CalibrationError):
        samples_from_spans([{"name": "stage:solve", "duration": 0.1}])


# ---------------------------------------------------------- planner
def test_plan_invariants():
    profile = _profile()
    p = Planner(profile).plan(900)
    assert isinstance(p, Plan)
    assert p.variant in ("full-block", "full-tile", "tlr")
    assert 1 <= p.tile_size <= 900
    assert p.serving_workers >= 1
    assert 1 <= p.compression_batch <= 64
    assert p.objective_s > 0.0
    d = p.to_dict()
    fit_phases = d["predicted"]["fit_iteration"]["phases"]
    assert d["predicted"]["fit_iteration"]["total_s"] == pytest.approx(
        sum(fit_phases.values())
    )
    assert d["search"]["candidates"]  # the scan is reported, not hidden


def test_plan_substrate_and_accuracy_pinning():
    planner = Planner(_profile())
    p = planner.plan(600, substrate="tlr", accuracy=1e-5)
    assert p.variant == "tlr"
    assert p.accuracy == pytest.approx(1e-5)


def test_plan_rejects_bad_inputs():
    planner = Planner(_profile())
    with pytest.raises(PlanError):
        planner.plan(1)
    with pytest.raises(PlanError):
        planner.plan(600, m=-1)
    with pytest.raises(PlanError):
        planner.plan(600, substrate="quantum")
    with pytest.raises(PlanError):
        planner.plan(600, accuracy=2.0)


def test_plan_all_oom_raises_plan_error():
    base = _profile()
    tiny_host = dict(base.host, mem_gb=1e-9)
    starved = CalibrationProfile.from_dict(
        {**base.to_dict(), "host": tiny_host,
         "machine": {**base.to_dict()["machine"], "mem_gb": 1e-9}}
    )
    with pytest.raises(PlanError, match="[Oo]ut of memory|feasible"):
        Planner(starved).plan(5000)


def test_predict_workload_phase_totals():
    profile = _profile()
    out = predict_workload(profile, 800, variant="full-tile", nb=128, acc=None, m=50)
    assert out["fit_iteration"]["total_s"] == pytest.approx(
        sum(out["fit_iteration"]["phases"].values())
    )
    assert out["predict"]["total_s"] > 0.0
    assert out["matrix_bytes"] > 0 and out["mem_bytes"] >= out["matrix_bytes"]


def test_task_counts_positive_and_scale_with_nt():
    small = task_counts(512, 128, "full-tile")
    large = task_counts(2048, 128, "full-tile")
    for phase in ("generation", "factorization", "solve"):
        assert small[phase] > 0
        assert large[phase] > small[phase]


@pytest.mark.parametrize("variant", ["full-tile", "tlr"])
@pytest.mark.parametrize("n, nb", [(300, 64), (256, 64)])  # ragged and even, nt = 5 / 4
def test_task_counts_match_the_runtime_event_count(variant, n, nb):
    """Model and code cannot drift: one evaluator call on a tracing
    runtime executes exactly generation + factorization tasks."""
    from repro.runtime import Runtime

    locs = generate_irregular_grid(n, seed=5)
    z = np.random.default_rng(5).standard_normal(n)
    counts = task_counts(n, nb, variant)
    with Runtime(num_workers=2, trace=True) as rt:
        est = MLEstimator(
            locs, z, model=MaternCovariance(1.0, 0.1, 0.5), variant=variant,
            tile_size=nb, acc=1e-7, runtime=rt,
        )
        est.evaluator(np.array([1.0, 0.1, 0.5]))
        assert len(rt.trace) == counts["generation"] + counts["factorization"]


def test_tlr_generation_count_follows_compression_batch():
    nt = 8
    off = nt * (nt - 1) // 2
    assert task_counts(8 * 64, 64, "tlr")["generation"] == nt + off
    with use_config(compression_batch=5):
        assert task_counts(8 * 64, 64, "tlr")["generation"] == nt + -(-off // 5)


def test_full_tile_counts_are_the_panel_graph():
    counts = task_counts(2080, 80, "full-tile")  # the ledger's mle_tile_exp
    assert counts["generation"] + counts["factorization"] == 26 + 26 + 325


# ---------------------------------------------------------- config hooks
def test_planned_tile_size_uses_default_profile():
    set_default_profile(_profile())
    nb = planned_tile_size(700, variant="full-tile")
    assert nb is not None and 1 <= nb <= 700


def test_module_level_plan_uses_injected_profile():
    p = plan(700, substrate="full-tile", profile=_profile())
    assert p.variant == "full-tile"


def test_estimator_adopts_planned_tile_size_when_auto_tune_on():
    set_default_profile(_profile())
    locs = generate_irregular_grid(300, seed=3)
    z = np.zeros(300)
    model = MaternCovariance(1.0, 0.1, 0.5)
    expected = planned_tile_size(300, variant="full-tile")
    assert expected is not None
    with use_config(auto_tune=True):
        est = MLEstimator(locs, z, model=model, variant="full-tile")
        assert est.evaluator.tile_size == expected
    # Off by default: the static config tile size wins.
    from repro import get_config

    est = MLEstimator(locs, z, model=model, variant="full-tile")
    assert est.evaluator.tile_size == get_config().tile_size


def test_estimator_explicit_tile_size_beats_planner():
    set_default_profile(_profile())
    locs = generate_irregular_grid(300, seed=3)
    model = MaternCovariance(1.0, 0.1, 0.5)
    with use_config(auto_tune=True):
        est = MLEstimator(locs, np.zeros(300), model=model,
                          variant="full-tile", tile_size=75)
        assert est.evaluator.tile_size == 75


def test_default_profile_loads_configured_path(tmp_path):
    path = _profile().save(tmp_path / "prof.json")
    from repro.perfmodel.planner import default_profile

    with use_config(autotune_profile=str(path)):
        prof = default_profile(refresh=True)
        assert prof.host["hostname"] == "testhost"
    set_default_profile(None)
