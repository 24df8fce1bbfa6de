"""Calibration + planner: determinism, the one cache, search invariants.

The profile is the planner's single input, so the important contracts
are: same seed, fake clock and host → equal profiles, the process
calibrates once however many threads ask, and every failure mode
surfaces as a typed error instead of a garbage plan.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro import MaternCovariance, use_config
from repro.data import generate_irregular_grid
from repro.exceptions import CalibrationError, PlanError
from repro.mle import MLEstimator
from repro.perfmodel import planner as _planner
from repro.perfmodel.autotune import (
    CalibrationProfile,
    autotune,
    fit_constants,
    run_probes,
)
from repro.perfmodel.planner import (
    Plan,
    Planner,
    default_profile,
    plan,
    planned_tile_size,
    predict_workload,
    set_default_profile,
    task_counts,
)

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
    kw.setdefault("host", _HOST)
    return autotune(**kw)


@pytest.fixture(autouse=True)
def _clear_default_profile():
    set_default_profile(None)
    yield
    set_default_profile(None)


# ---------------------------------------------------------- determinism
def test_same_seed_clock_and_host_give_equal_profiles():
    a = _profile(clock=FakeClock())
    b = _profile(clock=FakeClock())
    assert a == b
    assert a.spec() == b.spec() and a.spec().name == "calibrated-testhost"


# ---------------------------------------------------------- the one cache
def test_default_profile_calibrates_once_across_threads(monkeypatch):
    calls = []
    known = _profile()

    def counting_autotune(**kw):
        calls.append(kw)
        time.sleep(0.05)  # hold the first caller inside the calibration
        return known

    monkeypatch.setattr(_planner, "autotune", counting_autotune)
    barrier = threading.Barrier(8)
    got = [None] * 8

    def worker(i):
        barrier.wait()
        got[i] = default_profile()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert all(p is known for p in got)


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
    starved = dataclasses.replace(
        base,
        host=dict(base.host, mem_gb=1e-9),
        machine=dataclasses.replace(base.machine, mem_gb=1e-9),
    )
    with pytest.raises(PlanError, match="[Oo]ut of memory|feasible"):
        Planner(starved).plan(5000)


def _finishes_within(fn, seconds):
    """Run ``fn`` on a daemon thread; True when it returned in time."""
    done = threading.Event()

    def run():
        fn()
        done.set()

    threading.Thread(target=run, daemon=True).start()
    return done.wait(seconds)


def test_plan_at_paper_scale_is_fast():
    """The paper's sizes reach 2M locations; pricing a candidate must not
    walk every tile pair (O(nt^2) Python work took minutes at 400k)."""
    planner = Planner(_profile(host=dict(_HOST, mem_gb=1024.0)))  # TLR fits
    plans = []
    assert _finishes_within(lambda: plans.append(planner.plan(2_000_000)), 5.0)
    assert plans[0].variant == "tlr"


def test_plan_beyond_any_host_fails_fast():
    planner = Planner(_profile())
    outcome = []

    def attempt():
        with pytest.raises(PlanError, match="out-of-memory"):
            planner.plan(10**12)
        outcome.append("raised")

    assert _finishes_within(attempt, 1.0)
    assert outcome == ["raised"]


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


def test_tlr_task_count_follows_compression_batch():
    # Left-looking graph: nt DIAG tasks, and column k's nt-k-1 off-diagonal
    # tiles in runs of compression_batch (at nt = 8 and batch 5: 2+2+1*5).
    nt = 8
    off = nt * (nt - 1) // 2
    counts = task_counts(8 * 64, 64, "tlr")
    assert (counts["generation"], counts["factorization"]) == (0, nt + off)
    with use_config(compression_batch=5):
        assert task_counts(8 * 64, 64, "tlr")["factorization"] == nt + 9


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
