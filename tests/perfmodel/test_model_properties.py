"""Property-based hardening of the analytic performance model.

The planner (``repro.plan``, ``GET /v1/plan``) trusts
:func:`estimate_mle_iteration` / :func:`estimate_prediction` to rank
configurations, so the model must satisfy basic sanity laws on *every*
input, not just the paper's table points: totals are non-negative and
finite, the stage breakdown accounts for the total, cost algebra is
associative, time grows with problem size, and neither a sustained rate
nor a whole estimate beats the machine's peak.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.perfmodel import (
    MACHINES,
    TaskCost,
    estimate_mle_iteration,
    estimate_prediction,
    shaheen2,
)
from repro.perfmodel.machine import MachineSpec

MACHINE_NAMES = sorted(MACHINES)
VARIANTS = ("full-block", "full-tile", "tlr")

ns = st.integers(min_value=2, max_value=200_000)
nbs = st.sampled_from((64, 250, 560, 1024, 1900))
accs = st.sampled_from((1e-5, 1e-7, 1e-9, 1e-12))
variants = st.sampled_from(VARIANTS)
machines = st.sampled_from(MACHINE_NAMES).map(MACHINES.__getitem__)

# Finite positive task costs spanning tiny to tile-sized work.
costs = st.builds(
    TaskCost,
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)


# ------------------------------------------------------------- estimates
@given(n=ns, nb=nbs, acc=accs, variant=variants, machine=machines)
def test_estimate_is_finite_and_non_negative(n, nb, acc, variant, machine):
    est = estimate_mle_iteration(n, variant=variant, nb=nb, acc=acc, machine=machine)
    for value in (
        est.time_s,
        est.flops,
        est.bytes,
        est.matrix_bytes,
        est.mem_per_node_bytes,
    ):
        assert math.isfinite(value)
        assert value >= 0.0
    assert all(math.isfinite(v) and v >= 0.0 for v in est.breakdown.values())


@given(n=ns, nb=nbs, acc=accs, variant=variants, machine=machines)
def test_shared_memory_breakdown_sums_to_total(n, nb, acc, variant, machine):
    est = estimate_mle_iteration(n, variant=variant, nb=nb, acc=acc, machine=machine)
    assert est.time_s == pytest.approx(sum(est.breakdown.values()), rel=1e-9)


@given(n=ns, nb=nbs, acc=accs, variant=variants)
def test_cluster_breakdown_sums_excluding_overlapped_comm(n, nb, acc, variant):
    est = estimate_mle_iteration(
        n, variant=variant, nb=nb, acc=acc, cluster=shaheen2(16)
    )
    accounted = sum(
        v for k, v in est.breakdown.items() if k != "communication_overlapped"
    )
    assert est.time_s == pytest.approx(accounted, rel=1e-9)


@given(
    n=st.integers(min_value=2, max_value=50_000),
    nb=nbs,
    acc=accs,
    variant=variants,
    machine=machines,
    growth=st.integers(min_value=1, max_value=4),
)
# One tile at n, two at 2n: the panel chain used to charge nt TRSMs (it
# has nt - 1) and a dense TRSM for a single-tile TLR problem, so the
# one-tile estimate came out *larger* (0.298 s vs 0.262 s).
@example(n=951, nb=1900, acc=1e-5, variant="tlr", machine=MACHINES["broadwell"], growth=2)
def test_time_monotone_in_n(n, nb, acc, variant, machine, growth):
    small = estimate_mle_iteration(n, variant=variant, nb=nb, acc=acc, machine=machine)
    large = estimate_mle_iteration(
        n * growth, variant=variant, nb=nb, acc=acc, machine=machine
    )
    assert large.time_s >= small.time_s * (1.0 - 1e-9)
    assert large.matrix_bytes >= small.matrix_bytes * (1.0 - 1e-9)


@given(n=ns, nb=nbs, acc=accs, variant=variants, machine=machines)
def test_prediction_adds_cross_covariance_stage(n, nb, acc, variant, machine):
    est = estimate_prediction(n, 100, variant=variant, nb=nb, acc=acc, machine=machine)
    assert "cross_covariance" in est.breakdown
    assert est.time_s == pytest.approx(sum(est.breakdown.values()), rel=1e-9)


@given(n=ns, nb=nbs, acc=accs, variant=variants, machine=machines)
def test_oom_flag_matches_memory_capacity(n, nb, acc, variant, machine):
    est = estimate_mle_iteration(n, variant=variant, nb=nb, acc=acc, machine=machine)
    assert est.oom == (est.mem_per_node_bytes > machine.mem_bytes)


# ------------------------------------------------------------- TaskCost
@given(a=costs, b=costs)
def test_taskcost_addition_commutes(a, b):
    assert (a + b).flops == (b + a).flops
    assert (a + b).bytes == (b + a).bytes


@given(a=costs, b=costs, c=costs)
def test_taskcost_addition_associates(a, b, c):
    lhs = (a + b) + c
    rhs = a + (b + c)
    assert lhs.flops == pytest.approx(rhs.flops, rel=1e-12)
    assert lhs.bytes == pytest.approx(rhs.bytes, rel=1e-12)


# ------------------------------------------------------------- roofline
@given(
    machine=machines,
    eff=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
)
def test_sustained_never_exceeds_peak(machine, eff):
    sustained = machine.sustained_gflops(eff)
    assert 0.0 < sustained <= machine.peak_gflops * (1.0 + 1e-12)


@given(n=ns, nb=nbs, acc=accs, variant=variants, machine=machines)
def test_estimate_time_bounded_below_by_peak_rate(n, nb, acc, variant, machine):
    # No operation finishes faster than all of the machine's flops at peak.
    for est in (
        estimate_mle_iteration(n, variant=variant, nb=nb, acc=acc, machine=machine),
        estimate_prediction(n, 100, variant=variant, nb=nb, acc=acc, machine=machine),
    ):
        assert est.time_s >= est.flops / (machine.peak_gflops * 1e9)


@given(eff=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False))
def test_gen_efficiency_override_and_fallback(eff):
    base = MACHINES[MACHINE_NAMES[0]]
    plain = MachineSpec(**{**base.__dict__, "eff_gen": None})
    tuned = MachineSpec(**{**base.__dict__, "eff_gen": eff})
    assert plain.gen_efficiency == pytest.approx(base.eff_dense * 0.5)
    assert tuned.gen_efficiency == pytest.approx(eff)
