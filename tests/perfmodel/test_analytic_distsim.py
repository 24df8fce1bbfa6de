"""Tests for the analytic estimator and the distributed DES simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.perfmodel.analytic import (
    _tlr_tile_costs,
    estimate_mle_iteration,
    estimate_prediction,
)
from repro.perfmodel.cluster import ClusterSpec, shaheen2
from repro.perfmodel.distsim import DistributedSimulator
from repro.perfmodel.flops import lr_gemm_flops
from repro.perfmodel.machine import MachineSpec, get_machine


class TestSharedMemoryEstimates:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            estimate_mle_iteration(1000, variant="tlr")
        with pytest.raises(ConfigurationError):
            estimate_mle_iteration(
                1000, machine=get_machine("haswell"), cluster=shaheen2(4)
            )

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            estimate_mle_iteration(1000, variant="magic", machine=get_machine("haswell"))

    def test_time_grows_with_n(self):
        hw = get_machine("haswell")
        times = [
            estimate_mle_iteration(n, variant="full-tile", nb=560, machine=hw).time_s
            for n in (50_000, 100_000, 200_000)
        ]
        assert times == sorted(times)
        # Dense Cholesky is cubic: 2x n should be ~8x time at scale.
        assert times[2] / times[1] == pytest.approx(8.0, rel=0.35)

    def test_variant_ordering_at_paper_size(self):
        hw = get_machine("haswell")
        fb = estimate_mle_iteration(112225, variant="full-block", nb=560, machine=hw)
        ft = estimate_mle_iteration(112225, variant="full-tile", nb=560, machine=hw)
        tlr = estimate_mle_iteration(112225, variant="tlr", nb=1150, acc=1e-5, machine=hw)
        assert fb.time_s > ft.time_s > tlr.time_s  # Figure 3's ordering

    def test_accuracy_ladder(self):
        hw = get_machine("haswell")
        times = [
            estimate_mle_iteration(112225, variant="tlr", nb=1150, acc=a, machine=hw).time_s
            for a in (1e-5, 1e-7, 1e-9, 1e-12)
        ]
        assert times == sorted(times)  # tighter accuracy costs more

    def test_paper_speedup_window(self):
        # §VIII-B: max speedups ~7X/10X/13X/5X at accuracy 1e-5.
        claims = {"haswell": 7.0, "broadwell": 10.0, "knl": 13.0, "skylake": 5.0}
        for name, claim in claims.items():
            m = get_machine(name)
            ft = estimate_mle_iteration(112225, variant="full-tile", nb=560, machine=m)
            t5 = estimate_mle_iteration(112225, variant="tlr", nb=1150, acc=1e-5, machine=m)
            speedup = ft.time_s / t5.time_s
            assert claim * 0.6 <= speedup <= claim * 1.4, (name, speedup)

    def test_memory_and_oom(self):
        tiny = MachineSpec("tiny", 4, 2.0, 8, 0.8, 0.5, 0.25, 50.0, 1.0)  # 1 GB
        est = estimate_mle_iteration(50_000, variant="full-block", machine=tiny)
        assert est.oom  # 20 GB matrix cannot fit
        est_tlr = estimate_mle_iteration(
            50_000, variant="tlr", nb=1000, acc=1e-5, machine=tiny
        )
        assert est_tlr.matrix_bytes < est.matrix_bytes

    def test_tlr_memory_below_dense(self):
        hw = get_machine("haswell")
        ft = estimate_mle_iteration(112225, variant="full-tile", nb=560, machine=hw)
        tlr = estimate_mle_iteration(112225, variant="tlr", nb=1150, acc=1e-7, machine=hw)
        assert tlr.matrix_bytes < 0.5 * ft.matrix_bytes

    def test_breakdown_sums_to_total(self):
        hw = get_machine("haswell")
        est = estimate_mle_iteration(50_000, variant="full-tile", nb=560, machine=hw)
        assert est.time_s == pytest.approx(
            sum(v for k, v in est.breakdown.items() if k != "communication_overlapped")
        )

    @pytest.mark.parametrize("nt", [2, 3, 9])
    def test_tlr_sweeps_match_their_loops(self, nt):
        """The O(nt) prefix-sum sweeps equal the task loops they price."""
        from repro.perfmodel.rankmodel import DEFAULT_RANK_MODEL

        nb = 200
        left, ranks = _tlr_tile_costs(nt, nb, 1e-7, DEFAULT_RANK_MODEL)
        right, _ = _tlr_tile_costs(nt, nb, 1e-7, DEFAULT_RANK_MODEL, hicma=True)
        r = {d: float(k) for d, k in enumerate(ranks, 1)}
        update = gemm = 0.0
        for i in range(nt):
            for k in range(i):
                for l in range(k):  # left-looking: tile (i, k) from column l
                    update += 4 * r[i - l] * r[k - l] * nb + 2 * nb * nb * r[i - l]
                for j in range(k + 1, i):  # right-looking: tile (i, j) at step k
                    gemm += lr_gemm_flops(nb, r[i - j], r[i - k], r[j - k])
        assert left["update"].flops == pytest.approx(update, rel=1e-12)
        assert right["gemm"].flops == pytest.approx(gemm, rel=1e-12)
        assert "gemm" not in left and "update" not in right


class TestDistributedEstimates:
    def test_more_nodes_faster_at_scale(self):
        t256 = estimate_mle_iteration(
            1_000_000, variant="full-tile", nb=560, cluster=shaheen2(256)
        ).time_s
        t1024 = estimate_mle_iteration(
            1_000_000, variant="full-tile", nb=560, cluster=shaheen2(1024)
        ).time_s
        assert t1024 < t256

    def test_paper_distributed_speedup_window(self):
        # §VIII-C: up to ~5X on Shaheen-2.
        c = shaheen2(256)
        ft = estimate_mle_iteration(1_000_000, variant="full-tile", nb=560, cluster=c)
        t5 = estimate_mle_iteration(1_000_000, variant="tlr", nb=1900, acc=1e-5, cluster=c)
        speedup = ft.time_s / t5.time_s
        assert 3.0 <= speedup <= 8.0

    def test_communication_recorded(self):
        c = shaheen2(64)
        est = estimate_mle_iteration(200_000, variant="full-tile", nb=560, cluster=c)
        assert est.breakdown["communication_overlapped"] > 0

    def test_prediction_dominated_by_factorization(self):
        # Figure 5's observation: prediction ~ MLE iteration time.
        c = shaheen2(256)
        mle = estimate_mle_iteration(500_000, variant="tlr", nb=1900, acc=1e-7, cluster=c)
        pred = estimate_prediction(500_000, 100, variant="tlr", nb=1900, acc=1e-7, cluster=c)
        assert pred.time_s >= mle.time_s
        assert pred.time_s <= 1.5 * mle.time_s


class TestDistributedSimulator:
    @pytest.fixture(scope="class")
    def sim(self):
        return DistributedSimulator(shaheen2(4))

    def test_owner_block_cyclic(self, sim):
        pr, pc = sim.pr, sim.pc
        assert sim.owner(0, 0) == 0
        owners = {sim.owner(i, j) for i in range(8) for j in range(8)}
        assert owners == set(range(4))

    def test_dag_task_count(self, sim):
        nt = 6
        tasks = sim.build_cholesky_dag(nt, 128, variant="full-tile")
        expect = nt + nt * (nt - 1) + sum((i - 1) * i // 2 for i in range(1, nt))
        # potrf: nt, trsm: nt(nt-1)/2, syrk: nt(nt-1)/2, gemm: sum.
        n_potrf = sum(1 for t in tasks if t.name == "potrf")
        n_trsm = sum(1 for t in tasks if t.name == "trsm")
        n_syrk = sum(1 for t in tasks if t.name == "syrk")
        assert n_potrf == nt
        assert n_trsm == nt * (nt - 1) // 2
        assert n_syrk == nt * (nt - 1) // 2

    def test_simulation_invariants(self, sim):
        tasks = sim.build_cholesky_dag(8, 256, variant="full-tile")
        rep = sim.simulate(tasks, 256, variant="full-tile")
        assert rep.makespan_s > 0
        assert rep.n_tasks == len(tasks)
        assert 0.0 < rep.utilization(sim.cluster) <= 1.0
        # Makespan bounded below by the best possible parallel time and
        # above by fully serial execution.
        serial = sum(sim._task_seconds(t.cost) for t in tasks)
        assert rep.makespan_s <= serial + 1e-9
        assert rep.makespan_s >= serial / sim.cluster.total_cores - 1e-9
        # Dependencies respected.
        by_id = {t.tid: t for t in tasks}
        for t in tasks:
            for d in t.deps:
                assert by_id[d].finish <= t.start + 1e-12

    def test_single_node_no_comm(self):
        sim = DistributedSimulator(shaheen2(1))
        tasks = sim.build_cholesky_dag(6, 128, variant="full-tile")
        rep = sim.simulate(tasks, 128, variant="full-tile")
        assert rep.comm_events == 0
        assert rep.comm_bytes == 0.0

    def test_tlr_cheaper_than_dense(self, sim):
        dense = sim.simulate(
            sim.build_cholesky_dag(10, 1024, variant="full-tile"), 1024, variant="full-tile"
        )
        tlr = sim.simulate(
            sim.build_cholesky_dag(10, 1024, variant="tlr", acc=1e-5), 1024, variant="tlr"
        )
        assert tlr.makespan_s < dense.makespan_s
        assert tlr.mem_per_node_bytes < dense.mem_per_node_bytes

    def test_unsupported_variant(self, sim):
        with pytest.raises(SimulationError):
            sim.build_cholesky_dag(4, 64, variant="full-block")

    def test_des_vs_analytic_same_order(self):
        # Cross-validation: the closed form and the DES should agree
        # within a small factor for a dense factorization.
        cluster = shaheen2(4)
        sim = DistributedSimulator(cluster)
        nt, nb = 16, 560
        n = nt * nb
        tasks = sim.build_cholesky_dag(nt, nb, variant="full-tile")
        rep = sim.simulate(tasks, nb, variant="full-tile")
        est = estimate_mle_iteration(n, variant="full-tile", nb=nb, cluster=cluster)
        chol_s = est.breakdown["factorization"]
        assert chol_s / 5 <= rep.makespan_s <= chol_s * 5
