"""Tests for machines, flop counters, rank model, and cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.perfmodel.cluster import ClusterSpec, shaheen2
from repro.perfmodel.flops import (
    TaskCost,
    compression_flops,
    dense_tile_bytes,
    gemm_flops,
    generation_flops,
    lr_gemm_flops,
    lr_syrk_flops,
    lr_tile_bytes,
    lr_trsm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.perfmodel.machine import MACHINES, get_machine
from repro.perfmodel.rankmodel import DEFAULT_RANK_MODEL, RankModel, calibrate_rank_model


class TestMachines:
    def test_paper_machines_present(self):
        for name in ("haswell", "broadwell", "knl", "skylake", "shaheen_node"):
            assert name in MACHINES

    def test_peak_flops_math(self):
        hw = get_machine("haswell")
        assert hw.peak_gflops == pytest.approx(36 * 2.3 * 16)
        assert hw.mem_bytes == pytest.approx(256e9)
        assert hw.sustained_gflops(0.5) == pytest.approx(hw.peak_gflops / 2)

    def test_unknown_machine(self):
        with pytest.raises(ConfigurationError):
            get_machine("epyc")

    def test_shaheen_cluster(self):
        c = shaheen2(256)
        assert c.total_cores == 256 * 32
        pr, pc = c.grid_shape()
        assert pr * pc == 256
        assert abs(pr - pc) <= pr  # near-square

    def test_cluster_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(node=get_machine("haswell"), n_nodes=0)


class TestFlops:
    def test_potrf_cubic_term(self):
        assert potrf_flops(300) == pytest.approx(300**3 / 3, rel=0.01)

    def test_dense_lr_consistency_at_full_rank(self):
        nb = 128
        assert lr_trsm_flops(nb, nb) == pytest.approx(trsm_flops(nb))

    def test_lr_cheaper_than_dense_at_low_rank(self):
        nb, k = 512, 16
        assert lr_trsm_flops(nb, k) < trsm_flops(nb)
        assert lr_syrk_flops(nb, k) < 2 * syrk_flops(nb)
        assert lr_gemm_flops(nb, k, k, k) < gemm_flops(nb, nb, nb)

    def test_monotone_in_rank(self):
        nb = 256
        f = [lr_gemm_flops(nb, k, k, k) for k in (4, 16, 64)]
        assert f == sorted(f)

    def test_bytes(self):
        assert dense_tile_bytes(100) == 8e4
        assert lr_tile_bytes(100, 10) == 8 * 2 * 100 * 10
        assert generation_flops(10, 20) > 0
        assert compression_flops(100, 5) > 0

    def test_gemm_formula(self):
        assert gemm_flops(2, 3, 4) == 48


class TestRankModel:
    def test_decay_with_separation(self):
        rm = DEFAULT_RANK_MODEL
        ranks = [rm.rank(d, 1e-7, 250) for d in (1, 2, 5, 20)]
        assert ranks == sorted(ranks, reverse=True)

    def test_growth_with_accuracy(self):
        rm = DEFAULT_RANK_MODEL
        assert rm.rank(1, 1e-12, 250) > rm.rank(1, 1e-5, 250)

    def test_growth_with_tile_size(self):
        rm = DEFAULT_RANK_MODEL
        assert rm.rank(1, 1e-7, 1000) > rm.rank(1, 1e-7, 100)

    def test_bounded_by_tile_size(self):
        rm = RankModel(a0=1e6, a1=0, p=0.1)
        assert rm.rank(1, 1e-7, 64) == 64

    def test_rank_array_and_mean(self):
        rm = DEFAULT_RANK_MODEL
        arr = rm.rank_array(10, 1e-7, 250)
        assert arr.shape == (9,)
        mean = rm.mean_rank(10, 1e-7, 250)
        assert arr.min() <= mean <= arr.max()
        assert rm.mean_rank(1, 1e-7, 250) == 0.0

    def test_separation_validation(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_RANK_MODEL.rank(0, 1e-7, 250)

    def test_calibration_recovers_decay(self):
        truth = RankModel(a0=30.0, a1=5.0, p=0.8, kmin=2.0, nb_ref=100)
        nt = 12
        rm = -np.ones((nt, nt), dtype=np.int64)
        for i in range(nt):
            for j in range(i):
                rm[i, j] = rm[j, i] = truth.rank(i - j, 1e-7, 100)
        fitted = calibrate_rank_model(rm, 1e-7, 100)
        assert fitted.p == pytest.approx(0.8, abs=0.15)
        for d in (1, 3, 8):
            assert fitted.rank(d, 1e-7, 100) == pytest.approx(
                truth.rank(d, 1e-7, 100), abs=3
            )

    def test_calibration_against_real_ranks(self, small_sigma):
        from repro.linalg.tlr_matrix import TLRMatrix

        tlr = TLRMatrix.from_dense(small_sigma, 32, acc=1e-7)
        fitted = calibrate_rank_model(tlr.rank_matrix(), 1e-7, 32)
        measured = tlr.mean_rank()
        predicted = fitted.mean_rank(tlr.nt, 1e-7, 32)
        assert predicted == pytest.approx(measured, rel=0.5)

    def test_calibration_needs_data(self):
        with pytest.raises(ConfigurationError):
            calibrate_rank_model(-np.ones((1, 1)), 1e-7, 32)


class TestCostModel:
    def test_taskcost_algebra(self):
        a, b = TaskCost(1.0, 2.0), TaskCost(3.0, 4.0)
        s = a + b
        assert (s.flops, s.bytes) == (4.0, 6.0)
