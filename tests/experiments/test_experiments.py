"""Smoke and shape tests for the experiment drivers (figures/tables)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ablation, fig1, fig2, fig3, fig4, fig5, speedup
from repro.experiments.common import ResultTable, bench_scale, fmt


class TestResultTable:
    def test_render_and_alignment(self):
        t = ResultTable("Demo", ["a", "bb"], notes=["footnote"])
        t.add_row(1, 2.5)
        t.add_row(None, "x")
        text = t.render()
        assert "Demo" in text and "footnote" in text
        assert "-" in text  # None marker

    def test_row_length_guard(self):
        t = ResultTable("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_save_txt_and_csv(self, tmp_path):
        t = ResultTable("T", ["a", "b"])
        t.add_row(1, 2)
        path = t.save("unit", directory=tmp_path)
        assert path.read_text().startswith("T")
        assert (tmp_path / "unit.csv").read_text().splitlines()[0] == "a,b"

    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(0.0) == "0"
        assert fmt(1234567.0, digits=3) == "1.235e+06"
        assert fmt("text") == "text"

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert bench_scale() == "full"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "anything")
        assert bench_scale() == "quick"


class TestFig1:
    def test_rank_table(self):
        table = fig1.run_fig1(n=256, nb=64, accuracies=(1e-4, 1e-8))
        assert len(table.rows) == 2
        # Tighter accuracy -> larger max rank (column 1).
        assert table.rows[1][1] >= table.rows[0][1]


class TestFig2:
    def test_properties(self):
        table = fig2.run_fig2(n=400, n_test=38)
        d = {row[0]: row[1] for row in table.rows}
        assert d["points generated"] == 400
        assert d["fit points"] == 362
        assert d["prediction points"] == 38
        assert d["min nearest-neighbour distance"] > 0


class TestFig3:
    def test_model_series_shape(self):
        t = fig3.model_series("haswell", n_values=(55225, 112225))
        assert len(t.rows) == 2
        assert t.headers[0] == "n"
        row = t.rows[-1]
        # Fig 3 ordering: full-block > full-tile > all TLR columns.
        assert row[1] > row[2]
        assert all(row[2] > c for c in row[3:])

    def test_measured_series_tiny(self):
        t = fig3.measured_series(n_values=(144,), accuracies=(1e-7,), tile_size=48)
        assert len(t.rows) == 1
        assert all(isinstance(c, float) and c > 0 for c in t.rows[0][1:])


class TestFig4Fig5:
    def test_fig4_tables(self):
        t = fig4.model_series(256, n_values=(250_000, 1_000_000))
        assert len(t.rows) == 2
        big = t.rows[-1]
        assert big[1] is None or big[1] > big[2]  # TLR wins (or dense OOM)

    def test_fig5_model(self):
        t = fig5.model_series(n_values=(250_000,))
        assert len(t.rows) == 1

    def test_fig5_measured_tiny(self):
        t = fig5.measured_series(n_values=(144,), accuracies=(1e-7,), m=10, tile_size=48)
        assert len(t.rows) == 1


class TestSpeedupTables:
    def test_shared_memory_matches_claims_loosely(self):
        t = speedup.shared_memory_speedups()
        by_machine = {row[0]: row for row in t.rows}
        for name, claim in speedup.PAPER_CLAIMED_SPEEDUPS.items():
            got = by_machine[name][1]
            assert claim * 0.5 <= got <= claim * 1.5

    def test_distributed(self):
        t = speedup.distributed_speedups(n_nodes=256)
        assert len(t.rows) >= 1
        assert all(row[1] > 0 for row in t.rows)


class TestAblations:
    def test_compression_method_study(self):
        t = ablation.compression_method_study(nb=48, acc=1e-6)
        methods = {row[1] for row in t.rows}
        assert methods == {"svd", "rsvd"}
        # Both methods satisfy the accuracy contract (with rsvd's slack).
        assert all(row[3] < 1e-4 for row in t.rows)

    def test_ordering_study(self):
        t = ablation.ordering_study(n=256, nb=64, acc=1e-6)
        rows = {row[0]: row for row in t.rows}
        # Morton ordering compresses at least as well as a random shuffle.
        assert rows["morton"][2] <= rows["random permutation"][2]

    def test_tile_size_sweep_tiny(self):
        t = ablation.tile_size_sweep(n=256, tile_sizes=(64, 128), acc=1e-6)
        assert len(t.rows) == 2
