"""``--quick`` smoke: every workload end to end at toy sizes, one traced pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfledger import metrics, spec, workloads


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_quick_untraced_pass_of_every_workload(name, tmp_path):
    record = workloads.run(
        name, seed=3, seconds=0.2, traced=False, quick=True, workdir=tmp_path / "work"
    )
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["comparable"] is False
    assert record["samples"] >= spec.workload(name, quick=True).min_ops
    assert list(record["metrics"]) == [m for m, _, _ in metrics.END_TO_END]
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["gates"]["fail_share"] == 0.0
    json.dumps(record)  # the record is what run.py prints and stores


def test_quick_traced_pass_reports_every_layer_metric(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    record = workloads.run(
        "serve_points", seed=3, seconds=0.2, traced=True, quick=True,
        workdir=tmp_path / "work", trace_path=trace_path,
    )
    assert record["correct"], record["failures"]
    assert list(record["metrics"]) == [m for m, _, _ in metrics.PER_LAYER]
    assert {m: v["unit"] for m, v in record["metrics"].items()} == {
        m: u for m, u, _ in metrics.PER_LAYER
    }
    assert record["metrics"]["runtime.tasks_per_op"]["value"] > 0
    names = {json.loads(line)["name"] for line in trace_path.read_text().splitlines()}
    assert {"linalg.compress", "mle.eval", "serving.http_predict", "serve.op"} <= names


def test_ledger_command_writes_a_ledger_it_can_compare(tmp_path):
    run_py = Path(__file__).resolve().parent.parent / "run.py"
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(run_py), "--quick", "--workloads", "mle_tile_exp", "--no-trace",
         "--seed", "3", "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["claim"] is None
    ledger = json.loads(out.read_text())
    assert ledger["comparable"] is False and ledger["fingerprint"]["seed"] == 3
    assert len(ledger["workloads"]["mle_tile_exp"]["end_to_end"]["op_p50_ms"]["runs"]) == 1
    same = subprocess.run(
        [sys.executable, str(run_py), "--compare", str(out), str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0 and " worse " not in same.stdout, same.stdout
