"""Metric names, units and directions — the vocabulary later issues use.

``BENCHMARK.json`` carries the same tables (a harness test keeps the two
in step); bounds live only there, because the driver reads them there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Untraced pass, reported for every workload: (name, unit, better).
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: The two end-to-end gates that read 0 on a healthy run. A metric whose
#: baseline is 0 has no relative bound, so the driver's contract keeps
#: them out of ``end_to_end``; they decide ``correct`` in every run and
#: are listed with the per-layer metrics.
GATES: List[Tuple[str, str, str]] = [
    ("fail_share", "ratio", "lower"),
    ("result_err", "relative", "lower"),
]

#: Traced pass: (name, unit, better), grouped by layer = module name.
PER_LAYER: List[Tuple[str, str, str]] = GATES + [
    ("kernels.matern_ns_per_entry", "ns", "lower"),
    ("kernels.exp_ns_per_entry", "ns", "lower"),
    ("kernels.distance_ns_per_entry", "ns", "lower"),
    ("linalg.distcache_warm_s", "s", "lower"),
    ("linalg.gen_tiles_s", "s", "lower"),
    ("linalg.compress_s", "s", "lower"),
    ("linalg.rank_mean", "count", "lower"),
    ("linalg.rank_max", "count", "lower"),
    ("linalg.rank_mean_factor", "count", "lower"),
    ("linalg.tlr_mem_ratio", "ratio", "higher"),
    ("linalg.tlr_chol_serial_s", "s", "lower"),
    ("linalg.tlr_chol_rt_s", "s", "lower"),
    ("linalg.tile_chol_serial_s", "s", "lower"),
    ("linalg.tile_chol_rt_s", "s", "lower"),
    ("linalg.solve_ms", "ms", "lower"),
    ("linalg.crosscache_hit_share", "ratio", "higher"),
    ("runtime.task_overhead_us", "us", "lower"),
    ("runtime.insert_us", "us", "lower"),
    ("runtime.tasks_per_op", "count", "lower"),
    ("runtime.parallel_speedup", "ratio", "higher"),
    ("optim.nm_evals_to_converge", "count", "lower"),
    ("optim.iter_overhead_us", "us", "lower"),
    ("mle.eval_overhead_ms", "ms", "lower"),
    ("mle.eval_fail_share", "ratio", "lower"),
    ("mle.engine_factor_s", "s", "lower"),
    ("mle.engine_predict_ms", "ms", "lower"),
    ("mle.engine_predict_newz_ms", "ms", "lower"),
    ("serving.boot_s", "s", "lower"),
    ("serving.bundle_save_s", "s", "lower"),
    ("serving.bundle_load_s", "s", "lower"),
    ("serving.registry_get_us", "us", "lower"),
    ("serving.service_predict_ms", "ms", "lower"),
    ("serving.service_overhead_ms", "ms", "lower"),
    ("serving.http_predict_ms", "ms", "lower"),
    ("serving.http_overhead_ms", "ms", "lower"),
    ("serving.http_json_predict_ms", "ms", "lower"),
    ("serving.wire_encode_mb_s", "MB/s", "higher"),
    ("serving.wire_decode_mb_s", "MB/s", "higher"),
    ("serving.wire_bytes_per_req", "bytes", "lower"),
    ("serving.engine_calls_per_req", "ratio", "lower"),
    ("serving.coalesced_share", "ratio", "higher"),
    ("serving.reload_ms", "ms", "lower"),
    ("serving.shed_share", "ratio", "lower"),
    ("fitting.checkpoint_write_ms", "ms", "lower"),
    ("fitting.job_overhead_s", "s", "lower"),
    ("resilience.fault_point_ns", "ns", "lower"),
    ("telemetry.span_disabled_ns", "ns", "lower"),
    ("perfmodel.pred_over_meas", "ratio", "lower"),
    ("perfmodel.plan_ms", "ms", "lower"),
    ("bench.layer_sum_over_op", "ratio", "higher"),
    ("bench.unattributed_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
]

#: Counts that must repeat exactly for one seed on one commit.
EXACT = (
    "linalg.rank_mean",
    "linalg.rank_max",
    "linalg.rank_mean_factor",
    "runtime.tasks_per_op",
    "serving.wire_bytes_per_req",
    "optim.nm_evals_to_converge",
)


def with_units(values: Dict[str, float], table: List[Tuple[str, str, str]]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the metrics of ``table``."""
    missing = [name for name, _, _ in table if name not in values]
    if missing:
        raise KeyError(f"pass produced no value for {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in table}
