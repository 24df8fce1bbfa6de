from perfledger import compare

BENCH = {"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
                        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}]}


def _ledger(p50_runs, ops, fail=0.0, err=1e-9, ranks=40.0, layers=True):
    p50 = sorted(p50_runs)[len(p50_runs) // 2]
    return {"workloads": {"w": {
        "tolerance": 1e-6,
        "end_to_end": {
            "op_p50_ms": {"value": p50, "runs": list(p50_runs)},
            "ops_per_s": {"value": ops, "runs": [ops]},
            "fail_share": {"value": fail},
            "result_err": {"value": err},
        },
        "per_layer": {m: {"value": ranks} for m in compare.EXACT} if layers else None,
    }}}


def _verdicts(a, b):
    return {metric: v for _, metric, v, _ in compare.compare(a, b, BENCH)}


def test_same_better_worse_follow_the_bound_and_the_direction():
    a = _ledger([100.0, 101.0, 99.0], 10.0)
    assert _verdicts(a, _ledger([104.0, 105.0, 103.0], 9.5))["op_p50_ms"] == "same"
    v = _verdicts(a, _ledger([120.0, 121.0, 119.0], 12.0))
    assert v["op_p50_ms"] == "worse" and v["ops_per_s"] == "better"
    v = _verdicts(a, _ledger([80.0, 81.0, 79.0], 8.0))
    assert v["op_p50_ms"] == "better" and v["ops_per_s"] == "worse"


def test_spread_wider_than_the_bound_is_unresolved_not_same():
    noisy = _ledger([100.0, 85.0, 118.0], 10.0)
    steady = _ledger([100.0, 101.0, 99.0], 10.0)
    assert _verdicts(steady, noisy)["op_p50_ms"] == "unresolved"
    assert _verdicts(noisy, steady)["op_p50_ms"] == "unresolved"
    assert compare.spread([100.0]) is None  # one run carries no spread


def test_gates_have_absolute_rules():
    a = _ledger([100.0], 10.0)
    assert _verdicts(a, _ledger([100.0], 10.0, fail=0.01))["fail_share"] == "worse"
    assert _verdicts(a, _ledger([100.0], 10.0, err=1e-5))["result_err"] == "worse"
    assert _verdicts(a, _ledger([100.0], 10.0, err=9e-7))["result_err"] == "same"


def test_exact_counts_must_repeat_exactly():
    a = _ledger([100.0], 10.0)
    assert _verdicts(a, _ledger([100.0], 10.0, ranks=40.5))["linalg.rank_mean"] == "differs"
    assert _verdicts(a, a)["runtime.tasks_per_op"] == "same"
    assert "linalg.rank_mean" not in _verdicts(a, _ledger([100.0], 10.0, layers=False))
