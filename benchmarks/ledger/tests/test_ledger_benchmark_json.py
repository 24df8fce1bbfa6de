import re

from perfledger import metrics, spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_carries_the_harness_tables():
    doc = spec.load_benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metrics.PER_LAYER
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["command"][-1] == "benchmarks/ledger/run.py"


def test_benchmark_json_stays_inside_the_driver_contract():
    doc = spec.load_benchmark_json()
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in doc[key])
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    # 4 + 22 runs per workload must fit the driver's 3420 s with ~8 s of set-up each
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 8) < 3420


def test_fixed_tails_match_their_sample_floors():
    from perfledger.stats import samples_needed

    for w in spec.WORKLOADS.values():
        assert w.min_ops >= samples_needed(w.tail_pct), w.name
