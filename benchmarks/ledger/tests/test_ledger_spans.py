from perfledger.spans import Trace, read_trace, self_times


def _span(trace, id_, name, start, end, parent=None):
    trace.spans.append({"id": id_, "name": name, "start": start, "end": end,
                        "parent": parent, "op_id": 0, "workload": trace.workload})


def test_self_time_subtracts_direct_children_only():
    t = Trace("w")
    _span(t, 0, "op", 0.0, 10.0)
    _span(t, 1, "generate", 1.0, 4.0, parent=0)
    _span(t, 2, "kernel", 1.5, 3.5, parent=1)
    _span(t, 3, "factor", 4.0, 9.0, parent=0)
    own = self_times(t.spans)
    assert own == {"op": 2.0, "generate": 1.0, "kernel": 2.0, "factor": 5.0}
    assert sum(own.values()) == 10.0  # nothing is counted twice


def test_spans_nest_record_parents_and_share_the_op_id(tmp_path):
    t = Trace("w")
    with t.span("op", op_id=7) as outer:
        with t.span("inner") as inner:
            pass
    t.add("from-a-thread", 1.0, 2.0, op_id=8)
    assert inner["parent"] == outer["id"] and inner["op_id"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert t.durations("from-a-thread") == [1.0]
    path = tmp_path / "trace.jsonl"
    t.write(path)
    back = read_trace(path)
    assert [s["name"] for s in back] == ["op", "inner", "from-a-thread"]
    assert {s["workload"] for s in back} == {"w"}
