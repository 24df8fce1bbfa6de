"""Edge cases of the telemetry-sink calibration reader.

:func:`load_spans` is the measured side of the performance model — these
tests pin down the failure modes a chaos run or a misconfigured sink
produces: torn JSONL tails from killed processes, sinks that exist but
hold nothing, and spans that never include a ``stage:*`` phase.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CalibrationError, TelemetryError
from repro.perfmodel import estimate_mle_iteration, get_machine
from repro.perfmodel.calibrate import (
    compare_to_estimate,
    format_report,
    load_spans,
    phase_costs,
)


def _span(name: str, duration: float, **extra) -> dict:
    rec = {
        "trace_id": "t" * 16,
        "span_id": "s" * 8,
        "parent_id": None,
        "name": name,
        "t_start": 1.0,
        "duration": duration,
        "pid": 1234,
    }
    rec.update(extra)
    return rec


def _write_sink(tmp_path, records, *, torn_tail: str = ""):
    path = tmp_path / "spans-1234.jsonl"
    body = "".join(json.dumps(r) + "\n" for r in records) + torn_tail
    path.write_text(body, encoding="utf-8")
    return path


def test_torn_tail_line_is_skipped_not_fatal(tmp_path):
    good = [_span("stage:generation", 0.25), _span("stage:solve", 0.5)]
    # A process killed mid-write leaves a truncated final line.
    _write_sink(tmp_path, good, torn_tail='{"name": "stage:factorization", "dur')
    spans = load_spans(tmp_path)
    assert [s["name"] for s in spans] == ["stage:generation", "stage:solve"]


def test_records_missing_required_keys_are_skipped(tmp_path):
    path = tmp_path / "spans-1.jsonl"
    path.write_text(
        json.dumps({"name": "orphan"})  # no duration
        + "\n"
        + json.dumps(["not", "a", "dict"])
        + "\n"
        + json.dumps(_span("stage:solve", 0.1))
        + "\n",
        encoding="utf-8",
    )
    spans = load_spans(tmp_path)
    assert len(spans) == 1 and spans[0]["name"] == "stage:solve"


def test_missing_directory_raises_telemetry_error(tmp_path):
    with pytest.raises(TelemetryError, match="does not exist"):
        load_spans(tmp_path / "never-created")


def test_empty_directory_raises_calibration_error(tmp_path):
    with pytest.raises(CalibrationError, match="no spans-\\*.jsonl files"):
        load_spans(tmp_path)


def test_empty_directory_allow_empty_returns_list(tmp_path):
    assert load_spans(tmp_path, allow_empty=True) == []


def test_files_with_only_garbage_raise_calibration_error(tmp_path):
    (tmp_path / "spans-9.jsonl").write_text("not json\n{torn", encoding="utf-8")
    with pytest.raises(CalibrationError, match="contain no span records"):
        load_spans(tmp_path)
    assert load_spans(tmp_path, allow_empty=True) == []


def test_only_non_stage_spans_compare_to_empty_join(tmp_path):
    _write_sink(
        tmp_path,
        [_span("wire.encode", 0.01), _span("service.queue_wait", 0.002)],
    )
    costs = phase_costs(load_spans(tmp_path))
    est = estimate_mle_iteration(
        1000, variant="full-tile", nb=250, machine=get_machine("broadwell")
    )
    assert compare_to_estimate(costs, est) == {}


def test_compare_to_estimate_golden_round_trip(tmp_path):
    """Spans whose durations *are* the model's predictions join at ratio 1."""
    machine = get_machine("broadwell")
    est = estimate_mle_iteration(2000, variant="full-tile", nb=250, machine=machine)
    records = [
        _span(f"stage:{phase}", seconds)
        for phase, seconds in est.breakdown.items()
        if seconds > 0
    ]
    _write_sink(tmp_path, records)
    joined = compare_to_estimate(phase_costs(load_spans(tmp_path)), est)
    assert set(joined) == {p for p, s in est.breakdown.items() if s > 0}
    for phase, row in joined.items():
        assert row["ratio"] == pytest.approx(1.0, rel=1e-9)
        assert row["measured_s"] == pytest.approx(row["predicted_s"], rel=1e-9)


def test_compare_to_estimate_rejects_non_estimate():
    with pytest.raises(TelemetryError, match="stage breakdown"):
        compare_to_estimate({}, object())


def test_format_report_renders_every_phase(tmp_path):
    _write_sink(tmp_path, [_span("stage:solve", 0.5), _span("stage:solve", 0.7)])
    report = format_report(phase_costs(load_spans(tmp_path)))
    assert "stage:solve" in report
    assert "1.2000" in report  # total_s column
