"""Unit tests for the ready queue and the trace recorder."""

from __future__ import annotations

import pytest

from repro.runtime.scheduler import PriorityReadyQueue
from repro.runtime.task import AccessMode, Task
from repro.runtime.trace import TraceEvent, TraceRecorder


def t(name, priority=0):
    return Task(lambda: None, [], name=name, priority=priority)


class TestQueues:
    def test_priority_order_with_fifo_ties(self):
        q = PriorityReadyQueue()
        lo1, hi, lo2 = t("lo1", 1), t("hi", 9), t("lo2", 1)
        for x in (lo1, hi, lo2):
            q.push(x)
        assert q.pop() is hi
        assert q.pop() is lo1  # tie broken by insertion
        assert q.pop() is lo2
        assert len(q) == 0

    def test_len(self):
        q = PriorityReadyQueue()
        assert len(q) == 0
        q.push(t("x"))
        assert len(q) == 1


class TestTraceRecorder:
    def _recorder(self):
        rec = TraceRecorder()
        rec.record(TraceEvent(1, "potrf", 0, 0.0, 1.0))
        rec.record(TraceEvent(2, "trsm", 1, 0.5, 2.0))
        rec.record(TraceEvent(3, "trsm", 0, 1.0, 1.5))
        return rec

    def test_makespan_and_busy(self):
        rec = self._recorder()
        assert rec.makespan() == pytest.approx(2.0)
        assert rec.busy_time() == pytest.approx(1.0 + 1.5 + 0.5)

    def test_utilization_bounds(self):
        rec = self._recorder()
        u = rec.utilization(2)
        assert 0.0 < u <= 1.0
        assert rec.utilization(0) == 0.0
        assert TraceRecorder().utilization(4) == 0.0

    def test_by_codelet(self):
        rec = self._recorder()
        summary = rec.by_codelet()
        assert summary["trsm"][0] == 2
        assert summary["potrf"] == (1, pytest.approx(1.0))

    def test_gantt_rows_normalized(self):
        rec = self._recorder()
        rows = rec.gantt_rows()
        assert rows[0][2] == pytest.approx(0.0)
        assert all(r[3] >= r[2] for r in rows)

    def test_clear(self):
        rec = self._recorder()
        rec.clear()
        assert rec.events == []
