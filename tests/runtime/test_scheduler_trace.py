"""Unit tests for the ready queue."""

from __future__ import annotations

from repro.runtime.scheduler import PriorityReadyQueue
from repro.runtime.task import Task


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
