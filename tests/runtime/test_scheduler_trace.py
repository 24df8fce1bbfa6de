"""Ready order: when several tasks are ready, the highest priority runs
first and ties run in the order they became ready."""

from __future__ import annotations

import threading

import numpy as np

from repro.runtime import AccessMode, Runtime

RW = AccessMode.READWRITE


def _run_blocked(priorities):
    """Queue independent tasks behind a blocking first task on one worker;
    return the order their bodies ran in."""
    order: list[int] = []
    release = threading.Event()
    with Runtime(num_workers=1) as rt:
        gate = rt.register(np.zeros(1))
        rt.insert_task(lambda x: release.wait(timeout=5), [(gate, RW)])
        for i, prio in enumerate(priorities):
            h = rt.register(np.zeros(1))
            rt.insert_task(lambda x, i=i: order.append(i), [(h, RW)], priority=prio)
        release.set()
        rt.wait_all()
    return order


class TestQueues:
    def test_priority_order_with_fifo_ties(self):
        assert _run_blocked((1, 9, 1)) == [1, 0, 2]  # hi, then lo1 before lo2

    def test_equal_priorities_run_in_push_order(self):
        assert _run_blocked((0,) * 8) == list(range(8))
