"""The runtime's ready queue.

When several tasks are simultaneously ready, the queue decides execution
order: highest user priority first, ties broken by submission order
(Chameleon/HiCMA mark panel tasks high-priority to shorten the critical
path; the paper's stack gets the same from StarPU's priority scheduler).
"""

from __future__ import annotations

import heapq
from typing import Optional, Protocol

from .task import Task

__all__ = ["ReadyQueue", "PriorityReadyQueue"]


class ReadyQueue(Protocol):
    """Minimal interface the executor needs from a ready queue."""

    def push(self, task: Task) -> None:
        """Add a ready task."""
        ...

    def pop(self) -> Optional[Task]:
        """Remove and return the next task, or ``None`` when empty."""
        ...

    def __len__(self) -> int: ...


class PriorityReadyQueue:
    """Max-priority queue; ties broken FIFO by insertion sequence."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = 0

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (-task.priority, self._seq, task))
        self._seq += 1

    def pop(self) -> Optional[Task]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)
