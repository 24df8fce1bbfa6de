"""Automatic dependency inference (sequential task flow).

StarPU's central contract: tasks submitted in program order with declared
access modes behave *as if* executed sequentially. The tracker enforces
the three hazards on each handle:

* RAW — a reader depends on the last writer;
* WAR — a writer depends on all readers since the last write;
* WAW — a writer depends on the last writer.

Concurrent readers are allowed. Each task records its dependencies'
ids in ``Task.deps``, which is all :func:`critical_path_length` needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .task import AccessMode, Task

__all__ = ["DependencyTracker", "critical_path_length"]


class DependencyTracker:
    """Infers task dependencies from handle access declarations.

    Not thread-safe by itself; the runtime serializes :meth:`register`
    calls under its insertion lock (insertion order *is* program order —
    that is what gives sequential-task-flow semantics).
    """

    def __init__(self) -> None:
        self.tasks: List[Task] = []

    def register(self, task: Task) -> Set[Task]:
        """Record ``task`` and return its direct dependencies.

        Updates per-handle reader/writer bookkeeping as a side effect.
        """
        deps: Set[Task] = set()
        for handle, mode in task.accesses:
            if mode is AccessMode.READ:
                if handle.last_writer is not None:
                    deps.add(handle.last_writer)  # RAW
                handle.readers.append(task)
            else:
                if handle.last_writer is not None:
                    deps.add(handle.last_writer)  # WAW
                deps.update(handle.readers)  # WAR
                handle.last_writer = task
                handle.readers = []
        deps.discard(task)
        task.deps = {d.id for d in deps}
        self.tasks.append(task)
        return deps

    def reset(self) -> None:
        """Forget all recorded tasks (handles keep their payloads).

        :meth:`Runtime.wait_all <repro.runtime.Runtime.wait_all>` calls
        it once the graph has drained.
        """
        for task in self.tasks:
            for handle, _ in task.accesses:
                handle.last_writer = None
                handle.readers = []
        self.tasks.clear()


def critical_path_length(tasks: Iterable[Task]) -> float:
    """Sum of task durations along the longest (time-weighted) path.

    Useful lower bound on any parallel schedule's makespan. One pass in
    insertion order: under sequential task flow every dependency was
    registered before its dependent. Dependencies outside ``tasks`` are
    ignored.
    """
    finish: Dict[int, float] = {}
    for t in tasks:
        start = max((finish[d] for d in t.deps if d in finish), default=0.0)
        finish[t.id] = start + t.duration
    return max(finish.values(), default=0.0)
