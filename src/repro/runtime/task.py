"""Task and access-mode primitives for the runtime.

A task is a codelet (plain Python callable) bound to a list of
``(DataHandle, AccessMode)`` pairs. The callable receives the handles'
*payloads* (not the handles) in declaration order, so codelets are
ordinary functions operating on numpy arrays / tile objects and can be
unit-tested without any runtime.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .handle import DataHandle

__all__ = ["AccessMode", "Task", "TaskState", "TraceEvent"]

_task_counter = itertools.count()


class AccessMode(enum.Enum):
    """How a task accesses a data handle (StarPU's R/W/RW).

    ``READ`` accesses may run concurrently; ``WRITE`` and ``READWRITE``
    accesses are exclusive and order against all other accesses of the
    same handle (read-after-write, write-after-read, write-after-write).
    """

    READ = "R"
    WRITE = "W"
    READWRITE = "RW"

    @property
    def writes(self) -> bool:
        """True when the mode modifies the handle's payload."""
        return self is not AccessMode.READ


class TaskState(enum.Enum):
    """Lifecycle of a task inside the runtime."""

    PENDING = "pending"  # inserted, dependencies unresolved
    READY = "ready"  # all dependencies satisfied, queued
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class Task:
    """A unit of work over registered data.

    Parameters
    ----------
    fn:
        The codelet. Called as ``fn(*payloads, *args, **kwargs)`` where
        ``payloads`` are the current payloads of the accessed handles in
        declaration order.
    accesses:
        Sequence of ``(handle, mode)`` pairs.
    args, kwargs:
        Extra positional/keyword arguments forwarded to ``fn`` after the
        payloads (e.g. an accuracy threshold).
    name:
        Label used in traces: a string, or a ``(kind, *indices)`` tuple
        formatted into ``"kind(i,j)"`` only when :attr:`name` is read (by
        a trace recorder or a log line). Defaults to the codelet's
        ``__name__``.
    priority:
        Larger runs earlier when several tasks are ready at once.
        Tile Cholesky assigns higher priority to critical-path (panel)
        tasks, mirroring Chameleon/HiCMA.
    """

    __slots__ = (
        "id",
        "fn",
        "accesses",
        "args",
        "kwargs",
        "_name",
        "priority",
        "state",
        "deps",
        "dependents",
        "unresolved",
        "poisoned",
        "t_start",
        "t_end",
        "worker",
        "trace_ctx",
    )

    def __init__(
        self,
        fn: Callable[..., Any],
        accesses: Sequence[Tuple[DataHandle, AccessMode]],
        *,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        name: Union[str, Tuple[Any, ...], None] = None,
        priority: int = 0,
    ) -> None:
        self.id: int = next(_task_counter)
        self.fn = fn
        self.accesses: List[Tuple[DataHandle, AccessMode]] = list(accesses)
        for handle, mode in self.accesses:
            if not isinstance(handle, DataHandle):
                raise TypeError(f"expected DataHandle, got {type(handle).__name__}")
            if not isinstance(mode, AccessMode):
                raise TypeError(f"expected AccessMode, got {type(mode).__name__}")
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self._name = name
        self.priority = int(priority)
        self.state = TaskState.PENDING
        self.deps: set[int] = set()
        self.dependents: List["Task"] = []
        self.unresolved = 0
        self.poisoned = False  # a dependency failed; the executor skips the body
        self.t_start = 0.0
        self.t_end = 0.0
        self.worker = -1
        # The submitter's telemetry context (None when telemetry is off):
        # worker threads never see the inserting thread's contextvar.
        self.trace_ctx = None

    @property
    def name(self) -> str:
        """Trace label, formatted on demand from a ``(kind, *indices)`` name."""
        name = self._name
        if isinstance(name, tuple):
            return f"{name[0]}({','.join(map(str, name[1:]))})"
        return name or getattr(self.fn, "__name__", "task")

    def payloads(self) -> List[Any]:
        """Current payloads of the accessed handles, in declaration order."""
        return [handle.get() for handle, _ in self.accesses]

    def execute(self) -> Any:
        """Run the codelet synchronously (used by the engines).

        Does not manage state transitions; the executor owns those.
        """
        return self.fn(*self.payloads(), *self.args, **self.kwargs)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent executing (0 until finished)."""
        return max(0.0, self.t_end - self.t_start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task(#{self.id} {self.name!r} {self.state.value})"


@dataclass(frozen=True)
class TraceEvent:
    """One executed task occurrence (a row of ``Runtime(trace=True).trace``)."""

    task_id: int
    name: str
    worker: int
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        """Seconds spent executing."""
        return self.t_end - self.t_start
