"""Task-based runtime system (StarPU substitute; paper §VI).

ExaGeoStat expresses its high-level operations (matrix generation,
Cholesky, solves, log-determinant) as *tasks* over tile-sized data, and
lets StarPU infer dependencies from data access modes and execute the DAG
asynchronously on the available hardware. This subpackage reproduces that
programming model in pure Python:

* :class:`DataHandle` — a registered piece of data (typically one tile);
* :class:`AccessMode` — ``READ`` / ``WRITE`` / ``READWRITE`` declarations;
* :class:`Runtime` — sequential-task-flow insertion with automatic
  dependency inference and out-of-order execution on a thread pool.
  Tasks overlap only inside calls that release the GIL: ``numpy.matmul``
  and :mod:`repro.linalg.nogil_lapack` do, most of scipy's f2py
  wrappers (``scipy.linalg.cholesky``, ``svd``, ``solve_triangular``,
  ``scipy.linalg.blas`` / ``lapack``) do not, so the Cholesky task
  bodies call BLAS/LAPACK through the former;
* one ready heap (highest priority first, then push order), an
  optional per-task event list (``Runtime(trace=True).trace``) and
  ``task:*`` telemetry spans.

A ``serial`` engine executes tasks synchronously at insertion in program
order, which is always a legal schedule — used for debugging and as a
determinism oracle in tests.
"""

from .task import AccessMode, Task, TaskState, TraceEvent
from .handle import DataHandle
from .executor import Runtime
from .graph import DependencyTracker

__all__ = [
    "AccessMode",
    "Task",
    "TaskState",
    "DataHandle",
    "Runtime",
    "TraceEvent",
    "DependencyTracker",
]
