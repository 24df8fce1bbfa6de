"""Registered data handles.

A :class:`DataHandle` is the runtime's view of one piece of user data —
for tile algorithms, one tile (a dense ndarray or a low-rank tile
object). Handles carry the bookkeeping the dependency tracker needs (last
writer, readers since last write) and a monotonically increasing version
for debugging/assertions.

Payloads are held behind an indirection (``get``/``set``) because TLR
codelets *replace* tile contents (compressing a factor tile changes the
U/V array shapes); tasks that read the handle later must observe the
replacement.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, List, Optional

__all__ = ["DataHandle"]

_handle_counter = itertools.count()


class DataHandle:
    """A piece of data registered with the runtime.

    Parameters
    ----------
    payload:
        Arbitrary object (typically ``np.ndarray`` or a tile container).
    name:
        Optional label for traces and error messages.

    Notes
    -----
    The runtime guarantees exclusive access for W/RW tasks, so codelets
    never need the lock; :meth:`set` exists for codelets that swap the
    payload object itself and is thread-safe against concurrent readers
    of *other* handles (same-handle concurrent access is excluded by the
    dependency rules).
    """

    __slots__ = ("id", "name", "version", "_payload", "_lock", "last_writer", "readers")

    def __init__(self, payload: Any, name: Optional[str] = None) -> None:
        self.id: int = next(_handle_counter)
        self.name = name or f"h{self.id}"
        self.version = 0
        self._payload = payload
        self._lock = threading.Lock()
        # Dependency bookkeeping (owned by the tracker, under runtime lock):
        self.last_writer: Optional[object] = None  # Task
        self.readers: List[object] = []  # Tasks since last write

    def get(self) -> Any:
        """Return the current payload."""
        return self._payload

    def set(self, payload: Any) -> None:
        """Replace the payload (bumps the version)."""
        with self._lock:
            self._payload = payload
            self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataHandle({self.name!r}, v{self.version})"
