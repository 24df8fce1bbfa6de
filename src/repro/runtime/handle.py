"""Registered data handles.

A :class:`DataHandle` is the runtime's view of one piece of user data —
for tile algorithms, one tile column or one low-rank tile. Handles carry
the bookkeeping the dependency tracker needs (last writer, readers since
the last write). A codelet receives the payload itself and works on it
in place; the handle never swaps it.
"""

from __future__ import annotations

import itertools
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
    """

    __slots__ = ("id", "name", "_payload", "last_writer", "readers")

    def __init__(self, payload: Any, name: Optional[str] = None) -> None:
        self.id: int = next(_handle_counter)
        self.name = name or f"h{self.id}"
        self._payload = payload
        # Dependency bookkeeping (owned by the tracker, under runtime lock):
        self.last_writer: Optional[object] = None  # Task
        self.readers: List[object] = []  # Tasks since last write

    def get(self) -> Any:
        """Return the payload."""
        return self._payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataHandle({self.name!r})"
