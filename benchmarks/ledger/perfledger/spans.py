"""Harness-side spans: one record per call into a layer's public function.

The program under test is not instrumented (``REPRO_TELEMETRY`` stays
off); the harness wraps each public call it makes in :meth:`Trace.span`.
Spans are kept in memory and written out when the workload ends. A
layer's *self time* is its span's duration minus the part its child
spans cover, so nested calls are never counted twice.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Trace:
    """In-memory span recorder for one workload's traced pass.

    :meth:`span` nests under the span open on the main thread;
    :meth:`add` records an already-timed root span and may be called
    from load-generator threads.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._lock = threading.Lock()

    def _record(self, name: str, parent: Optional[int], op_id: Optional[int]) -> dict:
        with self._lock:
            record = {
                "id": len(self.spans),
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": parent,
                "op_id": op_id,
                "workload": self.workload,
            }
            self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None) -> Iterator[dict]:
        """Record ``name`` around the enclosed call; nests under the open span."""
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent]["op_id"]
        record = self._record(name, parent, op_id)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op_id: Optional[int] = None) -> None:
        """Record a root span the caller timed itself (any thread)."""
        record = self._record(name, None, op_id)
        record["start"], record["end"] = start, end

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in recording order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children's.

    Children of one parent are recorded by one thread and never overlap,
    so the covered part of the parent's interval is their plain sum.
    """
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
    return dict(out)


def read_trace(path: Path) -> List[dict]:
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]
