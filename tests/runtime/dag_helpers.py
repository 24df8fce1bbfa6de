"""Test-only export of a recorded task graph to :mod:`networkx`.

The product never imports networkx; the runtime tests use it as an
independent check of the dependency tracker (acyclicity, edge sets).
"""

from __future__ import annotations

from typing import Dict, Iterable

import networkx as nx

from repro.runtime.task import Task


def build_networkx_dag(tasks: Iterable[Task]) -> "nx.DiGraph":
    """A DiGraph of the task DAG: nodes are task ids with ``name``,
    ``priority`` and ``duration`` attributes; edges point from
    dependency to dependent."""
    g = nx.DiGraph()
    tasks = list(tasks)
    by_id: Dict[int, Task] = {t.id: t for t in tasks}
    for t in tasks:
        g.add_node(t.id, name=t.name, priority=t.priority, duration=t.duration)
    for t in tasks:
        for dep in t.deps:
            if dep in by_id:
                g.add_edge(dep, t.id)
    return g
