"""Tests for dependency inference (sequential-task-flow hazards)."""

from __future__ import annotations

import numpy as np
import pytest

from dag_helpers import build_networkx_dag
from repro.runtime.graph import DependencyTracker, critical_path_length
from repro.runtime.handle import DataHandle
from repro.runtime.task import AccessMode, Task

R, W, RW = AccessMode.READ, AccessMode.WRITE, AccessMode.READWRITE


def noop(*args):
    return None


def make_task(accesses, name="t"):
    return Task(noop, accesses, name=name)


class TestHazards:
    def test_raw_reader_depends_on_writer(self):
        tr = DependencyTracker()
        h = DataHandle(0)
        writer = make_task([(h, W)])
        reader = make_task([(h, R)])
        tr.register(writer)
        deps = tr.register(reader)
        assert deps == {writer}

    def test_concurrent_readers_no_mutual_deps(self):
        tr = DependencyTracker()
        h = DataHandle(0)
        w = make_task([(h, W)])
        r1 = make_task([(h, R)])
        r2 = make_task([(h, R)])
        tr.register(w)
        assert tr.register(r1) == {w}
        assert tr.register(r2) == {w}  # r2 does NOT depend on r1

    def test_war_writer_waits_for_readers(self):
        tr = DependencyTracker()
        h = DataHandle(0)
        w1 = make_task([(h, W)])
        r1 = make_task([(h, R)])
        r2 = make_task([(h, R)])
        w2 = make_task([(h, W)])
        for t in (w1, r1, r2):
            tr.register(t)
        deps = tr.register(w2)
        assert deps == {w1, r1, r2}

    def test_waw_chain(self):
        tr = DependencyTracker()
        h = DataHandle(0)
        w1 = make_task([(h, RW)])
        w2 = make_task([(h, RW)])
        w3 = make_task([(h, RW)])
        tr.register(w1)
        assert tr.register(w2) == {w1}
        assert tr.register(w3) == {w2}

    def test_multi_handle_union(self):
        tr = DependencyTracker()
        ha, hb = DataHandle(0), DataHandle(1)
        wa = make_task([(ha, W)])
        wb = make_task([(hb, W)])
        consumer = make_task([(ha, R), (hb, RW)])
        tr.register(wa)
        tr.register(wb)
        assert tr.register(consumer) == {wa, wb}

    def test_reset_clears_bookkeeping(self):
        tr = DependencyTracker()
        h = DataHandle(0)
        w = make_task([(h, W)])
        tr.register(w)
        tr.reset()
        assert tr.tasks == []
        assert h.last_writer is None
        r = make_task([(h, R)])
        assert tr.register(r) == set()


class TestDagExport:
    def _chain(self, k=4):
        tr = DependencyTracker()
        h = DataHandle(0)
        tasks = []
        for i in range(k):
            t = make_task([(h, RW)], name=f"t{i}")
            t.t_start, t.t_end = 0.0, 1.0  # unit duration
            tr.register(t)
            tasks.append(t)
        return tasks

    def test_networkx_dag_structure(self):
        tasks = self._chain(4)
        g = build_networkx_dag(tasks)
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 3
        import networkx as nx

        assert nx.is_directed_acyclic_graph(g)

    def test_critical_path_of_chain(self):
        tasks = self._chain(5)
        assert critical_path_length(tasks) == pytest.approx(5.0)

    def test_critical_path_empty(self):
        assert critical_path_length([]) == 0.0

    def test_independent_tasks_path_is_max(self):
        tr = DependencyTracker()
        tasks = []
        for i in range(3):
            h = DataHandle(i)
            t = make_task([(h, RW)])
            t.t_start, t.t_end = 0.0, float(i + 1)
            tr.register(t)
            tasks.append(t)
        assert critical_path_length(tasks) == pytest.approx(3.0)

    def test_critical_path_matches_networkx_longest_path(self):
        """The one-pass longest path against networkx on a random graph
        recorded through the tracker (so in insertion order)."""
        import networkx as nx

        rng = np.random.default_rng(3)
        tr = DependencyTracker()
        handles = [DataHandle(i) for i in range(6)]
        tasks = []
        for i in range(60):
            picks = rng.choice(len(handles), size=rng.integers(1, 4), replace=False)
            accesses = [(handles[p], R if rng.random() < 0.5 else RW) for p in picks]
            t = make_task(accesses, name=f"t{i}")
            t.t_start, t.t_end = 0.0, float(rng.random())
            tr.register(t)
            tasks.append(t)
        g = build_networkx_dag(tasks)
        # networkx weighs edges; put each task's duration on its out-edges
        # and add a sink so the last task's duration counts too.
        for u, v in g.edges:
            g.edges[u, v]["w"] = g.nodes[u]["duration"]
        for node in list(g.nodes):
            g.add_edge(node, "sink", w=g.nodes[node]["duration"])
        expected = nx.dag_longest_path_length(g, weight="w")
        assert critical_path_length(tasks) == pytest.approx(expected)


class TestTaskValidation:
    def test_bad_access_types(self):
        h = DataHandle(0)
        with pytest.raises(TypeError):
            Task(noop, [("not a handle", R)])
        with pytest.raises(TypeError):
            Task(noop, [(h, "R")])

    def test_tuple_name_is_formatted_on_demand(self):
        h = DataHandle(0)
        assert Task(noop, [(h, R)], name=("update", 3, 1)).name == "update(3,1)"
        assert Task(noop, [(h, R)], name=("panel", 7)).name == "panel(7)"
        assert Task(noop, [(h, R)], name="plain").name == "plain"
        assert Task(noop, [(h, R)]).name == "noop"

    def test_payload_order(self):
        ha, hb = DataHandle("a"), DataHandle("b")
        t = Task(lambda a, b: (a, b), [(ha, R), (hb, R)])
        assert t.execute() == ("a", "b")

    def test_args_kwargs_forwarded(self):
        h = DataHandle(10)
        t = Task(lambda x, y, z=0: x + y + z, [(h, R)], args=(5,), kwargs={"z": 2})
        assert t.execute() == 17


def test_import_repro_does_not_load_networkx():
    """networkx is a test dependency only: the product never imports it."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import repro, sys; assert 'networkx' not in sys.modules, 'networkx loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
