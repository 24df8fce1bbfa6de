"""Stress and fault-injection tests for the task runtime."""

from __future__ import annotations

import numpy as np
import pytest

from dag_helpers import build_networkx_dag
from repro.runtime import AccessMode, Runtime

R, RW = AccessMode.READ, AccessMode.READWRITE


class TestStress:
    def test_long_dependency_chain(self):
        with Runtime(num_workers=4) as rt:
            h = rt.register(np.zeros(1))

            def inc(x):
                x += 1

            for _ in range(500):
                rt.insert_task(inc, [(h, RW)])
            rt.wait_all()
        assert h.get()[0] == 500.0

    def test_wide_fanout_and_reduction(self):
        with Runtime(num_workers=8) as rt:
            src = rt.register(np.full(4, 2.0))
            partials = [rt.register(np.zeros(4)) for _ in range(64)]
            total = rt.register(np.zeros(4))

            def square_into(s, d):
                d[:] = s * s

            def accumulate(p, t):
                t += p

            for p in partials:
                rt.insert_task(square_into, [(src, R), (p, RW)])
            for p in partials:
                rt.insert_task(accumulate, [(p, R), (total, RW)])
            rt.wait_all()
        np.testing.assert_allclose(total.get(), 64 * 4.0)

    def test_diamond_pattern(self):
        # a -> (b, c) -> d : d must observe both branch effects.
        with Runtime(num_workers=4) as rt:
            ha = rt.register(np.array([1.0]))
            hb = rt.register(np.zeros(1))
            hc = rt.register(np.zeros(1))
            hd = rt.register(np.zeros(1))
            rt.insert_task(lambda a: a.__iadd__(1.0), [(ha, RW)])
            rt.insert_task(lambda a, b: b.__iadd__(a * 10), [(ha, R), (hb, RW)])
            rt.insert_task(lambda a, c: c.__iadd__(a * 100), [(ha, R), (hc, RW)])
            rt.insert_task(
                lambda b, c, d: d.__iadd__(b + c), [(hb, R), (hc, R), (hd, RW)]
            )
            rt.wait_all()
        assert hd.get()[0] == pytest.approx(20.0 + 200.0)

    def test_many_independent_tasks_all_run(self):
        counters = []
        with Runtime(num_workers=8) as rt:
            handles = [rt.register(np.zeros(1)) for _ in range(200)]
            for h in handles:
                rt.insert_task(lambda x: x.__iadd__(1.0), [(h, RW)])
            rt.wait_all()
            counters = [h.get()[0] for h in handles]
        assert counters == [1.0] * 200

    def test_ready_heap_under_a_short_switch_interval(self):
        """More workers than cores, thread switches every microsecond:
        each handle's RW chain still counts every increment, and the
        drained graph is forgotten."""
        import sys

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Runtime(num_workers=8) as rt:
                handles = [rt.register(np.zeros(1)) for _ in range(4)]
                seen = rt.register(np.zeros(1))
                for i in range(400):
                    h = handles[i % 4]
                    rt.insert_task(lambda x: x.__iadd__(1.0), [(h, RW)], priority=i % 3)
                    if i % 50 == 0:
                        rt.insert_task(lambda x, s: s.__iadd__(x), [(h, R), (seen, RW)])
                rt.wait_all()
                assert rt.tracker.tasks == []
        finally:
            sys.setswitchinterval(old)
        assert [h.get()[0] for h in handles] == [100.0] * 4
        # Reads at i = 0, 50, ..., 350 see 1, 13, 26, 38, 51, 63, 76, 88.
        assert seen.get()[0] == sum(i // 4 + 1 for i in range(0, 400, 50))

    def test_dag_export_of_real_factorization(self, small_sigma):
        from repro.linalg.tile_matrix import TileMatrix
        from repro.linalg.tile_ops import panel_codelet, update_codelet

        tm = TileMatrix.from_dense(small_sigma, 64, symmetric_lower=True)
        with Runtime(num_workers=4) as rt:
            handles = [rt.register(tm.panel(j)) for j in range(tm.nt)]
            # Build DAG manually via one panel step to verify acyclicity.
            t0 = rt.insert_task(panel_codelet, [(handles[0], RW)])
            t1 = rt.insert_task(
                update_codelet, [(handles[0], R), (handles[1], RW)], args=(64,)
            )
            rt.wait_all()
            g = build_networkx_dag([t0, t1])
            assert g.has_edge(t0.id, t1.id)


class TestFaultInjection:
    def test_midstream_failure_reports_first_error(self):
        with Runtime(num_workers=4) as rt:
            h = rt.register(np.zeros(1))

            def ok(x):
                x += 1

            def fail(x):
                raise ArithmeticError("injected")

            rt.insert_task(ok, [(h, RW)])
            rt.insert_task(fail, [(h, RW)])
            rt.insert_task(ok, [(h, RW)])
            with pytest.raises(ArithmeticError, match="injected"):
                rt.wait_all()

    @pytest.mark.parametrize("engine", ["threads", "serial"])
    def test_dependents_of_a_failure_are_skipped_independents_run(self, engine):
        """Bodies downstream of a failed task never execute; the rest of
        the graph does, and after the error is reported nothing lingers."""
        ran = []
        with Runtime(num_workers=3, engine=engine) as rt:
            a, b, c = (rt.register(np.zeros(1)) for _ in range(3))

            def fail(x):
                raise ArithmeticError("injected")

            def mark(tag):
                return lambda *payloads: ran.append(tag)

            rt.insert_task(fail, [(a, RW)])
            rt.insert_task(mark("direct"), [(a, RW)])
            rt.insert_task(mark("transitive"), [(a, R), (b, RW)])
            rt.insert_task(mark("second-hop"), [(b, R), (c, RW)])
            rt.insert_task(mark("independent"), [(rt.register(np.zeros(1)), RW)])
            with pytest.raises(ArithmeticError, match="injected"):
                rt.wait_all()
            assert ran == ["independent"]
            rt.insert_task(mark("after"), [(a, RW), (b, RW), (c, RW)])
            rt.wait_all()
        assert ran == ["independent", "after"]

    def test_failure_in_serial_engine(self):
        with Runtime(engine="serial") as rt:
            h = rt.register(np.zeros(1))
            rt.insert_task(lambda x: 1 / 0, [(h, RW)])
            with pytest.raises(ZeroDivisionError):
                rt.wait_all()

    def test_runtime_usable_after_handled_failure(self):
        with Runtime(num_workers=2) as rt:
            h = rt.register(np.zeros(1))
            rt.insert_task(lambda x: 1 / 0, [(h, RW)])
            with pytest.raises(ZeroDivisionError):
                rt.wait_all()
            rt.insert_task(lambda x: x.__iadd__(5.0), [(h, RW)])
            rt.wait_all()
        assert h.get()[0] == 5.0
