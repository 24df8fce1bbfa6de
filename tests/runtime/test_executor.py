"""Tests for the runtime engines: correctness, determinism, failures."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RuntimeEngineError
from repro.runtime import AccessMode, Runtime

R, RW = AccessMode.READ, AccessMode.READWRITE


class TestSerialEngine:
    def test_executes_at_insertion(self):
        with Runtime(engine="serial") as rt:
            h = rt.register(np.zeros(3))
            order = []

            def record(x, tag):
                order.append(tag)
                x += 1

            rt.insert_task(record, [(h, RW)], args=("a",))
            assert order == ["a"]  # already ran
            rt.insert_task(record, [(h, RW)], args=("b",))
            rt.wait_all()
            assert order == ["a", "b"]
        np.testing.assert_allclose(h.get(), 2.0)

    def test_serial_error_raised_at_wait(self):
        with Runtime(engine="serial") as rt:
            h = rt.register(np.zeros(1))

            def boom(x):
                raise ValueError("bad codelet")

            rt.insert_task(boom, [(h, RW)])
            with pytest.raises(ValueError, match="bad codelet"):
                rt.wait_all()


class TestThreadsEngine:
    def test_dependency_chain_result(self):
        with Runtime(num_workers=4) as rt:
            h = rt.register(np.zeros(8))

            def add(x, v):
                x += v

            def scale(x, f):
                x *= f

            rt.insert_task(add, [(h, RW)], args=(1.0,))
            rt.insert_task(scale, [(h, RW)], args=(3.0,))
            rt.insert_task(add, [(h, RW)], args=(0.5,))
            rt.wait_all()
        np.testing.assert_allclose(h.get(), 3.5)

    def test_parallel_readers_single_writer(self):
        with Runtime(num_workers=8) as rt:
            src = rt.register(np.arange(100.0))
            sinks = [rt.register(np.zeros(100)) for _ in range(8)]

            def copy(s, d):
                time.sleep(0.001)
                d[:] = s

            for sink in sinks:
                rt.insert_task(copy, [(src, R), (sink, RW)])
            rt.wait_all()
        for sink in sinks:
            np.testing.assert_array_equal(sink.get(), np.arange(100.0))

    def test_error_propagates_and_others_finish(self):
        with Runtime(num_workers=4) as rt:
            good = rt.register(np.zeros(4))
            bad = rt.register(np.zeros(4))

            def ok(x):
                x += 1

            def boom(x):
                raise RuntimeError("kernel failure")

            rt.insert_task(boom, [(bad, RW)])
            rt.insert_task(ok, [(good, RW)])
            with pytest.raises(RuntimeError, match="kernel failure"):
                rt.wait_all()
            # Error is consumed; subsequent waits are clean.
            rt.wait_all()
        np.testing.assert_allclose(good.get(), 1.0)

    def test_wait_all_idempotent(self):
        with Runtime(num_workers=2) as rt:
            h = rt.register(np.zeros(1))
            rt.insert_task(lambda x: None, [(h, R)])
            rt.wait_all()
            rt.wait_all()

    def test_insert_after_shutdown_raises(self):
        rt = Runtime(num_workers=2)
        rt.shutdown()
        with pytest.raises(RuntimeEngineError):
            rt.register(np.zeros(1))
        with pytest.raises(RuntimeEngineError):
            rt.insert_task(lambda: None, [])

    def test_concurrency_actually_happens(self):
        # Two independent sleeping tasks on 2 workers should overlap.
        with Runtime(num_workers=2) as rt:
            a = rt.register(np.zeros(1))
            b = rt.register(np.zeros(1))

            def sleeper(x):
                time.sleep(0.15)

            t0 = time.perf_counter()
            rt.insert_task(sleeper, [(a, RW)])
            rt.insert_task(sleeper, [(b, RW)])
            rt.wait_all()
            elapsed = time.perf_counter() - t0
        assert elapsed < 0.28  # serial would be >= 0.30

    def test_trace_records_all_tasks(self):
        with Runtime(num_workers=3, trace=True) as rt:
            h = rt.register(np.zeros(2))
            for _ in range(7):
                rt.insert_task(lambda x: None, [(h, R)], name="probe")
            rt.wait_all()
            assert len(rt.trace) == 7
            for e in rt.trace:
                assert e.name == "probe" and e.worker in (0, 1, 2)
                assert e.t_end >= e.t_start and e.duration == e.t_end - e.t_start


class TestDeterminismOracle:
    """Random task programs must produce identical state under any engine.

    This is the sequential-task-flow contract: RW chains serialize in
    program order, so the threads engine must match the serial oracle.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(["add", "mul"])),
            min_size=1,
            max_size=25,
        ),
        st.integers(1, 8),
    )
    def test_threads_match_serial(self, program, workers):
        def run(engine, num_workers=None):
            with Runtime(engine=engine, num_workers=num_workers) as rt:
                handles = [rt.register(np.ones(4) * (i + 1)) for i in range(4)]

                def add(dst, src):
                    dst += src.sum()

                def mul(dst, src):
                    dst *= 1.0 + 0.01 * src.sum()

                for dst, src, op in program:
                    fn = add if op == "add" else mul
                    rt.insert_task(fn, [(handles[dst], RW), (handles[src], R)])
                rt.wait_all()
                return [h.get().copy() for h in handles]

        serial = run("serial")
        threaded = run("threads", workers)
        for s, t in zip(serial, threaded):
            np.testing.assert_array_equal(s, t)


class TestSchedulerQueues:
    def test_priority_order_single_worker(self):
        # One worker + a blocking first task: remaining tasks execute in
        # priority order regardless of insertion order.
        order: list[int] = []
        release = threading.Event()
        with Runtime(num_workers=1) as rt:
            gate = rt.register(np.zeros(1))

            def block(x):
                release.wait(timeout=5)

            rt.insert_task(block, [(gate, RW)])
            handles = [rt.register(np.zeros(1)) for _ in range(3)]
            for i, prio in enumerate((1, 5, 3)):
                rt.insert_task(
                    lambda x, i=i: order.append(i), [(handles[i], RW)], priority=prio
                )
            release.set()
            rt.wait_all()
        assert order == [1, 2, 0]


class TestWaitAllForgetsTheGraph:
    """``wait_all`` drops the drained graph: the runtime keeps no task, and
    through the tasks no payload, alive once it returns or raises."""

    @staticmethod
    def _insert_and_release(rt, codelet):
        payload = np.zeros(4)
        ref = weakref.ref(payload)
        rt.insert_task(codelet, [(rt.register(payload), RW)])
        return ref

    @pytest.mark.parametrize("engine", ["threads", "serial"])
    def test_after_wait_all(self, engine):
        with Runtime(num_workers=2, engine=engine) as rt:
            ref = self._insert_and_release(rt, lambda x: x.__iadd__(1.0))
            rt.wait_all()
            gc.collect()
            assert rt.tracker.tasks == []
            assert ref() is None

    @pytest.mark.parametrize("engine", ["threads", "serial"])
    def test_after_a_wait_all_that_raised(self, engine):
        with Runtime(num_workers=2, engine=engine) as rt:
            a = rt.register(np.zeros(1))

            def fail(x):
                raise ArithmeticError("injected")

            rt.insert_task(fail, [(a, RW)])
            # A dependent of the failure (skipped) and an independent task.
            payload = np.zeros(4)
            ref_dependent = weakref.ref(payload)
            rt.insert_task(lambda x, y: None, [(a, R), (rt.register(payload), RW)])
            del payload
            ref_independent = self._insert_and_release(rt, lambda x: None)
            with pytest.raises(ArithmeticError, match="injected"):
                rt.wait_all()
            gc.collect()
            assert rt.tracker.tasks == []
            assert ref_dependent() is None
            assert ref_independent() is None


class TestShutdownLifecycle:
    """Shutdown must be idempotent and thread-safe so the serving registry
    can recycle runtimes without leaking worker threads."""

    def test_shutdown_idempotent(self):
        rt = Runtime(num_workers=2)
        workers = list(rt._threads)
        assert not rt.closed
        rt.shutdown()
        assert rt.closed
        rt.shutdown()  # second call is a no-op
        rt.shutdown(wait=False)
        assert rt.closed
        assert not any(th.is_alive() for th in workers)

    def test_context_manager_then_explicit_shutdown(self):
        with Runtime(num_workers=2) as rt:
            h = rt.register(np.zeros(3))
            rt.insert_task(lambda x: None, [(h, RW)])
            rt.wait_all()
        assert rt.closed
        rt.shutdown()  # recycle path: explicit close after the with-block
        with pytest.raises(RuntimeEngineError):
            rt.insert_task(lambda x: None, [(h, RW)])

    def test_concurrent_shutdown_joins_all_workers(self):
        rt = Runtime(num_workers=4)
        workers = list(rt._threads)
        errors: list[BaseException] = []

        def close():
            try:
                rt.shutdown()
            except BaseException as exc:  # pragma: no cover - should not happen
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10.0)
        assert not errors
        assert rt.closed
        assert not any(th.is_alive() for th in workers)

    def test_shutdown_drains_pending_work_once(self):
        rt = Runtime(num_workers=2)
        h = rt.register(np.zeros(1))

        def slow(x):
            time.sleep(0.02)
            x += 1.0

        for _ in range(6):
            rt.insert_task(slow, [(h, RW)])
        rt.shutdown()  # waits for the in-flight tasks
        assert h.get()[0] == 6.0
        rt.shutdown()  # and stays closed
        assert rt.closed

    def test_no_worker_thread_leak_across_recycles(self):
        def worker_count() -> int:
            return sum(
                1 for th in threading.enumerate() if th.name.startswith("repro-worker")
            )

        before = worker_count()
        for _ in range(5):
            with Runtime(num_workers=3) as rt:
                h = rt.register(np.zeros(2))
                rt.insert_task(lambda x: None, [(h, RW)])
                rt.wait_all()
        assert worker_count() == before

    def test_serial_engine_shutdown_idempotent(self):
        rt = Runtime(engine="serial")
        h = rt.register(np.zeros(1))
        rt.insert_task(lambda x: None, [(h, RW)])
        rt.shutdown()
        rt.shutdown()
        assert rt.closed
