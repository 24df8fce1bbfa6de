"""The program under test, hosted in its own process.

The harness (input generation, references, checks, load generation)
stays in the parent; this process holds only what a user of the library
would run, so its ``ru_maxrss`` is the product's footprint and, on the
serve workloads, the router does not share the load generator's GIL.
It is spawned before the parent generates any input: a child inherits
its parent's peak RSS across ``exec``.

Commands arrive as ``(name, payload)`` over a pipe and are answered with
``("ok", result)`` or ``("error", traceback)``. The child announces
``("ready", None)`` once it has imported the library, so that import is
never inside a timed section.
"""

from __future__ import annotations

import multiprocessing
import resource
import signal
import time
import traceback
from typing import Callable, Dict

#: Seconds the parent waits for one command's answer.
COMMAND_TIMEOUT = 150.0


class _Hosted:
    """What the child currently holds: an estimator + runtime, or a server."""

    def __init__(self) -> None:
        self.runtime = None
        self.estimator = None
        self.server = None

    def release(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.runtime is not None:
            self.runtime.shutdown()
            self.runtime = None
        self.estimator = None

    # ------------------------------------------------------------------ mle
    def mle_setup(self, p: dict) -> dict:
        """What a user pays before the first likelihood value: runtime
        spin-up, estimator construction (Morton order), and the first,
        cold evaluation (distance-cache fill)."""
        from repro import MLEstimator, Runtime

        from .inputs import family_model

        self.release()
        t0 = time.perf_counter()
        self.runtime = Runtime(num_workers=p["workers"])
        self.estimator = MLEstimator(
            p["locations"],
            p["z"],
            model=family_model(p["family"]),
            variant=p["variant"],
            acc=p["acc"],
            tile_size=p["nb"],
            runtime=self.runtime,
        )
        value = self.estimator.evaluator(p["theta"])
        return {"seconds": time.perf_counter() - t0, "value": value}

    def mle_ops(self, p: dict) -> dict:
        """Cycle the theta schedule until ``seconds`` have passed and at
        least ``min_ops`` ops are done. One op = one evaluator call."""
        evaluator = self.estimator.evaluator
        thetas = p["thetas"]
        latencies, values, errors = [], [], []
        start = time.perf_counter()
        deadline = start + p["seconds"]
        i = 0
        while i < p["min_ops"] or time.perf_counter() < deadline:
            theta = thetas[i % len(thetas)]
            t0 = time.perf_counter()
            try:
                value = evaluator(theta)
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                value = float("nan")
                errors.append((i, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - t0)
            values.append(value)
            i += 1
        return {
            "wall": time.perf_counter() - start,
            "latencies": latencies,
            "values": values,
            "errors": errors,
        }

    # ---------------------------------------------------------------- serve
    def serve_start(self, p: dict) -> dict:
        from repro import ServingServer

        self.release()
        self.server = ServingServer(p["models"], num_workers=1).start()
        return {"url": self.server.url}

    def serve_stop(self, p: dict) -> dict:
        self.release()
        return {}

    # --------------------------------------------------------------- common
    def rusage(self, p: dict) -> dict:
        """Peak RSS in MiB of this process and of its largest waited-for
        descendant (the serving worker; call after ``serve_stop``)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"self_mib": own / 1024.0, "children_mib": kids / 1024.0}


def main(conn) -> None:
    """Child entry point: serve commands until ``exit`` or pipe EOF."""

    def _terminate(signum, frame):  # let ``finally`` stop server workers
        raise SystemExit(1)

    signal.signal(signal.SIGTERM, _terminate)
    import repro  # noqa: F401  (pay the import before the first command)

    conn.send(("ready", None))
    hosted = _Hosted()
    handlers: Dict[str, Callable[[dict], dict]] = {
        "mle_setup": hosted.mle_setup,
        "mle_ops": hosted.mle_ops,
        "serve_start": hosted.serve_start,
        "serve_stop": hosted.serve_stop,
        "rusage": hosted.rusage,
    }
    try:
        while True:
            try:
                name, payload = conn.recv()
            except EOFError:
                break
            if name == "exit":
                break
            try:
                conn.send(("ok", handlers[name](payload)))
            except Exception:  # report to the parent, which decides
                conn.send(("error", traceback.format_exc()))
    finally:
        hosted.release()
        conn.close()


class Program:
    """Parent-side handle on the child process."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=main, args=(child_conn,), name="ledger-program")
        self._proc.start()
        child_conn.close()
        self._ready = False

    def _answer(self, what: str):
        if not self._conn.poll(COMMAND_TIMEOUT):
            raise RuntimeError(f"program did not answer {what!r} within {COMMAND_TIMEOUT}s")
        return self._conn.recv()

    def ready(self) -> "Program":
        """Block until the child has imported the library."""
        if not self._ready:
            self._answer("ready")
            self._ready = True
        return self

    def call(self, name: str, **payload) -> dict:
        self.ready()
        self._conn.send((name, payload))
        status, result = self._answer(name)
        if status != "ok":
            raise RuntimeError(f"program failed in {name!r}:\n{result}")
        return result

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._proc.is_alive():
            try:
                self._conn.send(("exit", {}))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(30.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(10.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()

    def __enter__(self) -> "Program":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
