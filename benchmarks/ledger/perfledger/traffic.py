"""Closed-loop load generation against a hosted ``ServingServer``.

Callers of a kriging service wait for their answer, so each client
thread sends its next request only when the previous one returned. The
server lives in another process (:class:`~perfledger.child.Program`);
these threads are the only load on this process's GIL.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import PredictionEngine, ServingClient
from repro.exceptions import CircuitOpenError, LoadShedError, ServiceOverloadedError

from .spans import Trace

MODEL_ID = "m"
#: Typed "not executed, try later" answers: counted apart from wrong ones.
REJECTIONS = (LoadShedError, ServiceOverloadedError, CircuitOpenError)


def carries_span(i: int) -> bool:
    """With a trace, every other op is recorded as a span, so traced and
    plain ops interleave under identical load."""
    return i % 2 == 1


@dataclass(frozen=True)
class Request:
    targets: np.ndarray
    z: Optional[np.ndarray] = None


@dataclass
class ClientLog:
    """What one client thread saw, in order."""

    client: int
    ops: List[Tuple[int, float, object]] = field(default_factory=list)
    # each op: (index into the client's stream, seconds, answer | exception)
    reloads: List[float] = field(default_factory=list)


def _client_loop(
    log: ClientLog,
    url: str,
    stream: Sequence[Request],
    paths: Sequence[Path],
    deadline: Optional[float],
    count: int,
    budget_end: Optional[float],
    reload_every: int,
    trace: Optional[Trace],
) -> None:
    with ServingClient(url, transport="binary") as client:
        i = 0
        while True:
            now = time.perf_counter()
            if deadline is not None:
                if now >= deadline and i >= count:
                    break
            elif i >= count or (budget_end is not None and now >= budget_end and i >= 4):
                break
            if log.client == 0 and reload_every and i and i % reload_every == 0:
                target = paths[(i // reload_every) % len(paths)]
                t0 = time.perf_counter()
                client.reload(MODEL_ID, target)
                log.reloads.append(time.perf_counter() - t0)
            request = stream[i % len(stream)]
            t0 = time.perf_counter()
            try:
                answer: object = client.predict(MODEL_ID, request.targets, z=request.z)
            except Exception as exc:  # a failed op is data, not a crash
                answer = exc
            t1 = time.perf_counter()
            log.ops.append((i % len(stream), t1 - t0, answer))
            if trace is not None and carries_span(i):
                trace.add("serve.op", t0, t1, op_id=i)
            i += 1


def drive(
    url: str,
    streams: Sequence[Sequence[Request]],
    paths: Sequence[Path],
    *,
    seconds: Optional[float] = None,
    count: int = 0,
    budget_s: Optional[float] = None,
    reload_every: int = 0,
    trace: Optional[Trace] = None,
) -> Dict[str, object]:
    """Run one client thread per stream and return their logs.

    With ``seconds`` the clients run until the time is up (and at least
    ``count`` requests each); otherwise each sends ``count`` requests,
    cut short after ``budget_s``. Client 0 hot-swaps the model through
    ``paths`` every ``reload_every`` of its requests. With a ``trace``,
    every other op is recorded as a ``serve.op`` span, so traced and
    plain ops interleave under identical load.
    """
    logs = [ClientLog(c) for c in range(len(streams))]
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    budget_end = None if budget_s is None else start + budget_s
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(log, url, stream, paths, deadline, count, budget_end, reload_every, trace),
            name=f"ledger-client-{log.client}",
        )
        for log, stream in zip(logs, streams)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return {"logs": logs, "wall": time.perf_counter() - start, "streams": streams}


def summarize(run: Dict[str, object], engines: Sequence[PredictionEngine]) -> Dict[str, object]:
    """Check every answer against the in-process engines and fold the logs.

    An answer is correct when it is bit-identical to what one of
    ``engines`` (one per bundle the model was swapped between) predicts
    in this process. A typed rejection is counted as shed; anything else
    that is not a correct answer is a failure. Both miss their latency.
    """
    references: Dict[Tuple[int, int], List[np.ndarray]] = {}
    latencies: List[float] = []
    traced: List[float] = []
    plain: List[float] = []
    failures: List[str] = []
    reloads: List[float] = []
    attempted = shed = 0
    result_err = 0.0
    streams = run["streams"]
    for log in run["logs"]:  # type: ignore[union-attr]
        reloads.extend(log.reloads)
        for n, (idx, seconds, answer) in enumerate(log.ops):
            attempted += 1
            if isinstance(answer, REJECTIONS):
                shed += 1
                continue
            if isinstance(answer, Exception):
                failures.append(f"client {log.client} op {n}: {type(answer).__name__}: {answer}")
                continue
            key = (log.client, idx)
            if key not in references:
                request = streams[log.client][idx]  # type: ignore[index]
                references[key] = [e.predict(request.targets, z=request.z) for e in engines]
            refs = references[key]
            if any(np.array_equal(answer, ref) for ref in refs):
                latencies.append(seconds)
                (traced if carries_span(n) else plain).append(seconds)
            else:
                gap = min(
                    float(np.max(np.abs(answer - ref))) if answer.shape == ref.shape else np.inf
                    for ref in refs
                )
                result_err = max(result_err, gap)
                failures.append(
                    f"client {log.client} op {n}: answer differs from the in-process "
                    f"engine by {gap:.3e}"
                )
    return {
        "attempted": attempted,
        "shed": shed,
        "failures": failures,
        "latencies": latencies,
        "traced": traced,
        "plain": plain,
        "reloads": reloads,
        "wall": run["wall"],
        "result_err": result_err,
    }
