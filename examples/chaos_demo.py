#!/usr/bin/env python
"""Chaos engineering demo: break the serving stack on purpose, watch it hold.

A walk through the resilience layer, end to end:

1. **Serve** a persisted model from a multi-process
   :class:`~repro.serving.ServingServer`.
2. **Arm a deterministic fault plan** — the 30th pipe message is
   delayed, the 50th engine call raises, the 80th pipe message
   SIGKILLs its worker. Seeded and hit-counted across processes, so
   this script misbehaves *identically* on every run.
3. **Hammer** the endpoint with retrying clients while the faults
   fire: the router respawns the killed worker, circuit breakers track
   engine failures, and every successful answer still bit-matches the
   reference — chaos degrades service, it never corrupts it.
4. **Corrupt a bundle on disk** and watch the registry quarantine it
   and fall back to the last-known-good engine generation, with the
   response flagged ``degraded``.
5. **Inspect the wreckage**: the plan's fired-fault journal and the
   server's counters and breaker states reconcile with what happened —
   the fleet's request count includes the killed worker's, because the
   demo scrapes metrics on the last pipe message before the kill.

Run:  python examples/chaos_demo.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import MaternCovariance
from repro.mle import PredictionEngine
from repro.resilience import FaultPlan, FaultRule, RetryPolicy, arm, disarm
from repro.serving import ModelBundle, ServingClient, ServingServer

N_TRAIN = 400
N_CLIENTS = 4
N_REQUESTS = 150


def build_bundle(root: Path, name: str, theta) -> Path:
    locs, _, _ = sort_locations(generate_irregular_grid(N_TRAIN, seed=0))
    model = MaternCovariance(*theta)
    z = sample_gaussian_field(locs, model, seed=1)
    bundle = ModelBundle(
        model=model, locations=locs, z=z, variant="full-block", tile_size=100
    )
    bundle.factor = bundle.build_engine().factor()
    return bundle.save(root / f"{name}.bundle")


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="chaos_demo_"))
    path_a = build_bundle(tmp, "a", (1.0, 0.1, 0.5))
    path_b = build_bundle(tmp, "b", (1.6, 0.15, 0.8))
    targets = np.ascontiguousarray(np.random.default_rng(7).random((24, 2)))
    ref_a = PredictionEngine.from_bundle(path_a).predict(targets)

    print("=== arming the fault plan (seeded, cross-process) ===")
    plan = arm(
        FaultPlan(
            rules=[
                FaultRule(site="worker.pipe", action="delay", after=30, count=3,
                          delay=0.05),
                FaultRule(site="engine.predict", action="raise", after=50, count=2),
                FaultRule(site="worker.pipe", action="kill", after=80),
            ],
            seed=42,
            state_dir=tmp / "chaos",
        ),
        propagate=True,  # worker processes arm themselves from the env
    )
    for rule in plan.rules:
        print(f"  {rule.site:>16}: {rule.action} on hits "
              f"{rule.after + 1}..{rule.after + rule.count}")

    # One worker so both models share a registry: the demo's max_models=1
    # LRU eviction is what forces "a" to rehydrate from (corrupted) disk.
    with ServingServer(
        {"a": str(path_a), "b": str(path_b)},
        num_workers=1,
        max_worker_restarts=4,
        registry_options={"max_models": 1},
        enable_fitting=False,
    ) as server:
        print(f"\n=== hammering {server.url} with {N_CLIENTS} retrying clients ===")
        answers, errors = [], []
        lock = threading.Lock()

        def hammer(n_requests: int) -> None:
            countdown = [n_requests]

            def client_loop() -> None:
                policy = RetryPolicy(max_attempts=3, base_delay=0.02, seed=5)
                with ServingClient(server.url, retry_policy=policy) as cli:
                    while True:
                        with lock:
                            if countdown[0] <= 0:
                                return
                            countdown[0] -= 1
                        try:
                            got = cli.predict("a", targets, deadline=30.0)
                            with lock:
                                answers.append(got)
                        except Exception as exc:  # noqa: BLE001 - demo tally
                            with lock:
                                errors.append(exc)

            threads = [threading.Thread(target=client_loop) for _ in range(N_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        # The router keeps a dead worker's counters only as last scraped,
        # so scrape on the last pipe message before the kill rule fires:
        # every predict is one pipe message, and so is the scrape.
        kill = next(rule for rule in plan.rules if rule.action == "kill")
        hammer(kill.after - 1)
        with ServingClient(server.url) as cli:
            cli.metrics()
        hammer(N_REQUESTS - (kill.after - 1))

        wrong = sum(not np.array_equal(got, ref_a) for got in answers)
        print(f"  {len(answers)} answered, {len(errors)} errored, {wrong} wrong")
        print(f"  worker respawns: {server.n_worker_restarts}")
        assert wrong == 0, "chaos must never corrupt an answer"

        print("\n=== corrupting a's bundle on disk ===")
        with ServingClient(server.url) as cli:
            cli.predict("b", targets)  # max_models=1: evicts a's warm engine
            payload = path_a / "arrays.npz"
            data = bytearray(payload.read_bytes())
            data[len(data) // 2] ^= 0xFF
            payload.write_bytes(bytes(data))
            value, flags = cli.predict("a", targets, detail=True)
            print(f"  degraded={flags['degraded']}  "
                  f"bit-identical to last-known-good: {np.array_equal(value, ref_a)}")
            assert flags["degraded"] and np.array_equal(value, ref_a)
            quarantined = sorted(p.name for p in tmp.glob("a.bundle.corrupt*"))
            print(f"  quarantined: {quarantined}")

            print("\n=== the wreckage, reconciled ===")
            for event in plan.fired():
                print(f"  fired: {event['site']:>16} hit {event['hit']:>3} "
                      f"-> {event['action']} (pid {event['pid']})")
            metrics = cli.metrics()
            counters = metrics["aggregate"]["counters"]
            print(f"  service counters: "
                  f"{ {k: counters[k] for k in ('requests', 'completed', 'rejected_overload', 'errors', 'degraded')} }")
            # Every predict sent (the hammering plus b's and a's above)
            # is counted once, across the kill and the respawn.
            assert counters["requests"] == len(answers) + len(errors) + 2, counters
            print(f"  worker breakers: "
                  f"{ {k: v['state'] for k, v in metrics['worker_breakers'].items()} }")
    disarm()
    print("\ndone: kills respawned, corruption quarantined, zero wrong answers.")


if __name__ == "__main__":
    main()
