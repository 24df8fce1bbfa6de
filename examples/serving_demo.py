#!/usr/bin/env python
"""Fit → save → serve: the full serving-subsystem workflow.

The paper's workflow fits the Matérn model once and then predicts many
unknown measurements from it. This demo carries that workflow across a
process boundary the way a production deployment would:

1. **Fit** a Matérn model by TLR MLE on 600 training points.
2. **Save** the fit as a model bundle (``meta.json`` + ``arrays.npz``)
   — theta, kernel spec, Morton-ordered locations, observations, and
   the ``Sigma_22`` Cholesky factor.
3. **Serve**: a fresh :class:`~repro.serving.ModelRegistry` (which
   never saw the fit) loads the bundle lazily, and an asyncio
   :class:`~repro.serving.PredictionService` handles a swarm of
   concurrent clients, coalescing their requests into a handful of
   engine calls.
4. **Verify**: served predictions are bit-identical to calling
   ``MLEstimator.predict`` in the fitting process.

Run:  python examples/serving_demo.py
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator
from repro.serving import ModelRegistry, PredictionService

N_TRAIN = 600
N_CLIENTS = 12
TARGETS_PER_CLIENT = 25


async def serve(bundle_path: Path, client_targets, references) -> None:
    """Spin up registry + service, run concurrent clients, report metrics."""
    with ModelRegistry(max_models=4) as registry:
        registry.register("matern-tlr", bundle_path)
        async with PredictionService(registry, max_batch=32) as service:

            async def client(idx: int) -> float:
                t0 = time.perf_counter()
                pred = await service.predict(
                    "matern-tlr", client_targets[idx], deadline=10.0
                )
                latency = time.perf_counter() - t0
                assert np.array_equal(pred, references[idx]), "serving must be bit-identical"
                return latency

            latencies = await asyncio.gather(*[client(i) for i in range(N_CLIENTS)])
            snapshot = service.metrics.snapshot()

    counters = snapshot["counters"]
    print(f"served {counters['completed']} requests from {N_CLIENTS} concurrent clients")
    print(
        f"engine calls: {counters['engine_calls']} "
        f"({counters.get('coalesced_requests', 0)} requests coalesced)"
    )
    print(
        f"client latency: median {sorted(latencies)[len(latencies) // 2] * 1e3:.1f} ms, "
        f"max {max(latencies) * 1e3:.1f} ms"
    )
    print("every prediction bit-identical to the fitting process: yes")


def main() -> None:
    rng = np.random.default_rng(7)
    locs, _, _ = sort_locations(generate_irregular_grid(N_TRAIN, seed=0))
    truth = MaternCovariance(1.0, 0.12, 0.5)
    z = sample_gaussian_field(locs, truth, seed=1)

    # -- 1. fit
    est = MLEstimator(locs, z, variant="tlr", acc=1e-7, tile_size=128)
    fit = est.fit(maxiter=60)
    print(f"fitted theta = {np.round(fit.theta, 4)}  ({fit.n_evals} evaluations)")

    # Per-client target grids, plus the in-process reference predictions.
    client_targets = [
        np.ascontiguousarray(rng.random((TARGETS_PER_CLIENT, 2)))
        for _ in range(N_CLIENTS)
    ]
    references = [est.predict(fit, t) for t in client_targets]

    with tempfile.TemporaryDirectory() as tmp:
        # -- 2. save: the bundle is all a serving worker ever needs
        bundle_path = est.save_fit(fit, Path(tmp) / "matern-tlr.bundle")
        size_kb = sum(f.stat().st_size for f in bundle_path.iterdir()) / 1024
        print(f"saved bundle to {bundle_path.name} ({size_kb:.0f} KiB)")

        # -- 3 & 4. serve from a registry that never saw the fit, verify
        asyncio.run(serve(bundle_path, client_targets, references))


if __name__ == "__main__":
    main()
