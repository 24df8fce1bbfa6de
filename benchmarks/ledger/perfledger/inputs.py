"""Seeded inputs: every array a workload sees is a function of ``--seed``.

The program under test receives plain arrays; it never sees the seed.
Each input has its own named random stream, so adding a new input later
does not shift the ones already in the committed ledger.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import numpy as np

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.kernels import ExponentialCovariance, MaternCovariance

from .spec import SCHEDULE_LOG_HALF_WIDTH, TRUE_THETA, Workload


def stream(seed: int, tag: str) -> np.random.Generator:
    """The random stream named ``tag`` under ``seed``."""
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode("ascii"))])


def family_model(family: str, theta=None):
    """Template covariance model of a workload's kernel family."""
    model = ExponentialCovariance() if family == "exp" else MaternCovariance()
    return model if theta is None else model.with_theta(np.asarray(theta, dtype=float))


def field(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Irregular unit-square locations and one Matérn realization on them."""
    locations = generate_irregular_grid(n, seed=stream(seed, "locations"))
    z = sample_gaussian_field(
        locations, MaternCovariance(*TRUE_THETA), seed=stream(seed, "field")
    )
    return locations, z


def theta_schedule(w: Workload, count: int, seed: int) -> np.ndarray:
    """``count`` parameter vectors, centre * exp(U(-h, h)) per component."""
    rng = stream(seed, "theta-schedule")
    centre = np.asarray(w.theta, dtype=np.float64)
    h = SCHEDULE_LOG_HALF_WIDTH
    return centre * np.exp(rng.uniform(-h, h, size=(count, centre.size)))


def point_requests(
    m: int, hot_sets: int, client: int, count: int, seed: int
) -> List[np.ndarray]:
    """One client's small-request stream: ``m`` targets per request, a hot
    set on even requests (cycling the client's own ``hot_sets`` sets,
    which fit the engine's cross-distance cache), a never-seen set on
    odd ones."""
    rng = stream(seed, f"points-client-{client}")
    hot = [rng.uniform(0.0, 1.0, size=(m, 2)) for _ in range(hot_sets)]
    return [
        hot[(i // 2) % hot_sets] if i % 2 == 0 else rng.uniform(0.0, 1.0, size=(m, 2))
        for i in range(count)
    ]


def grid_requests(
    w: Workload, seed: int
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """The ``serve_grid`` pool: jittered square grids, every
    ``z_override_every``-th with a fresh observation vector. The pool is
    longer than the engine's cross-distance cache, so cycling it never
    hits: every request pays its full cross-covariance."""
    rng = stream(seed, "grid-requests")
    side = int(round(w.targets_per_request ** 0.5))
    cells = (np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), -1)
             .reshape(-1, 2) + 0.5) / side
    out = []
    for i in range(w.request_pool):
        targets = cells + rng.uniform(-0.4, 0.4, size=cells.shape) / side
        z = None
        if w.z_override_every and (i + 1) % w.z_override_every == 0:
            z = rng.standard_normal(w.n)
        out.append((targets, z))
    return out
