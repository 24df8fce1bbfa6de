"""The five workloads, their sizes, and the names later issues refer to.

Sizes are chosen so one op costs roughly a quarter of a second on the
2-core reference box: the 40-op workloads then finish their 40 ops
inside the ``run_seconds`` of ``BENCHMARK.json`` and keep cycling the
same schedule until the time is up. ``QUICK`` shrinks every problem for
smoke tests; its output is stamped ``comparable: false``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: The field every workload observes: Matérn theta = (variance, range, smoothness).
TRUE_THETA = (1.0, 0.1, 0.5)

#: Each schedule component is centre * exp(U(-0.3, 0.3)): the region
#: Nelder-Mead actually visits around a fitted theta.
SCHEDULE_LOG_HALF_WIDTH = 0.3


@dataclass(frozen=True)
class Workload:
    """One named workload. ``kind`` is ``"mle"`` or ``"serve"``."""

    name: str
    kind: str
    why: str
    family: str  # "exp" (2-parameter exponential) or "matern" (3-parameter)
    variant: str  # "tlr" or "full-tile"
    n: int
    nb: int
    acc: Optional[float]  # TLR accuracy; None on dense workloads
    theta: Tuple[float, ...]  # schedule centre (mle) or served theta (serve)
    tail_pct: float  # fixed tail percentile, never derived from N
    min_ops: int  # the run is invalid below this many timed ops
    tolerance: float  # result_err gate
    # serve workloads only
    clients: int = 1
    targets_per_request: int = 0
    request_pool: int = 0  # distinct requests cycled (0: every request is new)
    hot_sets_per_client: int = 0
    reload_every: int = 0  # client 0 hot-swaps A<->B every this many requests
    z_override_every: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mle_tlr_exp",
            kind="mle",
            why="the paper's subject: compression and TLR Cholesky do the work, kernels and serving idle",
            family="exp",
            variant="tlr",
            n=1600,
            nb=200,
            acc=1e-9,
            theta=(1.0, 0.1),
            tail_pct=75.0,
            min_ops=40,
            tolerance=1e-6,
        ),
        Workload(
            name="mle_tile_exp",
            kind="mle",
            why="many small dense tiles (nt=26, 3627 tasks/op): the runtime and BLAS-3 tile kernels do the work, compression idles",
            family="exp",
            variant="full-tile",
            n=2080,
            nb=80,
            acc=None,
            theta=(1.0, 0.1),
            tail_pct=75.0,
            min_ops=40,
            tolerance=1e-6,
        ),
        Workload(
            name="mle_tlr_matern",
            kind="mle",
            why="3-parameter Matern with free smoothness: Bessel kv dominates and is fused under factorization; second TLR accuracy",
            family="matern",
            variant="tlr",
            n=1024,
            nb=128,
            acc=1e-7,
            theta=(1.0, 0.1, 0.6),
            tail_pct=75.0,
            min_ops=40,
            tolerance=1e-5,
        ),
        Workload(
            name="serve_points",
            kind="serve",
            why="32-point predicts, 2 keep-alive clients, reload under traffic: client, wire, HTTP edge, router, pipe and batch window are the whole cost",
            family="matern",
            variant="tlr",
            n=1600,
            nb=200,
            acc=1e-7,
            theta=TRUE_THETA,
            tail_pct=95.0,
            min_ops=200,
            tolerance=0.0,
            clients=2,
            targets_per_request=32,
            hot_sets_per_client=2,
            reload_every=150,
        ),
        Workload(
            name="serve_grid",
            kind="serve",
            why="one client, a fresh 18x18 grid per request, every 4th with new observations: cross-covariance generation is the cost, serving overhead is small",
            family="matern",
            variant="full-tile",
            n=1600,
            nb=200,
            acc=None,
            theta=(1.0, 0.1, 0.8),
            tail_pct=75.0,
            min_ops=40,
            tolerance=0.0,
            clients=1,
            targets_per_request=18 * 18,
            request_pool=12,
            z_override_every=4,
        ),
    )
}

#: Tiny sizes for ``--quick`` smoke runs (not comparable to the ledger).
QUICK: Dict[str, Workload] = {
    "mle_tlr_exp": replace(WORKLOADS["mle_tlr_exp"], n=256, nb=64, min_ops=4),
    "mle_tile_exp": replace(WORKLOADS["mle_tile_exp"], n=256, nb=32, min_ops=4),
    "mle_tlr_matern": replace(WORKLOADS["mle_tlr_matern"], n=144, nb=48, min_ops=4),
    "serve_points": replace(
        WORKLOADS["serve_points"], n=256, nb=64, min_ops=8, reload_every=5
    ),
    "serve_grid": replace(
        WORKLOADS["serve_grid"], n=256, nb=64, min_ops=4,
        targets_per_request=6 * 6, request_pool=10,
    ),
}


def workload(name: str, *, quick: bool = False) -> Workload:
    table = QUICK if quick else WORKLOADS
    try:
        return table[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None


def load_benchmark_json(path: Path = BENCHMARK_JSON) -> dict:
    with Path(path).open() as fh:
        return json.load(fh)
