"""Discrete-event simulation of distributed task execution.

Simulates the tile Cholesky (dense or TLR) task DAG over a cluster with
the 2-D block-cyclic tile distribution Chameleon/HiCMA use on Shaheen-2:

* tile ``(i, j)`` lives on node ``(i mod pr) * pc + (j mod pc)``;
* a task executes on the node owning its output tile;
* each node runs ``cores`` concurrent workers;
* a remote input adds a transfer delay ``latency + bytes/bandwidth``,
  paid once per (producing task, consuming node) pair — the runtime
  caches received replicas, as StarPU's MPI cache does;
* list scheduling in priority order (panel tasks first), which is the
  same heuristic the real runtime applies.

The simulator is exact over the explicit task graph, so it is quadratic
to cubic in the tile count — use it at small ``nt`` to validate the
closed-form estimates in :mod:`.analytic` (tests do exactly that) and
for scheduling/distribution ablations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from .cluster import ClusterSpec
from .flops import (
    TaskCost,
    dense_tile_bytes,
    gemm_flops,
    lr_syrk_flops,
    lr_trsm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from .rankmodel import DEFAULT_RANK_MODEL, RankModel

__all__ = ["SimTask", "SimReport", "DistributedSimulator"]


@dataclass
class SimTask:
    """A node in the simulated task DAG."""

    tid: int
    name: str
    out_tile: Tuple[int, int]
    in_tiles: List[Tuple[int, int]]
    cost: TaskCost
    priority: int
    deps: List[int] = field(default_factory=list)
    # Filled during simulation:
    start: float = 0.0
    finish: float = 0.0
    node: int = -1


@dataclass
class SimReport:
    """Outcome of one simulated execution.

    Attributes
    ----------
    makespan_s:
        Simulated wall-clock of the whole DAG.
    total_flops:
        Sum of task flops.
    comm_bytes:
        Total bytes moved between nodes.
    comm_events:
        Number of inter-node transfers.
    mem_per_node_bytes:
        Max over nodes of resident tile bytes.
    oom:
        True when some node's resident tiles exceed its memory.
    node_busy_s:
        Per-node total busy seconds (load-balance diagnostics).
    n_tasks:
        Task count.
    """

    makespan_s: float
    total_flops: float
    comm_bytes: float
    comm_events: int
    mem_per_node_bytes: float
    oom: bool
    node_busy_s: np.ndarray
    n_tasks: int

    def utilization(self, cluster: ClusterSpec) -> float:
        """Aggregate worker utilization in [0, 1]."""
        if self.makespan_s <= 0:
            return 0.0
        cap = self.makespan_s * cluster.n_nodes * cluster.node.cores
        return float(np.sum(self.node_busy_s) / cap)


class DistributedSimulator:
    """Builds and simulates Cholesky task DAGs on a modeled cluster.

    Parameters
    ----------
    cluster:
        Hardware model (nodes, cores, network).
    rank_model:
        TLR tile-rank model (TLR variant only).
    """

    def __init__(
        self, cluster: ClusterSpec, rank_model: RankModel = DEFAULT_RANK_MODEL
    ) -> None:
        self.cluster = cluster
        self.rank_model = rank_model
        self.pr, self.pc = cluster.grid_shape()

    # ------------------------------------------------------------- mapping
    def owner(self, i: int, j: int) -> int:
        """Node owning tile ``(i, j)`` under 2-D block-cyclic distribution."""
        return (i % self.pr) * self.pc + (j % self.pc)

    # ---------------------------------------------------------- DAG builds
    def build_cholesky_dag(
        self, nt: int, nb: int, *, variant: str = "full-tile", acc: float = 1e-9
    ) -> List[SimTask]:
        """Symbolic right-looking Cholesky DAG with per-task roofline costs.

        Dependencies are inferred with the same last-writer/readers rules
        as the real runtime, applied to symbolic tile coordinates.
        """
        if variant not in ("full-tile", "tlr"):
            raise SimulationError(f"unsupported simulated variant {variant!r}")
        ranks: Optional[np.ndarray] = None
        if variant == "tlr":
            ranks = self.rank_model.rank_array(max(nt, 2), acc, nb)

        def tile_rank(i: int, j: int) -> int:
            assert ranks is not None
            return int(ranks[abs(i - j) - 1])

        def tile_bytes(i: int, j: int) -> float:
            if variant == "tlr" and i != j:
                return 8.0 * 2 * nb * tile_rank(i, j)
            return dense_tile_bytes(nb)

        tasks: List[SimTask] = []
        last_writer: Dict[Tuple[int, int], int] = {}
        readers: Dict[Tuple[int, int], List[int]] = {}

        def add(name: str, out: Tuple[int, int], ins: List[Tuple[int, int]], cost: TaskCost, prio: int) -> None:
            tid = len(tasks)
            t = SimTask(tid, name, out, ins, cost, prio)
            deps: set[int] = set()
            for tile in ins:
                if tile in last_writer:
                    deps.add(last_writer[tile])
                readers.setdefault(tile, []).append(tid)
            if out in last_writer:
                deps.add(last_writer[out])
            deps.update(readers.get(out, []))
            deps.discard(tid)
            t.deps = sorted(deps)
            last_writer[out] = tid
            readers[out] = []
            tasks.append(t)

        for k in range(nt):
            base = nt - k
            add("potrf", (k, k), [], TaskCost(potrf_flops(nb), 2 * dense_tile_bytes(nb)), 3 * base)
            for i in range(k + 1, nt):
                if variant == "tlr":
                    kr = tile_rank(i, k)
                    c = TaskCost(lr_trsm_flops(nb, kr), dense_tile_bytes(nb) + 2 * tile_bytes(i, k))
                else:
                    c = TaskCost(trsm_flops(nb), 3 * dense_tile_bytes(nb))
                add("trsm", (i, k), [(k, k)], c, 2 * base)
            for i in range(k + 1, nt):
                if variant == "tlr":
                    kr = tile_rank(i, k)
                    c = TaskCost(lr_syrk_flops(nb, kr), 2 * dense_tile_bytes(nb) + tile_bytes(i, k))
                else:
                    c = TaskCost(syrk_flops(nb), 3 * dense_tile_bytes(nb))
                add("syrk", (i, i), [(i, k)], c, base)
                for j in range(k + 1, i):
                    if variant == "tlr":
                        kij, kik, kjk = tile_rank(i, j), tile_rank(i, k), tile_rank(j, k)
                        kk = kij + kik
                        fl = 4.0 * kik * kjk * nb + 8.0 * nb * kk * kk + 22.0 * kk**3
                        by = tile_bytes(i, k) + tile_bytes(j, k) + 2 * tile_bytes(i, j)
                        c = TaskCost(fl, by)
                    else:
                        c = TaskCost(gemm_flops(nb, nb, nb), 4 * dense_tile_bytes(nb))
                    add("gemm", (i, j), [(i, k), (j, k)], c, base)
        return tasks

    # ----------------------------------------------------------- simulate
    def _task_seconds(self, cost: TaskCost) -> float:
        node = self.cluster.node
        per_core = node.peak_gflops / node.cores * node.eff_dense * 1e9
        compute = cost.flops / per_core
        memory = cost.bytes / (node.mem_bw_gbs * 1e9 * 0.25)
        return max(compute, memory)

    def _transfer_seconds(self, nbytes: float) -> float:
        return self.cluster.net_latency_us * 1e-6 + nbytes / (self.cluster.net_bw_gbs * 1e9)

    def simulate(self, tasks: List[SimTask], nb: int, *, variant: str = "full-tile") -> SimReport:
        """List-schedule the DAG and return the simulated profile.

        Ready tasks are dispatched in (priority, insertion) order to the
        earliest-free worker of the node owning their output tile.
        Remote inputs delay the start by the modeled transfer time, paid
        once per (producer, destination-node).
        """
        p = self.cluster.n_nodes
        cores = self.cluster.node.cores
        worker_free = np.zeros((p, cores), dtype=np.float64)
        node_busy = np.zeros(p, dtype=np.float64)
        replicas: Dict[Tuple[int, int], float] = {}  # (producer tid, node) -> avail time
        comm_bytes = 0.0
        comm_events = 0

        n_tasks = len(tasks)
        indeg = np.zeros(n_tasks, dtype=np.int64)
        dependents: List[List[int]] = [[] for _ in range(n_tasks)]
        for t in tasks:
            indeg[t.tid] = len(t.deps)
            for d in t.deps:
                dependents[d].append(t.tid)

        ready: List[Tuple[int, int, int]] = []  # (-priority, tid, tid)
        for t in tasks:
            if indeg[t.tid] == 0:
                heapq.heappush(ready, (-t.priority, t.tid, t.tid))

        by_tile_producer: Dict[Tuple[int, int], int] = {}
        finished = 0
        while ready:
            _, _, tid = heapq.heappop(ready)
            t = tasks[tid]
            node = self.owner(*t.out_tile)
            data_ready = 0.0
            for dep in t.deps:
                prod = tasks[dep]
                avail = prod.finish
                if prod.node != node:
                    key = (dep, node)
                    if key not in replicas:
                        nbytes = _tile_xfer_bytes(prod.out_tile, nb, variant, self.rank_model, t)
                        replicas[key] = prod.finish + self._transfer_seconds(nbytes)
                        comm_bytes += nbytes
                        comm_events += 1
                    avail = replicas[key]
                data_ready = max(data_ready, avail)
            w = int(np.argmin(worker_free[node]))
            start = max(data_ready, worker_free[node, w])
            dur = self._task_seconds(t.cost)
            t.start, t.finish, t.node = start, start + dur, node
            worker_free[node, w] = t.finish
            node_busy[node] += dur
            by_tile_producer[t.out_tile] = tid
            finished += 1
            for dep_tid in dependents[tid]:
                indeg[dep_tid] -= 1
                if indeg[dep_tid] == 0:
                    heapq.heappush(ready, (-tasks[dep_tid].priority, dep_tid, dep_tid))
        if finished != n_tasks:
            raise SimulationError(
                f"dependency cycle: executed {finished} of {n_tasks} tasks"
            )

        # Memory: owned tiles per node (lower triangle) + replica overhead.
        nt = 1 + max(max(t.out_tile) for t in tasks) if tasks else 0
        mem = np.zeros(p, dtype=np.float64)
        for i in range(nt):
            for j in range(i + 1):
                if variant == "tlr" and i != j:
                    k = int(self.rank_model.rank_array(max(nt, 2), 1e-9, nb)[abs(i - j) - 1])
                    nbytes = 8.0 * 2 * nb * k
                else:
                    nbytes = dense_tile_bytes(nb)
                mem[self.owner(i, j)] += nbytes
        mem_max = float(mem.max() * 1.15) if nt else 0.0
        makespan = float(max((t.finish for t in tasks), default=0.0))
        return SimReport(
            makespan_s=makespan,
            total_flops=float(sum(t.cost.flops for t in tasks)),
            comm_bytes=comm_bytes,
            comm_events=comm_events,
            mem_per_node_bytes=mem_max,
            oom=mem_max > self.cluster.node.mem_bytes,
            node_busy_s=node_busy,
            n_tasks=n_tasks,
        )


def _tile_xfer_bytes(
    tile: Tuple[int, int], nb: int, variant: str, rank_model: RankModel, consumer: SimTask
) -> float:
    """Bytes on the wire when ``tile`` is shipped to a remote consumer."""
    i, j = tile
    if variant == "tlr" and i != j:
        nt = max(abs(i - j) + 1, 2)
        k = int(rank_model.rank_array(nt + 1, 1e-9, nb)[abs(i - j) - 1])
        return 8.0 * 2 * nb * k
    return dense_tile_bytes(nb)
