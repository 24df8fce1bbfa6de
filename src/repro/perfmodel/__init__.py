"""Performance models standing in for the paper's hardware (DESIGN.md §4).

The paper times one MLE iteration on four Intel shared-memory servers
(Fig. 3) and on 256/1024 nodes of the Shaheen-2 Cray XC40 (Fig. 4-5) at
n up to 2M. A pure-Python substrate cannot execute those sizes, so this
subpackage reproduces the *performance structure* instead:

* :mod:`machine` / :mod:`cluster` — hardware descriptions (peak flops,
  sustained efficiencies, memory bandwidth/capacity, interconnect);
* :mod:`flops` — exact per-kernel flop/byte counters for the dense-tile
  and TLR algorithms implemented in :mod:`repro.linalg`, and the
  ``TaskCost`` pair that carries them;
* :mod:`rankmodel` — parametric model of TLR tile ranks vs accuracy and
  tile separation, calibratable against measured ranks;
* :mod:`analytic` — closed-form aggregate time/memory estimates for one
  MLE iteration or prediction at paper scale (roofline per task class),
  with OOM detection;
* :mod:`distsim` — a discrete-event simulator of task execution over a
  2-D block-cyclic tile distribution, cross-validating the closed form
  on small tile counts;
* :mod:`calibrate` — replay a recorded telemetry span sink
  (:mod:`repro.telemetry`) into measured per-phase costs, comparable
  against the analytic predictions;
* :mod:`autotune` — seeded micro-probes (GEMM/POTRF/generation/
  compression/tile-Cholesky) that fit the model's machine constants by
  least squares on the current host into an in-memory
  :class:`~repro.perfmodel.autotune.CalibrationProfile`;
* :mod:`planner` — searches the fitted model for the cheapest feasible
  configuration (tile size, TLR accuracy, compression batch, serving
  workers) with predicted phase times; exposed as
  :func:`repro.plan` and ``GET /v1/plan``. The host is calibrated once
  per process (:func:`~repro.perfmodel.planner.default_profile`); there
  is no second way to make, store or inject a profile beyond
  :func:`~repro.perfmodel.planner.set_default_profile` and an explicit
  ``Planner(profile)``.
"""

from .machine import MachineSpec, MACHINES, get_machine
from .cluster import ClusterSpec, shaheen2
from .flops import (
    TaskCost,
    gemm_flops,
    lr_gemm_flops,
    lr_syrk_flops,
    lr_trsm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from .rankmodel import RankModel, calibrate_rank_model
from .analytic import PerfEstimate, estimate_mle_iteration, estimate_prediction
from .calibrate import compare_to_estimate, load_spans, phase_costs
from .distsim import DistributedSimulator, SimReport
from .autotune import (
    CalibrationProfile,
    ProbeSample,
    autotune,
    fit_constants,
    run_probes,
)
from .planner import (
    Plan,
    Planner,
    default_profile,
    plan,
    planned_tile_size,
    predict_workload,
    set_default_profile,
    task_counts,
)

__all__ = [
    "MachineSpec",
    "MACHINES",
    "get_machine",
    "ClusterSpec",
    "shaheen2",
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "gemm_flops",
    "lr_trsm_flops",
    "lr_syrk_flops",
    "lr_gemm_flops",
    "RankModel",
    "calibrate_rank_model",
    "TaskCost",
    "PerfEstimate",
    "estimate_mle_iteration",
    "estimate_prediction",
    "DistributedSimulator",
    "SimReport",
    "load_spans",
    "phase_costs",
    "compare_to_estimate",
    "CalibrationProfile",
    "ProbeSample",
    "autotune",
    "fit_constants",
    "run_probes",
    "Plan",
    "Planner",
    "default_profile",
    "plan",
    "planned_tile_size",
    "predict_workload",
    "set_default_profile",
    "task_counts",
]
