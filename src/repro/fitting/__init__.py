"""Fitting service: durable, parallel, resumable MLE fit jobs.

The paper's expensive half is *fitting* — hundreds of likelihood
evaluations, each a full generate-and-factorize of ``Sigma(theta)``
(§III, Figures 3-4) — and ``MLEstimator.fit`` alone is a blocking,
single-process, lose-everything-on-kill call. This package makes it a
managed workflow, the way ExaGeoStatR wraps ExaGeoStat's fitting loop
and Hong et al. (2019) motivate routine re-fitting across approximation
levels.

The fit itself is not written here. :mod:`repro.mle.estimator` states it
once as three steps — ``plan_fit`` → a ``FitPlan``, ``run_leg`` (one
optimizer run from one of the plan's starts), ``merge_legs`` → the
``FitResult`` — and ``MLEstimator.fit`` runs them in a loop in the
caller's process. This package runs the *same* three steps with each
leg in its own process and everything in between on disk:

* :mod:`repro.fitting.jobs` — :class:`FitJobSpec` (what to fit: data or
  bundle ref, kernel, substrate, optimizer settings, multistart seed),
  whose ``resolve()`` rebuilds ``(estimator, plan)`` in any process, and
  :class:`JobStore`, the crash-recoverable on-disk ledger with
  per-iteration log-likelihood traces;
* :mod:`repro.fitting.checkpoint` — atomic persistence of the
  optimizer's :class:`~repro.optim.neldermead.SimplexState`, so a
  killed leg resumes bit-identically to an uninterrupted run;
* :mod:`repro.fitting.orchestrator` — :class:`FitOrchestrator`, which
  schedules a job's legs — one per start, then finalize (``merge_legs``
  + save a :class:`~repro.serving.store.ModelBundle`) — across worker
  processes with bounded concurrency and respawns the ones that die.

:class:`~repro.serving.server.ServingServer` mounts the orchestrator as
``POST /v1/fit`` + ``GET /v1/jobs/<id>`` and hot-reloads the target
model when a job lands, closing the observe → refit → serve loop with
zero downtime.

Fit as a job, in process:

>>> store = JobStore("fit-jobs")                        # doctest: +SKIP
>>> with FitOrchestrator(store, max_workers=4) as orch: # doctest: +SKIP
...     job_id = orch.submit(FitJobSpec(locations=locs, z=z,
...                                     n_starts=4, seed=7))
...     record = orch.wait(job_id)
...     record["result"]["theta"]

Refit over HTTP (see ``examples/refit_pipeline.py``):

>>> client.fit(model_id="soil", from_model="soil", z=new_obs)  # doctest: +SKIP
>>> client.wait_job("job-000001")                              # doctest: +SKIP
"""

from .checkpoint import Checkpointer, load_state, save_state
from .jobs import FitJobSpec, JobStore
from .orchestrator import FitOrchestrator

__all__ = [
    "Checkpointer",
    "FitJobSpec",
    "FitOrchestrator",
    "JobStore",
    "load_state",
    "save_state",
]
