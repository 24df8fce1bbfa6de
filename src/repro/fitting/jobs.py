"""Fit jobs: the durable unit of work of the fitting service.

A :class:`FitJobSpec` says *what to fit* — the data (inline arrays or a
reference to an existing :class:`~repro.serving.store.ModelBundle`), the
kernel family, the substrate (full-block / full-tile / TLR), and the
optimizer settings including the multistart seed. Everything in it is
JSON + ``.npz`` serializable, so a job survives the process that
submitted it. :meth:`FitJobSpec.resolve` turns it into the two things a
leg runs on — an :class:`~repro.mle.estimator.MLEstimator` and that
estimator's :class:`~repro.mle.estimator.FitPlan` — and that is all this
module knows about fitting: which starts there are, how a leg runs and
how legs merge belong to the estimator.

A :class:`JobStore` is the on-disk ledger those jobs live in. Each job
is a directory::

    <root>/<job_id>/
        spec.json, spec_arrays.npz     what to fit
        state.json                     queued | running | checkpointed |
                                       done | failed, timestamps, result
        starts/checkpoint_<i>.npz      resumable Nelder-Mead state
        starts/trace_<i>.jsonl         per-iteration (iteration, loglik,
                                       theta) trajectory
        starts/result_<i>.json         one multistart leg's outcome
        starts/error_<i>.json          one leg's typed failure (-1: finalize)
        result.json                    the merged result
        bundle/                        the finished ModelBundle

``state.json`` has a single writer (the orchestrator process); worker
processes only write their own per-leg artifacts. Every file a later
process depends on is written through
:func:`~repro.utils.durable.atomic_write`, so a crash at any point leaves a
recoverable store: :meth:`JobStore.recover` turns orphaned ``running``
jobs back into ``checkpointed``/``queued`` and the orchestrator resumes
them from their checkpoints.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import InitVar, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import get_config
from ..exceptions import FittingError, JobNotFoundError
from ..kernels.covariance import MaternCovariance
from ..mle.estimator import FitPlan, MLEstimator
from ..optim.bounds import validate_bounds
from ..optim.result import HistoryEntry
from ..substrate import Substrate, substrate_view
from ..utils.durable import atomic_write

__all__ = ["FitJobSpec", "JobStore"]

SPEC_NAME = "spec.json"
SPEC_ARRAYS_NAME = "spec_arrays.npz"
STATE_NAME = "state.json"
STARTS_DIR = "starts"
BUNDLE_DIR = "bundle"

#: Legal job states and the transitions the orchestrator drives.
JOB_STATES = ("queued", "running", "checkpointed", "done", "failed")


def _write_json_atomic(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


@dataclass
class FitJobSpec:
    """Everything a worker process needs to run (part of) an MLE fit.

    Data can be given inline (``locations`` + ``z``) or by reference to
    a persisted bundle (``bundle_path``); inline fields override the
    bundle's. The common refit shapes fall out naturally:

    * *fresh fit*: inline ``locations``/``z`` (+ optional model spec);
    * *refit on new observations*: ``bundle_path`` + inline ``z`` —
      same stations, new measurements, with ``z`` in the *original*
      fit's input row order (the bundle's persisted Morton permutation
      realigns it to the stored locations automatically);
    * *warm-start refit*: either of the above with ``warm_start=True``
      and a ``bundle_path`` — the bundle's fitted theta becomes the
      first multistart point, so a drifted model re-converges in a
      fraction of the iterations.

    Attributes
    ----------
    locations, z:
        Inline training data (``(n, d)`` and ``(n,)``).
    bundle_path:
        Directory of a :class:`~repro.serving.store.ModelBundle` to
        take data / model / substrate defaults (and the warm-start
        theta) from.
    model_spec:
        Kernel description (:func:`~repro.serving.store.model_to_spec`
        format); default: the bundle's model, else Matérn.
    metric:
        Distance metric when no model/bundle supplies one.
    substrate:
        The job's :class:`~repro.substrate.Substrate`, resolved on the
        submitter's thread from the keywords ``variant``, ``acc``,
        ``tile_size`` and ``compression_method`` (which read it back)
        over the bundle's substrate, else the submitter's ``Config``.
        ``spec.json`` persists it whole, so every leg factors on it.
    use_morton:
        Morton-reorder the locations (as every fit does by default).
    maxiter, ftol, xtol:
        Optimizer controls (see :func:`~repro.optim.nelder_mead`).
    n_starts, seed:
        Multistart width and the seed of its deterministic start draw
        (unset: the submitter's ``Config.rng_seed``, pinned like the
        substrate).
    x0:
        Explicit starting theta (overrides warm start and the
        empirical default).
    bounds:
        ``{"lower": [...], "upper": [...]}`` optimization box;
        default: the estimator's :meth:`default_bounds`.
    warm_start:
        Seed the first start from the bundle's fitted theta.
    model_id:
        Serving model id the finished fit should be published under
        (the orchestrator's ``on_complete`` hook handles the actual
        registration / hot-reload).
    include_factor:
        Forwarded to :meth:`MLEstimator.save_fit` when the finished
        fit is bundled.
    """

    locations: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    bundle_path: Optional[str] = None
    model_spec: Optional[dict] = None
    metric: str = "euclidean"
    variant: InitVar[Union[str, Substrate, None]] = None
    acc: InitVar[Optional[float]] = None
    tile_size: InitVar[Optional[int]] = None
    compression_method: InitVar[Optional[str]] = None
    use_morton: bool = True
    maxiter: int = 200
    ftol: float = 1e-6
    xtol: float = 1e-6
    n_starts: int = 1
    seed: Optional[int] = None
    x0: Optional[Sequence[float]] = None
    bounds: Optional[dict] = None
    warm_start: bool = False
    model_id: Optional[str] = None
    include_factor: bool = True
    substrate: Substrate = field(init=False)

    def __post_init__(self, variant, acc, tile_size, compression_method) -> None:
        if self.locations is not None:
            self.locations = np.ascontiguousarray(self.locations, dtype=np.float64)
        if self.z is not None:
            self.z = np.ascontiguousarray(self.z, dtype=np.float64)
            if self.z.ndim != 1:
                raise FittingError(
                    f"fit observations must be 1-D, got shape {self.z.shape}"
                )
        if self.locations is None and self.bundle_path is None:
            raise FittingError(
                "a fit job needs data: pass locations+z or a bundle_path"
            )
        if self.locations is not None and self.z is not None:
            if self.z.shape[0] != self.locations.shape[0]:
                raise FittingError(
                    f"z has {self.z.shape[0]} observations for "
                    f"{self.locations.shape[0]} locations"
                )
        if self.locations is not None and self.z is None and self.bundle_path is None:
            raise FittingError("locations were given without observations z")
        base = None
        if self.bundle_path is not None and not isinstance(variant, Substrate):
            from ..serving.store import read_meta  # serving imports fitting

            meta = read_meta(self.bundle_path).get("substrate")
            base = Substrate.from_meta(meta, error=FittingError)
        self.substrate = Substrate.resolve(
            variant, acc=acc, tile_size=tile_size, compression_method=compression_method,
            base=base, n=None if self.locations is None else self.locations.shape[0],
            error=FittingError,
        )
        if self.seed is None:
            self.seed = get_config().rng_seed
        if self.warm_start and self.bundle_path is None:
            raise FittingError("warm_start needs a bundle_path to take theta from")
        if self.n_starts < 1:
            raise FittingError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.maxiter < 1:
            raise FittingError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.ftol <= 0 or self.xtol <= 0:
            raise FittingError(
                f"ftol/xtol must be > 0, got ftol={self.ftol} xtol={self.xtol}"
            )
        if self.bounds is not None:
            try:
                validate_bounds(self.bounds["lower"], self.bounds["upper"])
            except (KeyError, TypeError) as exc:
                raise FittingError(
                    'bounds must be {"lower": [...], "upper": [...]}'
                ) from exc

    # ------------------------------------------------------------ serialize
    def to_dict(self) -> dict:
        """Scalar fields as a JSON-able dict (arrays travel separately)."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("locations", "z")
        }
        out["substrate"] = self.substrate.to_meta()
        if self.x0 is not None:
            out["x0"] = [float(v) for v in self.x0]
        out["has_locations"] = self.locations is not None
        out["has_z"] = self.z is not None
        return out

    def save(self, job_dir: Union[str, Path]) -> Path:
        """Persist the spec under ``job_dir`` (json + npz for arrays)."""
        job_dir = Path(job_dir)
        job_dir.mkdir(parents=True, exist_ok=True)
        _write_json_atomic(job_dir / SPEC_NAME, self.to_dict())
        arrays: Dict[str, np.ndarray] = {}
        if self.locations is not None:
            arrays["locations"] = self.locations
        if self.z is not None:
            arrays["z"] = self.z
        if arrays:
            # Durable before JobStore.create commits the job with its
            # state.json: a committed job must never hold torn arrays.
            with atomic_write(job_dir / SPEC_ARRAYS_NAME, "wb") as fh:
                np.savez(fh, **arrays)
        return job_dir

    @classmethod
    def load(cls, job_dir: Union[str, Path]) -> "FitJobSpec":
        """Read a spec written by :meth:`save`."""
        job_dir = Path(job_dir)
        spec_path = job_dir / SPEC_NAME
        if not spec_path.is_file():
            raise FittingError(f"{job_dir} holds no fit-job spec ({SPEC_NAME})")
        try:
            raw = _read_json(spec_path)
        except json.JSONDecodeError as exc:
            raise FittingError(f"{spec_path} is not valid JSON: {exc}") from exc
        locations = z = None
        arrays_path = job_dir / SPEC_ARRAYS_NAME
        if raw.get("has_locations") or raw.get("has_z"):
            if not arrays_path.is_file():
                raise FittingError(f"{job_dir} spec references missing {SPEC_ARRAYS_NAME}")
            with np.load(arrays_path) as npz:
                locations = npz["locations"] if raw.get("has_locations") else None
                z = npz["z"] if raw.get("has_z") else None
        raw.pop("include_distance_cache", None)  # from builds that persisted distances
        raw = {k: v for k, v in raw.items() if k not in ("has_locations", "has_z")}
        if "substrate" in raw:  # absent from specs written before it was pinned whole
            raw["variant"] = Substrate.from_meta(raw.pop("substrate"), error=FittingError)
        return cls(locations=locations, z=z, **raw)

    # -------------------------------------------------------------- resolve
    def resolve(self, *, runtime=None) -> Tuple[MLEstimator, FitPlan]:
        """Materialize the job: ``(estimator, plan)``.

        The :class:`~repro.mle.estimator.MLEstimator` on the spec's data
        and substrate, and its :class:`~repro.mle.estimator.FitPlan` for
        the spec's optimizer settings. Resolution is deterministic, so
        every process of a job — each leg, the finalizer — rebuilds the
        identical pair from the files on disk.
        """
        from ..serving.store import load_model, model_from_spec  # serving imports fitting

        bundle = None
        if self.bundle_path is not None:
            bundle = load_model(self.bundle_path)
        locations = self.locations if self.locations is not None else (
            bundle.locations if bundle is not None else None
        )
        z = self.z if self.z is not None else (bundle.z if bundle is not None else None)
        if locations is None or z is None:
            raise FittingError(
                "fit job resolves to no data (bundle has no observations and "
                "none were given inline)"
            )
        z = np.asarray(z, dtype=np.float64)
        if (
            self.locations is None
            and self.z is not None
            and bundle is not None
            and bundle.perm is not None
        ):
            # "Same stations, new measurements": inline z follows the
            # original fit's input row order, but the bundle's stored
            # locations are Morton-permuted — realign with the bundle's
            # persisted permutation (the same contract as the z override
            # of MLEstimator.predict).
            if z.shape[0] != len(bundle.perm):
                raise FittingError(
                    f"inline z has {z.shape[0]} observations for the bundle's "
                    f"{len(bundle.perm)} locations"
                )
            z = z[np.asarray(bundle.perm, dtype=np.intp)]
        if z.ndim != 1:
            raise FittingError(f"fit observations must be 1-D, got shape {z.shape}")
        if z.shape[0] != np.asarray(locations).shape[0]:
            raise FittingError(
                f"resolved z has {z.shape[0]} observations for "
                f"{np.asarray(locations).shape[0]} locations"
            )
        if self.model_spec is not None:
            model = model_from_spec(self.model_spec)
        elif bundle is not None:
            model = bundle.model
        else:
            model = MaternCovariance(metric=self.metric)
        estimator = MLEstimator(
            locations,
            z,
            model=model,
            variant=self.substrate,
            use_morton=self.use_morton,
            runtime=runtime,
        )
        if self.locations is None and bundle is not None and bundle.perm is not None:
            # The bundle's rows are already Morton-permuted relative to
            # the *original* fit's input. Compose that permutation with
            # this estimator's own (identity on sorted data), so the
            # refit bundle persists original-order → stored-order — the
            # realignment contract survives any number of refit
            # generations instead of degrading to identity after one.
            source = np.asarray(bundle.perm, dtype=np.intp)
            estimator._perm = (
                source if estimator._perm is None else source[estimator._perm]
            )
        x0 = self.x0
        if x0 is None and self.warm_start and bundle is not None:
            x0 = bundle.model.theta
        bounds = None
        if self.bounds is not None:
            bounds = (self.bounds["lower"], self.bounds["upper"])
        plan = estimator.plan_fit(
            x0=x0,
            bounds=bounds,
            maxiter=self.maxiter,
            ftol=self.ftol,
            xtol=self.xtol,
            n_starts=self.n_starts,
            seed=self.seed,
            warm_start=self.warm_start,
        )
        return estimator, plan


for _name in ("variant", "acc", "tile_size", "compression_method"):
    setattr(FitJobSpec, _name, substrate_view(_name))


class JobStore:
    """On-disk ledger of fit jobs (single-writer ``state.json`` per job).

    Thread-safe within one process; the orchestrator is the only writer
    of job *state*, while worker processes write only their own
    per-start artifact files — so no cross-process locking is needed.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # --------------------------------------------------------------- create
    def create(self, spec: FitJobSpec) -> str:
        """Persist ``spec`` as a new ``queued`` job; returns the job id."""
        with self._lock:
            existing = [
                int(p.name.split("-", 1)[1])
                for p in self.root.iterdir()
                if p.is_dir() and p.name.startswith("job-")
                and p.name.split("-", 1)[1].isdigit()
            ]
            job_id = f"job-{(max(existing) + 1 if existing else 1):06d}"
            job_dir = self.root / job_id
            spec.save(job_dir)
            (job_dir / STARTS_DIR).mkdir(exist_ok=True)
            _write_json_atomic(
                job_dir / STATE_NAME,
                {
                    "job_id": job_id,
                    "status": "queued",
                    "n_starts": spec.n_starts,
                    "model_id": spec.model_id,
                    "created_at": time.time(),
                    "started_at": None,
                    "finished_at": None,
                    "restarts": 0,
                    "error": None,
                    "result": None,
                    "bundle_path": None,
                },
            )
            return job_id

    # --------------------------------------------------------------- lookup
    def job_dir(self, job_id: str) -> Path:
        path = self.root / job_id
        if not (path / STATE_NAME).is_file():
            raise JobNotFoundError(f"fit job {job_id!r} is not in this store")
        return path

    def spec(self, job_id: str) -> FitJobSpec:
        return FitJobSpec.load(self.job_dir(job_id))

    def state(self, job_id: str) -> dict:
        try:
            return _read_json(self.job_dir(job_id) / STATE_NAME)
        except json.JSONDecodeError as exc:
            raise FittingError(f"job {job_id!r} state file is corrupt: {exc}") from exc

    def update(self, job_id: str, **fields: object) -> dict:
        """Merge ``fields`` into the job's state (atomic read-modify-write)."""
        with self._lock:
            state = self.state(job_id)
            status = fields.get("status")
            if status is not None and status not in JOB_STATES:
                raise FittingError(f"unknown job status {status!r}")
            state.update(fields)
            _write_json_atomic(self.job_dir(job_id) / STATE_NAME, state)
            return state

    def list_jobs(self) -> List[dict]:
        """State summaries of every job, in submission order."""
        with self._lock:
            out = []
            for path in sorted(self.root.iterdir()):
                if path.is_dir() and (path / STATE_NAME).is_file():
                    out.append(_read_json(path / STATE_NAME))
            return out

    # ------------------------------------------------------ start artifacts
    def checkpoint_path(self, job_id: str, start: int) -> Path:
        return self.job_dir(job_id) / STARTS_DIR / f"checkpoint_{start}.npz"

    def trace_path(self, job_id: str, start: int) -> Path:
        return self.job_dir(job_id) / STARTS_DIR / f"trace_{start}.jsonl"

    def start_result_path(self, job_id: str, start: int) -> Path:
        return self.job_dir(job_id) / STARTS_DIR / f"result_{start}.json"

    def start_error_path(self, job_id: str, start: int) -> Path:
        return self.job_dir(job_id) / STARTS_DIR / f"error_{start}.json"

    def write_start_result(self, job_id: str, start: int, result: dict) -> None:
        _write_json_atomic(self.start_result_path(job_id, start), result)

    def read_start_result(self, job_id: str, start: int) -> Optional[dict]:
        path = self.start_result_path(job_id, start)
        if not path.is_file():
            return None
        return _read_json(path)

    def write_start_error(self, job_id: str, start: int, exc: BaseException) -> None:
        _write_json_atomic(
            self.start_error_path(job_id, start),
            {"type": type(exc).__name__, "message": str(exc)},
        )

    def read_start_error(self, job_id: str, start: int) -> Optional[dict]:
        path = self.start_error_path(job_id, start)
        if not path.is_file():
            return None
        return _read_json(path)

    def has_checkpoint(self, job_id: str, start: int) -> bool:
        return self.checkpoint_path(job_id, start).is_file()

    def _start_trace(self, job_id: str, start: int) -> Optional[List[dict]]:
        path = self.trace_path(job_id, start)
        if not path.is_file():
            return None
        entries = []
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn final line from a kill; keep the prefix
        return entries

    def trace(self, job_id: str) -> Dict[int, List[dict]]:
        """Per-start ``(iteration, loglik, theta)`` trajectories."""
        n_starts = int(self.state(job_id).get("n_starts", 1))
        traces = ((i, self._start_trace(job_id, i)) for i in range(n_starts))
        return {i: entries for i, entries in traces if entries is not None}

    def history(self, job_id: str, start: int) -> List[HistoryEntry]:
        """A start's trace as optimizer :class:`HistoryEntry` records
        (``fun`` is the negated loglik, matching the minimizer)."""
        return [
            HistoryEntry(
                int(e["iteration"]),
                np.asarray(e["theta"], dtype=np.float64),
                -float(e["loglik"]),
            )
            for e in self._start_trace(job_id, start) or ()
        ]

    def bundle_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / BUNDLE_DIR

    def write_result(self, job_id: str, result: dict) -> None:
        """Persist the job's merged result (written by the finalize
        process; the scheduler reads it back instead of re-merging)."""
        _write_json_atomic(self.job_dir(job_id) / "result.json", result)

    def read_result(self, job_id: str) -> Optional[dict]:
        path = self.job_dir(job_id) / "result.json"
        if not path.is_file():
            return None
        return _read_json(path)

    def record(self, job_id: str, *, include_trace: bool = True) -> dict:
        """The job's state plus (optionally) its per-start traces."""
        rec = self.state(job_id)
        if include_trace:
            rec["trace"] = {str(i): t for i, t in self.trace(job_id).items()}
        return rec

    # -------------------------------------------------------------- recover
    def recover(self) -> List[str]:
        """Reset orphaned ``running`` jobs after a crash or shutdown.

        A job can only be ``running`` while an orchestrator owns it; on
        startup (or after :meth:`~repro.fitting.FitOrchestrator.stop`)
        any job still marked ``running`` lost its owner. Jobs with at
        least one checkpoint or finished start go back to
        ``checkpointed`` (their paid iterations resume); the rest go
        back to ``queued``. Returns the ids that were reset.
        """
        recovered = []
        with self._lock:
            # A writer killed mid-write leaves a ``*.tmp`` behind; the
            # real file (if any) is the last complete version. Sweep
            # the strays so they can never be mistaken for artifacts.
            for pattern in ("*/*.tmp", f"*/{STARTS_DIR}/*.tmp"):
                for stray in self.root.glob(pattern):
                    try:
                        stray.unlink()
                    except OSError:  # pragma: no cover - best effort
                        pass
            for state in self.list_jobs():
                if state.get("status") != "running":
                    continue
                job_id = state["job_id"]
                n_starts = int(state.get("n_starts", 1))
                has_progress = any(
                    self.has_checkpoint(job_id, i)
                    or self.read_start_result(job_id, i) is not None
                    for i in range(n_starts)
                )
                self.update(
                    job_id, status="checkpointed" if has_progress else "queued"
                )
                recovered.append(job_id)
        return recovered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobStore(root={str(self.root)!r}, jobs={len(self.list_jobs())})"
