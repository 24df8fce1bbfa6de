"""JobStore: spec round-trips, state machine, and crash recovery."""

from __future__ import annotations

import json
import multiprocessing
import threading

import numpy as np
import pytest

from repro.config import use_config
from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import FittingError, JobNotFoundError
from repro.fitting import FitOrchestrator
from repro.fitting.checkpoint import save_state
from repro.fitting.jobs import FitJobSpec, JobStore
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator
from repro.serving import ModelBundle, load_model
from repro.substrate import Substrate
from repro.optim import OptimizeResult
from repro.optim.neldermead import SimplexState, multistart_points


@pytest.fixture(scope="module")
def data():
    locs = generate_irregular_grid(64, seed=0)
    z = sample_gaussian_field(locs, MaternCovariance(1.0, 0.1, 0.5), seed=1)
    return locs, z


class TestFitJobSpec:
    def test_round_trip_with_inline_arrays(self, data, tmp_path):
        locs, z = data
        spec = FitJobSpec(
            locations=locs,
            z=z,
            variant="full-tile",
            tile_size=16,
            n_starts=3,
            seed=11,
            maxiter=50,
            bounds={"lower": [0.01, 0.001, 0.1], "upper": [10.0, 2.0, 4.0]},
            model_id="m1",
        )
        spec.save(tmp_path)
        loaded = FitJobSpec.load(tmp_path)
        np.testing.assert_array_equal(loaded.locations, locs)
        np.testing.assert_array_equal(loaded.z, z)
        assert loaded.variant == "full-tile"
        assert loaded.tile_size == 16
        assert loaded.n_starts == 3 and loaded.seed == 11
        assert loaded.bounds == spec.bounds
        assert loaded.model_id == "m1"

    def test_interrupted_array_write_leaves_no_torn_file(
        self, data, tmp_path, monkeypatch
    ):
        """``spec_arrays.npz`` goes through ``atomic_write``: a write that
        dies half-way must not leave a truncated file under the real
        name for ``JobStore.create`` to commit and every leg to trip on."""
        import repro.fitting.jobs as jobs_module

        def torn_savez(file, **arrays):
            fh = open(file, "wb") if isinstance(file, (str, jobs_module.Path)) else file
            fh.write(b"PK\x03\x04 half a zip")
            fh.flush()
            raise OSError("disk full")

        monkeypatch.setattr(jobs_module.np, "savez", torn_savez)
        locs, z = data
        with pytest.raises(OSError):
            FitJobSpec(locations=locs, z=z).save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_round_trip_with_bundle_reference(self, data, tmp_path):
        locs, z = data
        from repro.serving import ModelBundle

        model = MaternCovariance(1.3, 0.2, 0.7)
        bundle_path = ModelBundle(
            model=model, locations=locs, z=z, variant="full-block"
        ).save(tmp_path / "b.bundle")
        spec = FitJobSpec(bundle_path=str(bundle_path), warm_start=True, maxiter=30)
        spec.save(tmp_path / "job")
        loaded = FitJobSpec.load(tmp_path / "job")
        assert loaded.locations is None and loaded.z is None
        estimator, plan = loaded.resolve()
        # Data and model come from the bundle; warm start = bundle theta.
        assert estimator.locations.shape == locs.shape
        np.testing.assert_array_equal(plan.x0, model.theta)
        np.testing.assert_array_equal(plan.starts[0], model.theta)
        assert plan.warm_start is True

    def test_resolution_matches_in_process_fit_inputs(self, data):
        """The spec's plan — bounds / x0 / starts / tolerances — is the
        plan MLEstimator.fit makes for the same settings, and resolves
        the documented defaults."""
        from repro.mle import MLEstimator
        from repro.optim.bounds import empirical_start

        locs, z = data
        spec = FitJobSpec(locations=locs, z=z, n_starts=4, seed=13)
        _, plan = spec.resolve()
        est = MLEstimator(locs, z)
        lower, upper = est.default_bounds()
        np.testing.assert_array_equal(plan.lower, lower)
        np.testing.assert_array_equal(plan.upper, upper)
        np.testing.assert_array_equal(plan.x0, empirical_start(est.z, lower, upper))
        expected = multistart_points(lower, upper, n_starts=4, x0=plan.x0, seed=13)
        assert len(plan.starts) == 4
        for a, b in zip(plan.starts, expected):
            np.testing.assert_array_equal(a, b)
        in_process = est.plan_fit(
            x0=None, bounds=None, maxiter=spec.maxiter, ftol=spec.ftol,
            xtol=spec.xtol, n_starts=4, seed=13,
        )
        assert in_process.options() == plan.options()

    def test_refit_z_in_original_order_is_realigned_by_the_bundle_perm(
        self, tmp_path
    ):
        """Regression: 'same stations, new measurements' with unsorted
        original locations — inline z arrives in the user's original row
        order, the bundle's locations are Morton-permuted, and the
        persisted permutation must realign them. Without it the MLE
        would silently fit shuffled (location, value) pairs."""
        from repro.mle import MLEstimator

        rng = np.random.default_rng(3)
        locs = np.ascontiguousarray(rng.random((64, 2)))  # NOT pre-sorted
        model = MaternCovariance(1.0, 0.1, 0.5)
        z1 = sample_gaussian_field(locs, model, seed=1)
        est = MLEstimator(locs, z1, variant="full-block")
        assert est._perm is not None and not np.array_equal(
            est._perm, np.arange(64)
        ), "test needs a non-identity Morton permutation"
        fit = est.fit(maxiter=15)
        bundle_path = est.save_fit(fit, tmp_path / "b.bundle")

        z2 = sample_gaussian_field(locs, MaternCovariance(1.5, 0.2, 0.8), seed=9)
        estimator, _ = FitJobSpec(bundle_path=str(bundle_path), z=z2).resolve()
        # The resolved estimator pairs each stored location with the new
        # measurement taken at that station.
        np.testing.assert_array_equal(estimator.z, z2[est._perm])
        # End-to-end: same theta as fitting (locs, z2) directly.
        ref = MLEstimator(locs, z2, variant="full-block").fit(maxiter=25)
        job_fit = estimator.fit(maxiter=25)
        np.testing.assert_array_equal(job_fit.theta, ref.theta)

        with pytest.raises(FittingError):
            FitJobSpec(bundle_path=str(bundle_path), z=z2[:10]).resolve()

        # Chained refits: the refit bundle must persist the COMPOSED
        # original→stored permutation, so a second-generation refit
        # still accepts z in the original station order.
        estimator2, _ = FitJobSpec(bundle_path=str(bundle_path), z=z2).resolve()
        np.testing.assert_array_equal(estimator2._perm, est._perm)

    def test_seed_pinned_at_submit_time(self, data, tmp_path):
        """A seed-less spec must capture the submitter's configured
        rng_seed in spec.json — workers (possibly spawned with default
        config, or run by a restarted orchestrator) regenerate the same
        start list."""
        from repro.config import use_config

        locs, z = data
        store = JobStore(tmp_path)
        with use_config(rng_seed=777):
            job = store.create(FitJobSpec(locations=locs, z=z, n_starts=3))
        loaded = store.spec(job)
        assert loaded.seed == 777
        _, plan = loaded.resolve()  # default config: must still use 777
        assert plan.seed == 777

    def test_substrate_pinned_at_submit_time(self, data, tmp_path):
        """Like the seed: a leg runs on another thread/process with
        default config, and must factor on the substrate its submitter
        resolved (regression: it read 250 / 1e-9)."""
        import threading

        from repro.config import use_config

        locs, z = data
        store = JobStore(tmp_path)
        with use_config(tile_size=32, tlr_accuracy=1e-5, compression_method="rsvd"):
            job = store.create(FitJobSpec(locations=locs, z=z, variant="tlr"))
        seen = {}

        def leg():  # a fresh thread starts from the default config
            ev = store.spec(job).resolve()[0].evaluator
            seen.update(nb=ev.tile_size, acc=ev.acc, method=ev.compression_method)

        thread = threading.Thread(target=leg)
        thread.start()
        thread.join()
        assert seen == {"nb": 32, "acc": 1e-5, "method": "rsvd"}

    def test_validation_errors(self, data):
        locs, z = data
        with pytest.raises(FittingError):
            FitJobSpec()  # no data at all
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs, z=z[:10])  # length mismatch
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs)  # locations without z
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs, z=z, warm_start=True)  # no theta source
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs, z=z, n_starts=0)
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs, z=z, maxiter=0)
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs, z=z, bounds={"lower": [0.1]})
        with pytest.raises(FittingError):
            FitJobSpec(locations=locs, z=np.stack([z, z], axis=1))  # 2-D z
        # Unknown substrate names fail at submission, not inside a leg.
        with pytest.raises(FittingError, match="variant"):
            FitJobSpec(locations=locs, z=z, variant="bogus")
        with pytest.raises(FittingError, match="compression_method"):
            FitJobSpec(locations=locs, z=z, compression_method="bogus")
        with pytest.raises(FittingError, match="compression_method"):
            FitJobSpec(locations=locs, z=z, compression_method="aca")


class TestMergeRule:
    """What a job's finalize leg does with the starts' results:
    ``MLEstimator.merge_legs`` on the spec's ``(estimator, plan)``."""

    @pytest.fixture(scope="class")
    def resolved(self, data):
        locs, z = data
        return FitJobSpec(locations=locs, z=z, n_starts=3, seed=1).resolve()

    @staticmethod
    def _leg(x, fun, nfev, nit, converged, message, elapsed):
        return OptimizeResult(
            x=np.array(x), fun=fun, nfev=nfev, nit=nit, converged=converged,
            message=message, elapsed=elapsed,
        )

    def test_best_fun_wins_ties_keep_earliest(self, resolved):
        estimator, plan = resolved
        legs = [
            self._leg([1.0], 2.0, 10, 5, True, "a", 0.1),
            self._leg([2.0], 1.0, 20, 6, False, "b", 0.2),
            self._leg([3.0], 1.0, 30, 7, True, "c", 0.3),
        ]
        fit = estimator.merge_legs(plan, legs)
        assert fit.options["best_start"] == 1  # strict <: the tie keeps index 1
        assert fit.theta.tolist() == [2.0]
        assert fit.optimizer.nfev == 60 and fit.optimizer.nit == 18
        assert fit.n_evals == 60
        assert fit.loglik == -1.0
        assert (fit.optimizer.converged, fit.optimizer.message) == (False, "b")
        assert fit.time_total == pytest.approx(0.6)
        assert fit.time_per_iteration == pytest.approx(0.01)
        # The legs themselves are left as they were reported.
        assert legs[1].nfev == 20

    def test_incomplete_results_rejected(self, resolved):
        estimator, plan = resolved
        leg = self._leg([1.0], 2.0, 10, 5, True, "a", 0.1)
        with pytest.raises(FittingError):
            estimator.merge_legs(plan, [leg, None, leg])  # a start never reported
        with pytest.raises(FittingError):
            estimator.merge_legs(plan, [leg])  # fewer legs than starts


class TestJobStore:
    def _spec(self, data):
        locs, z = data
        return FitJobSpec(locations=locs, z=z, n_starts=2, maxiter=20)

    def test_create_assigns_sequential_ids_and_queued_state(self, data, tmp_path):
        store = JobStore(tmp_path)
        a = store.create(self._spec(data))
        b = store.create(self._spec(data))
        assert [a, b] == ["job-000001", "job-000002"]
        assert store.state(a)["status"] == "queued"
        assert store.state(a)["n_starts"] == 2
        assert [s["job_id"] for s in store.list_jobs()] == [a, b]

    def test_ids_continue_after_reopen(self, data, tmp_path):
        store = JobStore(tmp_path)
        store.create(self._spec(data))
        reopened = JobStore(tmp_path)
        assert reopened.create(self._spec(data)) == "job-000002"

    def test_unknown_job_raises_typed_error(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobNotFoundError):
            store.state("job-999999")
        with pytest.raises(FittingError):
            store.update("job-999999", status="done")

    def test_update_rejects_unknown_status(self, data, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(self._spec(data))
        with pytest.raises(FittingError):
            store.update(job, status="exploded")

    def test_start_artifacts_round_trip(self, data, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(self._spec(data))
        result = {"x": [1.0, 2.0, 3.0], "fun": -5.0, "nfev": 42, "nit": 17,
                  "converged": True, "message": "ok", "elapsed": 1.5}
        store.write_start_result(job, 0, result)
        assert store.read_start_result(job, 0) == result
        assert store.read_start_result(job, 1) is None
        store.write_start_error(job, 1, ValueError("boom"))
        assert store.read_start_error(job, 1) == {"type": "ValueError", "message": "boom"}

    def test_trace_tolerates_a_torn_final_line(self, data, tmp_path):
        """A worker killed mid-write leaves a partial last line; the
        trace keeps the complete prefix instead of failing."""
        store = JobStore(tmp_path)
        job = store.create(self._spec(data))
        with store.trace_path(job, 0).open("w") as fh:
            fh.write(json.dumps({"iteration": 1, "loglik": -3.0, "theta": [1.0]}) + "\n")
            fh.write('{"iteration": 2, "loglik": -2.')  # torn by the kill
        trace = store.trace(job)
        assert [e["iteration"] for e in trace[0]] == [1]

    def test_recover_resets_orphaned_running_jobs(self, data, tmp_path):
        """Crash recovery: 'running' without an owner goes back to
        'checkpointed' when there is progress on disk, else 'queued'."""
        store = JobStore(tmp_path)
        with_progress = store.create(self._spec(data))
        without_progress = store.create(self._spec(data))
        finished = store.create(self._spec(data))
        store.update(with_progress, status="running")
        store.update(without_progress, status="running")
        store.update(finished, status="done")
        state = SimplexState(
            simplex=np.zeros((4, 3)), fvals=np.zeros(4), iteration=3, nfev=7,
            history=[],
        )
        save_state(store.checkpoint_path(with_progress, 0), state)

        recovered = JobStore(tmp_path)  # a fresh orchestrator's view
        reset = recovered.recover()
        assert sorted(reset) == sorted([with_progress, without_progress])
        assert recovered.state(with_progress)["status"] == "checkpointed"
        assert recovered.state(without_progress)["status"] == "queued"
        assert recovered.state(finished)["status"] == "done"

    def test_recover_sweeps_torn_mid_write_temp_files(self, data, tmp_path):
        """A writer killed between opening its temp file and the
        ``os.replace`` leaves a ``*.tmp`` stray. ``recover()`` removes
        them, the durable copies stay authoritative, and the job still
        resumes from its checkpoint."""
        store = JobStore(tmp_path)
        job = store.create(self._spec(data))
        store.update(job, status="running")
        state = SimplexState(
            simplex=np.zeros((4, 3)), fvals=np.zeros(4), iteration=5, nfev=9,
            history=[],
        )
        save_state(store.checkpoint_path(job, 0), state)

        # Simulate kills mid-write: truncated temp files (named as
        # atomic_write names them, <name>.<pid>.tmp) next to the
        # committed state.json and checkpoint.
        torn_state = store.job_dir(job) / "state.json.4242.tmp"
        torn_state.write_text('{"status": "don')  # cut mid-token
        ckpt = store.checkpoint_path(job, 0)
        torn_ckpt = ckpt.with_name(ckpt.name + ".4242.tmp")
        torn_ckpt.write_bytes(ckpt.read_bytes()[:40])

        recovered = JobStore(tmp_path)
        assert recovered.recover() == [job]
        assert not torn_state.exists() and not torn_ckpt.exists()
        # The committed versions were untouched by the sweep.
        assert recovered.state(job)["status"] == "checkpointed"
        assert recovered.has_checkpoint(job, 0)
        from repro.fitting.checkpoint import load_state

        resumed = load_state(ckpt)
        assert resumed.iteration == 5 and resumed.nfev == 9

    def test_record_includes_trace(self, data, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(self._spec(data))
        with store.trace_path(job, 1).open("w") as fh:
            fh.write(json.dumps({"iteration": 1, "loglik": -1.0, "theta": [1.0]}) + "\n")
        record = store.record(job)
        assert record["trace"]["1"][0]["loglik"] == -1.0
        assert "trace" not in store.record(job, include_trace=False)


# A TLR substrate on which the truncation rule changes the factor's ranks.
TLR = dict(variant="tlr", tile_size=16, acc=1e-3)
SETTINGS = dict(maxiter=12, seed=4)


def _absolute_fit(locs, z):
    """The in-process reference (module level: a spawned child imports it)."""
    with use_config(truncation="absolute"):
        return MLEstimator(locs, z, **TLR).fit(**SETTINGS)


class TestJobsKeepTheWholeSubstrate:
    """Regression: a job dropped the truncation rule twice — a refit of an
    ``absolute`` bundle ran (and republished) ``relative``, and a job built
    under ``use_config(truncation="absolute")`` ran ``relative`` once its
    spec was resolved in a default-config process."""

    def test_refit_of_a_bundle_runs_on_the_bundles_truncation(self, data, tmp_path):
        locs, z = data
        path = ModelBundle(
            model=MaternCovariance(1.0, 0.1, 0.5), locations=locs, z=z,
            truncation="absolute", **TLR,
        ).save(tmp_path / "abs.bundle")
        spec = FitJobSpec(bundle_path=str(path), acc=1e-4)
        assert spec.substrate == Substrate.resolve(load_model(path).substrate, acc=1e-4)
        estimator, _ = spec.resolve()
        assert estimator.evaluator.truncation_rule == "absolute"
        assert estimator.evaluator.acc == 1e-4  # the override still wins

    def test_spec_pins_the_submitters_truncation(self, data, tmp_path):
        locs, z = data
        store = JobStore(tmp_path)
        with use_config(truncation="absolute", compression_batch=2):
            job = store.create(FitJobSpec(locations=locs, z=z, **TLR))
        seen = {}

        def leg():  # a fresh thread starts from the default config
            seen["substrate"] = store.spec(job).resolve()[0].substrate

        thread = threading.Thread(target=leg)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen["substrate"].truncation == "absolute"
        assert seen["substrate"].compression_batch == 2
        raw = json.loads((store.job_dir(job) / "spec.json").read_text())
        assert raw["substrate"] == seen["substrate"].to_meta()

    @pytest.mark.parametrize(
        "start_method",
        [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
    )
    def test_job_matches_in_process_fit_and_republishes_the_rule(
        self, data, tmp_path, start_method, monkeypatch
    ):
        locs, z = data
        # Same BLAS-thread pinning as the orchestrator's parity test: the
        # reference runs in a child of the legs' kind.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with multiprocessing.get_context(start_method).Pool(1) as pool:
            ref = pool.apply(_absolute_fit, (locs, z))
        with use_config(truncation="absolute"):
            fresh = FitJobSpec(locations=locs, z=z, **TLR, **SETTINGS)
        with FitOrchestrator(tmp_path, max_workers=2, start_method=start_method) as orch:
            first = orch.wait(orch.submit(fresh), timeout=300)
            assert first["status"] == "done", first
            refit = orch.wait(
                orch.submit(
                    FitJobSpec(bundle_path=first["bundle_path"], warm_start=True, **SETTINGS)
                ),
                timeout=300,
            )
            assert refit["status"] == "done", refit
        np.testing.assert_array_equal(first["result"]["theta"], ref.theta)
        assert first["result"]["loglik"] == ref.loglik  # the rule moves ranks, so bits
        for record in (first, refit):
            assert load_model(record["bundle_path"]).substrate == ref.substrate
