"""End-to-end fitting service over HTTP: the closed refit loop.

The headline test drives the ISSUE's acceptance path: ``POST /v1/fit``
→ poll ``GET /v1/jobs/<id>`` → the finished fit is hot-reloaded into
the serving worker and **served predictions switch to the new theta
with zero failed requests under concurrent traffic** — and every
answer produced while the swap was in flight matches either the old or
the new engine bit-for-bit.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.data import generate_irregular_grid, sample_gaussian_field
from repro.exceptions import (
    ConfigurationError,
    FittingError,
    JobNotFoundError,
    ModelNotFoundError,
)
from repro.kernels import MaternCovariance
from repro.mle import MLEstimator, PredictionEngine
from repro.serving import ServingClient, ServingServer

N = 100
MAXITER = 40


@pytest.fixture(scope="module")
def initial_bundle(tmp_path_factory):
    locs = generate_irregular_grid(N, seed=0)
    z = sample_gaussian_field(locs, MaternCovariance(1.0, 0.1, 0.5), seed=1)
    est = MLEstimator(locs, z, variant="full-block")
    fit = est.fit(maxiter=MAXITER)
    path = est.save_fit(fit, tmp_path_factory.mktemp("fit") / "station.bundle")
    return {"locations": locs, "z": z, "path": path, "theta": fit.theta}


@pytest.fixture(scope="module")
def server(initial_bundle):
    with ServingServer(
        {"station": str(initial_bundle["path"])},
        num_workers=2,
        fit_options={"max_workers": 2, "checkpoint_every": 1},
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServingClient(server.url) as cli:
        yield cli


@pytest.fixture(scope="module")
def targets():
    return np.ascontiguousarray(np.random.default_rng(5).random((9, 2)))


def test_refit_to_hot_reload_with_zero_failures_under_traffic(
    server, client, targets, initial_bundle
):
    old_reference = PredictionEngine.from_bundle(initial_bundle["path"]).predict(targets)
    np.testing.assert_array_equal(client.predict("station", targets), old_reference)

    # New observations arrive (the field drifted).
    z_new = sample_gaussian_field(
        initial_bundle["locations"], MaternCovariance(2.0, 0.2, 1.0), seed=9
    )

    # Concurrent traffic hammers the model through the whole refit.
    answers, failures, stop = [], [], threading.Event()

    def hammer():
        with ServingClient(server.url) as cli:
            while not stop.is_set():
                try:
                    answers.append(cli.predict("station", targets))
                except Exception as exc:  # noqa: BLE001 - the assertion target
                    failures.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        submitted = client.fit(
            from_model="station", z=z_new, maxiter=MAXITER, seed=5
        )
        assert submitted["status"] == "queued"
        assert submitted["model_id"] == "station"
        record = client.wait_job(submitted["job_id"], timeout=300)
    finally:
        stop.set()
        for t in threads:
            t.join()

    assert record["status"] == "done" and record["served"] is True
    assert not failures, f"requests failed during the refit: {failures[:3]}"
    assert answers, "the traffic threads never completed a request"

    # Served predictions switched to the new theta, bit-identical to an
    # engine built from the job's bundle.
    new_reference = PredictionEngine.from_bundle(record["bundle_path"]).predict(targets)
    np.testing.assert_array_equal(client.predict("station", targets), new_reference)
    assert not np.array_equal(new_reference, old_reference)

    # In-flight answers saw the old engine or the new one — nothing else.
    for got in answers:
        assert np.array_equal(got, old_reference) or np.array_equal(got, new_reference)

    # Warm start seeded the search from the served model's theta, and the
    # new bundle records the refit's full settings for reproducibility.
    from repro.serving import load_model

    fit_meta = load_model(record["bundle_path"]).info["fit"]
    assert fit_meta["warm_start"] is True
    np.testing.assert_allclose(
        np.asarray(fit_meta["x0"]), initial_bundle["theta"], rtol=1e-12
    )
    assert fit_meta["seed"] == 5


def test_refit_parity_with_in_process_fit(client, targets, initial_bundle):
    """The HTTP fit of new observations equals MLEstimator.fit run by
    hand with the same settings — the service adds durability, not
    drift."""
    locs = initial_bundle["locations"]
    z_new = sample_gaussian_field(locs, MaternCovariance(0.8, 0.15, 0.7), seed=13)
    submitted = client.fit(
        model_id="fresh-model",
        locations=locs,
        z=z_new,
        n_starts=2,
        seed=31,
        maxiter=MAXITER,
        warm_start=False,
    )
    record = client.wait_job(submitted["job_id"], timeout=300)
    ref = MLEstimator(locs, z_new, variant="full-block").fit(
        maxiter=MAXITER, n_starts=2, seed=31
    )
    np.testing.assert_array_equal(
        np.asarray(record["result"]["theta"]), ref.theta
    )
    assert record["result"]["loglik"] == ref.loglik
    # The new model id is now registered and serving the fit.
    reference = PredictionEngine.from_bundle(record["bundle_path"]).predict(targets)
    np.testing.assert_array_equal(client.predict("fresh-model", targets), reference)


def test_job_listing_and_traces_over_http(client):
    jobs = client.jobs()
    assert jobs, "previous tests submitted jobs"
    assert all(j["status"] in ("queued", "running", "checkpointed", "done", "failed")
               for j in jobs)
    done = [j for j in jobs if j["status"] == "done"]
    # Status polls skip the trace entirely (it grows per iteration).
    slim = client.job(done[0]["job_id"], trace=False)
    assert "trace" not in slim and slim["status"] == "done"
    record = client.job(done[0]["job_id"])
    assert record["result"]["loglik"] == pytest.approx(record["result"]["loglik"])
    trace = record["trace"]["0"]
    assert [e["iteration"] for e in trace] == list(range(1, len(trace) + 1))
    # The trace logs the best-so-far log-likelihood: monotone nondecreasing.
    logliks = [e["loglik"] for e in trace]
    assert logliks == sorted(logliks)


def test_jobs_route_prefix_typos_404(server):
    """'/v1/jobsx' must be an unknown route, not the job list."""
    import http.client
    import json as _json

    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        for path in ("/v1/jobsx", "/v1/jobs-foo", "/v1/jobs/a/b"):
            conn.request("GET", path)
            resp = conn.getresponse()
            payload = _json.loads(resp.read())
            assert resp.status == 404, path
            assert payload["error"]["type"] == "ServerError", path
    finally:
        conn.close()


def test_dead_fit_scheduler_degrades_health(initial_bundle):
    with ServingServer({"m": str(initial_bundle["path"])}, num_workers=1) as srv:
        with ServingClient(srv.url) as cli:
            assert cli.health()["status"] == "ok"
            srv._orchestrator.stop()  # the fitting surface just died
            health = cli.health()
            assert health["fitting"] is False
            assert health["status"] == "degraded"


def test_fit_error_mapping(client, initial_bundle):
    with pytest.raises(ModelNotFoundError):
        client.fit(from_model="never-registered", maxiter=5)
    with pytest.raises(JobNotFoundError):
        client.job("job-424242")
    with pytest.raises(FittingError):
        client.fit(model_id="x", locations=[[0.1, 0.2]], z=[1.0], n_startz=3)
    with pytest.raises(FittingError):
        # from_model and bundle_path are mutually exclusive.
        client.fit(
            from_model="station", bundle_path=str(initial_bundle["path"]), maxiter=5
        )
    with pytest.raises(FittingError):
        client.fit(model_id="x", maxiter=5)  # no data source at all


def test_unknown_compressor_is_a_400_and_queues_no_job(initial_bundle):
    """A fit naming a compressor that does not exist is refused at
    submission (FittingError, HTTP 400) instead of failing in its leg."""
    import http.client
    import json as _json

    with ServingServer({"m": str(initial_bundle["path"])}, num_workers=1) as srv:
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        try:
            body = _json.dumps(
                {"from_model": "m", "compression_method": "aca", "maxiter": 5}
            )
            conn.request(
                "POST", "/v1/fit", body=body, headers={"Content-Type": "application/json"}
            )
            resp = conn.getresponse()
            payload = _json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert payload["error"]["type"] == "FittingError"
        assert "aca" in payload["error"]["message"]
        with ServingClient(srv.url) as cli:
            assert cli.jobs() == []


def test_out_of_range_accuracy_is_a_400_and_creates_no_job_directory(
    initial_bundle, tmp_path
):
    """``acc=5`` fails the one substrate check at submission (FittingError,
    HTTP 400); nothing reaches the job ledger."""
    import http.client
    import json as _json

    jobs = tmp_path / "jobs"
    with ServingServer(
        {"m": str(initial_bundle["path"])}, num_workers=1, jobs_dir=jobs
    ) as srv:
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        try:
            body = _json.dumps({
                "locations": initial_bundle["locations"].tolist(),
                "z": initial_bundle["z"].tolist(),
                "variant": "tlr",
                "acc": 5,
                "maxiter": 5,
            })
            conn.request(
                "POST", "/v1/fit", body=body, headers={"Content-Type": "application/json"}
            )
            resp = conn.getresponse()
            payload = _json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert payload["error"]["type"] == "FittingError"
        assert "acc" in payload["error"]["message"]
        assert [p for p in jobs.iterdir() if p.is_dir()] == []


def test_failed_fit_surfaces_through_wait_job(client, initial_bundle):
    submitted = client.fit(
        model_id="doomed",
        locations=initial_bundle["locations"],
        z=initial_bundle["z"],
        maxiter=5,
        model={
            "family": "MaternCovariance",
            "metric": "euclidean",
            "nugget": -1.0,  # rejected inside the worker at resolve time
            "theta": [1.0, 0.1, 0.5],
        },
    )
    with pytest.raises(FittingError, match="failed"):
        client.wait_job(submitted["job_id"], timeout=120)
    record = client.job(submitted["job_id"])
    assert record["status"] == "failed"
    assert record["restarts"] == 0  # deterministic failures are not retried
    # The target model id was never registered.
    with pytest.raises(ModelNotFoundError):
        client.predict("doomed", np.zeros((1, 2)))


def test_fitting_can_be_disabled(initial_bundle):
    with ServingServer(
        {"m": str(initial_bundle["path"])}, num_workers=1, enable_fitting=False
    ) as srv:
        with ServingClient(srv.url) as cli:
            assert "fitting" not in cli.health()
            with pytest.raises(ConfigurationError):
                cli.fit(from_model="m", maxiter=5)
            with pytest.raises(ConfigurationError):
                cli.jobs()


def test_bad_fit_options_fail_at_construction(initial_bundle):
    with pytest.raises(FittingError):
        ServingServer(
            {"m": str(initial_bundle["path"])}, fit_options={"max_workers": 0}
        )
    with pytest.raises(FittingError):
        ServingServer(
            {"m": str(initial_bundle["path"])}, fit_options={"bogus_knob": 1}
        )


def test_ephemeral_jobs_dir_restart_rolls_back_to_registered_bundles(
    initial_bundle, targets
):
    """Regression: with the default (temporary) jobs_dir, a refit
    publishes a bundle living inside the ledger; stop() deletes it, so
    a restarted server must serve the model's last externally
    registered bundle — not a path to nowhere."""
    z_new = sample_gaussian_field(
        initial_bundle["locations"], MaternCovariance(1.4, 0.18, 0.8), seed=21
    )
    old_reference = PredictionEngine.from_bundle(initial_bundle["path"]).predict(targets)
    server = ServingServer(
        {"station": str(initial_bundle["path"])}, num_workers=1
    ).start()
    try:
        with ServingClient(server.url) as cli:
            submitted = cli.fit(from_model="station", z=z_new, maxiter=10, seed=3)
            record = cli.wait_job(submitted["job_id"], timeout=300)
            assert record["served"]
            refit_pred = cli.predict("station", targets)
            assert not np.array_equal(refit_pred, old_reference)
        server.stop()
        server.start()  # the ephemeral ledger (and its bundles) are gone
        with ServingClient(server.url) as cli:
            got = cli.predict("station", targets)
        np.testing.assert_array_equal(got, old_reference)
    finally:
        server.stop()


def test_durable_jobs_dir_survives_server_restart(initial_bundle, tmp_path):
    """With an explicit jobs_dir the ledger is durable: a new server
    over the same directory still knows the finished job."""
    jobs_dir = tmp_path / "jobs"
    locs, z = initial_bundle["locations"], initial_bundle["z"]
    with ServingServer(
        {"station": str(initial_bundle["path"])}, num_workers=1, jobs_dir=jobs_dir
    ) as srv:
        with ServingClient(srv.url) as cli:
            submitted = cli.fit(from_model="station", z=z, maxiter=10, seed=3)
            cli.wait_job(submitted["job_id"], timeout=300)
    assert jobs_dir.is_dir()
    with ServingServer(
        {"station": str(initial_bundle["path"])}, num_workers=1, jobs_dir=jobs_dir
    ) as srv:
        with ServingClient(srv.url) as cli:
            record = cli.job(submitted["job_id"])
            assert record["status"] == "done"
            assert record["result"]["theta"]
    del locs


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(), reason="no spawn start method"
)
def test_fit_legs_start_like_the_servers_workers(initial_bundle):
    """Fit legs take the server's start method unless ``fit_options``
    names one, so a ``spawn`` server spawns its fit legs too."""
    models = {"station": str(initial_bundle["path"])}
    with ServingServer(models, num_workers=1, start_method="spawn") as srv:
        assert srv._orchestrator._ctx.get_start_method() == "spawn"
        assert srv._orchestrator._ctx.get_start_method() == srv._ctx.get_start_method()
    methods = multiprocessing.get_all_start_methods()
    other = "fork" if "fork" in methods else "spawn"
    with ServingServer(
        models, num_workers=1, start_method=other, fit_options={"start_method": "spawn"}
    ) as srv:
        assert srv._orchestrator._ctx.get_start_method() == "spawn"
