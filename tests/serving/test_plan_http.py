"""End-to-end coverage of ``GET /v1/plan`` over real HTTP.

One module-scoped server plans from a known calibration profile: the
router answers ``GET /v1/plan`` in its own process from
:func:`~repro.perfmodel.planner.default_profile`, so the suite installs
the profile with :func:`~repro.perfmodel.planner.set_default_profile`
instead of probing this host. Tests drive the route through
:meth:`ServingClient.plan` and raw ``urllib`` to pin the wire contract:
status codes, typed error envelopes, and plan payload structure.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.exceptions import PlanError
from repro.perfmodel.autotune import autotune
from repro.perfmodel.planner import Planner, set_default_profile
from repro.serving import ServingClient, ServingServer


class FakeClock:
    def __init__(self, step: float = 1e-3) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


_HOST = {"hostname": "planhost", "machine": "x86_64", "cpu_count": 8, "mem_gb": 16.0}


@pytest.fixture(scope="module")
def profile():
    return autotune(sizes=(32, 48), repeats=1, seed=0, clock=FakeClock(), host=_HOST)


@pytest.fixture(scope="module")
def server(profile):
    set_default_profile(profile)
    try:
        with ServingServer(models={}, num_workers=1) as srv:
            yield srv
    finally:
        set_default_profile(None)


@pytest.fixture(scope="module")
def client(server):
    return ServingClient(server.url)


def _get_raw(server, path):
    try:
        with urllib.request.urlopen(server.url + path) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_plan_round_trip_matches_local_planner(client, profile):
    remote = client.plan(900, substrate="full-tile")
    local = Planner(profile).plan(900, substrate="full-tile").to_dict()
    assert remote["config"] == local["config"]
    assert remote["predicted"]["fit_iteration"]["total_s"] == pytest.approx(
        local["predicted"]["fit_iteration"]["total_s"]
    )
    assert remote["profile"]["host"]["hostname"] == "planhost"


def test_plan_payload_structure(client):
    out = client.plan(600)
    assert set(out["config"]) == {
        "variant",
        "tile_size",
        "accuracy",
        "compression_batch",
        "serving_workers",
    }
    phases = out["predicted"]["fit_iteration"]["phases"]
    assert out["predicted"]["fit_iteration"]["total_s"] == pytest.approx(
        sum(phases.values())
    )
    assert out["memory"]["mem_bytes"] >= out["memory"]["matrix_bytes"] > 0
    assert out["search"]["candidates"]


def test_plan_substrate_and_accuracy_query_params(client):
    out = client.plan(600, substrate="tlr", accuracy=1e-5)
    assert out["config"]["variant"] == "tlr"
    assert out["config"]["accuracy"] == pytest.approx(1e-5)


def test_plan_m_defaults_and_overrides(server):
    status, dflt = _get_raw(server, "/v1/plan?n=600")
    assert status == 200 and dflt["m"] == 100
    status, big = _get_raw(server, "/v1/plan?n=600&m=500")
    assert status == 200 and big["m"] == 500
    assert (
        big["predicted"]["predict"]["total_s"]
        > dflt["predicted"]["predict"]["total_s"]
    )


def test_missing_n_is_typed_400(server):
    status, body = _get_raw(server, "/v1/plan")
    assert status == 400
    assert body["error"]["type"] == "PlanError"
    assert "n" in body["error"]["message"]


def test_malformed_params_are_typed_400(server):
    for query in ("n=abc", "n=600&m=xyz", "n=600&accuracy=huge", "n=600&substrate=q"):
        status, body = _get_raw(server, f"/v1/plan?{query}")
        assert status == 400, query
        assert body["error"]["type"] == "PlanError"


def test_client_raises_typed_plan_error(client):
    with pytest.raises(PlanError):
        client.plan(1)


def test_subpath_is_404_not_plan(server):
    status, body = _get_raw(server, "/v1/plan/extra?n=600")
    assert status == 404


def test_plan_works_mid_traffic_router_side(server, client):
    """Planning must not require a worker round-trip: it answers even
    while the only worker is busy with nothing registered."""
    out = client.plan(700)
    assert out["n"] == 700
    health = client._request("GET", "/healthz")
    assert health["workers"] == 1
