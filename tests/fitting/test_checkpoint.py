"""Checkpoint persistence: a resumed fit must equal the uninterrupted one.

The headline property: for ANY checkpoint iteration ``k`` of a fit,
``save_state`` → ``load_state`` → ``nelder_mead(state=...)`` reaches the
same theta, log-likelihood, history, and evaluation counts as the run
that was never interrupted — bit for bit. That is the contract the
orchestrator's kill-recovery is built on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CheckpointError
from repro.fitting.checkpoint import Checkpointer, load_state, save_state
from repro.optim.neldermead import nelder_mead


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


LO, HI = [-2.0, -2.0], [2.0, 2.0]
NM_OPTS = dict(maxiter=200, ftol=1e-10, xtol=1e-10)


@pytest.fixture(scope="module")
def full_run():
    states = []
    res = nelder_mead(
        rosenbrock, [-0.5, 0.5], LO, HI, state_callback=states.append, **NM_OPTS
    )
    assert states
    return res, states


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_property_resume_through_disk_matches_uninterrupted(
        self, tmp_path_factory, full_run, frac
    ):
        """Persist the state at any fraction of the run, reload it from
        disk, resume — identical outcome to never having stopped."""
        full, states = full_run
        k = min(len(states) - 1, int(frac * len(states)))
        path = tmp_path_factory.mktemp("ckpt") / "state.npz"
        save_state(path, states[k])
        restored = load_state(path)
        np.testing.assert_array_equal(restored.simplex, states[k].simplex)
        np.testing.assert_array_equal(restored.fvals, states[k].fvals)
        assert restored.iteration == states[k].iteration
        assert restored.nfev == states[k].nfev
        resumed = nelder_mead(rosenbrock, None, LO, HI, state=restored, **NM_OPTS)
        np.testing.assert_array_equal(resumed.x, full.x)
        assert resumed.fun == full.fun
        assert resumed.nfev == full.nfev
        assert resumed.nit == full.nit
        assert len(resumed.history) == len(full.history)
        for a, b in zip(resumed.history, full.history):
            assert a.iteration == b.iteration and a.fun == b.fun
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_history_survives_the_disk_round_trip(self, full_run, tmp_path):
        _, states = full_run
        state = states[min(10, len(states) - 1)]
        path = tmp_path / "state.npz"
        save_state(path, state)
        restored = load_state(path)
        assert len(restored.history) == len(state.history)
        for a, b in zip(restored.history, state.history):
            assert a.iteration == b.iteration and a.fun == b.fun
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_seconds_spent_travel_with_the_state_and_default_to_zero(
        self, full_run, tmp_path
    ):
        """``elapsed`` round-trips; a checkpoint written before legs
        carried their clock (same version, no such array) still loads."""
        import dataclasses

        _, states = full_run
        path = tmp_path / "state.npz"
        save_state(path, dataclasses.replace(states[3], elapsed=12.5))
        assert load_state(path).elapsed == 12.5
        with np.load(path) as npz:
            older = {k: npz[k] for k in npz.files if k != "elapsed"}
        np.savez(path, **older)
        restored = load_state(path)
        assert restored.elapsed == 0.0 and restored.iteration == states[3].iteration

    def test_missing_checkpoint_reads_as_none(self, tmp_path):
        assert load_state(tmp_path / "nope.npz") is None

    def test_truncated_checkpoint_raises_typed_error(self, full_run, tmp_path):
        _, states = full_run
        path = tmp_path / "state.npz"
        save_state(path, states[0])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_garbage_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "state.npz"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_atomic_write_leaves_no_temp_files(self, full_run, tmp_path):
        _, states = full_run
        path = tmp_path / "state.npz"
        for state in states[:5]:
            save_state(path, state)
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]
        assert load_state(path).iteration == states[4].iteration


class TestCheckpointer:
    def test_every_n_policy(self, tmp_path):
        path = tmp_path / "c.npz"
        ckpt = Checkpointer(path, every=5)
        nelder_mead(
            rosenbrock, [-0.5, 0.5], LO, HI, maxiter=23, state_callback=ckpt
        )
        # Iterations 5, 10, 15, 20 are persisted (the simplex updates on
        # each of them for this objective).
        assert ckpt.n_saved == 4
        assert ckpt.last_iteration == 20
        assert load_state(path).iteration == 20

    def test_resume_replays_at_most_every_minus_one_iterations(self, tmp_path):
        full = nelder_mead(rosenbrock, [-0.5, 0.5], LO, HI, **NM_OPTS)
        ckpt = Checkpointer(tmp_path / "c.npz", every=7)
        nelder_mead(
            rosenbrock, [-0.5, 0.5], LO, HI, state_callback=ckpt, **NM_OPTS
        )
        resumed = nelder_mead(
            rosenbrock, None, LO, HI, state=ckpt.load(), **NM_OPTS
        )
        np.testing.assert_array_equal(resumed.x, full.x)
        assert resumed.fun == full.fun

    def test_interval_validated(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpointer(tmp_path / "c.npz", every=0)
