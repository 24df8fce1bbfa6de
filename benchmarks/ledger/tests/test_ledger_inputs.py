import numpy as np

from perfledger import inputs, spec


def test_same_seed_gives_identical_inputs():
    w = spec.workload("serve_grid", quick=True)
    for make in (
        lambda s: inputs.field(64, s),
        lambda s: (inputs.theta_schedule(spec.workload("mle_tlr_matern"), 40, s),),
        lambda s: inputs.point_requests(32, 2, 1, 20, s),
        lambda s: [t for t, _ in inputs.grid_requests(w, s)],
        lambda s: [z for _, z in inputs.grid_requests(w, s) if z is not None],
    ):
        first, again, other = make(11), make(11), make(12)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_schedule_stays_in_the_region_the_optimizer_visits():
    w = spec.workload("mle_tlr_matern")
    thetas = inputs.theta_schedule(w, 40, 5)
    ratio = thetas / np.asarray(w.theta)
    assert thetas.shape == (40, 3)
    assert np.all(ratio > np.exp(-0.3)) and np.all(ratio < np.exp(0.3))
    # smoothness never lands on a closed-form value: every op takes the Bessel path
    assert np.all(np.abs(thetas[:, 2] - 0.5) > 1e-3) and thetas[:, 2].max() < 1.0


def test_point_stream_alternates_hot_and_fresh_sets():
    stream = inputs.point_requests(32, 2, 0, 12, 3)
    assert all(t.shape == (32, 2) for t in stream)
    assert stream[0] is stream[4] and stream[2] is stream[6] and stream[0] is not stream[2]
    fresh = stream[1::2]
    assert len({t.tobytes() for t in fresh}) == len(fresh)


def test_grid_pool_outlasts_the_cross_distance_cache():
    w = spec.workload("serve_grid")
    pool = inputs.grid_requests(w, 3)
    assert len(pool) > 8  # CrossDistanceCache keeps 8 entries: cycling the pool never hits
    assert [z is not None for _, z in pool] == [(i + 1) % 4 == 0 for i in range(len(pool))]
    assert all(t.shape == (w.targets_per_request, 2) for t, _ in pool)
    assert all(0.0 < t.min() and t.max() < 1.0 for t, _ in pool)
