"""The left-looking TLR Cholesky graph: parity, accuracy and failure typing.

Every off-diagonal tile is generated (or read from a compressed matrix),
updated while dense, compressed once and solved. These tests pin down
that one graph: the same factor bit for bit on every engine, worker count
and ``compression_batch``; one compression per tile; a factor whose
log-determinant and quadratic form stay within an accuracy-derived bound
of dense Cholesky; and a typed failure on a non-SPD diagonal.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.config import use_config
from repro.data import generate_irregular_grid, sample_gaussian_field, sort_locations
from repro.exceptions import NotPositiveDefiniteError
from repro.kernels import ExponentialCovariance, MaternCovariance
from repro.linalg.generation import generate_and_factor_tlr_matrix
from repro.linalg.tlr_cholesky import logdet_from_tlr_factor, tlr_cholesky
from repro.linalg.tlr_matrix import TLRMatrix
from repro.linalg.tlr_solve import tlr_solve_triangular
from repro.mle.loglik import PENALTY_LOGLIK, LikelihoodEvaluator
from repro.runtime import Runtime

N, NB = 360, 40  # nt = 9


@pytest.fixture(scope="module")
def locs():
    return sort_locations(generate_irregular_grid(N, seed=11))[0]


def _factor(locs, runtime=None, compression_batch=1):
    model = MaternCovariance(1.0, 0.1, 0.5)
    return generate_and_factor_tlr_matrix(
        N, NB, lambda rs, cs: model.tile(locs, rs, cs), 1e-8,
        method="svd", rule="relative", runtime=runtime,
        compression_batch=compression_batch,
    )


def _assert_same_factor(got: TLRMatrix, ref: TLRMatrix) -> None:
    for k in range(ref.nt):
        np.testing.assert_array_equal(got.diag[k], ref.diag[k])
    assert set(got.low) == set(ref.low)
    for key, lr in ref.low.items():
        np.testing.assert_array_equal(got.low[key].u, lr.u)
        np.testing.assert_array_equal(got.low[key].v, lr.v)


class TestBitParity:
    @pytest.fixture(scope="class")
    def reference(self, locs):
        return _factor(locs)

    def test_serial_engine(self, locs, reference):
        with Runtime(engine="serial") as rt:
            _assert_same_factor(_factor(locs, rt), reference)

    @pytest.mark.parametrize("workers", [1, 2, 4, 6])
    def test_threads(self, locs, reference, workers):
        with Runtime(num_workers=workers) as rt:
            _assert_same_factor(_factor(locs, rt), reference)

    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_compression_batch(self, locs, reference, batch):
        with Runtime(num_workers=2) as rt:
            _assert_same_factor(_factor(locs, rt, compression_batch=batch), reference)

    def test_rsvd_seed_resolved_on_the_submitting_thread(self, locs):
        # Workers have their own thread-local config: the seed must travel.
        model = MaternCovariance(1.0, 0.1, 0.5)
        gen = lambda rs, cs: model.tile(locs, rs, cs)  # noqa: E731
        kwargs = dict(method="rsvd", rule="relative")
        with use_config(rng_seed=777):
            serial = generate_and_factor_tlr_matrix(N, NB, gen, 1e-8, **kwargs)
            with Runtime(num_workers=4) as rt:
                parallel = generate_and_factor_tlr_matrix(N, NB, gen, 1e-8, runtime=rt, **kwargs)
        _assert_same_factor(parallel, serial)

    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_compressed_matrix_on_the_runtime(self, locs, batch):
        model = MaternCovariance(1.0, 0.1, 0.5)
        sigma = model.matrix(locs)
        serial = tlr_cholesky(TLRMatrix.from_dense(sigma, NB, acc=1e-8))
        with use_config(compression_batch=batch), Runtime(num_workers=4) as rt:
            parallel = tlr_cholesky(TLRMatrix.from_dense(sigma, NB, acc=1e-8), runtime=rt)
        _assert_same_factor(parallel, serial)


class TestGraphShape:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_task_population(self, locs, batch):
        nt = -(-N // NB)
        with Runtime(num_workers=2, trace=True) as rt:
            _factor(locs, rt, compression_batch=batch)
            names = [e.name for e in rt.trace]
        assert sum(n.startswith("diag") for n in names) == nt
        assert sum(n.startswith("offdiag") for n in names) == sum(
            -(-(nt - k - 1) // batch) for k in range(nt)
        )
        assert len(names) == nt + sum(-(-(nt - k - 1) // batch) for k in range(nt))

    def test_each_tile_compressed_once(self, locs, monkeypatch):
        # The package re-exports the function under the module's name.
        module = sys.modules["repro.linalg.tlr_cholesky"]
        calls = []
        real = module.compress

        def counting(dense, *args, **kwargs):
            calls.append(dense.shape)
            return real(dense, *args, **kwargs)

        monkeypatch.setattr(module, "compress", counting)
        factor = _factor(locs)
        assert len(calls) == len(factor.low) == factor.nt * (factor.nt - 1) // 2


class TestAccuracyAgainstDense:
    """``tlr_cholesky(TLRMatrix)`` against LAPACK on Morton-ordered fields.

    Every tile is held to ``acc`` relative to its own norm twice (on input
    and in the factor), so the reconstruction ``E = L L^T - Sigma`` must
    stay within ``||E||_2 <= 2 acc ||Sigma||_2``. With ``eta = ||E||_2 ||Sigma^-1||_2
    < 1`` that bounds the likelihood terms:
    ``|d logdet| <= ||Sigma^-1||_2 ||E||_* / (1 - eta)`` and
    ``|d z'Sigma^-1 z| <= ||Sigma^-1 z||^2 ||E||_2 / (1 - eta)``.
    """

    n, nb = 480, 80

    @pytest.mark.parametrize("acc", [1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize(
        "model",
        [ExponentialCovariance(1.0, 0.1), MaternCovariance(1.0, 0.05, 1.0)],
        ids=["exponential", "matern"],
    )
    def test_logdet_and_quadratic_form(self, model, acc):
        pts = sort_locations(generate_irregular_grid(self.n, seed=3))[0]
        z = sample_gaussian_field(pts, model, seed=4)
        sigma = model.matrix(pts)
        chol = np.linalg.cholesky(sigma)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        quad = float(np.sum(np.linalg.solve(chol, z) ** 2))

        factor = tlr_cholesky(TLRMatrix.from_dense(sigma, self.nb, acc=acc))
        ltilde = np.tril(factor.to_dense())  # the lower factor, tile by tile
        e = ltilde @ ltilde.T - sigma
        e2 = np.linalg.norm(e, 2)
        sigma_inv2 = 1.0 / np.linalg.eigvalsh(sigma)[0]
        assert e2 <= 2.0 * acc * np.linalg.norm(sigma, 2)
        eta = e2 * sigma_inv2
        assert eta < 1.0

        half = tlr_solve_triangular(factor, z, trans=False)
        assert abs(logdet_from_tlr_factor(factor) - logdet) <= (
            sigma_inv2 * np.linalg.norm(e, "nuc") / (1.0 - eta)
        )
        alpha = np.linalg.solve(sigma, z)
        assert abs(float(half @ half) - quad) <= float(alpha @ alpha) * e2 / (1.0 - eta)


class TestNotPositiveDefinite:
    def test_compressed_matrix_serial_and_runtime(self):
        with pytest.raises(NotPositiveDefiniteError):
            tlr_cholesky(TLRMatrix.from_dense(-np.eye(60), 20, acc=1e-8))
        with Runtime(num_workers=2) as rt:
            with pytest.raises(NotPositiveDefiniteError):
                tlr_cholesky(TLRMatrix.from_dense(-np.eye(60), 20, acc=1e-8), runtime=rt)
            # The runtime is reusable after the typed failure.
            spd = TLRMatrix.from_dense(2.0 * np.eye(60), 20, acc=1e-8)
            tlr_cholesky(spd, runtime=rt)
            assert logdet_from_tlr_factor(spd) == pytest.approx(60 * np.log(2.0))

    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "runtime"])
    def test_evaluator_penalty(self, parallel):
        # Duplicate locations in one diagonal tile: exactly singular.
        pts = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.5], [0.9, 0.9], [0.3, 0.7], [0.7, 0.3]])
        z = np.array([0.3, 0.3, -0.1, 0.2, 0.05, -0.2])
        model = MaternCovariance(1.0, 0.1, 0.5)
        with Runtime(num_workers=2) as rt:
            ev = LikelihoodEvaluator(
                pts, z, model, variant="tlr", tile_size=3, acc=1e-9,
                runtime=rt if parallel else None,
            )
            assert ev(model.theta) == PENALTY_LOGLIK
            assert ev.n_failures == 1
