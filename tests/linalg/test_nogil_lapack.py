"""The GIL-free BLAS/LAPACK wrappers against scipy's f2py ones.

Each wrapper must give scipy's result (bit for bit where the same
LAPACK call is made; to 1e-14 relative where the wrapper solves the
transposed problem), refuse bad arrays before any pointer reaches
LAPACK, turn a failed POTRF into ``NotPositiveDefiniteError`` in both
substrates, and actually release the GIL while LAPACK runs.
"""

from __future__ import annotations

import ctypes
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from repro.exceptions import NotPositiveDefiniteError, ShapeError
from repro.kernels import ExponentialCovariance
from repro.linalg import TileMatrix, TLRMatrix, nogil_lapack, tile_cholesky, tlr_cholesky
from repro.runtime import Runtime

#: (rows, cols) of a general tile: square, the short last tile of a
#: column (m < n), its transpose, 1 x 1, and an empty one.
SHAPES = [(40, 40), (13, 40), (40, 13), (1, 1), (0, 40)]


def spd(rng, n):
    x = rng.standard_normal((n, n))
    return x @ x.T + n * np.eye(n)


def lower_factor(rng, n):
    return np.linalg.cholesky(spd(rng, n)) if n else np.zeros((0, 0))


def assert_close(got, ref):
    """Equal to 1e-14 relative to the largest entry of ``ref``."""
    scale = np.abs(ref).max(initial=0.0)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * scale)


class TestMatchesF2py:
    @pytest.mark.parametrize("n", [40, 13, 1, 0])
    def test_potrf(self, rng, n):
        a = spd(rng, n) if n else np.zeros((0, 0))
        got = a.copy()
        nogil_lapack.potrf(got)
        if n:
            ref, info = lapack.dpotrf(a, lower=1, clean=1)
            assert info == 0
            assert_close(np.tril(got), ref)
        np.testing.assert_array_equal(np.triu(got, 1), np.triu(a, 1))  # untouched

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_trsm(self, rng, m, n):
        lkk = lower_factor(rng, n)
        b = rng.standard_normal((m, n))
        got = b.copy()
        nogil_lapack.trsm(lkk, got)
        if m and n:
            # The parent PANEL call, and the f2py solve the TLR TRSM used.
            ref = blas.dtrsm(1.0, lkk.T, b.T.copy(order="F"), side=0, lower=0, trans_a=1).T
            np.testing.assert_array_equal(got, ref)
            tri = sla.solve_triangular(lkk, b.T, lower=True, check_finite=False).T
            np.testing.assert_array_equal(got, tri)
        else:
            np.testing.assert_array_equal(got, b)

    @pytest.mark.parametrize("m, n", SHAPES)
    @pytest.mark.parametrize("k", [40, 7, 0])
    def test_gemm(self, rng, m, n, k):
        a, b = rng.standard_normal((m, k)), rng.standard_normal((n, k))
        c = rng.standard_normal((m, n))
        got = c.copy()
        nogil_lapack.gemm(a, b, got)
        if m and n and k:
            ref = blas.dgemm(-1.0, a, b, beta=1.0, c=c, trans_b=1)
            assert_close(got, ref)
        else:
            np.testing.assert_array_equal(got, c - a @ b.T)

    @pytest.mark.parametrize("m, n", SHAPES + [(12, 30)])
    @pytest.mark.parametrize("rank", [None, 0], ids=["full", "zero"])
    def test_geqp3_ormqr(self, rng, m, n, rank):
        a = rng.standard_normal((m, n)) if rank is None else np.zeros((m, n))
        qt = np.array(a.T, order="C")
        jpvt, tau = nogil_lapack.geqp3(qt)
        if m == 0:
            assert tau.size == 0
            return
        qr, jpvt_ref, tau_ref, _, info = lapack.dgeqp3(a, lwork=2 * n + (n + 1) * 32)
        assert info == 0
        np.testing.assert_array_equal(qt.T, qr)
        np.testing.assert_array_equal(jpvt, jpvt_ref)
        np.testing.assert_array_equal(tau, tau_ref)
        for k in sorted({min(m, n), 1, 0}):
            c = rng.standard_normal((m, 5))
            ct = np.array(c.T, order="C")
            nogil_lapack.ormqr(qt[:k], tau[:k], ct)
            if k == 0:
                np.testing.assert_array_equal(ct.T, c)
                continue
            ref, _, info = lapack.dormqr("L", "N", qr[:, :k], tau[:k], c, lwork=32 * 5 + 65 * 64)
            assert info == 0
            np.testing.assert_array_equal(ct.T, ref)

    @pytest.mark.parametrize("m, n", SHAPES)
    @pytest.mark.parametrize("rank", [None, 0], ids=["full", "zero"])
    def test_gesdd(self, rng, m, n, rank):
        a = rng.standard_normal((m, n)) if rank is None else np.zeros((m, n))
        u, s, vt = nogil_lapack.gesdd(np.array(a.T, order="C"))
        p = min(m, n)
        assert u.shape == (m, p) and s.shape == (p,) and vt.shape == (p, n)
        if p:
            u_ref, s_ref, vt_ref = sla.svd(a, full_matrices=False, check_finite=False)
            np.testing.assert_array_equal(s, s_ref)
            np.testing.assert_array_equal(u, u_ref)
            np.testing.assert_array_equal(vt, vt_ref)


class TestWorkspaceCache:
    """LAPACK's workspace query runs once per routine and integer
    arguments; a cached ``lwork`` gives the bits of a queried one."""

    def test_one_query_per_routine_and_shape(self, rng, monkeypatch):
        monkeypatch.setattr(nogil_lapack, "_LWORK", {})
        queries = []
        query = nogil_lapack._query
        monkeypatch.setattr(
            nogil_lapack, "_query", lambda routine, *a: queries.append(routine) or query(routine, *a)
        )
        a = rng.standard_normal((30, 12))

        def qr_apply(x):
            qt = np.array(x.T, order="C")
            _, tau = nogil_lapack.geqp3(qt)
            ct = np.array(rng.standard_normal((x.shape[0], 5)).T, order="C")
            c0 = ct.copy()
            nogil_lapack.ormqr(qt, tau, ct)
            return qt, tau, c0, ct

        first = [nogil_lapack.gesdd(np.array(a.T, order="C")), qr_apply(a)]
        assert queries == ["dgesdd", "dgeqp3", "dormqr"]
        for _ in range(2):
            for got, ref in zip(nogil_lapack.gesdd(np.array(a.T, order="C")), first[0]):
                np.testing.assert_array_equal(got, ref)
            qt, tau, c0, _ = first[1]
            ct = c0.copy()
            nogil_lapack.ormqr(qt, tau, ct)
            np.testing.assert_array_equal(ct, first[1][3])
        assert queries == ["dgesdd", "dgeqp3", "dormqr"]
        nogil_lapack.gesdd(np.array(a[:, :7].T, order="C"))  # a new shape queries
        assert queries == ["dgesdd", "dgeqp3", "dormqr", "dgesdd"]


# --------------------------------------------------------------------------
# argument checks: every bad array is refused before LAPACK sees a pointer
# --------------------------------------------------------------------------
class _NoForeignCall(dict):
    def __getitem__(self, name):
        raise AssertionError(f"{name} was called with a bad argument")


def _args(rng):
    """Valid arguments for every wrapper: (tile 30 x 20, nb = 20)."""
    qt = rng.standard_normal((20, 30))
    return {
        "potrf": [spd(rng, 20)],
        "trsm": [lower_factor(rng, 20), rng.standard_normal((30, 20))],
        "gemm": [rng.standard_normal((30, 8)), rng.standard_normal((20, 8)), rng.standard_normal((30, 20))],
        "geqp3": [qt],
        "gesdd": [qt.copy()],
        "ormqr": [qt[:5], np.ones(5), rng.standard_normal((4, 30))],
    }


def _fortran(x):
    return np.asfortranarray(x)


def _strided(x):
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    return wide[..., ::2]


def _float32(x):
    return x.astype(np.float32)


def _read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


def _one_dim(x):
    return x.ravel()


BAD = {"fortran": _fortran, "strided": _strided, "float32": _float32, "1-d": _one_dim}
#: Arguments each wrapper writes (index into its argument list).
WRITTEN = {"potrf": 0, "trsm": 1, "gemm": 2, "geqp3": 0, "gesdd": 0, "ormqr": 2}
#: One argument of each wrapper replaced by a wrong-shaped one.
MISMATCHED = {
    "potrf": (0, np.eye(20)[:, :19].copy()),
    "trsm": (0, np.eye(19)),
    "gemm": (1, np.zeros((20, 9))),
    "geqp3": (0, np.zeros((2, 3, 4))),
    "gesdd": (0, np.zeros(5)),
    "ormqr": (2, np.zeros((4, 29))),
}


@pytest.fixture()
def no_foreign_calls(monkeypatch):
    monkeypatch.setattr(nogil_lapack, "_FN", _NoForeignCall())


@pytest.mark.usefixtures("no_foreign_calls")
class TestArgumentChecks:
    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_bad_layout_or_dtype(self, rng, name, bad):
        args = _args(rng)[name]
        for i, arg in enumerate(args):
            if name == "ormqr" and i == 1 and bad in ("fortran", "1-d"):
                continue  # tau is 1-D: no layout to get wrong
            broken = list(args)
            broken[i] = BAD[bad](arg)
            with pytest.raises(ShapeError):
                getattr(nogil_lapack, name)(*broken)

    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_read_only_output(self, rng, name):
        args = _args(rng)[name]
        args[WRITTEN[name]] = _read_only(args[WRITTEN[name]])
        with pytest.raises(ShapeError, match="read-only"):
            getattr(nogil_lapack, name)(*args)

    @pytest.mark.parametrize("name", sorted(MISMATCHED))
    def test_mismatched_shapes(self, rng, name):
        args = _args(rng)[name]
        i, wrong = MISMATCHED[name]
        args[i] = wrong
        with pytest.raises(ShapeError):
            getattr(nogil_lapack, name)(*args)

    def test_output_overlapping_an_input(self, rng):
        x = rng.standard_normal((40, 20))
        with pytest.raises(ShapeError, match="overlaps"):
            nogil_lapack.trsm(x[:20], x[10:30])
        with pytest.raises(ShapeError, match="overlaps"):
            nogil_lapack.gemm(x, x[:20], x)
        with pytest.raises(ShapeError, match="overlaps"):
            nogil_lapack.ormqr(x[:5], np.ones(5), x[4:6])

    def test_ormqr_more_reflectors_than_rows(self, rng):
        with pytest.raises(ShapeError):
            nogil_lapack.ormqr(np.zeros((5, 4)), np.ones(5), np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            nogil_lapack.ormqr(np.zeros((5, 30)), np.ones(4), np.zeros((2, 30)))


# --------------------------------------------------------------------------
# a failed POTRF is typed in both substrates, serially and on two workers
# --------------------------------------------------------------------------
def _indefinite(n=120):
    """An SPD covariance whose last diagonal entry is made negative: the
    last diagonal tile fails only after every update has reached it."""
    locs = np.random.default_rng(3).random((n, 2))
    a = ExponentialCovariance(1.0, 0.1).matrix(locs)
    a[-1, -1] = -1.0
    return a


class TestNotPositiveDefinite:
    def test_potrf_reports_the_minor(self):
        a = np.diag([1.0, 2.0, -3.0, 4.0])
        with pytest.raises(NotPositiveDefiniteError, match="order 3 "):
            nogil_lapack.potrf(a)

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "2-workers"])
    def test_tile(self, workers):
        a = TileMatrix.from_dense(_indefinite(), 32, symmetric_lower=True)
        if workers is None:
            with pytest.raises(NotPositiveDefiniteError):
                tile_cholesky(a)
            return
        with Runtime(num_workers=workers) as rt, pytest.raises(NotPositiveDefiniteError):
            tile_cholesky(a, rt)

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "2-workers"])
    def test_tlr(self, workers):
        a = TLRMatrix.from_dense(_indefinite(), 32, acc=1e-9, method="svd", rule="relative")
        if workers is None:
            with pytest.raises(NotPositiveDefiniteError):
                tlr_cholesky(a)
            return
        with Runtime(num_workers=workers) as rt, pytest.raises(NotPositiveDefiniteError):
            tlr_cholesky(a, runtime=rt)


# --------------------------------------------------------------------------
# the GIL is released for the duration of each call
# --------------------------------------------------------------------------
#: A pause of the main thread at least this long counts as blocked: an
#: OS time slice on a shared core is shorter, a held GIL lasts the call.
GAP_S = 0.02


def _problems(rng):
    """Per wrapper, a function making fresh arguments for one call of
    ~0.05-0.2 s (one BLAS thread)."""
    n = 1500
    x = rng.standard_normal((n, n))
    a = x @ x.T + n * np.eye(n)
    lkk = np.linalg.cholesky(a)
    big = rng.random((2000, 2000))
    big += big.T + 4000 * np.eye(2000)  # diagonally dominant: SPD
    # n / 2 orthogonal reflectors: v_i = (1, qt[i, i+1:]), tau_i = 2 / |v_i|^2.
    qt = np.triu(rng.standard_normal((n // 2, n)), 1)
    tau = 2.0 / (1.0 + np.einsum("ij,ij->i", qt, qt))
    return {
        "potrf": lambda: (big.copy(),),
        "trsm": lambda: (lkk, x.copy()),
        "gemm": lambda: (x, x, a.copy()),
        "geqp3": lambda: (x[:800, :800].copy(),),
        "gesdd": lambda: (x[:600, :600].copy(),),
        "ormqr": lambda: (qt, tau, x.copy()),
    }


def _main_thread_share(fn, args) -> float:
    """Share of the wall time of ``fn(*args)``, run on a worker thread,
    during which the main thread kept running Python."""
    window = {}

    def work():
        window["t0"] = time.perf_counter()
        fn(*args)
        window["t1"] = time.perf_counter()

    blocked = []  # (start, end) of every main-thread pause >= GAP_S
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        worker = threading.Thread(target=work)
        last = time.perf_counter()  # before start(): the call may begin inside it
        worker.start()
        while True:
            alive = worker.is_alive()
            now = time.perf_counter()
            if now - last >= GAP_S:  # also the pause the worker ended in
                blocked.append((last, now))
            if not alive:
                break
            last = now
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive() and "t1" in window
    t0, t1 = window["t0"], window["t1"]
    lost = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in blocked)
    return 1.0 - lost / (t1 - t0)


@pytest.fixture(scope="module")
def problems():
    return _problems(np.random.default_rng(5))


class TestReleasesTheGil:
    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_main_thread_runs_during_the_call(self, problems, name):
        assert _main_thread_share(getattr(nogil_lapack, name), problems[name]()) >= 0.5

    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_control_pyfunctype_holds_it(self, problems, monkeypatch, name):
        routine = "d" + name
        monkeypatch.setitem(nogil_lapack._FN, routine, nogil_lapack._bind(routine, ctypes.PYFUNCTYPE))
        assert _main_thread_share(getattr(nogil_lapack, name), problems[name]()) <= 0.25
