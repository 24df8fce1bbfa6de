"""BLAS/LAPACK calls that release the GIL: the task bodies' six kernels.

scipy's f2py wrappers (``scipy.linalg.lapack``, ``scipy.linalg.blas``,
``sla.cholesky``, ``sla.svd``, ``solve_triangular``) mostly hold the
interpreter lock for the whole LAPACK call, so two runtime workers
calling them take turns. The same routines are exported as C function
pointers by scipy's ``cython_blas`` / ``cython_lapack`` modules
(``__pyx_capi__`` capsules); calling such a pointer through a
:func:`ctypes.CFUNCTYPE` prototype drops the lock for the duration of
the call. These are the OpenBLAS routines the f2py wrappers reach, so
the arithmetic is the same.

Every wrapper takes C-contiguous ``float64`` arrays. LAPACK is
column-major, so it reads a C-ordered ``m x n`` array as the ``n x m``
matrix ``a.T``: a C-ordered lower triangle is LAPACK's upper one, and
each wrapper below states what it does to its C-ordered arguments.
Dtype, rank, contiguity, writability, shape agreement and that no
output overlaps an input are checked before any pointer reaches LAPACK;
workspaces are sized by LAPACK's own query, made once per routine and
integer arguments (:data:`_LWORK`). A non-zero ``info`` raises: :class:`NotPositiveDefiniteError`
from :func:`potrf`, :class:`numpy.linalg.LinAlgError` otherwise.

A capsule missing from the installed scipy fails the import.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Tuple

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

from ..exceptions import NotPositiveDefiniteError, ShapeError

__all__ = ["potrf", "trsm", "gemm", "geqp3", "gesdd", "ormqr"]

_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)
_ARR = ctypes.c_void_p  # the address of a float64 / int32 buffer

#: Fortran argument lists (every argument by reference), as exported.
_SIGNATURES = {
    "dpotrf": (cython_lapack, (_CHAR, _INT, _ARR, _INT, _INT)),
    "dtrsm": (cython_blas, (_CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DBL, _ARR, _INT, _ARR, _INT)),
    "dgemm": (
        cython_blas,
        (_CHAR, _CHAR, _INT, _INT, _INT, _DBL, _ARR, _INT, _ARR, _INT, _DBL, _ARR, _INT),
    ),
    "dgeqp3": (cython_lapack, (_INT, _INT, _ARR, _INT, _ARR, _ARR, _ARR, _INT, _INT)),
    "dgesdd": (
        cython_lapack,
        (_CHAR, _INT, _INT, _ARR, _INT, _ARR, _ARR, _INT, _ARR, _INT, _ARR, _INT, _ARR, _INT),
    ),
    "dormqr": (
        cython_lapack,
        (_CHAR, _CHAR, _INT, _INT, _INT, _ARR, _INT, _ARR, _ARR, _INT, _ARR, _INT, _INT),
    ),
}

_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.restype = ctypes.c_char_p
_capsule_name.argtypes = [ctypes.py_object]
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def _bind(name: str, functype=ctypes.CFUNCTYPE):
    """Return routine ``name`` as a ctypes function of prototype ``functype``.

    ``CFUNCTYPE`` releases the GIL around each call; ``PYFUNCTYPE``
    (which holds it) is how a test builds the control.
    """
    module, argtypes = _SIGNATURES[name]
    try:
        capsule = module.__pyx_capi__[name]
    except KeyError:
        raise ImportError(f"{module.__name__} exports no {name}") from None
    return functype(None, *argtypes)(_capsule_pointer(capsule, _capsule_name(capsule)))


_FN = {name: _bind(name) for name in _SIGNATURES}


def _i(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _d(value: float):
    return ctypes.byref(ctypes.c_double(value))


def _mat(a: np.ndarray, name: str, *, write: bool = False) -> None:
    """Check that ``a`` is a 2-D C-contiguous float64 array LAPACK may read."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64 or a.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D float64 array")
    if not a.flags.c_contiguous:
        raise ShapeError(f"{name}: expected a C-contiguous array, got strides {a.strides}")
    if write and not a.flags.writeable:
        raise ShapeError(f"{name}: array is read-only")


def _disjoint(name: str, out: np.ndarray, *inputs: np.ndarray) -> None:
    """LAPACK's output must not overlap an input it reads."""
    if any(np.may_share_memory(out, x) for x in inputs):
        raise ShapeError(f"{name}: the output overlaps an input")


def _ld(a: np.ndarray) -> int:
    """Leading dimension of a C-contiguous array read as ``a.T``."""
    return max(1, a.shape[1])


def _check(routine: str, info: ctypes.c_int) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info = {info.value}")


def _query(routine: str, head: tuple, tail: tuple = ()) -> int:
    """LAPACK's optimal ``lwork`` for the call ``routine(*head, work, lwork, *tail, info)``."""
    work, info = np.zeros(1), ctypes.c_int()
    _FN[routine](*head, work.ctypes.data, _i(-1), *tail, ctypes.byref(info))
    _check(routine, info)
    return max(1, int(work[0]))


#: LAPACK's optimal ``lwork`` per ``(routine, integer arguments)``: the
#: query depends on nothing else, and the same ``lwork`` gives the same
#: blocking, so a cached size leaves every result bit-identical.
_LWORK: Dict[Tuple[str, Tuple[int, ...]], int] = {}


def _call(routine: str, ints: Tuple[int, ...], head: tuple, tail: tuple = ()) -> None:
    """``routine(*head, work, lwork, *tail, info)`` with the optimal workspace
    for the call's integer arguments ``ints``, queried on their first use."""
    lwork = _LWORK.get((routine, ints))
    if lwork is None:
        lwork = _LWORK[(routine, ints)] = _query(routine, head, tail)
    work, info = np.empty(lwork), ctypes.c_int()
    _FN[routine](*head, work.ctypes.data, _i(work.size), *tail, ctypes.byref(info))
    _check(routine, info)


def potrf(a: np.ndarray) -> None:
    """In-place lower Cholesky ``a = L L^T`` of a C-ordered square array.

    ``L`` overwrites the lower triangle; the strict upper triangle is
    left as it was (LAPACK ``dpotrf('U')`` on ``a.T``).

    Raises
    ------
    NotPositiveDefiniteError
        If a leading minor is not positive definite.
    """
    _mat(a, "potrf", write=True)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"potrf: expected a square array, got {a.shape}")
    info = ctypes.c_int()
    _FN["dpotrf"](b"U", _i(n), a.ctypes.data, _i(_ld(a)), ctypes.byref(info))
    if info.value > 0:
        raise NotPositiveDefiniteError(
            f"tile not positive definite: its leading minor of order {info.value} (of {n}) is not"
        )
    _check("dpotrf", info)


def trsm(lower: np.ndarray, b: np.ndarray) -> None:
    """In place ``b <- b @ inv(lower).T`` for a lower-triangular square ``lower``.

    Only the lower triangle of ``lower`` is read (LAPACK
    ``dtrsm('L', 'U', 'T', 'N')`` on ``lower.T`` and ``b.T``).
    """
    _mat(lower, "trsm")
    _mat(b, "trsm", write=True)
    m, n = b.shape
    if lower.shape != (n, n):
        raise ShapeError(f"trsm: triangle {lower.shape} does not match rhs {b.shape}")
    _disjoint("trsm", b, lower)
    _FN["dtrsm"](
        b"L", b"U", b"T", b"N", _i(n), _i(m), _d(1.0),
        lower.ctypes.data, _i(_ld(lower)), b.ctypes.data, _i(_ld(b)),
    )  # fmt: skip


def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """In place ``c <- c - a @ b.T``: one ``dgemm`` with ``alpha = -1, beta = 1``."""
    _mat(a, "gemm")
    _mat(b, "gemm")
    _mat(c, "gemm", write=True)
    m, n = c.shape
    k = a.shape[1]
    if a.shape[0] != m or b.shape != (n, k):
        raise ShapeError(f"gemm: {a.shape} @ {b.shape}.T does not fit {c.shape}")
    _disjoint("gemm", c, a, b)
    # c.T (n x m) -= b (n x k) @ a.T (k x m); b is b.T to LAPACK, a is a.T.
    _FN["dgemm"](
        b"T", b"N", _i(n), _i(m), _i(k), _d(-1.0),
        b.ctypes.data, _i(_ld(b)), a.ctypes.data, _i(_ld(a)),
        _d(1.0), c.ctypes.data, _i(_ld(c)),
    )  # fmt: skip


def geqp3(at: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column-pivoted QR of ``A = at.T`` in place: ``A[:, jpvt - 1] = Q R``.

    ``at`` is the column-major ``A``. On return ``at.T`` holds ``R`` in
    its upper triangle and the Householder reflectors of ``Q`` below it,
    as LAPACK ``dgeqp3`` leaves them. Returns the 1-based pivots
    ``jpvt`` (``int32``) and the reflector scales ``tau``.
    """
    _mat(at, "geqp3", write=True)
    n, m = at.shape
    jpvt = np.zeros(n, dtype=np.int32)
    tau = np.zeros(min(m, n))
    head = (_i(m), _i(n), at.ctypes.data, _i(_ld(at)), jpvt.ctypes.data, tau.ctypes.data)
    _call("dgeqp3", (m, n, _ld(at)), head)
    return jpvt, tau


def gesdd(at: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = u @ diag(s) @ vt`` of ``A = at.T`` (LAPACK ``dgesdd('S')``).

    ``at`` is the column-major ``A`` and is destroyed. ``u`` (``m x p``)
    and ``vt`` (``p x n``), ``p = min(m, n)``, come back Fortran-ordered,
    as LAPACK writes them; ``s`` is descending.
    """
    _mat(at, "gesdd", write=True)
    n, m = at.shape
    p = min(m, n)
    ut = np.zeros((p, m))  # u.T, i.e. column-major u
    v = np.zeros((n, p))  # vt.T
    s = np.zeros(p)
    iwork = np.zeros(8 * p, dtype=np.int32)
    head = (
        b"S", _i(m), _i(n), at.ctypes.data, _i(_ld(at)), s.ctypes.data,
        ut.ctypes.data, _i(max(1, m)), v.ctypes.data, _i(max(1, p)),
    )  # fmt: skip
    _call("dgesdd", (m, n, _ld(at), max(1, m), max(1, p)), head, (iwork.ctypes.data,))
    return ut.T, s, v.T


def ormqr(qt: np.ndarray, tau: np.ndarray, ct: np.ndarray) -> None:
    """In place ``C <- Q @ C`` with ``C = ct.T`` and ``Q`` from :func:`geqp3`.

    ``qt`` holds the first ``k = qt.shape[0]`` reflectors of a
    :func:`geqp3` result (its leading rows, i.e. ``A``'s leading
    columns) and ``tau`` their ``k`` scales; ``ct`` is the column-major
    ``C`` (LAPACK ``dormqr('L', 'N')``).
    """
    _mat(qt, "ormqr")
    _mat(ct, "ormqr", write=True)
    if not (isinstance(tau, np.ndarray) and tau.dtype == np.float64 and tau.ndim == 1):
        raise ShapeError("ormqr: tau must be a 1-D float64 array")
    if not tau.flags.c_contiguous:
        raise ShapeError(f"ormqr: expected a contiguous tau, got strides {tau.strides}")
    k, m = qt.shape
    n = ct.shape[0]
    if ct.shape[1] != m or tau.shape[0] != k or k > m:
        raise ShapeError(f"ormqr: reflectors {qt.shape} / tau {tau.shape} do not fit {ct.shape}")
    _disjoint("ormqr", ct, qt, tau)
    head = (
        b"L", b"N", _i(m), _i(n), _i(k), qt.ctypes.data, _i(_ld(qt)),
        tau.ctypes.data, ct.ctypes.data, _i(_ld(ct)),
    )  # fmt: skip
    _call("dormqr", (m, n, k, _ld(qt), _ld(ct)), head)
