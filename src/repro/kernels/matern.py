"""The Matérn correlation family (paper §IV, eq. (5)).

The Matérn class is

.. math::

    C(r; \\theta) = \\frac{\\theta_1}{2^{\\theta_3 - 1}\\,\\Gamma(\\theta_3)}
        \\Big(\\frac{r}{\\theta_2}\\Big)^{\\theta_3}
        K_{\\theta_3}\\Big(\\frac{r}{\\theta_2}\\Big),

with variance :math:`\\theta_1 > 0`, spatial range :math:`\\theta_2 > 0`,
and smoothness :math:`\\theta_3 > 0`; :math:`K_\\nu` is the modified
Bessel function of the second kind. This module implements the
*correlation* (unit-variance) form; the variance multiplier lives in
:mod:`repro.kernels.covariance`.

How an entry is computed, with ``x = r/θ2`` and ``ν = θ3``:

* **Closed forms** at ν ∈ {1/2, 3/2, 5/2}: ``exp(-x)``, ``(1 + x) exp(-x)``
  and ``(1 + x + x²/3) exp(-x)``. They are the cheapest path and are kept.
* **A per-ν table** for every other ν (ν = 1 included). Writing
  ``C(x) = h(log x) · exp(-x)`` leaves
  ``h(t) = 2^{1-ν}/Γ(ν) · e^{νt} · kve(ν, e^t)``, a smooth and slowly
  varying function of ``t = log x``. It is fitted by degree-8 Chebyshev
  polynomials on uniform pieces of ``t`` over ``x ∈ [1e-6, 700]``, from
  ``scipy.special.kve`` at the Chebyshev nodes of each piece. A table
  starts at 128 pieces (1 152 Bessel calls) and doubles until every
  piece's last Chebyshev coefficient is below 1e-12 of its first: 128
  pieces up to ν ≈ 3.3, 256 up to ν ≈ 6, 2048 at ν = 40. One matrix
  product, with no further Bessel call, then re-expands every fitted piece
  into 32 evaluation pieces of degree 4 (the interpolants at their own
  Chebyshev nodes) and appends one padding piece, the last one continued:
  32·pieces + 1 evaluation pieces, 160 KiB at 128 fitted pieces, ~0.6 ms
  to build. An entry then costs a ``log``, a piece index (one truncating
  cast), a degree-4 Horner sweep over 5 gathered coefficients and an
  ``exp`` (~12–20 ns against ~330 ns for one ``kv``), streamed in
  cache-sized chunks. Stated bound: for ν ∈ [0.1, 5], within 1e-13
  absolute and 1e-12 relative (down to values of 1e-300) of the Bessel
  expression. Against 40-digit ``mpmath`` it is ≤ 1e-13 relative up to
  ν ≈ 20 and ≤ 2.1e-13 up to ν = 39, where the rounding of ``log x``,
  amplified ~ν-fold, sets it; the tests gate 1.3e-13 on 200 points of
  ``[1e-6, 700]`` for ν ∈ [0.1, 39]. Tables live in a small per-ν LRU
  cache: serving reuses one, an MLE builds one per ν it visits.
* **The exact Bessel expression** ``2^{1-ν}/Γ(ν) x^ν K_ν(x)``, one
  ``kve`` per entry, for entries outside the table's domain (``x = 0``
  gives exactly 1) and for every entry at a ν whose table is not finite
  (``kve`` overflows at ``x = 1e-6`` above ν ≈ 41) or does not converge
  within 2048 pieces. There is no large-ν shortcut: under this ``r/θ2``
  scaling ``C`` tends to 1 as ν grows, not to the Gaussian.

An entry's value depends only on ``x`` and ν, never on the array it sits
in: tiles, full matrices and cross-covariance blocks agree bit for bit.
On every path a NaN distance gives NaN, and an ``x`` so large that
``exp(-x)`` underflows (``inf`` included) gives 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from ..utils.validation import check_positive

__all__ = [
    "matern_correlation",
    "exponential_correlation",
    "whittle_correlation",
    "gaussian_correlation",
    "SPECIAL_SMOOTHNESS",
]

#: Smoothness values with dedicated closed-form fast paths.
SPECIAL_SMOOTHNESS = (0.5, 1.5, 2.5)

#: Scaled distances below this are treated as zero (correlation 1). The
#: Bessel branch is numerically ill-behaved as r -> 0+ where the limit is 1.
_TINY = 1e-300

#: ``exp(-x)`` is exactly 0 above this. The closed forms clamp ``x`` to it,
#: so a huge or infinite ``x`` gives 0 and not ``inf * 0``.
_EXP_ZERO = 1000.0

#: Domain of the per-ν table in scaled distance ``x = r/θ2``.
_X_MIN, _X_MAX = 1e-6, 700.0
_T_MIN = math.log(_X_MIN)
_T_SPAN = math.log(_X_MAX) - _T_MIN
_DEGREE = 8
_MIN_PIECES, _MAX_PIECES = 128, 2048
#: Each fitted piece is evaluated as ``_SPLIT`` pieces of this degree. At
#: 16 pieces the interpolation error shows: 1.9e-13 against ``mpmath`` at
#: ν = 39, over the 1.3e-13 that the tests hold.
_EVAL_DEGREE, _SPLIT = 4, 32
#: A table is accepted when every piece's last Chebyshev coefficient is
#: below this fraction of its first.
_TAIL_TOL = 1e-12
#: Entries per evaluation chunk: the temporaries stay in cache.
_CHUNK = 16384


def _chebyshev_matrices(degree: int):
    """On a piece's local variable ``v ∈ [0, 1]``: the Chebyshev nodes,
    node values → Chebyshev coefficients, and Chebyshev → monomial."""
    j = np.arange(degree + 1)
    angles = np.pi * (j + 0.5) / (degree + 1)
    nodes = 0.5 + 0.5 * np.cos(angles)
    to_cheb = (2.0 / (degree + 1)) * np.cos(np.outer(j, angles))
    to_cheb[0] *= 0.5
    # Row k holds the monomial coefficients of T_k(2v - 1).
    to_mono = np.zeros((degree + 1, degree + 1))
    to_mono[0, 0] = 1.0
    to_mono[1, :2] = (-1.0, 2.0)
    for k in range(2, degree + 1):
        to_mono[k, 1:] = 4.0 * to_mono[k - 1, :-1]
        to_mono[k] -= 2.0 * to_mono[k - 1] + to_mono[k - 2]
    return nodes, to_cheb, to_mono


_NODES, _TO_CHEB, _TO_MONO = _chebyshev_matrices(_DEGREE)


def _split_matrix() -> np.ndarray:
    """A fitted piece's monomial coefficients → those of the degree-4
    interpolants at the Chebyshev nodes of its ``_SPLIT`` sub-pieces and of
    one more past its right end, each in its own ``v ∈ [0, 1]``: shape
    ``((_SPLIT + 1) * 5, 9)``."""
    nodes, to_cheb, to_mono = _chebyshev_matrices(_EVAL_DEGREE)
    v = (np.arange(_SPLIT + 1)[:, None] + nodes) / _SPLIT
    at_nodes = v[..., None] ** np.arange(_DEGREE + 1)
    return (to_mono.T @ to_cheb @ at_nodes).reshape(-1, _DEGREE + 1)


_SPLIT_W = _split_matrix()


class _Table(NamedTuple):
    """``coef[k, i]`` multiplies ``v**k`` on evaluation piece ``i``, where
    ``v = s - i`` and ``s = (log x - t_min) * pieces_per_t``; the last
    column is the padding piece that ``x = X_MAX`` lands on."""

    coef: np.ndarray
    pieces_per_t: float


def exponential_correlation(r: np.ndarray, range_: float) -> np.ndarray:
    """Exponential correlation ``exp(-r/range_)`` (Matérn ν = 1/2)."""
    check_positive(range_, "range_")
    return np.exp(-np.asarray(r, dtype=np.float64) / range_)


def whittle_correlation(r: np.ndarray, range_: float) -> np.ndarray:
    """Whittle correlation ``(r/θ2) K_1(r/θ2)`` (Matérn ν = 1)."""
    return matern_correlation(r, range_, 1.0)


def gaussian_correlation(r: np.ndarray, range_: float) -> np.ndarray:
    """Gaussian (squared-exponential) correlation ``exp(-r^2 / (2 θ2^2))``.

    A family of its own: under eq. (5)'s ``r/θ2`` scaling the Matérn
    tends to 1, not to this, as ν grows.
    """
    check_positive(range_, "range_")
    x = np.asarray(r, dtype=np.float64) / range_
    return np.exp(-0.5 * x * x)


def _matern_15(x: np.ndarray) -> np.ndarray:
    """Matérn ν=3/2 in the ``(r/θ2)`` scaling used by eq. (5)."""
    x = np.minimum(x, _EXP_ZERO)
    return (1.0 + x) * np.exp(-x)


def _matern_25(x: np.ndarray) -> np.ndarray:
    """Matérn ν=5/2 in the ``(r/θ2)`` scaling used by eq. (5)."""
    x = np.minimum(x, _EXP_ZERO)
    return (1.0 + x + x * x / 3.0) * np.exp(-x)


def _log_prefactor(nu: float) -> float:
    return (1.0 - nu) * math.log(2.0) - special.gammaln(nu)


def _matern_exact(x: np.ndarray, nu: float) -> np.ndarray:
    """``2^{1-ν}/Γ(ν) x^ν K_ν(x)`` entry by entry; ``x`` is 1-D."""
    # A NaN distance stays NaN (``x > _TINY`` is False there).
    out = np.where(np.isnan(x), np.nan, 1.0)
    pos = x > _TINY
    xp = x[pos]
    if not xp.size:  # a diagonal tile's zeros
        return out
    log_pref = _log_prefactor(nu)
    kve = special.kve(nu, xp)
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        # Summed logs, with K_ν(x) = kve(ν, x) e^{-x}: ``kv`` itself flushes
        # to 0 above x ≈ 700, where x^ν K_ν(x) can still be a normal number.
        vals = np.exp(log_pref + nu * np.log(xp) - xp + np.log(kve))
        # Below x = 1 those logs reach ±700 and their rounding shows; a product
        # of factors that each carry ~1 ulp is exact there while it stays in range.
        prod = math.exp(log_pref) * xp**nu * kve * np.exp(-xp)
    use = (xp < 1.0) & (prod >= np.finfo(np.float64).tiny) & (prod < np.inf)
    vals[use] = prod[use]
    # kve overflow at tiny x and large ν reads +inf (the limit there is 1).
    vals = np.nan_to_num(vals, nan=0.0, posinf=1.0, neginf=0.0, copy=False)
    out[pos] = np.clip(vals, 0.0, 1.0, out=vals)
    return out


@functools.lru_cache(maxsize=16)
def _table(nu: float) -> Optional[_Table]:
    """The piecewise polynomial table of ``h`` at ``nu``, or None."""
    log_pref = _log_prefactor(nu)
    pieces = _MIN_PIECES
    while pieces <= _MAX_PIECES:
        width = _T_SPAN / pieces
        t = _T_MIN + width * (np.arange(pieces)[:, None] + _NODES)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            h = np.exp(log_pref + nu * t) * special.kve(nu, np.exp(t))
        if not np.all(np.isfinite(h)):
            return None
        cheb = h @ _TO_CHEB.T
        if np.all(np.abs(cheb[:, -1]) <= _TAIL_TOL * cheb[:, 0]):
            sub = (cheb @ _TO_MONO @ _SPLIT_W.T).reshape(pieces, _SPLIT + 1, -1)
            # The last piece continued pads the table: x = X_MAX needs no clip.
            coef = np.vstack([np.vstack(sub[:, :_SPLIT]), sub[-1, _SPLIT:]])
            coef = np.ascontiguousarray(coef.T)
            coef.setflags(write=False)
            return _Table(coef, pieces * _SPLIT / _T_SPAN)
        pieces *= 2
    return None


def _matern_table(x: np.ndarray, nu: float, table: _Table) -> np.ndarray:
    """Evaluate the table over 1-D contiguous ``x``, chunk by chunk."""
    coef, pieces_per_t = table
    out = np.empty_like(x)
    size = min(x.size, _CHUNK)
    s, e = np.empty(size), np.empty(size)
    idx = np.empty(size, dtype=np.intp)
    for lo in range(0, x.size, _CHUNK):
        xc = x[lo : lo + _CHUNK]
        n = xc.size
        sc, ec, ic, oc = s[:n], e[:n], idx[:n], out[lo : lo + n]
        # min/max are NaN if any entry is: such a chunk is fixed up below.
        inside = xc.min() >= _X_MIN and xc.max() <= _X_MAX
        if inside:
            np.log(xc, out=sc)
        else:  # fmax/fmin also map NaN into the domain
            np.fmax(xc, _X_MIN, out=sc)
            np.fmin(sc, _X_MAX, out=sc)
            np.log(sc, out=sc)
        # s = (log x - t_min) * pieces_per_t >= 0: piece int(s), v = s - int(s).
        sc -= _T_MIN
        sc *= pieces_per_t
        np.copyto(ic, sc, casting="unsafe")
        sc -= ic
        # Indices are in range already; "clip" is take's fastest mode.
        coef[_EVAL_DEGREE].take(ic, out=oc, mode="clip")
        for k in range(_EVAL_DEGREE - 1, -1, -1):
            oc *= sc
            coef[k].take(ic, out=ec, mode="clip")
            oc += ec
        np.negative(xc, out=ec)
        np.exp(ec, out=ec)
        oc *= ec
        np.minimum(oc, 1.0, out=oc)
        if not inside:
            outside = np.flatnonzero(~((xc >= _X_MIN) & (xc <= _X_MAX)))
            oc[outside] = _matern_exact(xc[outside], nu)
    return out


def matern_correlation(
    r: np.ndarray, range_: float, smoothness: float, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Matérn correlation ``C(r)/θ1`` for arbitrary positive smoothness.

    Parameters
    ----------
    r:
        Distances (any shape, non-negative).
    range_:
        Spatial range :math:`\\theta_2 > 0`. The paper's reference values:
        0.03 weak, 0.1 medium, 0.3 strong correlation on the unit square.
    smoothness:
        Smoothness :math:`\\theta_3 > 0`; 0.5 = rough, 1 = smooth
        (paper §IV).
    out:
        Optional float64 array of ``r``'s shape for the result (it may be
        ``r``); ν = 1/2 is then computed in it with no temporary.

    Returns
    -------
    Correlation array of the same shape as ``r``; ``C(0) = 1``.

    Notes
    -----
    The scaling here follows the paper's eq. (5) *literally*: the Bessel
    argument is ``r/θ2`` (not the ``sqrt(2ν) r/θ2`` variant common in ML
    libraries). This matches ExaGeoStat's implementation and makes the
    Table I/II parameter values directly interpretable. The module
    docstring says which path computes which ν.
    """
    check_positive(range_, "range_")
    check_positive(smoothness, "smoothness")
    if out is not None:
        if smoothness != 0.5:
            out[...] = matern_correlation(r, range_, smoothness)
            return out
        np.divide(r, range_, out=out)
        np.negative(out, out=out)
        return np.exp(out, out=out)
    x = np.asarray(r, dtype=np.float64) / range_

    if smoothness == 0.5:
        return np.exp(-x)
    if smoothness == 1.5:
        return _matern_15(x)
    if smoothness == 2.5:
        return _matern_25(x)

    nu = float(smoothness)
    flat = np.ascontiguousarray(x).reshape(-1)
    table = _table(nu)
    out = _matern_exact(flat, nu) if table is None else _matern_table(flat, nu, table)
    return out.reshape(x.shape)
