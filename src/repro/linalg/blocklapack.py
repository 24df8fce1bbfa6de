"""Full-block (LAPACK-style) dense reference path.

The paper's "Full-block" variant is the classical LAPACK implementation
linked against Intel MKL: one big Cholesky factorization of the dense
covariance matrix, a triangular solve, and a log-determinant read off the
factor's diagonal. This module is that baseline, expressed through
scipy's LAPACK bindings, and is the ground truth the tile and TLR paths
are validated against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg as sla

from ..exceptions import NotPositiveDefiniteError
from ..utils.validation import check_square

__all__ = ["block_cholesky", "block_logdet_from_factor", "block_cholesky_solve"]


def block_cholesky(a: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Parameters
    ----------
    a:
        ``(n, n)`` SPD matrix.
    overwrite:
        Allow scipy to factor in place (the input is then clobbered).

    Returns
    -------
    Lower-triangular ``L`` with ``L @ L.T == a`` (strict upper zeroed).

    Raises
    ------
    NotPositiveDefiniteError
        If the matrix is not numerically positive definite.
    """
    check_square(a, "a")
    try:
        factor = sla.cholesky(a, lower=True, overwrite_a=overwrite, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return factor


def block_logdet_from_factor(factor: np.ndarray) -> float:
    """``log |A|`` from a lower Cholesky factor: ``2 * sum(log diag(L))``."""
    check_square(factor, "factor")
    diag = np.diagonal(factor)
    if not np.all(diag > 0.0):  # also catches NaN
        raise NotPositiveDefiniteError("factor has non-positive diagonal entries")
    return float(2.0 * np.sum(np.log(diag)))


def block_cholesky_solve(
    factor: np.ndarray, b: np.ndarray, *, return_half_solve: bool = False
) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
    """Solve ``A x = b`` given the lower Cholesky factor of ``A``.

    Parameters
    ----------
    factor:
        Lower Cholesky factor ``L``.
    b:
        Right-hand side(s), ``(n,)`` or ``(n, m)``.
    return_half_solve:
        Also return ``y = L^{-1} b``. The Gaussian log-likelihood needs
        only ``||y||^2 = z' A^{-1} z``, so MLE paths stop half-way.

    Returns
    -------
    ``x`` (and ``y`` when requested).
    """
    check_square(factor, "factor")
    y = sla.solve_triangular(factor, b, lower=True, check_finite=False)
    x = sla.solve_triangular(factor, y, lower=True, trans="T", check_finite=False)
    if return_half_solve:
        return x, y
    return x
