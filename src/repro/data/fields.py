"""Exact Gaussian-random-field sampling (paper §VIII-D.1).

The Monte-Carlo study generates synthetic measurement vectors from a
known Matérn model *in exact computation* ("we rely on exact computation
on this step to ensure that all techniques are using the same data").
This module reproduces that: sample ``Z ~ N(0, Sigma(theta))`` via a dense
Cholesky factor of the exact covariance.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..exceptions import NotPositiveDefiniteError
from ..kernels.covariance import CovarianceModel
from ..utils.rng import SeedLike, as_generator
from ..utils.validation import check_locations

__all__ = ["sample_gaussian_field"]


def sample_gaussian_field(
    locations: np.ndarray,
    model: CovarianceModel,
    seed: SeedLike = None,
    *,
    n_samples: int = 1,
    mean: float = 0.0,
    jitter: float = 1e-10,
) -> np.ndarray:
    """Draw exact samples of a zero-mean GP at ``locations``.

    Parameters
    ----------
    locations:
        ``(n, d)`` spatial locations.
    model:
        Covariance model providing ``Sigma(theta)``.
    seed:
        RNG seed / generator.
    n_samples:
        Number of independent realizations (the paper uses one location
        set with 100 measurement vectors for Figure 6).
    mean:
        Constant mean added to every sample (paper assumes zero).
    jitter:
        Diagonal regularization (``>= 0``) that keeps the sampler's
        factorization stable — a sampler constant; the MLE path has no
        jitter. The *returned field* is still a draw from a valid
        covariance (Sigma + jitter*I).

    Returns
    -------
    ``(n,)`` array if ``n_samples == 1`` else ``(n_samples, n)``.

    Raises
    ------
    NotPositiveDefiniteError
        If the covariance cannot be factorized even with jitter.
    """
    x = check_locations(locations, "locations")
    rng = as_generator(seed)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    sigma = model.matrix(x)
    if jitter > 0.0:
        sigma[np.diag_indices_from(sigma)] += jitter
    try:
        chol = sla.cholesky(sigma, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"covariance for {model!r} is not positive definite even with "
            f"jitter {jitter:g}; locations may contain near-duplicates"
        ) from exc
    white = rng.standard_normal(size=(x.shape[0], n_samples))
    fields = (chol @ white).T + mean
    return fields[0] if n_samples == 1 else fields
