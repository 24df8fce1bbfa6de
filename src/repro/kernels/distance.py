"""Distance metrics between spatial locations (paper §IV).

Two metrics are used by the paper:

* **Euclidean distance** for synthetic locations on the unit square;
* **Great-Circle Distance (GCD)** via the haversine formula (paper
  eq. (6)) for real datasets indexed by longitude/latitude on a sphere.

Both are implemented as fully vectorized pairwise-matrix builders; the
Euclidean path uses the expanded-square identity (one GEMM plus two
row/column norms) rather than an ``O(n^2 d)`` Python loop, following the
"vectorize, and lean on BLAS" idiom of the HPC guides. A chunked variant
keeps peak memory bounded when only tiles of the matrix are needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ShapeError
from ..utils.validation import check_locations

__all__ = [
    "euclidean_distance_matrix",
    "haversine",
    "great_circle_distance_matrix",
    "pairwise_distance",
    "pairwise_distance_block",
    "METRICS",
]

#: Mean Earth radius in kilometres (used when ``unit="km"``).
EARTH_RADIUS_KM = 6371.0088


def euclidean_distance_matrix(x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``x`` and ``y``.

    Parameters
    ----------
    x:
        ``(n, d)`` array of locations.
    y:
        ``(m, d)`` array; defaults to ``x`` (symmetric case).

    Returns
    -------
    ``(n, m)`` distance matrix.

    Notes
    -----
    Uses ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` so the inner work is a
    single BLAS GEMM. Tiny negative values from cancellation are clipped
    before the square root, and the self-distance diagonal is forced to
    exactly zero in the symmetric case.
    """
    x = check_locations(x, "x")
    symmetric = y is None
    y_arr = x if symmetric else check_locations(y, "y")
    if x.shape[1] != y_arr.shape[1]:
        raise ShapeError(
            f"x and y must share dimensionality, got {x.shape[1]} and {y_arr.shape[1]}"
        )
    xx = np.einsum("ij,ij->i", x, x)
    yy = xx if symmetric else np.einsum("ij,ij->i", y_arr, y_arr)
    sq = xx[:, None] + yy[None, :] - 2.0 * (x @ y_arr.T)
    np.maximum(sq, 0.0, out=sq)
    d = np.sqrt(sq, out=sq)
    if symmetric:
        np.fill_diagonal(d, 0.0)
    return d


def haversine(
    lon1: np.ndarray,
    lat1: np.ndarray,
    lon2: np.ndarray,
    lat2: np.ndarray,
    *,
    unit: str = "deg",
) -> np.ndarray:
    """Great-circle distance via the haversine formula (paper eq. (6)).

    Parameters
    ----------
    lon1, lat1, lon2, lat2:
        Coordinates in **degrees**; broadcast against each other.
    unit:
        ``"deg"`` returns the central angle in degrees (the unit system in
        which the paper's Table I/II range parameters live, given the
        stated "one degree is approximately 87.5 km" calibration);
        ``"rad"`` returns radians; ``"km"`` multiplies by the mean Earth
        radius.

    Returns
    -------
    Array of distances, broadcast shape of the inputs.
    """
    lam1, phi1, lam2, phi2 = (np.radians(np.asarray(a, dtype=np.float64)) for a in (lon1, lat1, lon2, lat2))
    dphi = phi2 - phi1
    dlam = lam2 - lam1
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    # Guard against rounding pushing h a hair outside [0, 1].
    h = np.clip(h, 0.0, 1.0)
    central = 2.0 * np.arcsin(np.sqrt(h))
    if unit == "rad":
        return central
    if unit == "deg":
        return np.degrees(central)
    if unit == "km":
        return EARTH_RADIUS_KM * central
    raise ShapeError(f"unknown unit {unit!r}; expected 'deg', 'rad' or 'km'")


def great_circle_distance_matrix(
    x: np.ndarray, y: Optional[np.ndarray] = None, *, unit: str = "deg"
) -> np.ndarray:
    """Pairwise great-circle distances between ``(lon, lat)`` rows.

    Parameters
    ----------
    x:
        ``(n, 2)`` array of ``(longitude, latitude)`` in degrees.
    y:
        ``(m, 2)`` array; defaults to ``x``.
    unit:
        Passed through to :func:`haversine`.
    """
    x = check_locations(x, "x")
    symmetric = y is None
    y_arr = x if symmetric else check_locations(y, "y")
    if x.shape[1] != 2 or y_arr.shape[1] != 2:
        raise ShapeError("great-circle metric requires (lon, lat) pairs")
    d = haversine(
        x[:, 0][:, None], x[:, 1][:, None], y_arr[None, :, 0], y_arr[None, :, 1], unit=unit
    )
    if symmetric:
        np.fill_diagonal(d, 0.0)
    return d


#: Registry of metric name -> pairwise matrix builder.
METRICS = {
    "euclidean": euclidean_distance_matrix,
    "gcd": great_circle_distance_matrix,
    "great_circle": great_circle_distance_matrix,
}


def pairwise_distance(
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    *,
    metric: str = "euclidean",
) -> np.ndarray:
    """Dispatch to a registered pairwise distance builder.

    Parameters
    ----------
    metric:
        One of ``"euclidean"``, ``"gcd"``/``"great_circle"``.
    """
    try:
        fn = METRICS[metric]
    except KeyError:
        raise ShapeError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}") from None
    return fn(x, y)


def pairwise_distance_block(
    x: np.ndarray,
    rows: slice,
    cols: slice,
    y: Optional[np.ndarray] = None,
    *,
    metric: str = "euclidean",
) -> np.ndarray:
    """Distance block between ``x[rows]`` and ``y[cols]`` (``y`` defaults to ``x``).

    The single code path used both for on-demand tile generation
    (:meth:`repro.kernels.covariance.CovarianceModel.tile`) and for the
    per-fit distance cache
    (:class:`repro.linalg.generation.TileDistanceCache`), so cached and
    direct generation produce bit-identical blocks.

    Both operands are passed explicitly (never the ``y=None`` symmetric
    fast path), so every block takes the same arithmetic; a diagonal
    block's self-distances are then set to exactly 0, as the full
    matrix's are — the GEMM-trick rounding (~1e-8) would otherwise make
    the tile substrates disagree with full-block on ``Sigma``'s diagonal
    and turn it into ``exp(-inf) = 0`` at a tiny range.
    """
    y_arr = x if y is None else y
    d = pairwise_distance(x[rows], y_arr[cols], metric=metric)
    if y is None and rows == cols:
        np.fill_diagonal(d, 0.0)
    return d
