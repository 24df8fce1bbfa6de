"""Distance metrics between spatial locations (paper §IV).

Two metrics are used by the paper:

* **Euclidean distance** for synthetic locations on the unit square;
* **Great-Circle Distance (GCD)** via the haversine formula (paper
  eq. (6)) for real datasets indexed by longitude/latitude on a sphere.

Both are implemented as fully vectorized pairwise-matrix builders; the
Euclidean path uses the expanded-square identity (one GEMM plus two
row/column norms) rather than an ``O(n^2 d)`` Python loop, following the
"vectorize, and lean on BLAS" idiom of the HPC guides. Every builder can
compute in a caller's array (``out=``): that is how a column panel of
``Sigma_22`` is generated in the tile matrix's own storage.
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

#: Entries per chunk of the Euclidean norm sums (64 KiB: cache-resident).
_CHUNK = 8192


def euclidean_distance_matrix(
    x: np.ndarray, y: Optional[np.ndarray] = None, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``x`` and ``y``.

    Parameters
    ----------
    x:
        ``(n, d)`` array of locations.
    y:
        ``(m, d)`` array; defaults to ``x`` (symmetric case).
    out:
        Optional C-contiguous ``(n, m)`` float64 array to compute in.

    Returns
    -------
    ``(n, m)`` distance matrix (``out`` when given).

    Notes
    -----
    Uses ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` so the inner work is a
    single BLAS GEMM, in the result's storage (the norms are added in
    row chunks of :data:`_CHUNK` entries). Tiny negative values from
    cancellation are clipped before the square root, and the
    self-distance diagonal is forced to exactly zero in the symmetric
    case.
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
    d = np.matmul(x, y_arr.T, out=out)
    # (-2 a.b) + (|a|^2 + |b|^2) is |a|^2 + |b|^2 - 2 a.b, bit for bit.
    d *= -2.0
    step = max(1, _CHUNK // max(1, d.shape[1]))
    for lo in range(0, d.shape[0], step):
        d[lo : lo + step] += xx[lo : lo + step, None] + yy
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
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
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    *,
    unit: str = "deg",
    out: Optional[np.ndarray] = None,
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
    out:
        Optional ``(n, m)`` float64 array the result is written to.
    """
    x = check_locations(x, "x")
    symmetric = y is None
    y_arr = x if symmetric else check_locations(y, "y")
    if x.shape[1] != 2 or y_arr.shape[1] != 2:
        raise ShapeError("great-circle metric requires (lon, lat) pairs")
    d = haversine(
        x[:, 0][:, None], x[:, 1][:, None], y_arr[None, :, 0], y_arr[None, :, 1], unit=unit
    )
    if out is not None:
        out[...] = d
        d = out
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
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dispatch to a registered pairwise distance builder.

    Parameters
    ----------
    metric:
        One of ``"euclidean"``, ``"gcd"``/``"great_circle"``.
    out:
        Optional C-contiguous float64 array of the result's shape.
    """
    try:
        fn = METRICS[metric]
    except KeyError:
        raise ShapeError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}") from None
    return fn(x, y, out=out)


def pairwise_distance_block(
    x: np.ndarray,
    rows: slice,
    cols: slice,
    y: Optional[np.ndarray] = None,
    *,
    metric: str = "euclidean",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distance block between ``x[rows]`` and ``y[cols]`` (``y`` defaults to ``x``).

    The single code path of every tile and column-panel generator
    (:meth:`repro.kernels.covariance.CovarianceModel.tile`,
    :class:`repro.linalg.generation.TileDistanceCache`), computed in
    ``out`` when given, so an entry has the same bits in any block.

    Both operands are passed explicitly (never the ``y=None`` symmetric
    fast path), so every block takes the same arithmetic; self-distances
    (where the row and column ranges overlap) are then set to exactly 0,
    as the full matrix's are — the GEMM-trick rounding (~1e-8) would
    otherwise make the tile substrates disagree with full-block on
    ``Sigma``'s diagonal and turn it into ``exp(-inf) = 0`` at a tiny
    range.
    """
    y_arr = x if y is None else y
    d = pairwise_distance(x[rows], y_arr[cols], metric=metric, out=out)
    if y is None:
        r0, c0 = rows.indices(len(x))[0], cols.indices(len(x))[0]
        lo, hi = max(r0, c0), min(r0 + d.shape[0], c0 + d.shape[1])
        if hi > lo:
            g = np.arange(lo, hi)
            d[g - r0, g - c0] = 0.0
    return d
