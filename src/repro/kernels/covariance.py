"""Parametric covariance models over spatial locations.

A :class:`CovarianceModel` bundles a correlation family with a parameter
vector ``theta`` and a distance metric, and knows how to materialize

* the full ``(n, n)`` covariance matrix ``Sigma(theta)`` (paper §III),
* arbitrary rectangular *tiles* ``Sigma[rows, cols]`` — the unit of work
  for tile and TLR algorithms, generated on demand so the full dense
  matrix never needs to exist for compressed paths,
* cross-covariance blocks between two location sets (prediction, eq. (2)).

The Matérn model (paper §IV) is the primary citizen; the named special
cases are provided as small subclasses for convenience and testing.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..utils.validation import as_float_array, check_locations, check_positive
from .distance import pairwise_distance, pairwise_distance_block
from .matern import gaussian_correlation, matern_correlation

__all__ = [
    "CovarianceModel",
    "MaternCovariance",
    "ExponentialCovariance",
    "WhittleCovariance",
    "GaussianCovariance",
    "PoweredExponentialCovariance",
]


class CovarianceModel:
    """Base class: stationary covariance ``C(r; theta)`` over a metric.

    Subclasses implement :meth:`correlation` mapping distances to
    correlations in ``[0, 1]``; this class handles variance scaling,
    nugget, matrix/tile assembly and parameter bookkeeping.

    Parameters
    ----------
    variance:
        Marginal variance :math:`\\theta_1 > 0`.
    metric:
        ``"euclidean"`` or ``"gcd"`` (great-circle on (lon, lat) degrees).
    nugget:
        Non-negative value added to the diagonal of symmetric matrices
        (measurement-error / numerical regularization). The paper's MLE
        uses zero nugget; samplers use a tiny jitter.
    """

    #: Ordered names of the parameters in ``theta`` (subclass-specific).
    param_names: Tuple[str, ...] = ("variance",)

    def __init__(self, variance: float = 1.0, *, metric: str = "euclidean", nugget: float = 0.0):
        self.variance = check_positive(variance, "variance")
        self.metric = metric
        self.nugget = check_positive(nugget, "nugget", strict=False)

    # ----------------------------------------------------------- interface
    def correlation(self, r: np.ndarray) -> np.ndarray:
        """Correlation at distances ``r`` (unit variance). Subclass hook."""
        raise NotImplementedError

    @property
    def theta(self) -> np.ndarray:
        """Parameter vector in the order of :attr:`param_names`."""
        return np.array([getattr(self, name) for name in self.param_names], dtype=np.float64)

    def with_theta(self, theta: Sequence[float]) -> "CovarianceModel":
        """Return a copy of this model with a new parameter vector.

        The optimizer calls this once per objective evaluation; it must be
        cheap and must not mutate ``self``.
        """
        theta = as_float_array(theta, "theta")
        if theta.shape != (len(self.param_names),):
            raise ShapeError(
                f"theta must have {len(self.param_names)} entries "
                f"({', '.join(self.param_names)}), got shape {theta.shape}"
            )
        kwargs = dict(zip(self.param_names, (float(t) for t in theta)))
        return type(self)(**kwargs, metric=self.metric, nugget=self.nugget)

    # ------------------------------------------------------------ assembly
    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Covariance at distances ``r``: ``variance * correlation(r)``."""
        return self.variance * self.correlation(np.asarray(r, dtype=np.float64))

    def matrix(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense covariance matrix between location sets ``x`` and ``y``.

        With ``y=None`` builds the symmetric ``Sigma(theta)`` including the
        nugget on the diagonal.
        """
        x = check_locations(x, "x")
        d = pairwise_distance(x, y, metric=self.metric)
        # The covariance overwrites the distances: one (n, m) array in all.
        return self.tile_from_distances(
            d, slice(0, d.shape[0]), slice(0, d.shape[1]), symmetric=y is None, out=d
        )

    def tile(
        self,
        x: np.ndarray,
        rows: slice,
        cols: slice,
        y: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Materialize the covariance tile ``Sigma[rows, cols]``.

        This is the *generation codelet* of the tile algorithms: only the
        requested block is ever formed, so TLR paths never allocate the
        full matrix. The nugget is applied to true diagonal entries only
        (which occur in diagonal tiles of the symmetric case).
        """
        x = check_locations(x, "x")
        y_arr = None if y is None else check_locations(y, "y")
        d = pairwise_distance_block(x, rows, cols, y_arr, metric=self.metric)
        return self.tile_from_distances(d, rows, cols, symmetric=y is None, out=d)

    def tile_from_distances(
        self,
        d: np.ndarray,
        rows: slice,
        cols: slice,
        *,
        symmetric: bool = True,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Covariance tile from a distance block.

        The theta-dependent half of tile *generation*: correlation +
        variance scaling (+ nugget) applied to the block
        :func:`~repro.kernels.distance.pairwise_distance_block` computed.

        Parameters
        ----------
        d:
            Distance block for ``locations[rows]`` x ``locations[cols]``
            (not mutated unless it is ``out``).
        rows, cols:
            The global slices the block covers; used to place the nugget
            on true diagonal entries.
        symmetric:
            True when rows and columns index the *same* location set
            (the ``y=None`` case of :meth:`tile`); only then is the
            nugget applied.
        out:
            Optional float64 array of ``d``'s shape for the tile; it may
            be ``d`` itself (a column panel is generated in place).
        """
        if out is None:
            cov = self(d)
        else:
            cov = self._correlation_into(d, out)
            cov *= self.variance
        if symmetric and self.nugget > 0.0:
            r0 = rows.start or 0
            c0 = cols.start or 0
            # Global indices [lo, hi) lie in both ranges: the true diagonal.
            lo = max(r0, c0)
            hi = min(r0 + cov.shape[0], c0 + cov.shape[1])
            if hi > lo:
                g = np.arange(lo, hi)
                cov[g - r0, g - c0] += self.nugget
        return cov

    def _correlation_into(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`correlation` into ``out`` (which may be ``r``)."""
        out[...] = self.correlation(r)
        return out

    def matrix_from_distances(self, d: np.ndarray, *, symmetric: bool = True) -> np.ndarray:
        """Full covariance matrix from a precomputed distance matrix.

        The full-block analogue of :meth:`tile_from_distances`, equal to
        :meth:`matrix` bit for bit when ``d`` is ``pairwise_distance(x)``.
        ``d`` is not mutated; the result is freshly allocated.
        """
        cov = self(d)
        if symmetric and self.nugget > 0.0:
            cov[np.diag_indices_from(cov)] += self.nugget
        return cov

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{n}={getattr(self, n):.6g}" for n in self.param_names)
        return f"{type(self).__name__}({params}, metric={self.metric!r})"


class MaternCovariance(CovarianceModel):
    """The Matérn model of paper eq. (5) with ``theta = (θ1, θ2, θ3)``.

    Parameters
    ----------
    variance, range_, smoothness:
        :math:`\\theta_1, \\theta_2, \\theta_3` — all strictly positive.

    Examples
    --------
    >>> import numpy as np
    >>> cov = MaternCovariance(1.0, 0.1, 0.5)
    >>> float(cov(np.array(0.0)))
    1.0
    """

    param_names = ("variance", "range_", "smoothness")

    def __init__(
        self,
        variance: float = 1.0,
        range_: float = 0.1,
        smoothness: float = 0.5,
        *,
        metric: str = "euclidean",
        nugget: float = 0.0,
    ):
        super().__init__(variance, metric=metric, nugget=nugget)
        self.range_ = check_positive(range_, "range_")
        self.smoothness = check_positive(smoothness, "smoothness")

    def correlation(self, r: np.ndarray) -> np.ndarray:
        return matern_correlation(r, self.range_, self.smoothness)

    def _correlation_into(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        return matern_correlation(r, self.range_, self.smoothness, out=out)


class ExponentialCovariance(MaternCovariance):
    """Exponential model ``θ1 exp(-r/θ2)`` — Matérn with ν fixed at 1/2."""

    param_names = ("variance", "range_")

    def __init__(
        self,
        variance: float = 1.0,
        range_: float = 0.1,
        *,
        metric: str = "euclidean",
        nugget: float = 0.0,
    ):
        super().__init__(variance, range_, 0.5, metric=metric, nugget=nugget)


class WhittleCovariance(MaternCovariance):
    """Whittle model ``θ1 (r/θ2) K_1(r/θ2)`` — Matérn with ν fixed at 1."""

    param_names = ("variance", "range_")

    def __init__(
        self,
        variance: float = 1.0,
        range_: float = 0.1,
        *,
        metric: str = "euclidean",
        nugget: float = 0.0,
    ):
        super().__init__(variance, range_, 1.0, metric=metric, nugget=nugget)


class GaussianCovariance(CovarianceModel):
    """Gaussian model ``θ1 exp(-r²/(2 θ2²))`` — the ν → ∞ Matérn limit."""

    param_names = ("variance", "range_")

    def __init__(
        self,
        variance: float = 1.0,
        range_: float = 0.1,
        *,
        metric: str = "euclidean",
        nugget: float = 0.0,
    ):
        super().__init__(variance, metric=metric, nugget=nugget)
        self.range_ = check_positive(range_, "range_")

    def correlation(self, r: np.ndarray) -> np.ndarray:
        return gaussian_correlation(r, self.range_)


class PoweredExponentialCovariance(CovarianceModel):
    """Powered exponential ``θ1 exp(-(r/θ2)^p)`` with ``0 < p <= 2``.

    Included as an additional valid stationary family for tests and
    ablations (it interpolates exponential ``p=1`` and Gaussian ``p=2``).
    """

    param_names = ("variance", "range_", "power")

    def __init__(
        self,
        variance: float = 1.0,
        range_: float = 0.1,
        power: float = 1.0,
        *,
        metric: str = "euclidean",
        nugget: float = 0.0,
    ):
        super().__init__(variance, metric=metric, nugget=nugget)
        self.range_ = check_positive(range_, "range_")
        self.power = check_positive(power, "power")
        if not (0.0 < self.power <= 2.0):
            raise ShapeError(f"power must lie in (0, 2], got {self.power}")

    def correlation(self, r: np.ndarray) -> np.ndarray:
        x = np.asarray(r, dtype=np.float64) / self.range_
        return np.exp(-np.power(x, self.power))
