"""Persisted fits: the ``meta.json`` + ``arrays.npz`` model bundle.

ExaGeoStat's workflow — and ExaGeoStatR's packaging of it — is *fit
once, predict many times*. Serving that workflow at scale (ROADMAP
north star) requires the "fit once" half to survive the process that
ran it: a fitted model must be shippable to serving workers that never
saw the training data pipeline. :class:`ModelBundle` is that unit of
shipment. It captures

* the fitted covariance model (family, ``theta``, metric, nugget),
* the (Morton-ordered) training locations and observations,
* the substrate (a :class:`~repro.substrate.Substrate`: variant,
  ``nb``, ``acc``, compressor, truncation rule, compression batch),
* optionally the ``Sigma_22`` Cholesky factor in its native substrate
  format (dense / tile / TLR), so a loaded engine adopts the *exact*
  factor the fit produced — predictions from a fresh process are then
  bit-identical to the fitting process, and the first request skips
  generation and factorization entirely.

No distance data is stored: an engine computes ``Sigma_22``'s
distances in the task, from the coordinates. Bundles written by older
builds may carry distance arrays (``dist_*``, ``full_distances``);
loading ignores them.

On disk a bundle is a directory holding ``meta.json`` (everything
scalar, versioned) and ``arrays.npz`` (every array, with structured
keys for factor tiles). Both files are plain formats readable without
this library.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import BundleCorruptError, BundleError
from ..resilience.faults import fault_point
from ..kernels import covariance as _covariance
from ..kernels.covariance import CovarianceModel
from ..linalg.compression import LowRank
from ..linalg.tile_matrix import TileGrid, TileMatrix
from ..linalg.tlr_matrix import TLRMatrix
from ..mle.prediction_engine import Factor, PredictionEngine
from ..substrate import Substrate, substrate_view
from ..utils.durable import atomic_write

__all__ = [
    "ModelBundle",
    "save_model",
    "load_model",
    "bundle_from_fit",
    "model_to_spec",
    "model_from_spec",
]

#: On-disk format version; bumped on breaking layout changes.
FORMAT_VERSION = 1

META_NAME = "meta.json"
ARRAYS_NAME = "arrays.npz"

#: Covariance families a bundle may reference, by class name.
KERNEL_FAMILIES: Dict[str, type] = {
    name: getattr(_covariance, name) for name in _covariance.__all__
}


def _sha256_file(path: Path, chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _quarantine(path: Path) -> Path:
    """Rename a corrupt bundle directory to ``<name>.corrupt`` (counter
    suffixed if a previous quarantine already claimed the name) so
    retries and registry rehydrations stop re-reading the bad copy."""
    target = path.with_name(path.name + ".corrupt")
    counter = 1
    while target.exists():
        target = path.with_name(f"{path.name}.corrupt{counter}")
        counter += 1
    try:
        os.replace(path, target)
    except OSError:
        return path  # e.g. concurrent quarantine; the error still raises
    return target


def read_meta(path: Union[str, Path]) -> dict:
    """A bundle directory's ``meta.json`` (its arrays are not read)."""
    path = Path(path)
    meta_path = path / META_NAME
    if not meta_path.is_file() or not (path / ARRAYS_NAME).is_file():
        raise BundleError(
            f"{path} is not a model bundle (missing {META_NAME} or {ARRAYS_NAME})"
        )
    try:
        with meta_path.open() as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BundleError(f"{meta_path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise BundleError(f"{meta_path} must hold a JSON object, got {type(meta).__name__}")
    return meta


def model_to_spec(model: CovarianceModel) -> dict:
    """The JSON-able description of a covariance model (family + theta +
    metric + nugget) used by bundle ``meta.json`` and fit-job specs."""
    return {
        "family": type(model).__name__,
        "param_names": list(model.param_names),
        "theta": [float(t) for t in model.theta],
        "metric": model.metric,
        "nugget": float(model.nugget),
    }


def model_from_spec(spec: dict) -> CovarianceModel:
    """Rebuild a covariance model from :func:`model_to_spec` output."""
    if not isinstance(spec, dict):
        raise BundleError(f"model spec must be an object, got {type(spec).__name__}")
    family = spec.get("family")
    cls = KERNEL_FAMILIES.get(family)
    if cls is None:
        raise BundleError(
            f"unknown covariance family {family!r}; known: {sorted(KERNEL_FAMILIES)}"
        )
    try:
        model = cls(metric=spec["metric"], nugget=spec["nugget"])
        theta = spec["theta"]
    except KeyError as exc:
        raise BundleError(f"model spec is missing required key {exc}") from exc
    if list(model.param_names) != list(spec.get("param_names", model.param_names)):
        raise BundleError(
            f"bundle parameter names {spec.get('param_names')} do not match "
            f"{family}'s {list(model.param_names)}"
        )
    return model.with_theta(theta)


@dataclass
class ModelBundle:
    """A fitted model plus everything needed to serve it.

    Attributes
    ----------
    model:
        Fitted covariance model (at the fit's ``theta``).
    locations:
        ``(n, d)`` training locations in the order the fit used them
        (Morton-ordered when the estimator reordered).
    z:
        ``(n,)`` or ``(n, k)`` observations in the same order, or
        ``None`` for a variance-only model.
    substrate:
        The fit's :class:`~repro.substrate.Substrate` (and the serving
        engine's), resolved once from the keywords ``variant`` (a name or
        a ``Substrate``), ``acc``, ``tile_size``, ``compression_method``
        and ``truncation``, which read it back. Bad values: BundleError.
    factor:
        Optional ``Sigma_22`` Cholesky factor in the substrate's native
        format; adopted verbatim by :meth:`build_engine`.
    perm:
        Optional ``(n,)`` permutation mapping the fit's *original*
        input row order to the stored (Morton-ordered) rows:
        ``locations == original_locations[perm]``. Lets a refit align
        new observations supplied in the original order (the
        :class:`~repro.fitting.FitJobSpec` inline-``z`` contract) with
        the stored locations.
    info:
        Free-form scalar metadata (loglik, n_evals, ...) persisted into
        ``meta.json``.
    """

    model: CovarianceModel
    locations: np.ndarray
    z: Optional[np.ndarray]
    variant: InitVar[Union[str, Substrate]] = "full-block"
    acc: InitVar[Optional[float]] = None
    tile_size: InitVar[Optional[int]] = None
    compression_method: InitVar[Optional[str]] = None
    truncation: InitVar[Optional[str]] = None
    factor: Optional[Factor] = None
    perm: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)
    substrate: Substrate = field(init=False)

    def __post_init__(self, variant, acc, tile_size, compression_method, truncation) -> None:
        self.locations = np.ascontiguousarray(self.locations, dtype=np.float64)
        if self.z is not None:
            self.z = np.ascontiguousarray(self.z, dtype=np.float64)
        self.substrate = Substrate.resolve(
            variant, acc=acc, tile_size=tile_size, compression_method=compression_method,
            truncation=truncation, n=self.locations.shape[0], error=BundleError,
        )

    # -------------------------------------------------------------- payload
    def to_payload(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """The bundle as ``(meta, arrays)`` — the serialization both the
        on-disk format (:meth:`save`) and the binary wire transport
        (register-by-upload) share. ``meta`` is everything scalar
        (JSON-able, without file checksums); ``arrays`` holds every
        array under the structured key scheme (``factor_tile_i_j``,
        ``factor_u_i_j``, ...).
        """
        arrays: Dict[str, np.ndarray] = {"locations": self.locations}
        if self.z is not None:
            arrays["z"] = self.z
        factor_kind = self._pack_factor(arrays)
        if self.perm is not None:
            arrays["perm"] = np.asarray(self.perm, dtype=np.int64)
        meta = {
            "format_version": FORMAT_VERSION,
            "model": model_to_spec(self.model),
            "substrate": self.substrate.to_meta(),
            "n": int(self.locations.shape[0]),
            "dim": int(self.locations.shape[1]),
            "has_z": self.z is not None,
            "factor_kind": factor_kind,
            "info": dict(self.info),
        }
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "ModelBundle":
        """Rebuild a bundle from :meth:`to_payload` output (or from a
        decoded wire message / a read ``meta.json`` + ``arrays.npz``
        pair). Raises :class:`BundleError` on version or structure
        problems and on a substrate that fails its check. The tiles of a
        dense tile factor are moved out of ``arrays`` as they are copied
        into the factor's storage."""
        if not isinstance(meta, dict):
            raise BundleError(
                f"bundle meta must be an object, got {type(meta).__name__}"
            )
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise BundleError(
                f"bundle format version {version!r} unsupported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        missing = [key for key in ("model", "substrate", "n") if key not in meta]
        if missing:
            raise BundleError(f"bundle meta is missing {missing}")
        try:
            if "locations" not in arrays:
                raise BundleError("bundle payload is missing the locations array")
            bundle = cls(
                model=model_from_spec(meta["model"]),
                locations=arrays["locations"],
                z=arrays.get("z"),
                variant=Substrate.from_meta(meta["substrate"], error=BundleError),
                info=dict(meta.get("info", {})),
            )
            bundle.factor = cls._unpack_factor(meta, arrays, bundle)
        except KeyError as exc:
            raise BundleError(
                f"bundle payload is malformed: missing required key {exc}"
            ) from exc
        bundle.perm = arrays.get("perm")
        return bundle

    # ----------------------------------------------------------------- save
    def save(self, path: Union[str, Path]) -> Path:
        """Write the bundle directory (``meta.json`` + ``arrays.npz``).

        ``arrays.npz`` (the long write — factors are O(n²)) lands
        first and ``meta.json`` last, so the metadata's existence is
        the commit marker: a writer killed mid-save leaves a directory
        that readers — and the fit orchestrator's finalize check —
        recognize as incomplete rather than a torn bundle that loads
        half-way.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        meta, arrays = self.to_payload()
        with atomic_write(path / ARRAYS_NAME, "wb") as fh:
            np.savez(fh, **arrays)
        # The checksum is computed over the *renamed* payload so a read-back
        # verifies exactly what load() will see; meta.json still lands last
        # as the commit marker.
        meta["checksums"] = {ARRAYS_NAME: _sha256_file(path / ARRAYS_NAME)}
        with atomic_write(path / META_NAME) as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def _pack_factor(self, arrays: Dict[str, np.ndarray]) -> Optional[str]:
        if self.factor is None:
            return None
        if isinstance(self.factor, TileMatrix):
            for i, j, tile in self.factor.iter_stored():
                arrays[f"factor_tile_{i}_{j}"] = tile
            return "tile"
        if isinstance(self.factor, TLRMatrix):
            for k in range(self.factor.nt):
                arrays[f"factor_diag_{k}"] = self.factor.diag[k]
            for (i, j), lr in self.factor.low.items():
                arrays[f"factor_u_{i}_{j}"] = lr.u
                arrays[f"factor_v_{i}_{j}"] = lr.v
            return "tlr"
        arrays["factor"] = np.asarray(self.factor)
        return "dense"

    # ----------------------------------------------------------------- load
    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelBundle":
        """Read a bundle directory written by :meth:`save`."""
        path = Path(path)
        meta = read_meta(path)
        arrays_path = path / ARRAYS_NAME
        fault_point("store.load", path=str(arrays_path))
        checksums = meta.get("checksums")
        if isinstance(checksums, dict) and ARRAYS_NAME in checksums:
            actual = _sha256_file(arrays_path)
            if actual != checksums[ARRAYS_NAME]:
                quarantined = _quarantine(path)
                raise BundleCorruptError(
                    f"bundle at {path} failed its integrity check: "
                    f"{ARRAYS_NAME} sha256 {actual[:12]}... does not match "
                    f"recorded {str(checksums[ARRAYS_NAME])[:12]}...; "
                    f"quarantined at {quarantined}"
                )
        try:
            with np.load(arrays_path) as npz:
                arrays = {k: npz[k] for k in npz.files}
        except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as exc:
            quarantined = _quarantine(path)
            raise BundleCorruptError(
                f"bundle at {path} has an unreadable {ARRAYS_NAME} "
                f"({type(exc).__name__}: {exc}); quarantined at {quarantined}"
            ) from exc
        try:
            return cls.from_payload(meta, arrays)
        except BundleError as exc:
            raise BundleError(f"bundle at {path} is malformed: {exc}") from exc

    @staticmethod
    def _unpack_factor(meta: dict, arrays: Dict[str, np.ndarray], bundle: "ModelBundle"):
        kind = meta.get("factor_kind")
        if kind is None:
            return None
        n, nb = meta["n"], bundle.tile_size
        if kind == "dense":
            return arrays["factor"]
        if kind == "tile":
            tm = TileMatrix(TileGrid(n, nb), symmetric_lower=True)
            names = [name for name in arrays if name.startswith("factor_tile_")]
            expected = tm.nt * (tm.nt + 1) // 2
            if len(names) != expected:
                raise BundleError(
                    f"tile factor has {len(names)} tiles, expected {expected} "
                    f"for n={n}, nb={nb}"
                )
            for name in names:
                _, _, i, j = name.split("_")
                # set_tile copies into the column array; popping releases
                # each loaded tile as it lands, so the factor is never
                # resident twice.
                tm.set_tile(int(i), int(j), arrays.pop(name))
            return tm
        if kind == "tlr":
            grid = TileGrid(n, nb)
            tlr = TLRMatrix(grid, float(bundle.acc))
            for name, arr in arrays.items():
                if name.startswith("factor_diag_"):
                    tlr.diag[int(name.rsplit("_", 1)[1])] = np.ascontiguousarray(arr)
            for name, arr in arrays.items():
                if name.startswith("factor_u_"):
                    _, _, i, j = name.split("_")
                    v = arrays[f"factor_v_{i}_{j}"]
                    tlr.low[(int(i), int(j))] = LowRank(
                        np.ascontiguousarray(arr), np.ascontiguousarray(v)
                    )
            if any(d is None for d in tlr.diag):
                raise BundleError("TLR factor is missing diagonal tiles")
            return tlr
        raise BundleError(f"unknown factor kind {kind!r}")

    # --------------------------------------------------------------- engine
    def build_engine(self) -> PredictionEngine:
        """A ready-to-serve :class:`PredictionEngine` for this bundle.

        The engine is bound to the bundle's training set, observations
        and :attr:`substrate` — never the caller's
        :class:`~repro.config.Config`; a persisted factor is
        adopted (first predict skips generation + factorization). No
        fitting, no data pipeline. The engine is serial (no runtime).
        """
        engine = PredictionEngine(self.locations, self.z, self.model, variant=self.substrate)
        if self.factor is not None:
            engine.adopt_factor(self.factor, self.model)
        return engine

    @property
    def n(self) -> int:
        """Training-set size."""
        return int(self.locations.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelBundle(n={self.n}, variant={self.variant!r}, "
            f"model={type(self.model).__name__}, "
            f"factor={'yes' if self.factor is not None else 'no'})"
        )


for _name in ("variant", "acc", "tile_size", "compression_method", "truncation"):
    setattr(ModelBundle, _name, substrate_view(_name))


def save_model(bundle: ModelBundle, path: Union[str, Path]) -> Path:
    """Persist ``bundle`` at ``path`` (module-level alias of :meth:`ModelBundle.save`)."""
    return bundle.save(path)


def load_model(path: Union[str, Path]) -> ModelBundle:
    """Load a bundle directory (module-level alias of :meth:`ModelBundle.load`)."""
    return ModelBundle.load(path)


def bundle_from_fit(
    estimator,
    fit,
    *,
    include_factor: bool = True,
) -> ModelBundle:
    """Build a :class:`ModelBundle` from an :class:`MLEstimator` and its fit.

    With ``include_factor`` (default) the estimator's
    :meth:`~repro.mle.estimator.MLEstimator.predictor` factor at
    ``fit.theta`` is captured — computing it now if the fit did not
    leave one behind — so serving is bit-identical to in-process
    prediction and pays no first-request factorization.

    The fit's optimizer settings (:attr:`FitResult.options` — resolved
    seed, ``n_starts``, tolerances, bounds, starting point) are
    persisted under ``info["fit"]`` in ``meta.json``, so the served
    model's fit is reproducible from the bundle alone: rebuild an
    estimator from the bundle's data and substrate, replay ``fit`` with
    ``info["fit"]``'s settings, and the same theta comes back.
    """
    engine = estimator.predictor(fit)
    factor = engine.factor() if include_factor else None
    return ModelBundle(
        model=engine.model,
        locations=estimator.locations,
        z=estimator.z,
        variant=engine.substrate,
        factor=factor,
        perm=estimator._perm,
        info={
            "loglik": float(fit.loglik),
            "n_evals": int(fit.n_evals),
            "time_total": float(fit.time_total),
            "converged": bool(fit.optimizer.converged),
            "fit": dict(getattr(fit, "options", {}) or {}),
        },
    )
