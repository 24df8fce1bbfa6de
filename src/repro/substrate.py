"""The substrate a likelihood is factored on, as one frozen value.

An MLE is reproducible only if the fit, the bundle it is saved as and
every refit job factor on the same variant, tile size, accuracy,
compressor, truncation rule and compression batch. Public constructors
call :meth:`Substrate.resolve` once — unset fields come from a given
substrate, else from the caller's :class:`~repro.config.Config` — keep
the result as ``self.substrate``, read it back through read-only
attributes, and hand it on as ``variant=``. Bundle ``meta.json`` and
job ``spec.json`` persist it through :meth:`Substrate.to_meta`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Union

from .exceptions import ConfigurationError

__all__ = ["Substrate", "VARIANTS", "substrate_view"]

VARIANTS = ("full-block", "full-tile", "tlr")
_VALID_COMPRESSION = ("svd", "rsvd")
_VALID_TRUNCATION = ("relative", "absolute")
#: Keys every persisted substrate has (``compression_batch`` came later).
_META_KEYS = ("variant", "tile_size", "acc", "compression_method", "truncation")


@dataclass(frozen=True)
class Substrate:
    """A validated substrate (construction runs :meth:`validate`).

    ``variant``: ``"full-block"``, ``"full-tile"`` or ``"tlr"``;
    ``tile_size``: ``nb >= 2``; ``acc``: TLR accuracy in ``(0, 1)``;
    ``compression_method``: ``"svd"`` (certified) or ``"rsvd"``
    (randomized); ``truncation``: keep singular values above ``acc *
    sigma_1`` (``"relative"``) or ``acc`` (``"absolute"``);
    ``compression_batch``: off-diagonal TLR tiles per Cholesky task
    (``>= 1``; values are identical for any batch).
    """

    variant: str
    tile_size: int
    acc: float
    compression_method: str
    truncation: str
    compression_batch: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an unknown name or an out-of-range value."""
        for name, known in (
            ("variant", VARIANTS),
            ("compression_method", _VALID_COMPRESSION),
            ("truncation", _VALID_TRUNCATION),
        ):
            if getattr(self, name) not in known:
                raise ConfigurationError(
                    f"unknown {name} {getattr(self, name)!r}; known: {known}"
                )
        if not 0.0 < self.acc < 1.0:  # also false for NaN
            raise ConfigurationError(f"acc must be finite and in (0, 1), got {self.acc}")
        for name, minimum in (("tile_size", 2), ("compression_batch", 1)):
            if getattr(self, name) < minimum:
                raise ConfigurationError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)}"
                )

    @classmethod
    def resolve(
        cls,
        variant: Union[str, "Substrate", None] = None,
        *,
        tile_size: Optional[int] = None,
        acc: Optional[float] = None,
        compression_method: Optional[str] = None,
        truncation: Optional[str] = None,
        compression_batch: Optional[int] = None,
        base: Optional["Substrate"] = None,
        n: Optional[int] = None,
        error: type = ConfigurationError,
    ) -> "Substrate":
        """The substrate the given fields name, ``None`` meaning unset.

        A :class:`Substrate` passed as ``variant`` is the ``base``. Unset
        fields come from ``base``, else from the calling thread's
        ``Config`` (variant: ``"full-block"``); then, given the problem
        size ``n`` and ``Config.auto_tune``, an unset tile/TLR
        ``tile_size`` comes from the calibrated planner when it can plan
        one. Any bad value raises ``error``, so each layer keeps its own
        typed error.
        """
        if isinstance(variant, Substrate):
            base, variant = variant, None
        try:
            if base is None:
                from .config import get_config  # config imports this module

                cfg = get_config()
                variant = "full-block" if variant is None else variant
                acc = cfg.tlr_accuracy if acc is None else acc
                if tile_size is None and n is not None and cfg.auto_tune:
                    if variant != "full-block":
                        from .perfmodel.planner import planned_tile_size

                        tile_size = planned_tile_size(int(n), variant=variant, acc=float(acc))
                base = cls(
                    "full-block", cfg.tile_size, cfg.tlr_accuracy,
                    cfg.compression_method, cfg.truncation, cfg.compression_batch,
                )
            return cls(
                base.variant if variant is None else variant,
                base.tile_size if tile_size is None else int(tile_size),
                base.acc if acc is None else float(acc),
                base.compression_method if compression_method is None else compression_method,
                base.truncation if truncation is None else truncation,
                base.compression_batch if compression_batch is None else int(compression_batch),
            )
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise error(str(exc)) from None

    def to_meta(self) -> dict:
        """The JSON form persisted as ``substrate`` in meta and spec files."""
        return asdict(self)

    @classmethod
    def from_meta(cls, meta: object, *, error: type = ConfigurationError) -> "Substrate":
        """Rebuild from :meth:`to_meta` output; anything malformed raises ``error``."""
        if not isinstance(meta, dict) or any(key not in meta for key in _META_KEYS):
            raise error(f"substrate section needs the keys {_META_KEYS}, got {meta!r}")
        fields = {key: meta[key] for key in _META_KEYS}
        return cls.resolve(**fields, compression_batch=meta.get("compression_batch"), error=error)


def substrate_view(field: str) -> property:
    """A read-only attribute showing ``self.substrate.<field>``."""
    return property(lambda self: getattr(self.substrate, field), doc=f"``substrate.{field}``.")
