"""Exact flop and byte counters for the tile / TLR kernels.

These formulas count the floating-point operations and the memory
traffic of precisely the algorithms implemented in :mod:`repro.linalg`,
so the performance model's inputs are not hand-waved: the same kernel
loop structure that runs at Python scale is what gets costed at paper
scale. Multiply-add counts as two flops throughout.

Byte counts assume each operand is streamed once per kernel invocation
(tiles are contiguous buffers sized to cache blocks, the design premise
of tile algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TaskCost",
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "gemm_flops",
    "lr_trsm_flops",
    "lr_syrk_flops",
    "lr_gemm_flops",
    "generation_flops",
    "compression_flops",
    "dense_tile_bytes",
    "lr_tile_bytes",
]

#: Estimated flops per covariance-matrix element (distance + Matérn from a
#: closed form or the per-ν table: a ``log``, a degree-4 Horner sweep over 5
#: gathered coefficients and an ``exp``); used for the generation stage cost.
KERNEL_EVAL_FLOPS = 60.0


@dataclass(frozen=True)
class TaskCost:
    """Flop and byte footprint of one task (or a summed task class)."""

    flops: float
    bytes: float

    def __add__(self, other: "TaskCost") -> "TaskCost":
        return TaskCost(self.flops + other.flops, self.bytes + other.bytes)


def potrf_flops(nb: int) -> float:
    """Cholesky of an ``nb x nb`` tile: ``nb^3/3 + nb^2/2 + nb/6``."""
    return nb**3 / 3.0 + nb**2 / 2.0 + nb / 6.0


def trsm_flops(nb: int, m: int | None = None) -> float:
    """Triangular solve of an ``m x nb`` block against an ``nb x nb`` factor.

    Defaults to the square panel case ``m = nb`` used by the tile
    Cholesky; the multi-RHS solves of prediction pass ``m`` explicitly.
    """
    m = nb if m is None else m
    return 1.0 * m * nb * nb


def syrk_flops(nb: int, k: int | None = None) -> float:
    """Symmetric rank-k update of an ``nb x nb`` tile (``k`` defaults to nb)."""
    k = nb if k is None else k
    return 1.0 * nb * nb * k  # symmetric: half of 2*nb^2*k


def gemm_flops(m: int, k: int, n: int) -> float:
    """General ``(m x k) @ (k x n)`` multiply-accumulate: ``2 m k n``."""
    return 2.0 * m * k * n


def lr_trsm_flops(nb: int, k: int) -> float:
    """TLR TRSM touches only the ``k x nb`` V factor: ``k nb^2`` flops."""
    return 1.0 * k * nb * nb


def lr_syrk_flops(nb: int, k: int) -> float:
    """TLR SYRK ``D -= U (V V^T) U^T``: two skinny GEMMs plus a Gram matrix.

    ``V V^T``: ``2 k^2 nb``; ``U @ W``: ``2 nb k^2``; ``T @ U^T`` (symmetric
    output, half counted): ``nb^2 k``.
    """
    return 4.0 * k * k * nb + 1.0 * nb * nb * k


def lr_gemm_flops(nb: int, k_ij: int, k_ik: int, k_jk: int) -> float:
    """TLR GEMM + recompression for one trailing-update tile of the
    right-looking (HiCMA) schedule that the cluster projections model.

    Product: ``V_ik V_jk^T`` (``2 k_ik k_jk nb``) and ``W U_jk^T``
    (``2 k_ik k_jk nb``). Rounding of the concatenated rank
    ``K = k_ij + k_ik``: two thin QRs (``~4 nb K^2``), a ``K x K`` SVD
    (``~22 K^3``), and factor reassembly (``~4 nb K k_new``, bounded by
    ``4 nb K^2``).
    """
    kk = k_ij + k_ik
    product = 4.0 * k_ik * k_jk * nb
    rounding = 8.0 * nb * kk * kk + 22.0 * kk**3
    return product + rounding


def generation_flops(rows: int, cols: int) -> float:
    """Covariance tile generation: ``KERNEL_EVAL_FLOPS`` per element."""
    return KERNEL_EVAL_FLOPS * rows * cols


def compression_flops(nb: int, k: int) -> float:
    """Adaptive (RSVD-class) compression of an ``nb x nb`` tile to rank k.

    ``O(nb^2 k)`` with a modest constant (sketch multiply + QR + small
    SVD), the class of method HiCMA's production path uses. The code's
    default ``svd`` compressor costs more: a column-pivoted QR
    (``4/3 nb^3``) plus an SVD of the ``j ~ k`` rows of ``R`` it keeps
    (``O(nb j^2)``). This model does not price that yet.
    """
    return 6.0 * nb * nb * max(1, k)


def dense_tile_bytes(nb: int, m: int | None = None) -> float:
    """Bytes of a dense ``m x nb`` tile (float64)."""
    m = nb if m is None else m
    return 8.0 * m * nb


def lr_tile_bytes(nb: int, k: int) -> float:
    """Bytes of a rank-``k`` low-rank tile: the U and V factors."""
    return 8.0 * 2.0 * nb * k
