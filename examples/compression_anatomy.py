#!/usr/bin/env python
"""Anatomy of TLR compression (paper §V, Figure 1).

Builds a Matérn covariance matrix, compresses it tile by tile at several
accuracy thresholds, and prints the per-tile rank structure — the
variable-rank pattern sketched in the paper's Figure 1 — plus the effect
of Morton ordering and the choice of compressor. Exits non-zero when a
compressor misses its spectral-norm accuracy contract at 1e-7 or 1e-9.

Run:  python examples/compression_anatomy.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.data import generate_irregular_grid, sort_locations
from repro.experiments.ablation import compression_method_study, ordering_study
from repro.kernels import MaternCovariance
from repro.linalg import TLRMatrix


def rank_structure() -> None:
    n, nb = 900, 150
    locs = generate_irregular_grid(n, seed=0)
    locs, _, _ = sort_locations(locs)
    model = MaternCovariance(1.0, 0.1, 0.5)
    print(f"Matérn covariance, n={n}, tile size nb={nb} ({n // nb} tiles/side)\n")
    for acc in (1e-3, 1e-7, 1e-12):
        tlr = TLRMatrix.from_generator(
            n, nb, lambda rs, cs: model.tile(locs, rs, cs), acc=acc
        )
        rm = tlr.rank_matrix()
        print(f"accuracy {acc:.0e}: tile ranks (diagonal tiles are dense, '-')")
        for i in range(tlr.nt):
            row = " ".join(
                "  - " if i == j else f"{rm[i, j]:4d}" for j in range(tlr.nt)
            )
            print("   " + row)
        print(
            f"   max rank {tlr.max_rank():3d}   mean {tlr.mean_rank():6.1f}   "
            f"memory {tlr.nbytes / 1e6:6.2f} MB vs dense "
            f"{tlr.dense_nbytes() / 1e6:6.2f} MB  (ratio {tlr.compression_ratio():.2f}x)\n"
        )


#: ``||A - UV||_2 <= CONTRACT_SLACK[method] * acc * ||A||_2``: ``svd`` is
#: certified, so it gets no slack; the randomized compressor keeps the unit
#: tests' 10x.
CONTRACT_SLACK = {"svd": 1.0, "rsvd": 10.0}


def accuracy_contract() -> list:
    """Print the compressor comparison at 1e-7 and 1e-9; return the misses."""
    misses = []
    for acc in (1e-7, 1e-9):
        table = compression_method_study(acc=acc)
        print(table.render())
        for tile, method, _rank, err, _ms in table.rows:
            if not err <= CONTRACT_SLACK[method] * acc:
                misses.append(f"{method} on the {tile} tile at acc {acc:.0e}: error {err:.2e}")
    return misses


def main() -> int:
    rank_structure()
    print(ordering_study(n=1024, nb=128).render())
    misses = accuracy_contract()
    if misses:
        print("Accuracy contract missed:\n  " + "\n  ".join(misses))
        return 1
    print(
        "Take-aways: ranks fall with tile separation and rise with accuracy;"
        "\nMorton ordering is what makes off-diagonal tiles low-rank; both"
        "\ncompressors honour the accuracy contract at different costs."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
