#!/usr/bin/env python
"""Quickstart: TLR-accelerated maximum likelihood estimation + kriging.

Reproduces the paper's core workflow (Figure 2 setup) end to end:

1. generate 400 irregular spatial locations on the unit square;
2. sample a Gaussian random field with a known Matérn model;
3. hold out 38 points, fit the Matérn parameters by MLE on the other
   362 — once with the exact dense solver and once with TLR
   approximation at two accuracy thresholds;
4. predict the held-out values and compare mean squared errors.

Every fit below runs through the *generation pipeline*: each
likelihood evaluation generates ``Sigma_22`` with its distances computed
in the task, from coordinates, so a fit holds the locations and the
factor and no distance data (the paper's point: TLR compresses the
O(n²) storage away, and a distance cache would put it back). Passing a
``Runtime`` to ``MLEstimator`` runs generation as tasks of the
factorization graph, so factorization tasks start as soon as their own
tiles are generated. The TLR Cholesky always generates (and compresses)
each tile inside its own task; for full-tile, ``parallel_generation=True``
(the default) adds one generation task per tile column, which writes the
whole column panel in place:

    from repro.runtime import Runtime
    with Runtime() as rt:
        est = MLEstimator.from_dataset(train, variant="tlr", runtime=rt)

See the perf ledger (``python3 benchmarks/ledger/run.py``, rows
``linalg.*`` and ``runtime.parallel_speedup``) for the measured
per-stage effect.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import MLEstimator, MaternCovariance
from repro.data import (
    GeoDataset,
    generate_irregular_grid,
    sample_gaussian_field,
    train_test_split,
)
from repro.mle import mean_squared_error


def main() -> None:
    theta_true = (1.0, 0.1, 0.5)  # variance, range, smoothness
    print(f"True Matérn parameters: {theta_true}")

    locations = generate_irregular_grid(400, seed=0)
    truth = MaternCovariance(*theta_true)
    z = sample_gaussian_field(locations, truth, seed=1)
    dataset = GeoDataset(locations, z, name="quickstart")
    train, test = train_test_split(dataset, n_test=38, seed=2)
    print(f"{train.n} locations for estimation, {test.n} for prediction validation\n")

    header = f"{'method':>16}  {'theta_hat':>28}  {'loglik':>10}  {'s/iter':>7}  {'MSE':>8}"
    print(header)
    print("-" * len(header))
    for variant, acc in (("full-block", None), ("tlr", 1e-9), ("tlr", 1e-5)):
        est = MLEstimator.from_dataset(train, variant=variant, acc=acc, tile_size=91)
        fit = est.fit(maxiter=120)
        pred = est.predict(fit, test.locations)
        mse = mean_squared_error(test.values, pred)
        name = variant if acc is None else f"{variant}(acc={acc:.0e})"
        theta = np.array2string(fit.theta, precision=4, floatmode="fixed")
        print(
            f"{name:>16}  {theta:>28}  {fit.loglik:10.3f}  "
            f"{fit.time_per_iteration:7.3f}  {mse:8.4f}"
        )

    print(
        "\nTLR estimates and prediction errors track the exact solver — the"
        "\npaper's central accuracy claim — while touching far less data."
    )


if __name__ == "__main__":
    main()
