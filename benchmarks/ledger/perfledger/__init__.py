"""The repo's one benchmark: five named workloads, a committed ledger.

``benchmarks/ledger/run.py`` is the only entry point; this package holds
what it runs. Nothing here imports from the older ``benchmarks/bench_*``
scripts, and nothing under ``src/`` knows this package exists — every
number is taken from outside, around calls into public functions.
"""

import os

# One BLAS thread per process, set before anything below imports numpy and
# inherited by every child: task parallelism comes from the library's own
# runtime workers (one sequential kernel per task, as in the paper).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
