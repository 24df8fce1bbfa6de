"""Provenance and the printed tables of a ledger run."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from .metrics import END_TO_END, GATES, PER_LAYER
from .spec import REPO_ROOT

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _blas_vendor() -> str:
    import numpy as np

    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # older numpy: no structured config
        return "unknown"


def _llc_bytes() -> int:
    """Largest cache of cpu0, 0 when the kernel does not say."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        best = max(best, int(text.rstrip("KM")) * scale)
    return best


def fingerprint(seed: int) -> Dict[str, object]:
    """Where and how this ledger was measured."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_vendor": _blas_vendor(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: Dict[str, object], out=sys.stdout) -> None:
    """Every metric of one pass, by name, with its unit."""
    kind = "traced" if record["traced"] else "untraced"
    print(
        f"# {record['workload']} seed={record['seed']} {kind} "
        f"N={record['samples']} attempted={record['attempted']} failed={record['failed']} "
        f"wall={record['wall_s']:.1f}s",
        file=out,
    )
    for name, m in record["metrics"].items():
        print(f"{record['workload']:<16}{name:<34}{_fmt(m['value']):>14} {m['unit']}", file=out)
    if not record["traced"]:
        gates = record["gates"]
        print(f"{record['workload']:<16}{'fail_share':<34}{_fmt(gates['fail_share']):>14} ratio", file=out)
        print(
            f"{record['workload']:<16}{'result_err':<34}{_fmt(gates['result_err']):>14} relative"
            f" (tolerance {gates['tolerance']:g})",
            file=out,
        )
    for failure in record["failures"]:
        print(f"FAILED CHECK {record['workload']}: {failure}", file=out)


def print_ledger(ledger: Dict[str, object], out=sys.stdout) -> None:
    """The two tables of a full run: end to end, then per layer."""
    names = list(ledger["workloads"])
    width = max(14, *(len(n) + 2 for n in names))
    head = f"{'metric':<34}{'unit':<10}" + "".join(f"{n:>{width}}" for n in names)
    print("\n== end to end (untraced; median of runs) ==", file=out)
    print(head, file=out)
    for name, unit, _ in END_TO_END + GATES:
        cells = []
        for n in names:
            row = ledger["workloads"][n]["end_to_end"].get(name)
            cells.append("-" if row is None else _fmt(row["value"]))
        print(f"{name:<34}{unit:<10}" + "".join(f"{c:>{width}}" for c in cells), file=out)
    print(f"{'samples (last run)':<44}" + "".join(
        f"{ledger['workloads'][n]['samples']:>{width}}" for n in names), file=out)
    if not any(ledger["workloads"][n].get("per_layer") for n in names):
        return
    print("\n== per layer (traced pass) ==", file=out)
    print(head, file=out)
    for name, unit, _ in PER_LAYER:
        cells = []
        for n in names:
            row = (ledger["workloads"][n].get("per_layer") or {}).get(name)
            cells.append("-" if row is None else _fmt(row["value"]))
        print(f"{name:<34}{unit:<10}" + "".join(f"{c:>{width}}" for c in cells), file=out)


def failures_of(ledger: Dict[str, object]) -> List[str]:
    return [
        f"{name}: {f}" for name, w in ledger["workloads"].items() for f in w["failures"]
    ]
