"""``--compare A.json B.json``: one verdict per (workload, metric).

Each end-to-end metric carries its regression bound in
``BENCHMARK.json``. B is *worse* than A when its median is worse by more
than the bound, *better* when it is better by more than the bound, and
*same* otherwise — unless either side's own run-to-run spread already
exceeds the bound, in which case the pair is *unresolved*: the ledgers
cannot tell a change from noise and must not be read as "no change".
The two gates have absolute rules instead of bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import EXACT
from statistics import median

from .stats import iqr_share

Verdict = Tuple[str, str, str, str]  # workload, metric, verdict, detail


def spread(runs: Sequence[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median; ``None`` from one run.

    From four runs on this is the inter-quartile distance, the driver's
    own rule. With two or three, twice the median absolute deviation
    stands in for it (the same width on a symmetric sample), so one slow
    run out of three does not decide the verdict.
    """
    if len(runs) < 2:
        return None
    if len(runs) >= 4:
        return iqr_share(runs)
    mid = median(runs)
    mad = median([abs(r - mid) for r in runs])
    return 2.0 * mad / abs(mid) if mid else float("inf")


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    a: Dict[str, object], b: Dict[str, object], better: str, bound: float
) -> Tuple[str, str]:
    spreads = [s for s in (spread(a.get("runs", ())), spread(b.get("runs", ()))) if s is not None]
    worse_by = worsening(a["value"], b["value"], better)
    detail = f"{a['value']:.6g} -> {b['value']:.6g} ({worse_by:+.1%} worse, bound {bound:.0%}"
    detail += f", spread {max(spreads):.1%})" if spreads else ", spread n/a)"
    if spreads and max(spreads) > bound:
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    if worse_by < -bound:
        return "better", detail
    return "same", detail


def compare(a: Dict[str, object], b: Dict[str, object], benchmark: Dict[str, object]) -> List[Verdict]:
    """Verdicts for every workload both ledgers hold."""
    rows: List[Verdict] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            v, detail = verdict(
                wa["end_to_end"][metric], wb["end_to_end"][metric], spec["better"], spec["bound"]
            )
            rows.append((name, metric, v, detail))
        fa, fb = (w["end_to_end"]["fail_share"]["value"] for w in (wa, wb))
        rows.append((name, "fail_share", "worse" if fb > fa else "same",
                     f"{fa:.6g} -> {fb:.6g} (any increase is worse)"))
        eb, tol = wb["end_to_end"]["result_err"]["value"], wb["tolerance"]
        rows.append((name, "result_err", "worse" if eb > tol else "same",
                     f"{wa['end_to_end']['result_err']['value']:.3g} -> {eb:.3g} "
                     f"(must stay <= {tol:g})"))
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            for metric in EXACT:
                same = la[metric]["value"] == lb[metric]["value"]
                rows.append((name, metric, "same" if same else "differs",
                             f"{la[metric]['value']:.6g} -> {lb[metric]['value']:.6g} (exact count)"))
    return rows


def print_verdicts(rows: List[Verdict]) -> None:
    for name, metric, v, detail in rows:
        print(f"{name:<16}{metric:<30}{v:<12}{detail}")
    counts: Dict[str, int] = {}
    for _, _, v, _ in rows:
        counts[v] = counts.get(v, 0) + 1
    print("verdicts: " + ", ".join(f"{k}={n}" for k, n in sorted(counts.items())))
