#!/usr/bin/env python3
"""The repo's one benchmark. Three ways to call it, from the repo root:

One pass of one workload (what ``BENCHMARK.json``'s ``command`` runs; the
last line of output is the result as one JSON object)::

    python3 benchmarks/ledger/run.py --workload mle_tlr_exp --seed 7 --seconds 12 --trace 0

The whole ledger — every workload, untraced then traced, each pass in its
own subprocess — printed as two tables and written to ``--out``::

    python3 benchmarks/ledger/run.py --seed 2018 --out results/ledger/run.json

Two ledgers against each other, with the bounds of ``BENCHMARK.json``::

    python3 benchmarks/ledger/run.py --compare A.json B.json

Importing ``perfledger`` pins BLAS to one thread; nothing here imports
numpy before that.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent.parent / "src"
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import perfledger  # noqa: E402,F401  (pins BLAS threads before numpy loads)

#: Scratch output, ignored by git. Everything the benchmark writes is here.
RESULTS = Path("results") / "ledger"


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one pass of this workload and print its JSON line")
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed section (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 = end-to-end pass, 1 = per-layer pass")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes for smoke tests; output is stamped comparable: false")
    ap.add_argument("--workloads", help="comma-separated subset for a ledger run")
    ap.add_argument("--no-trace", action="store_true", help="ledger run without traced passes")
    ap.add_argument("--repeat", type=int, default=1,
                    help="untraced runs per workload in a ledger run (their median is reported)")
    ap.add_argument("--out", type=Path, default=RESULTS / "run.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path)
    ap.add_argument("--record-out", type=Path, help=argparse.SUPPRESS)
    return ap


# --------------------------------------------------------------------------
# one pass of one workload
# --------------------------------------------------------------------------
def run_pass(args: argparse.Namespace) -> int:
    """Driver mode. This process is the workload's own subprocess (the
    forked child of ``perfledger.supervise.supervised``)."""
    workdir = RESULTS / f"work-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # The library's servers default their upload and job directories to
    # the system temp dir; keep those inside the checkout too.
    os.environ["TMPDIR"] = str((workdir / "tmp").resolve())

    from perfledger import report, workloads

    try:
        record = workloads.run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            traced=bool(args.trace),
            quick=args.quick,
            workdir=workdir,
            trace_path=RESULTS / f"trace_{args.workload}.jsonl" if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.print_record(record)
    if args.record_out is not None:
        args.record_out.write_text(json.dumps(record))
    # A pass that produced a result exits 0: a failed check is reported in
    # the result ("correct": false), a crash by the exit code.
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


# --------------------------------------------------------------------------
# the whole ledger
# --------------------------------------------------------------------------
def _subprocess_pass(name: str, args: argparse.Namespace, trace: int) -> dict:
    RESULTS.mkdir(parents=True, exist_ok=True)
    record_path = RESULTS / f"record-{os.getpid()}-{name}-{trace}.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--record-out", str(record_path),
    ]
    if args.quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, timeout=180, stdout=subprocess.PIPE, text=True)
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)  # all but the JSON line
        if not record_path.exists():
            raise SystemExit(f"{name} (trace {trace}) exited {done.returncode} without a result")
        return json.loads(record_path.read_text())
    finally:
        record_path.unlink(missing_ok=True)


def run_ledger(args: argparse.Namespace) -> int:
    from perfledger import metrics, report, spec

    names = args.workloads.split(",") if args.workloads else list(spec.WORKLOADS)
    for name in names:
        spec.workload(name)
    ledger = {
        "schema": 1,
        "comparable": not args.quick,
        "fingerprint": report.fingerprint(args.seed),
        "run_seconds": args.seconds,
        "repeat": args.repeat,
        "workloads": {},
    }
    started = time.perf_counter()
    for name in names:
        w = spec.workload(name, quick=args.quick)
        runs = [_subprocess_pass(name, args, 0) for _ in range(args.repeat)]
        traced = None if args.no_trace else _subprocess_pass(name, args, 1)
        end_to_end = {
            metric: {
                "value": statistics.median(r["metrics"][metric]["value"] for r in runs),
                "unit": unit,
                "runs": [r["metrics"][metric]["value"] for r in runs],
            }
            for metric, unit, _ in metrics.END_TO_END
        }
        for gate, unit, _ in metrics.GATES:  # the worst run decides a gate
            end_to_end[gate] = {"value": max(r["gates"][gate] for r in runs), "unit": unit}
        passes = runs + ([traced] if traced else [])
        ledger["workloads"][name] = {
            "why": w.why,
            "tolerance": w.tolerance,
            "tail_percentile": w.tail_pct,
            "samples": runs[-1]["samples"],
            "correct": all(r["correct"] for r in passes),
            "failures": [f for r in passes for f in r["failures"]],
            "wall_s": [r["wall_s"] for r in passes],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"] if traced else None,
            "trace": str(RESULTS / f"trace_{name}.jsonl") if traced else None,
        }
    ledger["fingerprint"]["wall_s"] = time.perf_counter() - started
    failures = report.failures_of(ledger)
    ledger["summary"] = {
        "workloads": len(names),
        "correct": not failures and all(w["correct"] for w in ledger["workloads"].values()),
        "failed_checks": len(failures),
        "comparable": ledger["comparable"],
        "claim": None,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    report.print_ledger(ledger)
    for failure in failures:
        print(f"FAILED CHECK {failure}")
    print(f"\nledger written to {args.out}")
    print(json.dumps(ledger["summary"]))
    return 0 if ledger["summary"]["correct"] else 1


def run_compare(args: argparse.Namespace) -> int:
    from perfledger import compare, spec

    a, b = (json.loads(path.read_text()) for path in args.compare)
    if not (a.get("comparable") and b.get("comparable")):
        print("warning: a --quick ledger is not comparable; verdicts below mean nothing")
    rows = compare.compare(a, b, spec.load_benchmark_json())
    compare.print_verdicts(rows)
    return 1 if any(v in ("worse", "differs") for _, _, v, _ in rows) else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return run_compare(args)
    if not (_SRC / "repro").is_dir():
        print(f"no program to measure: {_SRC / 'repro'} does not exist", file=sys.stderr)
        return 2
    if args.seconds is None:
        from perfledger import spec

        args.seconds = 0.3 if args.quick else float(spec.load_benchmark_json()["run_seconds"])
    if args.workload:
        from perfledger.supervise import supervised

        # Forks here, before numpy loads: the pass runs in the child, this
        # process waits until nothing the pass started is left.
        return supervised(lambda: run_pass(args))
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
