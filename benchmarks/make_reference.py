"""Recompute the per-case reference digests of one or more workloads.

Runs every case of each named workload once, in stratum order, and writes
``{workload: {"digests": {case key: digest}, "failing": {case key: [check,
...]}, "seconds": {case key: wall time}}}`` into the output file, keeping the
entries of other workloads.  The wall times order each stratum by cost for
the case streams.  Each case prints ``key digest seconds`` on standard output
as it finishes.

Usage, from the repository root::

    PYTHONPATH=src python3 benchmarks/make_reference.py singleton_sweep two_pair_sweep

The reference is meant to be taken once, on the commit that introduced the
benchmark; a later commit that changes it changes what counts as correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def reference_for(workload: str) -> dict:
    runner = workloads.CaseRunner()
    digests: dict[str, str] = {}
    failing: dict[str, list[str]] = {}
    costs: dict[str, float] = {}
    try:
        for group in workloads.strata(workload):
            for case in group:
                start = time.perf_counter()
                outputs, failed = runner.prepare(case)()
                seconds = time.perf_counter() - start
                digests[case.key] = workloads.digest(outputs)
                costs[case.key] = round(seconds, 4)
                if failed:
                    failing[case.key] = failed
                print(f"{case.key}\t{digests[case.key]}\t{seconds:.4f}", flush=True)
    finally:
        runner.close()
    return {"digests": digests, "failing": failing, "seconds": costs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="+", choices=workloads.WORKLOADS)
    parser.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.workload:
        table[name] = reference_for(name)
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
