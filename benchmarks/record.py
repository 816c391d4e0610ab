"""Run every workload over several seeds and write one ``BENCH_<n>.json`` record.

For each workload: one untraced run per seed, then one traced run on the
first seed.  The record keeps every run's end-to-end values with their
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the traced
per-layer values, and the printed per-layer tables.

Usage, from the repository root::

    python3 benchmarks/record.py --out benchmarks/BENCH_1.json --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: not correct\n{proc.stdout}")
    return result, lines[:-1]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        machine = []
        for seed in args.seeds:
            result, lines = run(workload, seed, spec["run_seconds"], 0)
            machine.append(next(line for line in lines if line.startswith("machine: "))[9:])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {name: round(v[-1], 4) for name, v in values.items()}, flush=True)
        traced, lines = run(workload, args.seeds[0], spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
            "trace_report": [line for line in lines if line.startswith("  ") or line.endswith(":")],
            "machine": [json.loads(text) for text in machine],
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
