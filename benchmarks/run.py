"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 benchmarks/run.py --workload two_pair_sweep --seed 1 --seconds 30 --trace 0

Every phase runs in a fresh interpreter (``worker.py``), so the cached field,
context and catalog start cold.  With ``--trace 0`` the run sets up several
times and verifies the case list that ``--seed`` and ``--seconds`` give in
``workloads.PASSES`` passes, each in its own interpreter.  Calibration
chunks (``calibrate.py``) run between the cases; each pass's times are
scaled to the nominal machine speed by the speed its chunks measured, and a
case's time is the mean over the passes.  It prints the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it replays the
workload's fixed case list twice, untraced and traced, and prints the
per-layer metrics.  Each case's engine outputs are checked against
``reference.json``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-up samples per timed run, the passes' own included
WORKER_TIMEOUT_S = 160
# Stages verify_simple calls one after another; their total times do not nest.
STAGES = (
    "qdouble.build_verma",
    "qdouble.check_relations",
    "qdouble.theta_congruence",
    "qdouble.head",
    "qdouble.socle",
    "qdouble.graded_character",
    "theorems.predicted_character",
    "qdouble.induce_from_simple",
    "theorems.quantum_dimension",
)


def nearest_rank(ordered: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile of sorted samples by nearest rank, and how many lie beyond it."""
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """``(q, value, beyond)``: p90 from 100 samples on, else the highest
    whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"{n} samples: no percentile has ten samples beyond it")
    q = 90 if n >= 100 else (100 * (n - 10)) // n
    value, beyond = nearest_rank(sorted(samples), q)
    return q, value, beyond


def count_cpus(cpu_list: str) -> int:
    """Number of CPUs in a list such as ``0-3,6``."""
    total = 0
    for part in cpu_list.split(","):
        lo, _, hi = part.partition("-")
        total += int(hi or lo) - int(lo) + 1
    return total


def machine_info() -> dict:
    """Python version, usable CPUs and CPU model; machine facts come from /proc."""
    info = {"python": platform.python_version(), "nproc": None, "cpu": None}
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("Cpus_allowed_list:"):
                info["nproc"] = count_cpus(line.split()[1])
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


def loadavg() -> str:
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def spawn(mode: str, args: argparse.Namespace, *extra: str) -> dict:
    """Run one worker phase in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--src", str(SRC), *extra]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(records: list, reference: dict) -> list[str]:
    """Problems of case records against the reference, one per failed case.

    A case fails when it raises, when its digest differs from the
    reference, or when it fails a check that the reference case passed.
    """
    problems = []
    for key, _, dig, failing, error in records:
        if error is not None:
            problems.append(f"{key}: raised {error}")
        elif dig != reference["digests"].get(key):
            problems.append(f"{key}: digest {dig} != reference {reference['digests'].get(key)}")
        elif set(failing) - set(reference["failing"].get(key, ())):
            problems.append(f"{key}: newly failing checks {failing}")
    return problems


def not_ok(records: list) -> int:
    """Cases that raised or whose report is not ok."""
    return sum(1 for _, _, _, failing, error in records if error is not None or failing)


def slowdown(one_pass: dict) -> float:
    """How many times slower than nominal the machine ran during a pass:
    its mean calibration chunk over the nominal one.  The mean, like the
    case times, takes in the machine's fast and slow moments alike."""
    return statistics.fmean(one_pass["calibration_s"]) / calibrate.NOMINAL_S


def case_times(passes: list[dict]) -> list[float]:
    """Each case's time at nominal speed: its wall time in each pass over
    that pass's slowdown, averaged over the passes, which ran one case list."""
    keys = [rec[0] for rec in passes[0]["cases"]]
    if any([rec[0] for rec in other["cases"]] != keys for other in passes[1:]):
        raise RuntimeError("the passes of a run verified different case lists")
    columns = [[rec[1] / slowdown(p) for rec in p["cases"]] for p in passes]
    return [statistics.fmean(times) for times in zip(*columns)]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end values, with times scaled to the nominal machine speed."""
    times = case_times(passes)
    slow = statistics.fmean(slowdown(p) for p in passes)
    q, tail, beyond = tail_percentile(times)
    measured = [rec[1] for p in passes for rec in p["cases"]]
    values = {
        "cases_per_s": len(times) / sum(times),
        "case_s_p50": statistics.median(times),
        "case_s_p90": tail,
        "setup_s": statistics.median(setups) / slow,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [
        f"{len(times)} cases in {len(passes)} passes; case_s_p90 is p{q}, {beyond} cases beyond it",
        "slowdown against nominal in each pass: " + " ".join(f"{slowdown(p):.4f}" for p in passes),
        f"as measured, unscaled: cases_per_s {len(measured) / sum(measured):.4f},"
        f" case_s_p50 {statistics.median(measured):.5f}, setup_s {statistics.median(setups):.4f}",
        "setup_s samples as measured: " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return values, notes


def per_layer(traced: dict, replay: dict) -> tuple[dict, list[str]]:
    layers, counts = traced["layers"], traced["counts"]
    values: dict[str, float] = {}
    for name in tracing.SPANNED:
        row = layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat, value in row.items():
            values[f"{name}.{stat}"] = value
    catalog = traced["setup_layers"].get("weights.weight_catalog", {"total_s": 0.0})
    values["weights.weight_catalog.total_s"] += catalog["total_s"]
    inverse_calls = values["cyclotomic.inverse.calls"]
    values["cyclotomic.inverse.distinct_ratio"] = (
        counts["cyclotomic.inverse.distinct"] / inverse_calls if inverse_calls else 0.0
    )
    values.update({name: value for name, value in counts.items() if name != "cyclotomic.inverse.distinct"})
    values["trace.overhead_ratio"] = traced["wall_s"] / replay["wall_s"]

    case_s = layers["case"]["total_s"]
    notes = [f"self time per layer over {len(traced['cases'])} traced cases ({case_s:.3f} s):"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        if name != "case":
            share = 100 * row["self_s"] / case_s
            notes.append(f"  {name:32s} {row['calls']:8d} calls  self {row['self_s']:8.3f} s  {share:5.1f} %")
    notes.append("total time per verification stage, as a share of case time:")
    for name in STAGES:
        if name in layers:
            notes.append(f"  {name:32s} {100 * layers[name]['total_s'] / case_s:5.1f} %")
    return values, notes


def select(values: dict, wanted: list[dict]) -> dict:
    """The metrics ``BENCHMARK.json`` lists, each with its unit."""
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in wanted}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dihedral_doubles" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = workloads.load_reference(args.workload)

    before = loadavg()
    if args.trace:
        replay = spawn("replay", args)
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv"
        traced = spawn("traced", args, "--spans", str(spans))
        records = traced["cases"]
        values, notes = per_layer(traced, replay)
        problems = check(records, reference)
        if [rec[2] for rec in replay["cases"]] != [rec[2] for rec in records]:
            problems.append("traced and untraced replays computed different outputs")
        values["fail_ratio"] = not_ok(records) / len(records)
        metrics = select(values, spec["per_layer"])
    else:
        passes = [spawn("timed", args) for _ in range(workloads.PASSES[args.workload])]
        setups = [spawn("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - len(passes))]
        setups += [p["setup_s"] for p in passes]
        records = [rec for p in passes for rec in p["cases"]]
        values, notes = end_to_end(passes, setups)
        problems = check(records, reference)
        metrics = select(values, spec["end_to_end"])
    correct = not problems

    print("machine: " + json.dumps(machine_info() | {"load_before": before, "load_after": loadavg()}))
    checks = Counter(check for rec in records for check in rec[3])
    print(f"cases: {len(records)}, not ok: {not_ok(records)}, failing checks: {dict(checks)}")
    print("digest: " + workloads.run_digest([(rec[0], rec[2]) for rec in records]))
    for line in notes + problems:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(problems), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
