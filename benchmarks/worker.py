"""One benchmark phase in a fresh interpreter; prints one JSON object.

Modes:

* ``setup``: import the package and build the catalog of every order the
  workload uses, then report the set-up time and exit;
* ``timed``: set up, then run the workload's case list for ``--seed`` and
  ``--seconds`` (one pass of a timed run), with calibration chunks before
  each case in proportion to its reference cost;
* ``replay``: set up, then run the workload's fixed trace case list;
* ``traced``: like ``replay``, with the tracer installed before the
  catalogs are built; spans are written to ``--spans`` at the end.

Set-up time runs from ``--spawned``, the parent's ``time.monotonic()`` just
before it started this process, to the moment the last catalog is ready, so
it includes interpreter start and import.
"""

from __future__ import annotations

import time  # first, so set-up timing starts from the earliest point

import argparse
import json
import resource
import sys
from functools import partial
from pathlib import Path

import calibrate
import tracer as tracing
import workloads


def _set_up(workload: str, src: Path, spawned: float, tracer: tracing.Tracer | None) -> float:
    import dihedral_doubles

    if not Path(dihedral_doubles.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {dihedral_doubles.__file__}, expected a module under {src}")
    if tracer is not None:
        tracer.install()
    for m in workloads.ORDERS[workload]:
        dihedral_doubles.weight_catalog(dihedral_doubles.get_context(m))
    return time.monotonic() - spawned


def _record(case: workloads.Case, call) -> list:
    """Time one case: ``[key, seconds, digest, failing checks, error]``."""
    start = time.perf_counter()
    try:
        outputs, failing = call()
    except Exception as exc:  # a failing case is recorded and the sweep goes on
        return [case.key, time.perf_counter() - start, None, [], f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    return [case.key, seconds, workloads.digest(outputs), failing, None]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "replay", "traced"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.mode == "traced" else None
    setup_s = _set_up(args.workload, args.src, args.spawned, tracer)
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    runner = workloads.CaseRunner()
    records = []
    if tracer is not None:
        tracer.start_cases()
    begin = time.perf_counter()
    if args.mode == "timed":
        result["calibration_s"] = []
        cost = workloads.load_reference(args.workload)["seconds"]
        for case in workloads.run_cases(args.workload, args.seed, args.seconds):
            result["calibration_s"] += [calibrate.chunk() for _ in range(calibrate.chunks_for(cost[case.key]))]
            records.append(_record(case, runner.prepare(case)))
    else:
        for number, case in enumerate(workloads.trace_cases(args.workload, args.seed)):
            call = runner.prepare(case)
            if tracer is not None:
                call = partial(tracer.run_case, number, call)
            records.append(_record(case, call))
    result["wall_s"] = time.perf_counter() - begin
    runner.close()
    result["cases"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.close()
        tracer.check_reached(tracing.EXPECTED[args.workload])
        result["layers"] = tracing.layer_table(tracer.spans)
        result["setup_layers"] = tracing.layer_table(tracer.spans, setup=True)
        result["counts"] = {
            "cyclotomic.mul.calls": tracer.mul_calls,
            "cyclotomic.inverse.distinct": len(tracer.inverse_operands),
            "qdouble.build_verma.repeat_ratio": tracing.repeat_ratio(tracer.verma_keys),
            "qdouble.graded_character.repeat_ratio": tracing.repeat_ratio(tracer.character_keys),
        }
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
