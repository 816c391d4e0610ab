"""Tests of the benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q benchmarks``.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import pytest

import calibrate
import run
import tracer as tracing
import workloads

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _span(name, start, end, parent=-1, case=0):
    return tracing.Span(name, start, end, parent, case)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: together they cover 1..6
        _span("c", 2.0, 3.0, parent=1),
        _span("d", 9.0, 12.0, parent=0),  # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_table_counts_recursion_once_and_splits_setup_from_cases():
    spans = [
        _span("decompose", 0.0, 1.0, case=-1),
        _span("case", 1.0, 9.0),
        _span("head", 2.0, 8.0, parent=1),
        _span("head", 3.0, 5.0, parent=2),
    ]
    cases = tracing.layer_table(spans)
    assert cases["head"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
    assert cases["case"]["self_s"] == pytest.approx(2.0)
    assert "decompose" not in cases
    assert tracing.layer_table(spans, setup=True) == {"decompose": {"calls": 1, "total_s": 1.0, "self_s": 1.0}}


@pytest.mark.parametrize(
    "n, q, beyond",
    [(11, 9, 10), (45, 77, 10), (99, 89, 10), (100, 90, 10), (2000, 90, 200)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    got_q, value, got_beyond = run.tail_percentile(samples)
    assert (got_q, got_beyond) == (q, beyond)
    assert sum(1 for s in samples if s > value) == beyond


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_count_cpus():
    assert run.count_cpus("0-1") == 2
    assert run.count_cpus("0-3,6,8-9") == 7


def test_van_der_corput_fills_the_unit_interval_evenly():
    assert [workloads.van_der_corput(n) for n in range(8)] == [0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_cases(workload):
    n = max(workloads.TRACE_CASES.values())
    first = list(islice(workloads.case_stream(workload, 7), n))
    assert first == list(islice(workloads.case_stream(workload, 7), n))
    assert first != list(islice(workloads.case_stream(workload, 8), n))
    assert workloads.trace_cases(workload, 7) == first[: workloads.TRACE_CASES[workload]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_cases_are_distinct_seeded_and_sized_by_seconds(workload):
    cases = workloads.run_cases(workload, 4, 30)
    assert cases == workloads.run_cases(workload, 4, 30)
    assert len({case.key for case in cases}) == len(cases)
    cost = workloads.load_reference(workload)["seconds"]
    budget = workloads.CASE_SHARE * 30 / workloads.PASSES[workload]
    spent = sum(cost[case.key] for case in cases)
    assert spent >= budget or len(cases) == len(cost)
    assert spent - cost[cases[-1].key] < budget
    assert len(workloads.run_cases(workload, 4, 10)) <= len(cases)
    assert len(cases) >= 11  # enough for a tail percentile


def _pass(times, chunks=(calibrate.NOMINAL_S,), rss=20.0, keys=None):
    keys = keys or [f"c{i}" for i in range(len(times))]
    cases = [[key, t, "d", [], None] for key, t in zip(keys, times)]
    return {"cases": cases, "calibration_s": list(chunks), "peak_rss_mb": rss, "wall_s": sum(times)}


def test_case_times_scale_each_pass_by_its_own_speed_then_average():
    nominal = calibrate.NOMINAL_S
    passes = [_pass([1.0, 4.0, 2.0]), _pass([3.0, 2.0, 2.5], chunks=[nominal, 3 * nominal])]
    assert run.case_times(passes) == pytest.approx([1.25, 2.5, 1.625])
    with pytest.raises(RuntimeError):
        run.case_times([_pass([1.0]), _pass([1.0], keys=["other"])])


def test_end_to_end_scales_times_to_the_nominal_speed():
    times = [0.1 * (i + 1) for i in range(20)]
    at_nominal, _ = run.end_to_end([_pass(times)], [1.0, 1.2, 0.8])
    # A machine twice as slow: the chunks and the cases both take twice as long.
    slow = [_pass([2 * t for t in times], chunks=[2 * calibrate.NOMINAL_S] * 3, rss=30.0)]
    at_half_speed, _ = run.end_to_end(slow, [2.0, 2.4, 1.6])
    for name in ("cases_per_s", "case_s_p50", "case_s_p90", "setup_s"):
        assert at_half_speed[name] == pytest.approx(at_nominal[name])
    assert at_nominal["cases_per_s"] == pytest.approx(20 / sum(times))
    assert at_nominal["setup_s"] == pytest.approx(1.0)
    assert at_half_speed["peak_rss_mb"] == 30.0  # memory is not scaled


def test_calibration_chunks_follow_case_cost():
    assert calibrate.chunks_for(0.001) == 1
    assert calibrate.chunks_for(1.0) == round(1.0 / calibrate.CASE_S_PER_CHUNK)
    assert calibrate.chunk() > 0


def test_check_counts_regressions_not_known_failures():
    reference = {"digests": {"a": "x", "b": "y", "c": "z"}, "failing": {"a": ["socle_formula"]}}
    records = [
        ["a", 0.1, "x", ["socle_formula"], None],  # the known failure
        ["b", 0.1, "y", ["socle_formula"], None],  # newly failing
        ["c", 0.1, "wrong", [], None],  # other engine outputs
        ["a", 0.1, None, [], "ValueError: boom"],  # raised
    ]
    problems = run.check(records, reference)
    assert len(problems) == 3 and not any(problem.startswith("a: newly") for problem in problems)
    assert run.not_ok(records) == 3
    assert run.check(records[:1], reference) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_case(workload):
    keys = {case.key for group in workloads.strata(workload) for case in group}
    assert keys == set(REFERENCE[workload]["digests"])


def test_half_turn_pairs_are_drawn_and_carry_the_known_failures():
    cases = list(islice(workloads.case_stream("singleton_sweep", 1), 400))
    assert any(case.pairs[0][0] == case.m // 2 for case in cases)
    failing = REFERENCE["singleton_sweep"]["failing"]
    assert failing and all(checks == ["socle_formula"] for checks in failing.values())
    for key in failing:
        _, m, pair, weight = key.split(" ")
        assert pair.startswith(f"({int(m[2:]) // 2},") and weight.endswith(",1")
    for workload in ("two_pair_sweep", "reflection_split"):
        assert not REFERENCE[workload]["failing"]


def test_every_weight_family_is_drawn_in_each_round():
    per_round = len(workloads.strata("two_pair_sweep"))
    families = {
        (case.pairs, case.weight.split(":")[0].rstrip("0123456789,"))
        for case in islice(workloads.case_stream("two_pair_sweep", 3), per_round)
    }
    assert {fam for _, fam in families} == {"e", "yn", "M", "Mx", "Mxy"}
    assert len({pairs for pairs, _ in families}) == 2


def _digests(cases):
    runner = workloads.CaseRunner()
    try:
        return [workloads.digest(runner.prepare(case)()[0]) for case in cases]
    finally:
        runner.close()


def test_digests_are_stable_and_match_the_reference():
    cases = [
        workloads.Case("split", 12, ((2, 3),), "Mx:0,1"),
        workloads.Case("simple", 12, ((6, 1),), "Mxy:1,1"),
        workloads.Case("simple", 16, ((2, 4),), "M3,5"),
    ]
    first = _digests(cases)
    assert first == _digests(cases)
    assert first == [REFERENCE[w]["digests"][c.key] for w, c in zip(
        ("reflection_split", "singleton_sweep", "singleton_sweep"), cases)]


def test_tracer_rebinds_every_binding_and_fails_on_missed_entry_points():
    from dihedral_doubles import qdouble, theorems

    original_head = qdouble.head
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert theorems.head is qdouble.head is not original_head
        runner = workloads.CaseRunner()
        call = runner.prepare(workloads.Case("simple", 12, ((2, 3),), "M1,0"))
        tracer.start_cases()
        tracer.run_case(0, call)
        runner.close()
    finally:
        tracer.close()
    assert theorems.head is qdouble.head is original_head
    tracer.check_reached(tracing.EXPECTED["singleton_sweep"])
    with pytest.raises(RuntimeError, match="induce_from_simple"):
        tracer.check_reached(["qdouble.induce_from_simple"])
