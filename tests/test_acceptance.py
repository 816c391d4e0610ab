"""Acceptance suite: the package's headline guarantees, re-verified end to end.

One test per criterion, in order, so ``pytest -v tests/test_acceptance.py``
prints exactly one pass/fail line for each:

1. the weight catalog at m=12 is complete, classed, and pairwise distinct;
2. every pair module tensored with every reflection weight splits into the
   two predicted summands, with explicit vectors locating each summand, at
   m = 12, 16, 20 and 24;
3. the classification table agrees with the operator oracle everywhere;
4. head, socle, and dimension formulas hold for every weight over two
   single-pair index sets;
5. they hold for every weight over two genuinely two-pair index sets;
6. heads and socles are coherent with induction from smaller index sets;
7. tensor products of rigid simples with arbitrary simples are semisimple
   with the predicted character;
8. every module built along the way satisfies the defining relations and
   the quadratic congruence;
9. sphericality has a pivot exactly when the parity rule says so, and
   quantum dimensions vanish exactly off the rigid simples.

Everything is exact rational-cyclotomic arithmetic: a "match" is equality
of multisets of weights per degree, never a numeric tolerance.
"""

from __future__ import annotations

import time

import pytest

from dihedral_doubles.dihedral import DihedralContext, get_context
from dihedral_doubles.nichols import IndexSet, parse_index_set, valid_pairs
from dihedral_doubles.theorems import (
    PROJECTIVE,
    RIGID,
    classify_weight,
    is_spherical,
    spherical_report,
    verify_reflection_split,
    verify_rigid_tensor,
    verify_simple,
)
from dihedral_doubles.weights import (
    WeightLabel,
    all_weight_labels,
    class_key,
    parse_weight_label,
    weight_catalog,
)
from oracle import classify_weight_by_action

SINGLETON_SETS = ("(2,3)", "(1,6)")
TWO_PAIR_SETS = ("(1,6),(3,6)", "(2,3),(2,9)")


def _sweep(index_texts):
    ctx = get_context(12)
    reports = {}
    start = time.perf_counter()
    for text in index_texts:
        iset = parse_index_set(ctx, text)
        reports[text] = {
            str(label): verify_simple(ctx, iset, label)
            for label in all_weight_labels(ctx)
        }
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def singleton_sweep():
    return _sweep(SINGLETON_SETS)


@pytest.fixture(scope="module")
def two_pair_sweep():
    return _sweep(TWO_PAIR_SETS)


def _assert_all_ok(reports):
    failures = [
        f"{iset} / {weight}"
        for iset, cases in reports.items()
        for weight, report in cases.items()
        if not report.ok
    ]
    assert not failures, "mismatched cases: " + ", ".join(failures)


def test_criterion_01_catalog_complete_and_distinct():
    start = time.perf_counter()
    ctx = DihedralContext(12)  # fresh context: forces a cold catalog build
    catalog = weight_catalog(ctx)  # raises unless pairwise distinctness holds
    elapsed = time.perf_counter() - start
    assert len(catalog.labels) == 86
    assert sum(label.dimension(ctx.n) ** 2 for label in catalog.labels) == 576
    assert len({class_key(ctx, label) for label in catalog.labels}) == 9
    assert elapsed < 5.0, f"catalog build took {elapsed:.2f}s"


def test_criterion_02_reflection_tensor_splits():
    start = time.perf_counter()
    checked = 0
    for m in (12, 16, 20, 24):
        ctx = get_context(m)
        labels = [WeightLabel("Mx", (s, t)) for s in (0, 1) for t in (0, 1)]
        labels += [WeightLabel("Mxy", (s, t)) for s in (0, 1) for t in (0, 1)]
        for pair in valid_pairs(ctx):
            for label in labels:
                verify_reflection_split(ctx, pair, label)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == (13 + 20 + 23 + 36) * 8
    assert elapsed < 30.0, f"split sweep took {elapsed:.2f}s"


def test_criterion_03_classification_table_vs_operator_oracle():
    start = time.perf_counter()
    checked = 0
    for m in (12, 16):
        ctx = get_context(m)
        labels = all_weight_labels(ctx)
        for pair in valid_pairs(ctx):
            for label in labels:
                assert classify_weight(ctx, label, pair) == classify_weight_by_action(
                    ctx, label, pair
                ), (m, str(label), pair)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 86 * 13 + 142 * 20
    assert elapsed < 60.0, f"table sweep took {elapsed:.2f}s"


def test_criterion_04_singleton_simples(singleton_sweep):
    reports, elapsed = singleton_sweep
    _assert_all_ok(reports)
    ctx = get_context(12)
    for text, cases in reports.items():
        pair = parse_index_set(ctx, text).pairs[0]
        for weight, report in cases.items():
            label = parse_weight_label(weight)
            cls = classify_weight(ctx, label, pair)
            if cls == RIGID:
                assert report.simple_dimension == label.dimension(ctx.n)
            elif cls == PROJECTIVE:
                assert report.simple_dimension == report.verma_dimension
            else:
                assert report.simple_dimension == 2 * ctx.n
    assert elapsed < 120.0, f"singleton sweeps took {elapsed:.2f}s"


def test_criterion_05_two_pair_simples(two_pair_sweep):
    reports, elapsed = two_pair_sweep
    _assert_all_ok(reports)
    assert reports["(1,6),(3,6)"]["M1,2"].simple_dimension == 8
    assert reports["(1,6),(3,6)"]["Mx:0,0"].simple_dimension == 24
    assert reports["(2,3),(2,9)"]["e:rho3"].simple_dimension == 32
    assert elapsed < 600.0, f"two-pair sweeps took {elapsed:.2f}s"


def test_criterion_06_recursion_coherence(two_pair_sweep):
    reports, _ = two_pair_sweep
    for text, cases in reports.items():
        for weight, report in cases.items():
            assert len(report.recursion) == 2, f"{text} / {weight}"
            for check in report.recursion:
                assert check.ok, f"{text} / {weight} via {check.pair}: {check}"


def test_criterion_07_rigid_tensor_semisimplicity():
    start = time.perf_counter()
    ctx = get_context(12)
    iset = parse_index_set(ctx, "(2,3)")
    rigid = [
        label
        for label in all_weight_labels(ctx)
        if not label.is_reflection_type
        and classify_weight(ctx, label, (2, 3)) == RIGID
    ]
    partners = [
        "e:chi1", "e:chi2", "e:rho3", "yn:chi1", "yn:rho3",
        "M2,3", "M1,2", "M4,6", "Mx:0,0", "Mxy:1,1",
    ]
    # nine rigid non-reflection weights exist here; vary the partner to
    # reach ten samples covering all three classes on the right factor
    samples = [(mu, parse_weight_label(partners[idx])) for idx, mu in enumerate(rigid)]
    samples.append((rigid[0], parse_weight_label(partners[len(rigid)])))
    assert len(samples) >= 10
    for mu, lam in samples:
        verify_rigid_tensor(ctx, iset, mu, lam)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"tensor sweep took {elapsed:.2f}s"


def test_criterion_08_relations_and_congruence(singleton_sweep, two_pair_sweep):
    for reports, _ in (singleton_sweep, two_pair_sweep):
        for text, cases in reports.items():
            for weight, report in cases.items():
                assert report.relations_ok, f"{text} / {weight}: relations"
                assert report.theta_ok, f"{text} / {weight}: congruence"
                for check in report.recursion:
                    assert check.relations_ok, f"{text} / {weight} via {check.pair}"


def test_criterion_09_sphericality_and_quantum_dimension(singleton_sweep):
    start = time.perf_counter()
    for m in (12, 16):
        ctx = get_context(m)
        for pair in valid_pairs(ctx):
            iset = IndexSet(m, (pair,))
            expected = is_spherical(ctx, iset)
            pivots = spherical_report(ctx, iset)
            assert any(pivots.values()) == expected, (m, pair, pivots)
            assert pivots[3] == expected, (m, pair, pivots)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"pivot sweep took {elapsed:.2f}s"
    reports, _ = singleton_sweep
    for text, cases in reports.items():
        for weight, report in cases.items():
            assert report.qdim_ok is True, f"{text} / {weight}: quantum dimension"
