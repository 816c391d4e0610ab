"""Slow tier: ``verify_simple`` on every case of the proven regime listed below.

Run with ``PYTHONPATH=src python -m pytest -q slow``; tier-1's ``testpaths``
does not collect it.  It covers every singleton case at m = 12, 16, 20, 24,
28 and 32, every case over the 39 two-pair sets at m = 12 and over every
tenth of the 66 at m = 16, every case over ``(1,6),(3,6),(5,6)``, and seven
weights over each of the 91 three-pair sets at m = 12.  Every
module these cases build, standard, induced, head, socle, layer and tensor,
holds x and y as invertible monomial matrices with powers of w as entries
(``cyclotomic.UnitMonomial``), whose row maps ``weights.QDModule`` checks
to be permutations; a socle or head reads them so on its rows or
classes in ``qdouble._on_positions``, or its case raises.  A pass shows the
construction holding over this regime.  Over the 39 two-pair sets at
m = 12, the submodule generated by the negative-degree joint kernel of
every standard module, and the quotient by it, are generated and built
too, by the test helper ``tests/adapted.py``, 312 of the submodules in a
basis adapted to the group action, since ``qdouble.subspace_as_module``
refuses them, and their characters must add up to the module's.  Every singleton report at
m = 12 and 16 is also compared with the report of a context whose memo of
``weights.decomposition_counts`` stores nothing, and with the report of one
whose memo stores nothing and whose trace tables are empty, so that every
block takes the dot products, and every elimination lead
that those reports invert must be a tagged power of w.  Every singleton
report at m = 12 and 16, every two-pair report at m = 12 and every report
over ``(1,6),(3,6),(5,6)`` has its recursion compared with the
test helper's ``reference_recursion``, which builds every standard module on
its own and induces the smaller head and the smaller socle apart at every
recursion step; its socle character and socle simplicity are compared with
those of the socle that ``qdouble.socle`` spans from the standard module's
bottom layer, which ``verify_simple`` does not ask for when ``head``
returns the module unchanged; over index sets with two distinct pairs or
more, some recursion step must have been
certified by ``qdouble.basis_change``.  The head
that ``qdouble.head`` reads off degree 0 is compared with the test helper's
shaving by negative-degree joint kernels, on character, dimension and
relations, and the socle that ``qdouble.socle`` spans from the bottom
layer under the lowering letters alone matrix by matrix with the test
helper's closure of the lowest joint kernel under every generator, a second
construction that solves the kernel the socle does not, for every
singleton case and every two-pair case at m = 12, the modules the
recursion induces from the smaller
head and socle included.  Every
standard module over the 39 two-pair sets at m = 12, built one pair at a
time, is compared matrix by matrix with the test helper
``tests/exterior.py``, which induces both pairs at once.  With the
rigidity guard lifted, ``theorems.verify_rigid_tensor`` runs on every
mu x every lambda over ``(2,3)`` and over ``(1,6)`` at m = 12, and must
fail exactly where the test helper's per-degree joint kernel of the
product is nonzero outside degree 0, naming the highest such degree;
11,794 of the 13,244 products of a non-rigid mu fail.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from dihedral_doubles import get_context, theorems
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.nichols import parse_index_set, valid_pairs, validate_index_set
from dihedral_doubles.qdouble import (
    basis_change,
    build_verma,
    graded_character,
    head,
    induce_from_simple,
    socle,
)
from dihedral_doubles.theorems import RIGID, _socle_is_simple, classify_weight, verify_simple
from dihedral_doubles.weights import all_weight_labels, parse_weight_label, weight_catalog

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from adapted import (  # noqa: E402
    adapted_quotient,
    as_module,
    assert_head_matches_the_reference,
    assert_rigid_tensor_matches_the_reference,
    assert_socle_matches_the_reference,
    highest_weight_vectors,
    needs_adapted_basis,
    reference_generated,
    reference_recursion,
    reference_submodule,
)
from exterior import assert_standard_module_matches_the_reference  # noqa: E402
from matrices import inverted_operands  # noqa: E402


def _assert_every_report_passes(ctx, index_sets, labels=None):
    failures = [
        f"{index_set} / {label}"
        for index_set in index_sets
        for label in labels or all_weight_labels(ctx)
        if not verify_simple(ctx, index_set, label).ok
    ]
    assert not failures, "mismatched cases: " + ", ".join(failures)


def _pair_sets(ctx, size):
    """Every admissible set of ``size`` pairs, a pair taken more than once included."""
    sets = []
    for pairs in combinations_with_replacement(valid_pairs(ctx), size):
        try:
            sets.append(validate_index_set(ctx, pairs))
        except ValueError:
            continue
    return sets


TWO_PAIR_SETS = _pair_sets(get_context(12), 2)
# every tenth of the 66 two-pair sets at m = 16, in the order they are listed
SOME_TWO_PAIR_SETS_AT_16 = _pair_sets(get_context(16), 2)[::10]
THREE_PAIR_SETS = _pair_sets(get_context(12), 3)
# one or two weights of each family, rigid, projective and reflection type at some pair
SEVEN_WEIGHTS = ("e:chi3", "e:rho1", "yn:chi3", "yn:rho1", "M2,3", "Mx:0,0", "Mxy:1,1")


@pytest.mark.parametrize("m", [12, 16, 20, 24, 28, 32])
def test_every_singleton_case(m):
    ctx = get_context(m)
    _assert_every_report_passes(ctx, [validate_index_set(ctx, [pair]) for pair in valid_pairs(ctx)])


class _Forgetful(dict):
    """A memo that drops every entry it is given, so each call computes its answer."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("m", [12, 16])
def test_the_counts_memo_changes_no_singleton_report(m):
    memoised, forgetful = DihedralContext(m), DihedralContext(m)
    forgetful._weight_cache["counts"] = _Forgetful()
    for pair in valid_pairs(memoised):
        for label in all_weight_labels(memoised):
            first, second = (
                verify_simple(ctx, validate_index_set(ctx, [pair]), label).to_json_obj()
                for ctx in (memoised, forgetful)
            )
            assert first == second, f"{pair} / {label}"
    assert memoised._weight_cache["counts"] and not forgetful._weight_cache["counts"]


@pytest.mark.parametrize("m", [12, 16])
def test_the_trace_lookup_changes_no_singleton_report(m):
    # the second context stores no counts and has every trace table emptied, so every block of every
    # layer it decomposes takes the dot products
    looked_up, dotted = DihedralContext(m), DihedralContext(m)
    dotted._weight_cache["counts"] = _Forgetful()
    tables = weight_catalog(dotted).traces
    for table in tables.values():
        table.clear()
    for pair in valid_pairs(looked_up):
        for label in all_weight_labels(looked_up):
            first, second = (
                verify_simple(ctx, validate_index_set(ctx, [pair]), label).to_json_obj()
                for ctx in (looked_up, dotted)
            )
            assert first == second, f"{pair} / {label}"
    assert not dotted._weight_cache["counts"] and not any(tables.values())


@pytest.mark.parametrize("m", [12, 16])
def test_every_inverted_elimination_lead_of_a_singleton_case_is_a_tagged_power_of_w(m):
    ctx = DihedralContext(m)

    def run():
        for pair in valid_pairs(ctx):
            for label in all_weight_labels(ctx):
                verify_simple(ctx, validate_index_set(ctx, [pair]), label)

    count, untagged = inverted_operands(run)
    assert count and untagged == []


def _assert_no_report_changes_without_the_reuse(ctx, index_sets):
    """Every report equals the one made with no reuse between modules.

    The recursion equals the test helper's (``reference_recursion``), which
    builds every standard module on its own and induces the smaller head
    and the smaller socle apart at every step.  The socle ``verify_simple``
    reports, which is the standard module itself when that is simple,
    equals the one spanned from the standard module's bottom layer, in
    character and in the simplicity of its bottom layer.  Over index sets
    of two or more pairs the last pair's step must have been the standard
    module's own, inducing nothing.  Over
    index sets with two distinct pairs or more, some step must have been
    certified by a basis change onto the standard module
    (``qdouble.basis_change``), with no check of its own.
    """
    own_steps = certified = 0
    induced = []

    def recorded(context, simple, pair):
        induced.append(pair)
        return induce_from_simple(context, simple, pair)

    def counted(src, dst):
        nonlocal certified
        change = basis_change(src, dst)
        certified += change is not None
        return change

    for index_set in index_sets:
        for label in all_weight_labels(ctx):
            induced.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(theorems, "induce_from_simple", recorded)
                patch.setattr(theorems, "basis_change", counted)
                report = verify_simple(ctx, index_set, label)
            own_steps += index_set.size > 1 and index_set.pairs[-1] not in induced
            assert reference_recursion(ctx, index_set, label) == report.recursion, f"{index_set} / {label}"
            spanned = socle(build_verma(ctx, index_set, label))
            assert graded_character(spanned) == report.socle_character, f"{index_set} / {label}"
            assert _socle_is_simple(ctx, spanned) == report.socle_simple, f"{index_set} / {label}"
    assert own_steps or all(index_set.size == 1 for index_set in index_sets)
    assert certified or all(len(set(index_set.pairs)) == 1 for index_set in index_sets)


@pytest.mark.parametrize("m", [12, 16])
def test_no_reuse_changes_a_singleton_report(m):
    ctx = get_context(m)
    index_sets = [validate_index_set(ctx, [pair]) for pair in valid_pairs(ctx)]
    _assert_no_report_changes_without_the_reuse(ctx, index_sets)


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_no_reuse_changes_a_two_pair_report_at_m_12(index_set):
    _assert_no_report_changes_without_the_reuse(get_context(12), [index_set])


def test_no_reuse_changes_a_report_over_three_pairs():
    ctx = get_context(12)
    _assert_no_report_changes_without_the_reuse(ctx, [parse_index_set(ctx, "(1,6),(3,6),(5,6)")])


def test_there_are_39_two_pair_and_91_three_pair_sets_at_m_12_and_66_two_pair_sets_at_m_16():
    assert len(TWO_PAIR_SETS) == 39
    assert len(THREE_PAIR_SETS) == 91
    assert len(_pair_sets(get_context(16), 2)) == 66


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_every_two_pair_case_at_m_12(index_set):
    _assert_every_report_passes(get_context(12), [index_set])


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_every_two_pair_standard_module_at_m_12_matches_the_reference(index_set):
    ctx = get_context(12)
    for label in all_weight_labels(ctx):
        assert_standard_module_matches_the_reference(ctx, index_set, label)


@pytest.mark.parametrize("index_set", SOME_TWO_PAIR_SETS_AT_16, ids=str)
def test_every_tenth_two_pair_case_at_m_16(index_set):
    _assert_every_report_passes(get_context(16), [index_set])


@lru_cache(maxsize=None)
def _adapted_negative_kernel_submodules(index_set):
    """Over every weight, the submodule generated by the negative-degree joint kernel of the standard module
    and the quotient by it, built by the test helper, whose characters must add up to the module's; returns
    how many of the submodules are built in the adapted basis."""
    ctx = get_context(12)
    adapted = 0
    for label in all_weight_labels(ctx):
        module = build_verma(ctx, index_set, label)
        negatives = [vec for z, vecs in highest_weight_vectors(module).items() if z < 0 for vec in vecs]
        space = reference_generated(module, negatives)
        reference = reference_submodule(module, space, "submodule")
        adapted += needs_adapted_basis(reference)
        sub, quot = as_module(module, reference), adapted_quotient(module, space)
        assert graded_character(sub) + graded_character(quot) == graded_character(module), f"{index_set} / {label}"
    return adapted


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_every_negative_kernel_submodule_and_quotient_at_m_12(index_set):
    _adapted_negative_kernel_submodules(index_set)


def test_312_negative_kernel_submodules_at_m_12_are_built_in_the_adapted_basis():
    assert sum(_adapted_negative_kernel_submodules(index_set) for index_set in TWO_PAIR_SETS) == 312


def _assert_heads_match_the_reference(ctx, index_set):
    """Over every weight, the head and the socle of the standard module and of the modules the recursion
    induces from the smaller head and socle against the test helper's: the head against its shaving, the
    socle against the closure of the lowest joint kernel under every generator."""
    for label in all_weight_labels(ctx):
        modules = [build_verma(ctx, index_set, label)]
        if index_set.size > 1:
            for pos, pair in enumerate(index_set.pairs):
                small = build_verma(ctx, index_set.without(pos), label)
                modules += [induce_from_simple(ctx, base, pair) for base in (head(small), socle(small))]
        for module in modules:
            assert_head_matches_the_reference(module)
            assert_socle_matches_the_reference(module)


def test_every_singleton_head_at_m_12_matches_the_reference():
    ctx = get_context(12)
    for pair in valid_pairs(ctx):
        _assert_heads_match_the_reference(ctx, validate_index_set(ctx, [pair]))


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_every_two_pair_head_at_m_12_matches_the_reference(index_set):
    _assert_heads_match_the_reference(get_context(12), index_set)


def test_every_case_over_three_pairs():
    ctx = get_context(12)
    _assert_every_report_passes(ctx, [parse_index_set(ctx, "(1,6),(3,6),(5,6)")])


@pytest.mark.parametrize("index_set", THREE_PAIR_SETS, ids=str)
def test_seven_weights_over_every_three_pair_set_at_m_12(index_set):
    ctx = get_context(12)
    _assert_every_report_passes(ctx, [index_set], [parse_weight_label(text) for text in SEVEN_WEIGHTS])


@lru_cache(maxsize=None)
def _rigid_tensor_checks_without_the_guard(index_text):
    """Every mu x every lambda over one pair at m = 12, the guard lifted, against the joint kernel of the product
    solved per degree; every rigid mu must pass.  Returns how many products of a non-rigid mu fail, and how many
    there are."""
    ctx = get_context(12)
    index_set = parse_index_set(ctx, index_text)
    labels = all_weight_labels(ctx)
    failed = cases = 0
    for mu in labels:
        rigid = all(classify_weight(ctx, mu, pair) == RIGID for pair in index_set.pairs)
        for lam in labels:
            outcome = assert_rigid_tensor_matches_the_reference(ctx, index_set, mu, lam, lift_guard=True)
            assert outcome is None or not rigid, outcome
            failed += outcome is not None
            cases += not rigid
    return failed, cases


@pytest.mark.parametrize("index_text", ["(2,3)", "(1,6)"])
def test_every_rigid_tensor_check_without_the_guard_at_m_12_matches_the_reference(index_text):
    _rigid_tensor_checks_without_the_guard(index_text)


def test_11794_of_13244_tensor_products_of_a_non_rigid_weight_fail():
    counts = [_rigid_tensor_checks_without_the_guard(text) for text in ("(2,3)", "(1,6)")]
    assert tuple(map(sum, zip(*counts))) == (11794, 13244)
