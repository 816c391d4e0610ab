"""Slow tier: ``verify_simple`` on every case of the proven regime listed below.

Run with ``PYTHONPATH=src python -m pytest -q slow``; tier-1's ``testpaths``
does not collect it.  It covers every singleton case at m = 12, 16, 20, 24,
28 and 32, every case over the 39 two-pair sets at m = 12 and over every
tenth of the 66 at m = 16, every case over ``(1,6),(3,6),(5,6)``, and seven
weights over each of the 91 three-pair sets at m = 12.  Every
module these cases build, standard, induced, head, socle, layer and tensor,
holds x and y as invertible monomial matrices with powers of w as entries
(``cyclotomic.UnitMonomial``), whose row maps ``weights.QDModule`` checks
to be permutations; a socle or head converts to that form in
``qdouble._on_positions``, or its case raises.  A pass shows the
construction holding over this regime.  Over the 39 two-pair sets at
m = 12, the submodule generated by the negative-degree joint kernel of
every standard module, and the quotient by it, are built too, by the test
helper ``tests/adapted.py``, 312 of the submodules in a basis adapted to
the group action, since ``qdouble.subspace_as_module`` refuses them, and
their characters must add up to the module's.  Every singleton report at
m = 12 and 16 is also compared with the report of a context whose memo of
``weights.decomposition_counts`` stores nothing.  Every singleton report at
m = 12 and 16, every two-pair report at m = 12 and every report over
``(1,6),(3,6),(5,6)`` is compared with the report made while
``qdouble.highest_weight_vectors`` solves every kernel again,
``qdouble.subspace_as_module`` builds every submodule, a full span too,
through ``qdouble._on_positions``, and ``theorems.verify_simple`` induces the
smaller head and the smaller socle apart at every recursion step.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from dihedral_doubles import get_context, qdouble, theorems
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.nichols import parse_index_set, valid_pairs, validate_index_set
from dihedral_doubles.qdouble import build_verma, graded_character, highest_weight_vectors, submodule_generated
from dihedral_doubles.theorems import verify_simple
from dihedral_doubles.weights import all_weight_labels, parse_weight_label

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from adapted import adapted_quotient, as_module, needs_adapted_basis, reference_submodule  # noqa: E402


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


def _solved_again(module, degree=None):
    """``highest_weight_vectors`` with the module's kernel table dropped first, so every call solves."""
    module.__dict__.pop("_kernels", None)
    return highest_weight_vectors(module, degree)


def _assert_no_report_changes_without_the_reuse(ctx, index_sets):
    """Every report equals the one made with no reuse between modules.

    The kernel table is dropped before every call, every submodule, a full
    span too, is restricted row by row, and every recursion step induces
    the smaller head and the smaller socle apart, even when they hold the
    same matrices.  The full-span return must have been taken, and over
    index sets of two or more pairs the shared induction too.
    """
    full_spans = shared = 0
    same_action = theorems._same_action

    def counted_same_action(one, other):
        nonlocal shared
        same = same_action(one, other)
        shared += same
        return same

    def every_row_restricted(module, space, kind="submodule"):
        """``subspace_as_module`` without its full-span return: every row's images restricted and reduced."""
        nonlocal full_spans
        full_spans += len(space.pivots) == module.dim

        def images(mat):
            cols = mat.sparse_columns()
            out = [cols[p] if len(row) == 1 else mat.apply(row) for p, row in zip(space.pivots, space.rows)]
            assert not any(space.reduce(image) for image in out)
            return out

        return qdouble._on_positions(module, space.pivots, images, kind)

    for index_set in index_sets:
        for label in all_weight_labels(ctx):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(theorems, "_same_action", counted_same_action)
                kept = verify_simple(ctx, index_set, label).to_json_obj()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qdouble, "highest_weight_vectors", _solved_again)
                patch.setattr(qdouble, "subspace_as_module", every_row_restricted)
                patch.setattr(theorems, "_same_action", lambda one, other: False)
                assert verify_simple(ctx, index_set, label).to_json_obj() == kept, f"{index_set} / {label}"
    assert full_spans
    assert shared or all(index_set.size == 1 for index_set in index_sets)


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
        space = submodule_generated(module, negatives)
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


def test_every_case_over_three_pairs():
    ctx = get_context(12)
    _assert_every_report_passes(ctx, [parse_index_set(ctx, "(1,6),(3,6),(5,6)")])


@pytest.mark.parametrize("index_set", THREE_PAIR_SETS, ids=str)
def test_seven_weights_over_every_three_pair_set_at_m_12(index_set):
    ctx = get_context(12)
    _assert_every_report_passes(ctx, [index_set], [parse_weight_label(text) for text in SEVEN_WEIGHTS])
