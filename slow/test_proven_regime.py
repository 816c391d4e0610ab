"""Slow tier: ``verify_simple`` on every case of the proven regime listed below.

Run with ``PYTHONPATH=src python -m pytest -q slow``; tier-1's ``testpaths``
does not collect it.  It covers every singleton case at m = 12, 16, 20 and
24, every case over the 39 two-pair sets at m = 12 and over every tenth of
the 66 at m = 16, and every case over ``(1,6),(3,6),(5,6)``.  Every module
these cases build, standard, induced, head, socle, layer and tensor, passes
the check of ``weights.QDModule`` that x and y are invertible monomial
matrices, or its case raises.  The modules are built to pass it (see
``weights.QDModule``); a pass shows the construction holding over this
regime.  Over the 39 two-pair sets at m = 12, the submodule generated by
the negative-degree joint kernel of every standard module, and the quotient
by it, are built too, 312 of the submodules in an adapted basis, and their
characters must add up to the module's.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from dihedral_doubles import get_context
from dihedral_doubles.nichols import parse_index_set, valid_pairs, validate_index_set
from dihedral_doubles.qdouble import (
    build_verma,
    graded_character,
    highest_weight_vectors,
    quotient,
    submodule_generated,
    subspace_as_module,
)
from dihedral_doubles.theorems import verify_simple
from dihedral_doubles.weights import all_weight_labels


def _assert_every_report_passes(ctx, index_sets):
    failures = [
        f"{index_set} / {label}"
        for index_set in index_sets
        for label in all_weight_labels(ctx)
        if not verify_simple(ctx, index_set, label).ok
    ]
    assert not failures, "mismatched cases: " + ", ".join(failures)


def _two_pair_sets(ctx):
    """Every admissible set of two pairs, a pair taken twice included."""
    sets = []
    for pairs in combinations_with_replacement(valid_pairs(ctx), 2):
        try:
            sets.append(validate_index_set(ctx, pairs))
        except ValueError:
            continue
    return sets


TWO_PAIR_SETS = _two_pair_sets(get_context(12))
# every tenth of the 66 two-pair sets at m = 16, in the order they are listed
SOME_TWO_PAIR_SETS_AT_16 = _two_pair_sets(get_context(16))[::10]


@pytest.mark.parametrize("m", [12, 16, 20, 24])
def test_every_singleton_case(m):
    ctx = get_context(m)
    _assert_every_report_passes(ctx, [validate_index_set(ctx, [pair]) for pair in valid_pairs(ctx)])


def test_there_are_39_two_pair_sets_at_m_12_and_66_at_m_16():
    assert len(TWO_PAIR_SETS) == 39
    assert len(_two_pair_sets(get_context(16))) == 66


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_every_two_pair_case_at_m_12(index_set):
    _assert_every_report_passes(get_context(12), [index_set])


@pytest.mark.parametrize("index_set", SOME_TWO_PAIR_SETS_AT_16, ids=str)
def test_every_tenth_two_pair_case_at_m_16(index_set):
    _assert_every_report_passes(get_context(16), [index_set])


@pytest.mark.parametrize("index_set", TWO_PAIR_SETS, ids=str)
def test_every_negative_kernel_submodule_and_quotient_at_m_12(index_set):
    ctx = get_context(12)
    for label in all_weight_labels(ctx):
        module = build_verma(ctx, index_set, label)
        negatives = [vec for z, vecs in highest_weight_vectors(module).items() if z < 0 for vec in vecs]
        space = submodule_generated(module, negatives)
        sub, quot = subspace_as_module(module, space), quotient(module, space)
        assert graded_character(sub) + graded_character(quot) == graded_character(module), f"{index_set} / {label}"


def test_every_case_over_three_pairs():
    ctx = get_context(12)
    _assert_every_report_passes(ctx, [parse_index_set(ctx, "(1,6),(3,6),(5,6)")])
