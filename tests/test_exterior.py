"""The one-pair induction of ``qdouble`` against the many-pair reference of ``exterior``.

``build_verma`` induces the pairs one at a time; ``exterior.induce`` lets the
exterior algebra of every pair act at once.  After the signed permutation
that raising-letter words give, the two modules must hold the same
gradings and the same matrices, entry for entry.  The reference's own mask
helpers are tested first.
"""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_doubles import get_context
from dihedral_doubles.nichols import parse_index_set, valid_pairs, validate_index_set
from dihedral_doubles.qdouble import build_verma, head, induce_from_simple, socle
from dihedral_doubles.weights import all_weight_labels, parse_weight_label
from exterior import (
    assert_same_module,
    assert_standard_module_matches_the_reference,
    ext_multiply,
    letter_insert,
    mask_letters,
    nichols_basis,
    reference_induce_from_simple,
    rotation_exponents,
    signed_permutation,
    swap_letters,
)

masks = st.integers(min_value=0, max_value=15)


def test_exterior_basis_sizes_are_binomial(ctx12):
    iset = parse_index_set(ctx12, "(1,6),(3,6)")
    for d in range(5):
        assert len(nichols_basis(iset, d)) == comb(4, d)
    assert nichols_basis(iset, 5) == []


@given(masks, masks)
def test_exterior_product_is_graded_commutative(a, b):
    sign_ab, mask_ab = ext_multiply(a, b)
    sign_ba, mask_ba = ext_multiply(b, a)
    if a & b:
        assert sign_ab == sign_ba == 0
    else:
        assert mask_ab == mask_ba == a | b
        da, db = bin(a).count("1"), bin(b).count("1")
        assert sign_ab == sign_ba * (-1) ** (da * db)


@given(masks)
def test_squares_vanish(a):
    if a:
        assert ext_multiply(a, a) == (0, 0)


@given(st.integers(min_value=0, max_value=3), masks)
def test_letter_insert_agrees_with_product(letter, mask):
    sign, new = letter_insert(letter, mask)
    assert (sign, new) == ext_multiply(1 << letter, mask)


def test_swap_exchanges_pairs_with_volume_sign(ctx12):
    iset = parse_index_set(ctx12, "(1,6),(3,6)")
    # single letter v+0 -> v-0, no full pair
    assert swap_letters(iset, 0b0001) == (1, 0b0010)
    # one full pair contributes one sign
    assert swap_letters(iset, 0b0011) == (-1, 0b0011)
    assert swap_letters(iset, 0b1111) == (1, 0b1111)


def test_rotation_exponents_are_additive_in_letters(ctx12):
    iset = parse_index_set(ctx12, "(1,6),(3,6)")
    assert rotation_exponents(iset, 0b0001) == (1, 6)
    assert rotation_exponents(iset, 0b0010) == (-1, -6)
    assert rotation_exponents(iset, 0b1100) == (0, 0)
    assert rotation_exponents(iset, 0b0101) == (4, 12)


def test_mask_letters_lists_letters_ascending():
    assert list(mask_letters(0b0110)) == [1, 2]
    assert list(mask_letters(0)) == []


@st.composite
def standard_cases(draw, reflection):
    """An order m in {12, 16, 20}, one to four pairs that pass the braiding check, and a weight.

    Each pair is drawn from those admissible with the ones before, a pair
    already drawn among them.  The weight's family is drawn from the
    reflection families (Mx, Mxy) or from the five rotation ones.
    """
    ctx = get_context(draw(st.sampled_from((12, 16, 20))))
    pairs = [draw(st.sampled_from(valid_pairs(ctx)))]
    for _ in range(draw(st.integers(0, 3))):
        admissible = []
        for pair in valid_pairs(ctx):
            try:
                validate_index_set(ctx, pairs + [pair])
            except ValueError:
                continue
            admissible.append(pair)
        pairs.append(draw(st.sampled_from(admissible)))
    labels = [lab for lab in all_weight_labels(ctx) if lab.is_reflection_type == reflection]
    family = draw(st.sampled_from(sorted({lab.family for lab in labels})))
    label = draw(st.sampled_from([lab for lab in labels if lab.family == family]))
    return ctx, validate_index_set(ctx, pairs), label


# half the cases on reflection weights, which the catalog holds few of
@pytest.mark.parametrize("reflection", [False, True], ids=["rotation", "reflection"])
@settings(max_examples=20)
@given(data=st.data())
def test_standard_modules_match_the_reference(reflection, data):
    assert_standard_module_matches_the_reference(*data.draw(standard_cases(reflection)))


def test_repeated_and_four_pair_sets_match_the_reference(ctx12):
    # a pair taken twice lands in front of its copy, so the letters of the copies trade keys in the
    # fold; the words still match the two modules, since the relations do not tell equal pairs apart
    for text in ("(2,3),(2,3)", "(1,6),(1,6),(3,6)", "(1,6),(3,6),(5,6),(5,6)"):
        for label in ("e:chi1", "M2,3", "Mxy:1,1"):
            assert_standard_module_matches_the_reference(ctx12, parse_index_set(ctx12, text), parse_weight_label(label))


def _bases(module, key_pair):
    """The positions of the base vectors of an induced module: those no new raising letter reaches."""
    reached = {r for key in key_pair for col in module.v_mats[key].sparse_columns() for r in col}
    return [j for j in range(module.dim) if j not in reached]


@pytest.mark.parametrize("base_text, pair", [("(3,6)", (1, 6)), ("(1,6),(5,6)", (3, 6)), ("(2,3)", (2, 3))], ids=str)
@pytest.mark.parametrize("label_text", ["e:chi1", "yn:chi2", "e:rho3", "yn:rho1", "M2,3", "Mx:0,0", "Mxy:1,1"])
def test_induction_from_heads_and_socles_matches_the_reference(ctx12, base_text, pair, label_text):
    # the new pair goes in front of (3,6), between (1,6) and (5,6), and in front of its own copy
    small = build_verma(ctx12, parse_index_set(ctx12, base_text), parse_weight_label(label_text))
    for base in (head(small), socle(small)):
        built, reference = induce_from_simple(ctx12, base, pair), reference_induce_from_simple(ctx12, base, pair)
        assert built.kind == reference.kind == "induced"
        key_pair = [(sorted(base.index_set.pairs + (pair,)).index(pair), sign) for sign in (1, -1)]
        # each side lists its base vectors by degree, then by position in the base
        starts = (_bases(reference, key_pair), _bases(built, key_pair))
        assert len(starts[0]) == len(starts[1]) == base.dim
        assert_same_module(reference, built, *signed_permutation(reference, built, starts, key_pair))
