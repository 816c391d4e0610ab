from __future__ import annotations

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dihedral_doubles.nichols import (
    letter_insert,
    mask_letters,
    nichols_basis,
    parse_index_set,
    rotation_exponents,
    swap_letters,
    valid_pairs,
    validate_index_set,
)
from dihedral_doubles.qdouble import build_verma
from dihedral_doubles.weights import WeightLabel, decomposition_counts, group_relation_failures

VALID_PAIRS_12 = [
    (1, 6), (2, 3), (2, 9), (3, 2), (3, 6), (3, 10), (5, 6),
    (6, 1), (6, 3), (6, 5), (6, 7), (6, 9), (6, 11),
]
VALID_PAIRS_16 = [
    (1, 8), (2, 4), (2, 12), (3, 8), (4, 2), (4, 6), (4, 10), (4, 14),
    (5, 8), (6, 4), (6, 12), (7, 8),
    (8, 1), (8, 3), (8, 5), (8, 7), (8, 9), (8, 11), (8, 13), (8, 15),
]


def test_valid_pairs_enumeration(ctx12, ctx16):
    assert valid_pairs(ctx12) == VALID_PAIRS_12
    assert valid_pairs(ctx16) == VALID_PAIRS_16


def test_braiding_condition_accepts_and_rejects(ctx12):
    validate_index_set(ctx12, [(2, 3), (2, 9)])
    validate_index_set(ctx12, [(1, 6), (3, 6), (5, 6)])
    # repeated pairs are legitimate: the braiding condition only sees values
    assert validate_index_set(ctx12, [(2, 3), (2, 3)]).pairs == ((2, 3), (2, 3))
    with pytest.raises(ValueError):
        validate_index_set(ctx12, [(2, 3), (1, 6)])  # cross product 2*6 != 6 mod 12
    with pytest.raises(ValueError):
        validate_index_set(ctx12, [(0, 3)])


def test_parse_index_set_normalizes_order(ctx12):
    iset = parse_index_set(ctx12, "(3,6),(1,6)")
    assert iset.pairs == ((1, 6), (3, 6))
    assert str(iset) == "(1,6),(3,6)"


def test_exterior_basis_sizes_are_binomial(ctx12):
    iset = parse_index_set(ctx12, "(1,6),(3,6)")
    for d in range(5):
        assert len(nichols_basis(iset, d)) == comb(4, d)
    assert nichols_basis(iset, 5) == []


masks = st.integers(min_value=0, max_value=15)


def ext_multiply(left: int, right: int) -> tuple[int, int]:
    """Product of two monomial bitmasks: (sign, mask), sign 0 when it vanishes."""
    if left & right:
        return 0, 0
    crossings = 0
    rest = right
    while rest:
        low = rest & -rest
        crossings += (left >> low.bit_length()).bit_count()
        rest ^= low
    return (-1 if crossings % 2 else 1), left | right


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


def _exterior_layer(ctx, text, degree):
    """Layer ``degree`` of the standard module on e:chi1: that exterior power of the letters."""
    return build_verma(ctx, parse_index_set(ctx, text), WeightLabel.e_chi(1)).layer_module(degree)


def test_exterior_power_modules_decompose_as_expected(ctx12):
    sq = _exterior_layer(ctx12, "(1,6),(3,6)", -2)
    assert group_relation_failures(sq) == []
    assert sq.dim == 6
    counts = {str(lab): mult for lab, mult in decomposition_counts(ctx12, sq)}
    assert counts == {"e:chi2": 2, "M2,0": 1, "M4,0": 1}

    vol = _exterior_layer(ctx12, "(2,3)", -2)
    assert [(str(lab), mult) for lab, mult in decomposition_counts(ctx12, vol)] == [
        ("e:chi2", 1)
    ]


def test_top_and_volume_weights(ctx12):
    # the top exterior power is the sign character of x once per pair
    for text, expected in (("(2,3)", "e:chi2"), ("(1,6),(3,6)", "e:chi1")):
        top = _exterior_layer(ctx12, text, -2 * parse_index_set(ctx12, text).size)
        assert [(str(lab), mult) for lab, mult in decomposition_counts(ctx12, top)] == [(expected, 1)]


def test_index_set_removal(ctx12):
    iset = parse_index_set(ctx12, "(1,6),(3,6)")
    assert iset.without(0).pairs == ((3, 6),)
    assert iset.without(1).pairs == ((1, 6),)
    assert iset.size == 2 and iset.nletters == 4
