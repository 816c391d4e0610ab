from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dihedral_doubles.dihedral import (
    DihedralGroup,
    GroupElement,
    get_context,
    parse_element,
)


@pytest.fixture(scope="module")
def group12():
    return DihedralGroup(12)


def test_defining_relations(group12):
    e, x, y = group12.identity, group12.x, group12.y
    assert x * x == e
    prod = e
    for _ in range(12):
        prod = prod * y
    assert prod == e
    assert (x * y) * (x * y) == e
    assert y * x == x * y.inverse()


def test_group_is_associative_exhaustively(group12):
    elems = list(group12.elements())
    assert len(elems) == 24
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)


def test_conjugacy_class_count_and_sizes(group12):
    classes = group12.conjugacy_classes()
    assert len(classes) == 9  # n + 3 with n = 6
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2, 2, 2, 6, 6]


def test_centralizer_of_reflection(group12):
    x = group12.x
    central = group12.centralizer(x)
    names = sorted(str(g) for g in central)
    assert names == ["e", "x", "x*y^6", "y^6"]


def test_orbit_stabilizer(group12):
    for cls in group12.conjugacy_classes():
        rep = next(iter(cls))
        assert len(cls) * len(group12.centralizer(rep)) == 24


def test_parse_round_trip(group12):
    for g in group12.elements():
        assert group12.parse(str(g)) == g
    assert parse_element("x*y^5", 12) == GroupElement(1, 5, 12)
    with pytest.raises(ValueError):
        parse_element("z^2", 12)


small_exp = st.integers(min_value=-15, max_value=15)
refl = st.integers(min_value=0, max_value=1)


@given(refl, small_exp, refl, small_exp)
def test_inverse_and_conjugation(a_refl, a_rot, b_refl, b_rot):
    a = GroupElement(a_refl, a_rot, 12)
    b = GroupElement(b_refl, b_rot, 12)
    e = GroupElement(0, 0, 12)
    assert a * a.inverse() == e
    assert a.conjugated_by(b) == b * a * b.inverse()
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_modulus_guard():
    with pytest.raises(ValueError):
        DihedralGroup(10)
    with pytest.raises(ValueError):
        DihedralGroup(13, unsafe=True)
    assert len(list(DihedralGroup(10, unsafe=True).elements())) == 20


def test_context_character_values():
    ctx = get_context(12)
    g = ctx.group.element(1, 3)
    assert ctx.character_value(1, 1, g) == 1
    assert ctx.character_value(-1, 1, g) == -1
    assert ctx.character_value(1, -1, g) == -1
    assert ctx.character_value(-1, -1, g) == 1
    assert ctx.omega(6) == -ctx.field.one


def test_get_context_is_one_object_per_order_however_called():
    ctx = get_context(12)
    assert get_context(12, unsafe=False) is ctx
    assert get_context(m=12) is ctx
    assert get_context(12, False) is ctx
    assert get_context(16) is not ctx
