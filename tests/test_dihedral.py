from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dihedral_doubles.dihedral import DihedralGroup, get_context


@pytest.fixture(scope="module")
def group12():
    return DihedralGroup(12)


def test_defining_relations(group12):
    e, x, y, mul = group12.identity, group12.x, group12.y, group12.products
    assert (e, x, y) == (0, 12, 1)
    assert mul[x][x] == e
    prod = e
    for _ in range(12):
        prod = mul[prod][y]
    assert prod == e
    xy = mul[x][y]
    assert mul[xy][xy] == e
    assert mul[y][x] == mul[x][group12.inverses[y]] == group12.element(1, -1)


def test_elements_are_the_integers_refl_times_m_plus_rot(group12):
    assert list(group12.elements()) == list(range(24))
    for g in group12.elements():
        refl, rot = divmod(g, 12)
        assert group12.element(refl, rot) == group12.element(refl + 2, rot - 12) == g
        assert (group12.reflection(rot) if refl else group12.rotation(rot)) == g
    # (x^a y^b)(x^c y^d) = x^(a+c) y^(d + (-1)^c b)
    for a, b, c, d in ((0, 3, 1, 2), (1, 3, 1, 2), (1, 5, 0, 4), (0, 7, 0, 9)):
        expected = group12.element(a + c, d + (-b if c else b))
        assert group12.products[group12.element(a, b)][group12.element(c, d)] == expected


def test_group_is_associative_exhaustively(group12):
    elems = list(group12.elements())
    mul = group12.products
    assert len(elems) == 24
    for a in elems:
        for b in elems:
            for c in elems:
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]


def test_conjugacy_class_count_and_sizes(group12):
    classes = group12.conjugacy_classes()
    assert len(classes) == 9  # n + 3 with n = 6
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2, 2, 2, 6, 6]
    # y x y^-1 = x y^-2 and x y x^-1 = y^-1
    conj = group12.conjugates
    assert conj[group12.y][group12.x] == group12.reflection(-2)
    assert conj[group12.x][group12.y] == group12.rotation(-1)


def test_centralizer_of_reflection(group12):
    x = group12.x
    central = group12.centralizer(x)
    names = sorted(group12.name(g) for g in central)
    assert names == ["e", "x", "x*y^6", "y^6"]


def test_orbit_stabilizer(group12):
    for cls in group12.conjugacy_classes():
        rep = next(iter(cls))
        assert len(cls) * len(group12.centralizer(rep)) == 24


def test_element_names(group12):
    names = [group12.name(g) for g in group12.elements()]
    assert names[:3] + names[12:15] == ["e", "y", "y^2", "x", "x*y", "x*y^2"]
    assert len(set(names)) == 24
    assert group12.name(group12.element(1, 5)) == "x*y^5"
    assert group12.name(group12.element(1, -1)) == "x*y^11"


small_exp = st.integers(min_value=-15, max_value=15)
refl = st.integers(min_value=0, max_value=1)


@given(refl, small_exp, refl, small_exp)
def test_inverse_and_conjugation(a_refl, a_rot, b_refl, b_rot):
    group = DihedralGroup(12)
    mul, inv = group.products, group.inverses
    a = group.element(a_refl, a_rot)
    b = group.element(b_refl, b_rot)
    assert 0 <= a < 24 and 0 <= b < 24
    assert mul[a][inv[a]] == mul[inv[a]][a] == group.identity
    assert group.conjugates[b][a] == mul[mul[b][a]][inv[b]]
    assert inv[mul[a][b]] == mul[inv[b]][inv[a]]


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
