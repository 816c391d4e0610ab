from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from dihedral_doubles.cyclotomic import (
    CycMatrix,
    CycNum,
    cyclotomic_polynomial,
    get_field,
    mat_kernel,
    mat_rank,
    mat_solve,
)


def _sympy_coeffs(m: int) -> tuple[int, ...]:
    poly = sympy.Poly(sympy.cyclotomic_poly(m, sympy.Symbol("x")))
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 36, 105])
def test_cyclotomic_polynomial_matches_reference(m):
    assert cyclotomic_polynomial(m) == _sympy_coeffs(m)


def test_minimal_polynomial_order_twelve():
    # x^4 - x^2 + 1, low degree first
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert get_field(12).degree == 4


def test_zeta_power_reduction():
    field = get_field(12)
    w = field.zeta(1)
    w2 = field.zeta(2)
    assert w ** 4 == w2 - field.one
    assert w ** 6 == -field.one
    assert w ** 12 == field.one


def test_primitive_root_sums_to_zero():
    field = get_field(12)
    total = field.zero
    for j in range(12):
        total = total + field.zeta(j)
    assert not total


def test_inverse_of_binomial():
    field = get_field(12)
    w2 = field.zeta(2)
    value = w2 - field.one
    assert value.inverse() == -w2
    assert value * value.inverse() == field.one


def test_rational_value_round_trip():
    field = get_field(12)
    x = field.from_fraction(Fraction(-7, 3))
    assert x.rational_value() == Fraction(-7, 3)
    with pytest.raises(ValueError):
        (field.zeta(1) + x).rational_value()


def test_str_parse_round_trip():
    field = get_field(12)
    x = field.from_fraction(Fraction(3, 7)) - field.zeta(2)
    assert str(x) == "3/7 - 1*w^2"
    assert field.parse(str(x)) == x


coeff = st.integers(min_value=-30, max_value=30)
denom = st.integers(min_value=1, max_value=12)


def _num(field, coords, den) -> CycNum:
    total = field.zero
    for power, c in enumerate(coords):
        total = total + field.zeta(power) * Fraction(c, den)
    return total


@given(
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
    denom,
    denom,
)
def test_field_axioms_hold(a, b, c, p, q):
    field = get_field(12)
    x, y, z = _num(field, a, p), _num(field, b, q), _num(field, c, 1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == field.zero
    assert x * field.one == x


@given(st.lists(coeff, min_size=8, max_size=8), denom)
def test_nonzero_elements_invert(a, p):
    # field degrees 2 to 8, each order on every drawn example
    for m in (4, 6, 8, 10, 12, 16, 20, 24):
        field = get_field(m)
        x = _num(field, a[: field.degree], p)
        if not x:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == field.one
        with pytest.raises(ZeroDivisionError):
            field.zero.inverse()


def test_matrix_rank_and_kernel():
    field = get_field(12)
    w = field.zeta(1)
    mat = CycMatrix.from_rows(field, [[field.one, w], [w.inverse(), field.one]])
    assert mat_rank(mat) == 1
    kernel = mat_kernel(mat)
    assert kernel == [{0: -w, 1: field.one}]
    # an all-zero middle column is free and spans a kernel vector of its own
    padded = CycMatrix.from_rows(field, [[field.one, 0, w], [w.inverse(), 0, field.one]])
    assert mat_rank(padded) == 1
    assert mat_kernel(padded) == [{1: field.one}, {0: -w, 2: field.one}]


def test_matrix_solve_consistent_and_inconsistent():
    field = get_field(12)
    w = field.zeta(1)
    mat = CycMatrix.from_rows(field, [[field.one, w], [w.inverse(), field.one]])
    rhs = {0: w, 1: field.one}
    sol = mat_solve(mat, rhs)
    assert sol is not None
    applied = mat.apply(sol)
    assert applied == rhs
    assert mat_solve(mat, {0: field.one, 1: field.one}) is None
    padded = CycMatrix.from_rows(field, [[field.one, 0, w], [w.inverse(), 0, field.one]])
    sol = mat_solve(padded, rhs)
    assert sol == {0: w}
    assert padded.apply(sol) == rhs
    assert mat_solve(padded, {0: field.one, 1: field.one}) is None


def test_matrix_algebra_identities():
    field = get_field(12)
    w = field.zeta(1)
    a = CycMatrix.from_rows(field, [[1, 2], [3, 4]])
    b = CycMatrix.from_rows(field, [[0, 1], [1, 0]])
    ident = CycMatrix.identity(field, 2)
    assert a * ident == a
    assert (a + b) - b == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (-a) + a == CycMatrix.zeros(field, 2, 2)
    # non-square, with an all-zero middle column
    c = CycMatrix.from_rows(field, [[1, 0, w], [0, 0, 2]])
    d = CycMatrix.from_column_dicts(field, [{1: w}, {0: field.zero}, {0: field.one, 1: -w}], 2)
    assert ident * c == c
    assert c * CycMatrix.identity(field, 3) == c
    assert (c + d) - d == c
    assert (a * c).transpose() == c.transpose() * a.transpose()
    assert (-c) + c == CycMatrix.zeros(field, 2, 3)
    assert c.transpose().transpose() == c
    assert c.submatrix([1], [0, 2]) == CycMatrix.from_rows(field, [[0, 2]])
    assert CycMatrix.vstack([c, d]).submatrix([2, 3], [0, 1, 2]) == d
    constructed = [
        a,
        b,
        c,
        d,
        ident,
        CycMatrix.diagonal(field, [field.one, field.zero]),
        CycMatrix.zeros(field, 2, 3),
    ]
    for mat in constructed:
        assert all(x for col in mat.sparse_columns() for x in col.values())
    assert d.sparse_columns()[1] == {}


def test_inverse_matches_adjoint_on_random_entries():
    field = get_field(12)
    w = field.zeta(1)
    mat = CycMatrix.from_rows(
        field, [[field.one, w], [w * w, field.one + w]]
    )
    det_nondegenerate = mat_rank(mat) == 2
    assert det_nondegenerate
    sol = mat_solve(mat, {0: field.one})
    assert sol is not None
