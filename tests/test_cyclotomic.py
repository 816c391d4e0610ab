from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from dihedral_doubles.cyclotomic import (
    CycMatrix,
    CycNum,
    CyclotomicField,
    EchelonBasis,
    _rref,
    cyclotomic_polynomial,
    get_field,
    kernel,
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


@given(st.sampled_from([6, 8, 12, 16]), st.lists(st.integers(-5, 5), min_size=8, max_size=8))
def test_coordinate_rotations_and_conjugation_match_field_products(m, raw):
    field = get_field(m)
    coords = tuple(raw[: field.degree])
    value = CycNum(field, coords, 1)
    multiples = field.zeta_multiples(coords)
    assert len(multiples) == m
    for b, row in enumerate(multiples):
        assert row == (value * field.zeta(b)).coords
    # conjugation is the field automorphism w -> w^-1
    conj = CycNum(field, tuple(field.conjugate_coords(coords)), 1)
    expected = sum((field.zeta(-a) * c for a, c in enumerate(coords)), field.zero)
    assert conj == expected
    assert field.conjugate_coords(conj.coords) == list(coords)


@given(
    st.sampled_from([9, 12, 16, 20, 24]),
    st.lists(st.integers(-6, 6), min_size=8, max_size=8),
    st.integers(1, 12),
)
def test_unit_products_match_mul_coords(m, raw, den):
    # m = 9 is odd, so there -1 and -w^k are not powers of w
    field = get_field(m)
    value = CycNum._normalized(field, raw[: field.degree], den)

    def expected(unit_coords):
        return CycNum._normalized(field, field.mul_coords(value.coords, unit_coords), value.den)

    powers = [field.zeta(k) for k in range(m)]
    for unit in powers + [-power for power in powers]:
        assert unit.coords in field._units  # the products below take the unit path
        assert value * unit == expected(unit.coords)
        assert unit * value == expected(unit.coords)
    for sign in (1, -1):
        assert value * sign == expected(field.from_integer(sign).coords)
        assert sign * value == expected(field.from_integer(sign).coords)


def _power_coords(field, k):
    """Coordinates of w^k by k general products with the coordinates of w."""
    zeta = [0] * field.degree
    zeta[1] = 1
    coords = (1,) + (0,) * (field.degree - 1)
    for _ in range(k):
        coords = field.mul_coords(coords, zeta)
    return coords


@given(
    st.sampled_from([9, 12, 16, 20, 24]),
    st.integers(0, 47),
    st.integers(0, 47),
    st.lists(st.integers(-6, 6), min_size=8, max_size=8),
    st.integers(1, 12),
)
def test_tagged_units_match_the_general_product(m, a, b, raw, den):
    # m = 9 is odd: there -1 is no power of w, so negation drops the tag
    field = get_field(m)
    value = CycNum._normalized(field, raw[: field.degree], den)

    def general(x, y):
        return CycNum._normalized(field, field.mul_coords(x.coords, y.coords), x.den * y.den)

    def check_tag(x):
        if x.unit is not None:
            assert 0 <= x.unit < m
            assert (x.coords, x.den) == (_power_coords(field, x.unit), 1)
        return x

    za, zb = check_tag(field.zeta(a)), check_tag(field.zeta(b))
    assert (za.unit, zb.unit) == (a % m, b % m)
    product = check_tag(za * zb)
    assert product == general(za, zb)
    assert product.unit == (a + b) % m
    for x in (za * value, value * za):
        assert check_tag(x) == general(za, value)
    minus_one = CycNum(field, (-1,) + (0,) * (field.degree - 1), 1)
    negated = check_tag(-za)
    assert negated == general(za, minus_one)
    assert (negated.unit is not None) == (m % 2 == 0)
    assert check_tag(field.one).unit == 0
    for sign in (1, -1):
        unit = check_tag(field.from_integer(sign))
        assert unit == CycNum._normalized(field, (sign,) + (0,) * (field.degree - 1), 1)
        assert (unit.unit is not None) == (sign == 1 or m % 2 == 0)
        assert check_tag(unit * value) == general(unit, value)
        assert check_tag(unit * za) == general(unit, za)
    # sums and products of untagged numbers carry no tag, even when they equal a power of w
    total = za + field.zero
    assert total == za and total.unit is None
    square = value * value
    assert square == general(value, value) and square.unit is None


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


def test_inverse_memo_is_kept_per_field():
    # Q(zeta_8) and Q(zeta_12) have degree 4: one coordinate tuple names a
    # different number in each, and each field must keep its own inverse
    coords, den = (1, 2, 0, -1), 3
    memoised = []
    for m in (8, 12):
        field = get_field(m)
        x = CycNum(field, coords, den)
        fresh = CycNum(CyclotomicField(m), coords, den).inverse()
        for _ in range(2):
            inv = x.inverse()
            assert inv == fresh
            assert x * inv == field.one
        memoised.append(field._inverses[(coords, den)])
    assert memoised[0] != memoised[1]


def test_zero_has_no_inverse_on_every_call():
    field = get_field(12)
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            field.zero.inverse()
    assert (field.zero.coords, field.zero.den) not in field._inverses


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


def _rows(mat: CycMatrix) -> list[dict]:
    return mat.transpose().sparse_columns()


def _rank(mat: CycMatrix) -> int:
    return len(_rref(mat.field, _rows(mat)).pivots)


def _solve(mat: CycMatrix, rhs: dict) -> dict | None:
    """A solution of ``mat * x = rhs`` from the kernel of ``[mat | rhs]``, or None."""
    n = mat.ncols
    rows = _rows(mat)
    for i, b in rhs.items():
        rows[i][n] = b
    # in reduced form the kernel vector with free column n, if any, is 1 there
    for vec in kernel(mat.field, rows, n + 1):
        if max(vec) == n:
            return {j: -x for j, x in vec.items() if j != n}
    return None


def test_matrix_rank_and_kernel():
    field = get_field(12)
    w = field.zeta(1)
    mat = CycMatrix.from_rows(field, [[field.one, w], [w.inverse(), field.one]])
    assert _rank(mat) == 1
    assert kernel(field, _rows(mat), mat.ncols) == [{0: -w, 1: field.one}]
    # an all-zero middle column is free and spans a kernel vector of its own
    padded = CycMatrix.from_rows(field, [[field.one, 0, w], [w.inverse(), 0, field.one]])
    assert _rank(padded) == 1
    assert kernel(field, _rows(padded), padded.ncols) == [{1: field.one}, {0: -w, 2: field.one}]
    # no rows at all: every column is free
    assert kernel(field, [], 2) == [{0: field.one}, {1: field.one}]


def test_matrix_solve_consistent_and_inconsistent():
    field = get_field(12)
    w = field.zeta(1)
    mat = CycMatrix.from_rows(field, [[field.one, w], [w.inverse(), field.one]])
    rhs = {0: w, 1: field.one}
    sol = _solve(mat, rhs)
    assert sol is not None
    assert mat.apply(sol) == rhs
    assert _solve(mat, {0: field.one, 1: field.one}) is None
    padded = CycMatrix.from_rows(field, [[field.one, 0, w], [w.inverse(), 0, field.one]])
    sol = _solve(padded, rhs)
    assert sol == {0: w}
    assert padded.apply(sol) == rhs
    assert _solve(padded, {0: field.one, 1: field.one}) is None
    # the same answers as span membership of the right-hand side in the columns
    columns = _rref(field, padded.sparse_columns())
    assert columns.reduce(rhs) == {}
    assert columns.reduce({0: field.one, 1: field.one}) != {}


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


def test_nonsingular_matrix_has_full_rank_and_no_kernel():
    field = get_field(12)
    w = field.zeta(1)
    mat = CycMatrix.from_rows(
        field, [[field.one, w], [w * w, field.one + w]]
    )
    assert _rank(mat) == 2
    assert kernel(field, _rows(mat), 2) == []
    sol = _solve(mat, {0: field.one})
    assert sol is not None
    assert mat.apply(sol) == {0: field.one}


# Property tests of the sparse echelon kernel: sparse matrices over Q(w) at
# m = 12 and 16, of low rank as often as not (a product through a narrow
# inner dimension), with drawn rows and columns forced to zero.
_SCALARS = (0, 0, 0, 1, -1, 2, Fraction(-1, 3))


@st.composite
def _factor(draw, field, nrows, ncols, rational):
    cols = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            c = draw(st.sampled_from(_SCALARS))
            if c and rational:
                col[i] = field.from_fraction(c)
            elif c:
                col[i] = field.zeta(draw(st.integers(0, field.m - 1))) * c
        cols.append(col)
    return CycMatrix(field, cols, nrows)


@st.composite
def sparse_matrices(draw, rational=False):
    field = get_field(draw(st.sampled_from((12, 16))))
    nrows, ncols, inner = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    mat = draw(_factor(field, nrows, inner, rational)) * draw(_factor(field, inner, ncols, rational))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    cols = [
        {} if j in zero_cols else {i: x for i, x in col.items() if i not in zero_rows}
        for j, col in enumerate(mat.sparse_columns())
    ]
    return CycMatrix(field, cols, nrows)


@given(sparse_matrices())
def test_kernel_vectors_are_the_reduced_free_column_basis(mat):
    one = mat.field.one
    vectors = kernel(mat.field, _rows(mat), mat.ncols)
    # in reduced form a kernel vector's free column is its largest index
    free = [max(vec) for vec in vectors]
    assert free == sorted(set(free))
    for vec in vectors:
        assert all(vec.values())
        assert mat.apply(vec) == {}
        assert vec[max(vec)] == one
        assert not set(vec).intersection(free) - {max(vec)}
    rank = _rank(mat)
    assert rank + len(vectors) == mat.ncols
    assert rank == _rank(mat.transpose())


def _combination(span, vec):
    """The combination of the reduced rows with the vector's entries at the pivots as coefficients."""
    out: dict = {}
    for pivot, row in zip(span.pivots, span.rows):
        if pivot in vec:
            for t, x in row.items():
                out[t] = out[t] + vec[pivot] * x if t in out else vec[pivot] * x
    return {t: x for t, x in out.items() if x}


@given(sparse_matrices(), st.data())
def test_reduce_finds_a_vector_in_the_span_exactly_when_the_rank_does_not_grow(mat, data):
    field = mat.field
    span = _rref(field, mat.sparse_columns())
    x = data.draw(_factor(field, mat.ncols, 1, False)).sparse_columns()[0]
    inside = mat.apply(x)
    assert span.reduce(inside) == {}
    assert _combination(span, inside) == inside
    b = data.draw(_factor(field, mat.nrows, 1, False)).sparse_columns()[0]
    augmented = CycMatrix(field, mat.sparse_columns() + [b], mat.nrows)
    rest = span.reduce(b)
    assert all(rest.values())
    assert not set(rest).intersection(span.pivots)
    assert (rest == {}) == (_rank(augmented) == _rank(mat))
    assert (_combination(span, b) != b) == bool(rest)
    sol = _solve(mat, b)
    assert (sol is None) == bool(rest)
    if sol is not None:
        assert mat.apply(sol) == b


@given(sparse_matrices(rational=True))
def test_reduced_rows_match_sympy_on_rational_matrices(mat):
    field = mat.field
    dense = [[0] * mat.ncols for _ in range(mat.nrows)]
    for j, col in enumerate(mat.sparse_columns()):
        for i, x in col.items():
            value = x.rational_value()
            dense[i][j] = sympy.Rational(value.numerator, value.denominator)
    reduced, pivots = sympy.Matrix(mat.nrows, mat.ncols, [x for row in dense for x in row]).rref()
    basis = _rref(field, _rows(mat))
    assert basis.pivots == list(pivots)
    for r, row in enumerate(basis.rows):
        expected = {
            j: field.from_fraction(Fraction(int(reduced[r, j].p), int(reduced[r, j].q)))
            for j in range(mat.ncols)
            if reduced[r, j] != 0
        }
        assert row == expected


@given(sparse_matrices(), st.data())
def test_echelon_basis_does_not_depend_on_insertion_order(mat, data):
    rows = _rows(mat)
    order = data.draw(st.permutations(range(len(rows))))
    first, second = EchelonBasis(mat.field), EchelonBasis(mat.field)
    for row in rows:
        first.insert(row)
    for r in order:
        second.insert(rows[r])
    assert first.rows == second.rows
    assert first.pivots == second.pivots
    # a combination of the rows has the combination's coefficients at the pivots
    coeffs = [mat.field.zeta(r) + r for r in range(len(first.rows))]
    combo: dict = {}
    for c, row in zip(coeffs, first.rows):
        for t, x in row.items():
            combo[t] = combo[t] + c * x if t in combo else c * x
    combo = {t: x for t, x in combo.items() if x}
    assert [combo.get(p, mat.field.zero) for p in first.pivots] == coeffs
    assert not first.reduce(combo)
    assert all(not first.insert(row) for row in rows)


@given(sparse_matrices(), st.data())
def test_apply_matches_a_dense_product_and_keeps_no_zero_entries(mat, data):
    field = mat.field
    zero = field.zero
    # append the negation of a drawn column and give it the same coefficient,
    # so the two contributions cancel in every row they reach
    cols = list(mat.sparse_columns())
    if cols:
        j = data.draw(st.integers(0, len(cols) - 1))
        cols.append({i: -x for i, x in cols[j].items()})
    mat = CycMatrix(field, cols, mat.nrows)
    vec = data.draw(_factor(field, mat.ncols, 1, False)).sparse_columns()[0]
    if cols and j in vec:
        vec[len(cols) - 1] = vec[j]
    dense = [zero] * mat.nrows
    for k, col in enumerate(cols):
        for i, x in col.items():
            dense[i] = dense[i] + x * vec.get(k, zero)
    image = mat.apply(vec)
    assert image == {i: x for i, x in enumerate(dense) if x}
    assert all(image.values())
