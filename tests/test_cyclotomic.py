from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihedral_doubles.cyclotomic import (
    CycMatrix,
    CycNum,
    CyclotomicField,
    EchelonBasis,
    UnitMonomial,
    _rref,
    add_into,
    cyclotomic_polynomial,
    get_field,
)
from dihedral_doubles.qdouble import _letter_view
from matrices import (
    as_monomial,
    diagonal,
    from_rows,
    identity,
    in_span,
    is_zero,
    kernel,
    monomial_matrix,
    negated,
    plus,
    rational,
    times,
    unit_monomials,
    without_zeros,
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


def _remainder_coords(m: int, k: int) -> tuple[int, ...]:
    """Coordinates of w^k: the remainder of x^k by sympy's m-th cyclotomic polynomial, by long division."""
    poly = _sympy_coeffs(m)
    d = len(poly) - 1
    rem = [0] * k + [1] + [0] * d
    for top in range(k, d - 1, -1):
        c = rem[top]
        if c:
            for t in range(d + 1):
                rem[top - d + t] -= c * poly[t]
    return tuple(rem[:d])


@pytest.mark.parametrize("m", range(3, 49))
def test_the_power_table_feeds_the_reduction_rows_unit_actions_and_conjugations(m):
    field = CyclotomicField(m)
    d = field.degree
    coords = [_remainder_coords(m, k) for k in range(m)]
    terms = [tuple((t, e) for t, e in enumerate(c) if e) for c in coords]
    assert [power.coords for power in field._zeta_pows] == coords
    assert list(field.power_terms) == terms
    # row j of the reduction is w^(d + j); the top row, w^d, is minus the low coefficients of the minimal polynomial
    assert field._reduction == tuple(coords[(d + j) % m] for j in range(max(1, d - 1)))
    assert field._reduction[0] == tuple(-c for c in field.minpoly[:d])
    for k, (sign, columns) in enumerate(field._unit_actions):
        if k == 0 or 2 * k == m:
            assert (sign, columns) == (1 if k == 0 else -1, None)
        else:
            assert sign == 1
            assert list(columns) == [terms[(k + j) % m] for j in range(d)]
    units = [a for a in range(2, m) if gcd(a, m) == 1]
    assert list(field._conjugations) == [tuple(terms[a * j % m] for j in range(d)) for a in units]


@given(st.sampled_from([6, 8, 12, 16]), st.lists(st.integers(-5, 5), min_size=8, max_size=8))
def test_coordinate_rotations_match_field_products(m, raw):
    field = get_field(m)
    coords = tuple(raw[: field.degree])
    value = CycNum(field, coords, 1)
    multiples = field.zeta_multiples(coords)
    assert len(multiples) == m
    for b, row in enumerate(multiples):
        assert row == (value * field.zeta(b)).coords


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
        # a power of w is tagged and takes the unit path; for odd m, -w^k is no power of w and is untagged
        assert (unit.unit is not None) == (unit in powers)
        assert value * unit == expected(unit.coords)
        assert unit * value == expected(unit.coords)
    for sign in (1, -1):
        unit = field.from_integer(sign)
        assert value * unit == expected(unit.coords)
        assert unit * value == expected(unit.coords)


@given(
    st.sampled_from([9, 12, 16, 20]),
    st.lists(st.integers(-6, 6), min_size=8, max_size=8),
    st.integers(1, 12),
    st.integers(-6, 6),
    st.integers(1, 12),
)
# products that are powers of w and must come out tagged: w^3 / 2 times 2, 2 w^5 / 3 times 3/2, and,
# at the odd m = 9, where -1 and -w^2 are no powers of w and carry no tag, -w^2 times -1
@example(12, [0, 0, 0, 1, 0, 0, 0, 0], 2, 2, 1)
@example(16, [0, 0, 0, 0, 0, 2, 0, 0], 3, 3, 2)
@example(9, [0, 0, -1, 0, 0, 0, 0, 0], 1, -1, 1)
def test_a_rational_factor_scales_as_the_convolution_would(m, raw, den, numerator, denominator):
    # two untagged operands, one of them rational: the product is the convolution, in lowest terms, and
    # tagged exactly when it is a power of w
    field = get_field(m)
    value = CycNum._normalized(field, raw[: field.degree], den)
    scale = CycNum._normalized(field, [numerator] + [0] * (field.degree - 1), denominator)
    expected = CycNum._normalized(field, field.mul_coords(value.coords, scale.coords), value.den * scale.den)
    for product in (value * scale, scale * value):
        assert (product.coords, product.den, product.unit) == (expected.coords, expected.den, expected.unit)


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
    # a sum or a general product that equals a power of w is tagged too
    total = za + field.zero
    assert total == za and total.unit == a % m
    square = check_tag(value * value)
    assert square == general(value, value)


@lru_cache(maxsize=None)
def _power_exponents(m):
    """The coordinates of each w^k, from :func:`_power_coords`, mapped to k."""
    field = get_field(m)
    return {_power_coords(field, k): k for k in range(m)}


@given(
    st.sampled_from([9, 12, 16, 20, 24]),
    st.integers(0, 47),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    st.integers(1, 6),
    st.integers(-3, 3),
)
def test_a_number_is_tagged_exactly_when_it_equals_a_power_of_w(m, k, raw, den, sign):
    # m = 9 is odd: there -w^k is no power of w, and must carry no tag
    field = get_field(m)
    exponents = _power_exponents(m)

    def check(x):
        assert x.unit == (exponents.get(x.coords) if x.den == 1 else None)
        return x

    power = check(field.zeta(k))
    value = check(CycNum._normalized(field, raw[: field.degree], den))
    results = [
        CycNum._normalized(field, [c * den for c in power.coords], den),
        CycNum._normalized(field, [-c * den for c in power.coords], -den),
        check(value + power) + -value,
        power + -value + value,
        value + -value,
        -power,
        -(-power),
        -value,
        check(power * value) * power.inverse(),
        check(-power) * check(-power),
        power * power,
        power.inverse(),
        (-power).inverse(),
        rational(field, Fraction(sign, den)),
        field.from_integer(sign),
    ]
    if value:
        inverse = value.inverse()
        results += [inverse, value * inverse, check(value * power) * inverse, power * inverse]
    for x in results:
        check(x)


@st.composite
def _operands(draw, field):
    """A power of w, its negative, a rational multiple of one, a sum of two, or a number with drawn
    coordinates: operands whose sums, products and inverses are powers of w often enough."""
    a, b = (field.zeta(draw(st.integers(0, field.m - 1))) for _ in range(2))
    kind = draw(st.sampled_from(("power", "negated", "scaled", "sum", "drawn")))
    if kind == "power":
        return a
    if kind == "negated":
        return -a
    if kind == "scaled":
        return a * rational(field, draw(st.sampled_from((2, Fraction(1, 2), Fraction(-2, 3)))))
    if kind == "sum":
        return a + b
    coords = draw(st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree))
    return CycNum._normalized(field, coords, draw(st.integers(1, 3)))


@settings(max_examples=200)
@given(st.sampled_from([9, 12, 16, 20]), st.data())
def test_every_result_that_equals_a_power_of_w_carries_its_tag(m, data):
    # m = 9 is odd: there -1 and -w^k are no powers of w
    field = get_field(m)
    exponents = _power_exponents(m)
    x, y = data.draw(_operands(field)), data.draw(_operands(field))
    two, half = field.from_integer(2), rational(field, Fraction(1, 2))
    results = [x + y, x + -y, y + -x, x * y, -x, (x + y) + -y, (x + -y) + y, (x * two) * half, two, half]
    if y:
        results += [y.inverse(), x * y.inverse(), (x * y) * y.inverse()]
    if x:
        results += [x.inverse(), (x * x) * x.inverse()]
    for result in results:
        k = exponents.get(result.coords) if result.den == 1 else None
        assert result.unit == k
        if k is not None:
            assert result == field.zeta(k) and result is field.zeta(k)


def test_zeta_power_reduction():
    field = get_field(12)
    w = field.zeta(1)
    w2 = field.zeta(2)
    w4 = w2 * w2
    assert w4 == w2 + -field.one
    assert w4 * w2 == -field.one
    assert w4 * w4 * w4 == field.one


def test_primitive_root_sums_to_zero():
    field = get_field(12)
    total = field.zero
    for j in range(12):
        total = total + field.zeta(j)
    assert not total


def test_inverse_of_binomial():
    field = get_field(12)
    w2 = field.zeta(2)
    value = w2 + -field.one
    assert value.inverse() == -w2
    assert value * value.inverse() == field.one


def test_one_coordinate_tuple_has_its_own_inverse_in_each_field():
    # Q(zeta_8) and Q(zeta_12) have degree 4: one coordinate tuple names a
    # different number in each, and each field inverts it by its own norm
    coords, den = (1, 2, 0, -1), 3
    inverses = []
    for m in (8, 12):
        field = get_field(m)
        x = CycNum(field, coords, den)
        first = x.inverse()
        assert x * first == field.one
        assert x.inverse() == first
        inverses.append((first.coords, first.den))
    assert inverses[0] != inverses[1]


def test_zero_has_no_inverse_on_every_call():
    field = get_field(12)
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            field.zero.inverse()


def test_rational_value_round_trip():
    field = get_field(12)
    x = rational(field, Fraction(-7, 3))
    assert not any(x.coords[1:])
    assert Fraction(x.coords[0], x.den) == Fraction(-7, 3)
    assert any((field.zeta(1) + x).coords[1:])


def _reference_str(x: CycNum) -> str:
    """The text form from Fraction coefficients: ``3/7 - 1*w^2``, ``-1/2 + 3/4*w``, ``0``."""
    terms = []
    for j, c in enumerate(x.coords):
        if c:
            mag = Fraction(abs(c), x.den)
            terms.append(("-" if c < 0 else "+", f"{mag}" if j == 0 else f"{mag}*w" if j == 1 else f"{mag}*w^{j}"))
    if not terms:
        return "0"
    (sign, first), rest = terms[0], terms[1:]
    return " ".join([("-" if sign == "-" else "") + first] + [f"{mark} {body}" for mark, body in rest])


def test_str_writes_reduced_coefficients():
    field = get_field(12)
    x = rational(field, Fraction(3, 7)) + -field.zeta(2)
    assert str(x) == "3/7 - 1*w^2"
    assert str(rational(field, Fraction(-1, 2)) + field.zeta(1) * rational(field, Fraction(3, 4))) == "-1/2 + 3/4*w"


@example(12, [0] * 32, 1)  # zero
@example(12, [-3, 1, 0, 2] + [0] * 28, 6)  # negative first coefficient, w, w^3, mixed denominators
@example(32, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -5] + [0] * 16, 10)  # w^15 alone
@given(
    st.integers(12, 32),
    st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5, 12)), min_size=32, max_size=32),
    st.integers(1, 12),
)
def test_str_matches_a_fraction_reference(m, raw, den):
    field = get_field(m)
    x = CycNum._normalized(field, raw[: field.degree], den)
    assert str(x) == _reference_str(x)
    assert repr(x) == f"CycNum({m}, {_reference_str(x)!r})"


def test_arithmetic_takes_only_field_elements():
    field = get_field(12)
    one = field.one
    refused = [
        lambda: one + 1,
        lambda: 1 + one,
        lambda: 2 * one,
        lambda: one * 2,
        lambda: one * Fraction(1, 2),
        lambda: one / one,
        lambda: one - one,
        lambda: one**2,
    ]
    for combine in refused:
        with pytest.raises(TypeError):
            combine()
    # a comparison with a number that is no field element is False, never an error
    assert (one == 1) is False and (one != 1) is True
    assert (field.zero == 0) is False and (one == Fraction(1)) is False
    # elements of two fields do not combine, and are unequal even with equal coordinates
    other = get_field(8).one
    for combine in (lambda: one + other, lambda: one * other, lambda: other * one):
        with pytest.raises(ValueError, match="different cyclotomic fields"):
            combine()
    assert one != other and one.coords == other.coords


coeff = st.integers(min_value=-30, max_value=30)
denom = st.integers(min_value=1, max_value=12)


def _num(field, coords, den) -> CycNum:
    total = field.zero
    for power, c in enumerate(coords):
        total = total + field.zeta(power) * rational(field, Fraction(c, den))
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
    assert x + -x == field.zero
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


def _transpose(mat: CycMatrix) -> CycMatrix:
    columns: list[dict] = [{} for _ in range(mat.nrows)]
    for j, col in enumerate(mat.sparse_columns()):
        for i, x in col.items():
            columns[i][j] = x
    return CycMatrix(mat.field, columns, mat.ncols)


def _rows(mat: CycMatrix) -> list[dict]:
    return _transpose(mat).sparse_columns()


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
    mat = from_rows(field, [[field.one, w], [w.inverse(), field.one]])
    assert _rank(mat) == 1
    assert kernel(field, _rows(mat), mat.ncols) == [{0: -w, 1: field.one}]
    # an all-zero middle column is free and spans a kernel vector of its own
    padded = from_rows(field, [[field.one, 0, w], [w.inverse(), 0, field.one]])
    assert _rank(padded) == 1
    assert kernel(field, _rows(padded), padded.ncols) == [{1: field.one}, {0: -w, 2: field.one}]
    # no rows at all: every column is free
    assert kernel(field, [], 2) == [{0: field.one}, {1: field.one}]


def test_matrix_solve_consistent_and_inconsistent():
    field = get_field(12)
    w = field.zeta(1)
    mat = from_rows(field, [[field.one, w], [w.inverse(), field.one]])
    rhs = {0: w, 1: field.one}
    sol = _solve(mat, rhs)
    assert sol is not None
    assert mat.apply(sol) == rhs
    assert _solve(mat, {0: field.one, 1: field.one}) is None
    padded = from_rows(field, [[field.one, 0, w], [w.inverse(), 0, field.one]])
    sol = _solve(padded, rhs)
    assert sol == {0: w}
    assert padded.apply(sol) == rhs
    assert _solve(padded, {0: field.one, 1: field.one}) is None
    # the same answers as span membership of the right-hand side in the columns
    assert in_span(field, padded.sparse_columns(), rhs)
    assert not in_span(field, padded.sparse_columns(), {0: field.one, 1: field.one})


def test_matrix_algebra_identities():
    field = get_field(12)
    w = field.zeta(1)
    a = from_rows(field, [[1, 2], [3, 4]])
    b = from_rows(field, [[0, 1], [1, 0]])
    ident = identity(field, 2)
    assert times(a, ident) == a
    assert plus(plus(a, b), negated(b)) == a
    assert _transpose(times(a, b)) == times(_transpose(b), _transpose(a))
    assert is_zero(plus(negated(a), a))
    # non-square, with an all-zero middle column
    c = from_rows(field, [[1, 0, w], [0, 0, 2]])
    d = without_zeros(field, [{1: w}, {0: field.zero}, {0: field.one, 1: -w}], 2)
    assert times(ident, c) == c
    assert times(c, identity(field, 3)) == c
    assert plus(plus(c, d), negated(d)) == c
    assert _transpose(times(a, c)) == times(_transpose(c), _transpose(a))
    zero = plus(negated(c), c)
    assert is_zero(zero) and (zero.nrows, zero.ncols) == (2, 3)
    assert _transpose(_transpose(c)) == c
    constructed = [
        a,
        b,
        c,
        d,
        ident,
        diagonal(field, [field.one, field.zero]),
        zero,
    ]
    for mat in constructed:
        assert all(x for col in mat.sparse_columns() for x in col.values())
    assert d.sparse_columns()[1] == {}


def test_nonsingular_matrix_has_full_rank_and_no_kernel():
    field = get_field(12)
    w = field.zeta(1)
    mat = from_rows(
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
def _factor(draw, field, nrows, ncols, rational_only):
    cols = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            c = draw(st.sampled_from(_SCALARS))
            if c and rational_only:
                col[i] = rational(field, c)
            elif c:
                col[i] = field.zeta(draw(st.integers(0, field.m - 1))) * rational(field, c)
        cols.append(col)
    return CycMatrix(field, cols, nrows)


@st.composite
def sparse_matrices(draw, rational_only=False):
    field = get_field(draw(st.sampled_from((12, 16))))
    nrows, ncols, inner = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    mat = times(draw(_factor(field, nrows, inner, rational_only)), draw(_factor(field, inner, ncols, rational_only)))
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
    assert rank == _rank(_transpose(mat))


def _combination(span, vec):
    """The combination of the reduced rows with the vector's entries at the pivots as coefficients."""
    out: dict = {}
    for pivot, row in zip(span.pivots, span.rows):
        if pivot in vec:
            for t, x in row.items():
                out[t] = out[t] + vec[pivot] * x if t in out else vec[pivot] * x
    return {t: x for t, x in out.items() if x}


@given(sparse_matrices(), st.data())
def test_insert_finds_a_vector_in_the_span_exactly_when_the_rank_does_not_grow(mat, data):
    field = mat.field
    span = _rref(field, mat.sparse_columns())
    x = data.draw(_factor(field, mat.ncols, 1, False)).sparse_columns()[0]
    inside = mat.apply(x)
    assert in_span(field, mat.sparse_columns(), inside)
    assert _combination(span, inside) == inside
    b = data.draw(_factor(field, mat.nrows, 1, False)).sparse_columns()[0]
    augmented = CycMatrix(field, mat.sparse_columns() + [b], mat.nrows)
    member = in_span(field, mat.sparse_columns(), b)
    assert member == (_rank(augmented) == _rank(mat))
    assert (_combination(span, b) == b) == member
    sol = _solve(mat, b)
    assert (sol is not None) == member
    if sol is not None:
        assert mat.apply(sol) == b
    # insert leaves the span as it was exactly when the vector lay in it
    pivots = list(span.pivots)
    assert span.insert(b) != member
    assert (span.pivots == pivots) == member
    assert span.pivots == _rref(field, augmented.sparse_columns()).pivots


@given(sparse_matrices(rational_only=True))
def test_reduced_rows_match_sympy_on_rational_matrices(mat):
    field = mat.field
    dense = [[0] * mat.ncols for _ in range(mat.nrows)]
    for j, col in enumerate(mat.sparse_columns()):
        for i, x in col.items():
            assert not any(x.coords[1:])
            dense[i][j] = sympy.Rational(x.coords[0], x.den)
    reduced, pivots = sympy.Matrix(mat.nrows, mat.ncols, [x for row in dense for x in row]).rref()
    basis = _rref(field, _rows(mat))
    assert basis.pivots == list(pivots)
    for r, row in enumerate(basis.rows):
        expected = {
            j: rational(field, Fraction(int(reduced[r, j].p), int(reduced[r, j].q)))
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
    coeffs = [mat.field.zeta(r) + mat.field.from_integer(r) for r in range(len(first.rows))]
    combo: dict = {}
    for c, row in zip(coeffs, first.rows):
        for t, x in row.items():
            combo[t] = combo[t] + c * x if t in combo else c * x
    combo = {t: x for t, x in combo.items() if x}
    assert [combo.get(p, mat.field.zero) for p in first.pivots] == coeffs
    assert in_span(mat.field, rows, combo)
    assert all(not first.insert(row) for row in rows)


@given(sparse_matrices(), st.data())
def test_reduced_rows_read_between_inserts_match_a_fresh_basis(mat, data):
    field = mat.field
    rows = _rows(mat)
    cut = data.draw(st.integers(0, len(rows)))
    probe = data.draw(_factor(field, mat.ncols, 1, False)).sparse_columns()[0]
    basis, done = EchelonBasis(field), 0
    for end in (cut, len(rows)):
        for row in rows[done:end]:
            basis.insert(row)
        done = end
        fresh = _rref(field, rows[:end])
        # the reduced form read between inserts, and again after the inserts that follow it
        assert basis.rows == fresh.rows
        assert basis.pivots == fresh.pivots
    # the forward rows still decide membership, and grow the span alike, after the reduced form was read
    assert basis.insert(probe) == fresh.insert(probe)
    assert basis.pivots == fresh.pivots
    assert basis.rows == fresh.rows


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


@given(sparse_matrices(), st.data())
def test_apply_of_a_unit_vector_is_its_column(mat, data):
    # an entry 1 of the vector, as in the coordinate stand-ins {p: one} of qdouble._on_positions, takes the
    # column's entries as they stand; any other power of w still multiplies them
    field = mat.field
    other = field.zeta(data.draw(st.integers(1, field.m - 1)))
    for j, col in enumerate(mat.sparse_columns()):
        assert mat.apply({j: field.one}) == col
        assert mat.apply({j: other}) == {i: x * other for i, x in col.items()}


# The monomial view of CycMatrix against the column dicts and ``apply``.


@st.composite
def _entries(draw, field):
    """A nonzero entry: a power of w, its negative, a power of w that arithmetic rebuilt, or a non-unit."""
    k = draw(st.integers(0, field.m - 1))
    power = field.zeta(k)
    kind = draw(st.sampled_from(("tagged", "negated", "summed", "non-unit", "rational")))
    if kind == "tagged":
        return power
    if kind == "negated":
        return -power
    if kind == "summed":
        # 2 w^k is untagged, and halving it finds the tag again
        return (power + power) * rational(field, Fraction(1, 2))
    if kind == "non-unit":
        return field.one + -power if k else field.from_integer(2)  # such as 1 - w^k in a lowering letter
    return power * rational(field, Fraction(-1, 3))


@st.composite
def _view_columns(draw, field, nrows, ncols, monomial):
    """Columns with at most one entry each, or also with two when not ``monomial``."""
    sizes = (0, 1, 1) if monomial else (0, 1, 2)
    cols = []
    for _ in range(ncols):
        size = min(draw(st.sampled_from(sizes)), nrows)
        rows = draw(st.lists(st.integers(0, nrows - 1), min_size=size, max_size=size, unique=True))
        cols.append({i: draw(_entries(field)) for i in rows})
    return cols


@st.composite
def _partner_columns(draw, field, cols, nrows):
    """Per column of ``cols``: its negative, another entry in its row or another row, or nothing."""
    out = []
    for col in cols:
        choice = draw(st.sampled_from(("cancel", "same row", "other row", "empty")))
        if not col or choice == "empty":
            out.append({})
        elif choice == "cancel":
            out.append({i: -x for i, x in col.items()})
        elif choice == "same row":
            out.append({i: draw(_entries(field)) for i in col})
        else:
            out.append({draw(st.integers(0, nrows - 1)): draw(_entries(field))})
    return out


@given(st.sampled_from((12, 16, 20, 24)), st.integers(0, 5), st.booleans(), st.data())
def test_letter_view_matches_the_column_dicts(m, n, monomial, data):
    field = get_field(m)
    a_cols = data.draw(_view_columns(field, n, n, True))
    b_cols = data.draw(_view_columns(field, n, n, monomial))
    c_cols = data.draw(_partner_columns(field, a_cols, n))
    a, b, c = (CycMatrix(field, cols, n) for cols in (a_cols, b_cols, c_cols))
    assert _letter_view(a) is not None and _letter_view(c) is not None
    assert (_letter_view(b) is not None) == all(len(col) <= 1 for col in b_cols)
    for mat, cols in ((a, a_cols), (b, b_cols), (c, c_cols)):
        view = _letter_view(mat)
        if view is not None:
            assert [{} if i is None else {i: x} for i, x in zip(*view)] == cols
    for left, right in ((a, c), (a, a), (c, a)):
        assert (left == right) == (_letter_view(left) == _letter_view(right))


# UnitMonomial against the column-dict products of the matrices it stands for.


def _cycles(rows):
    """The cycles of a permutation given as its row map."""
    cycles, seen = [], set()
    for start in range(len(rows)):
        if start not in seen:
            cycle, j = [], start
            while j not in seen:
                seen.add(j)
                cycle.append(j)
                j = rows[j]
            cycles.append(cycle)
    return cycles


@settings(max_examples=40)
@given(st.integers(12, 24), st.integers(0, 24), st.data())
def test_row_map_products_of_powers_of_w_add_exponents(m, n, data):
    # products, powers and blocks of row maps and exponents stand for the products of the matrices
    # they convert to, formed from the column dicts; Kronecker products are checked in test_weights.py
    field = get_field(m)
    a, b = data.draw(unit_monomials(field, n)), data.draw(unit_monomials(field, n))
    for g in (a, b):
        assert all(0 <= e < m for e in g.exps)
        assert as_monomial(monomial_matrix(g)) == g and hash(g) == hash(UnitMonomial(field, g.rows, g.exps))
    assert monomial_matrix(a * b) == times(monomial_matrix(a), monomial_matrix(b))
    dense_a, dense_b = monomial_matrix(a), monomial_matrix(b)
    assert (a * b == b * a) == (times(dense_a, dense_b) == times(dense_b, dense_a))
    power = data.draw(st.integers(0, 2 * m))
    expected = identity(field, n)
    for _ in range(power):
        expected = times(monomial_matrix(a), expected)
    assert monomial_matrix(a**power) == expected
    with pytest.raises(ValueError, match="negative power"):
        a**-1
    # a block a keeps is a union of its cycles, in any order
    cycles = _cycles(a.rows)
    chosen = data.draw(st.lists(st.sampled_from(cycles), unique_by=min)) if cycles else []
    idxs = data.draw(st.permutations([j for cycle in chosen for j in cycle]))
    position = {i: t for t, i in enumerate(idxs)}
    cols = monomial_matrix(a).sparse_columns()
    block = CycMatrix(field, [{position[i]: x for i, x in cols[j].items()} for j in idxs], len(idxs))
    assert monomial_matrix(a.restricted(idxs)) == block
    for cycle in cycles:
        if len(cycle) > 1:
            with pytest.raises(ValueError, match="does not keep the block"):
                a.restricted(cycle[1:])


REFUSALS = ("empty column", "two entries in one column", "two columns in one row", "no power of w")


@pytest.mark.parametrize("kind", ("kept",) + REFUSALS)
@given(st.integers(12, 24), st.integers(2, 5), st.data())
def test_a_matrix_converts_exactly_when_it_is_invertible_monomial_with_powers_of_w(kind, m, n, data):
    field = get_field(m)
    g = data.draw(unit_monomials(field, n))
    cols = [dict(col) for col in monomial_matrix(g).sparse_columns()]
    j = data.draw(st.integers(0, n - 1))
    other = data.draw(st.sampled_from([k for k in range(n) if k != j]))
    if kind == "empty column":
        cols[j] = {}
    elif kind == "two entries in one column":
        cols[j][g.rows[other]] = field.zeta(data.draw(st.integers(0, m - 1)))
    elif kind == "two columns in one row":
        cols[j] = {g.rows[other]: cols[j][g.rows[j]]}
    elif kind == "no power of w":
        # an entry of absolute value other than 1 is no root of unity
        scale = data.draw(st.sampled_from((2, Fraction(-1, 3), Fraction(1, 2))))
        cols[j] = {g.rows[j]: field.zeta(g.exps[j]) * rational(field, scale)}
    converted = as_monomial(CycMatrix(field, cols, n))
    assert converted == (g if kind == "kept" else None)


# Coordinate rows of EchelonBasis against the forward-row clears they skip.


def _reference_clear(target, pivot, row):
    """``_clear`` with no shortcut for a row of one entry: every clear negates or inverts."""
    x = target.pop(pivot)
    lead = row[pivot]
    neg = -x if lead.unit == 0 else -(x * lead.inverse())
    for t, y in row.items():
        if t != pivot:
            add_into(target, t, y * neg)


class _ReferenceBasis:
    """``EchelonBasis`` with no shortcut for coordinate rows: forward rows, then back-substitution."""

    def __init__(self, field):
        self.field, self.pivots, self.forward = field, [], {}

    def insert(self, vec):
        row = dict(vec)
        while row and min(row) in self.forward:
            _reference_clear(row, min(row), self.forward[min(row)])
        if row:
            insort(self.pivots, min(row))
            self.forward[min(row)] = row
        return bool(row)

    @property
    def rows(self):
        built = {}
        for pivot in reversed(self.pivots):
            row = dict(self.forward[pivot])
            for later in [t for t in row if t in built]:
                _reference_clear(row, later, built[later])
            lead = row[pivot]
            if lead.unit != 0:
                inv = lead.inverse()
                row = {t: x * inv for t, x in row.items()}
            built[pivot] = row
        return [built[pivot] for pivot in self.pivots]

    def kernel(self, ncols):
        out = {free: {free: self.field.one} for free in range(ncols) if free not in self.pivots}
        for pivot, row in zip(self.pivots, self.rows):
            for free, x in row.items():
                if free != pivot:
                    out[free][pivot] = -x
        return list(out.values())


def _scaled_sum(field, rows, coeffs):
    out: dict = {}
    for c, row in zip(coeffs, rows):
        for t, x in row.items():
            add_into(out, t, c * x)
    return out


@st.composite
def _mixed_rows(draw):
    """Coordinate rows, with tagged, untagged and fractional entries, mixed with general rows
    and with combinations of earlier rows."""
    field = get_field(draw(st.sampled_from((12, 16))))
    ncols = draw(st.integers(2, 6))
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("coordinate", "coordinate", "general", "combination")))
        if kind == "combination" and len(rows) >= 2:
            picked = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=3))
            row = _scaled_sum(field, picked, [draw(_entries(field)) for _ in picked])
        else:
            # a general row has two or three entries, so clearing by it fills in
            size = 1 if kind == "coordinate" else min(draw(st.integers(2, 3)), ncols)
            cols = draw(st.lists(st.integers(0, ncols - 1), min_size=size, max_size=size, unique=True))
            row = {j: draw(_entries(field)) for j in cols}
        if row:
            rows.append(row)
    return field, ncols, rows


@given(_mixed_rows(), st.data())
def test_coordinate_rows_match_the_forward_row_clears(case, data):
    field, ncols, rows = case
    given_rows = [dict(row) for row in rows]
    order = data.draw(st.permutations(range(len(rows))))
    basis, reference = _rref(field, [rows[r] for r in order]), _ReferenceBasis(field)
    for r in order:
        reference.insert(rows[r])
    assert basis.pivots == reference.pivots
    assert basis.rows == reference.rows
    # probes in the span and out of it, among them coordinate vectors
    coeffs = [data.draw(_entries(field)) for _ in rows]
    probes = [_scaled_sum(field, rows, coeffs), {j: data.draw(_entries(field)) for j in range(ncols)}]
    probes += [{j: data.draw(_entries(field))} for j in range(ncols)]
    for probe in probes:
        # membership and the grown span on fresh bases of the same rows
        grown, grown_reference = _rref(field, [rows[r] for r in order]), _ReferenceBasis(field)
        for r in order:
            grown_reference.insert(rows[r])
        assert grown.insert(probe) == grown_reference.insert(probe)
        assert (grown.pivots, grown.rows) == (grown_reference.pivots, grown_reference.rows)
    assert in_span(field, rows, probes[0])
    assert kernel(field, rows, ncols) == reference.kernel(ncols)
    # neither the rows handed in nor the basis change
    assert basis.rows == reference.rows
    assert rows == given_rows
    assert all(row[pivot] == field.one for pivot, row in zip(basis.pivots, basis.rows))


def _matrix_power(mat, k):
    """mat^k from the column dicts, by squaring with ``times``."""
    result = identity(mat.field, mat.nrows)
    while k:
        if k & 1:
            result = times(result, mat)
        mat = times(mat, mat)
        k >>= 1
    return result


@st.composite
def _cycle_monomials(draw):
    """(g, cycle lengths): a UnitMonomial on up to 48 points, built from drawn cycles of length 1 to 20,
    so some are longer than m and some have a length that does not divide m.  Most cycles get an
    exponent sum P = (m / d) u, for a divisor d of m: P times a number of turns vanishes mod m only
    once d / gcd(d, u) divides it."""
    m = draw(st.sampled_from((9, 12, 16)))
    lengths = []
    for length in draw(st.lists(st.integers(1, 20), min_size=1, max_size=6)):
        if sum(lengths) + length <= 48:
            lengths.append(length)
    points = draw(st.permutations(range(sum(lengths))))
    rows, exps = [0] * len(points), [0] * len(points)
    start = 0
    for length in lengths:
        cycle = points[start : start + length]
        start += length
        walk = draw(st.lists(st.integers(-2 * m, 2 * m), min_size=length, max_size=length))
        if draw(st.integers(0, 3)):
            d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
            walk[-1] += (m // d) * draw(st.integers(0, d - 1)) - sum(walk)
        for i, j in enumerate(cycle):
            rows[j], exps[j] = cycle[(i + 1) % length], walk[i]
    return UnitMonomial(get_field(m), rows, exps), lengths


@settings(max_examples=100)
@given(_cycle_monomials(), st.data())
def test_order_divides_and_powers_read_off_the_cycles(case, data):
    # against the k-th power of the column dicts: k drawn freely, or a multiple of every cycle's length,
    # where only the exponent sums decide whether it is the identity
    g, lengths = case
    m, n = g.field.m, len(g.rows)
    turns = lcm(*lengths)
    k = data.draw(st.one_of(st.integers(0, 3 * m), st.integers(0, 2 * m).map(lambda t: t * turns)))
    power = _matrix_power(monomial_matrix(g), k)
    assert g.order_divides(k) == (power == identity(g.field, n))
    assert monomial_matrix(g**k) == power
    # one start per cycle, its smallest column, fixed points too, in increasing order; every column of the identity
    assert g.cycle_starts() == sorted(min(cycle) for cycle in _cycles(g.rows))
    assert UnitMonomial(g.field, range(n), g.exps).cycle_starts() == list(range(n))


@settings(max_examples=100)
@given(st.integers(12, 24), st.integers(0, 30), st.data())
def test_each_power_is_formed_once_and_kept_on_its_monomial(m, n, data):
    # UnitMonomial.__pow__ keeps each power it forms, keyed by the power: each equals a fresh walk of the
    # cycles and the power of the column dicts, a repeat returns the same object, and == and the hash read
    # the row map and exponents alone, before and after
    field = get_field(m)
    g = data.draw(unit_monomials(field, n))
    twin = UnitMonomial(field, g.rows, g.exps)
    key = hash(g)
    powers = data.draw(st.lists(st.integers(0, 3 * m), min_size=2, max_size=5, unique=True))
    formed = {k: g**k for k in powers}
    for k in powers:
        fresh = UnitMonomial(field, g.rows, g.exps) ** k
        assert formed[k] == fresh
        assert monomial_matrix(formed[k]) == _matrix_power(monomial_matrix(g), k)
        assert g**k is formed[k]
    assert g == twin and twin == g
    assert hash(g) == hash(twin) == key
