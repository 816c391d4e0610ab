"""Column-dict references for the matrix algebra the package decides without forming it.

The package forms no product, sum or negation of :class:`CycMatrix`, and
builds the group action as :class:`UnitMonomial`; the tests compare both
against these, which read the column dicts alone, and draw UnitMonomials
with :func:`unit_monomials`.  A CycMatrix holds no zero entry; references
whose column dicts may hold one build through :func:`without_zeros`.
A basis vector of a module has no name; :func:`induced_position` finds
one of an induced module by the letters that reach it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from dihedral_doubles.cyclotomic import CycMatrix, CycNum, CyclotomicField, UnitMonomial, add_into


def times(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    """The product of two matrices, column by column from the left factor's action."""
    return CycMatrix(a.field, [a.apply(col) for col in b.sparse_columns()], a.nrows)


def has_two_entry_column(mat: CycMatrix) -> bool:
    """Whether a column of the matrix holds more than one entry."""
    return any(len(col) > 1 for col in mat.sparse_columns())


def plus(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    """The sum of two matrices of one shape, from their column dicts."""
    columns = [dict(col) for col in a.sparse_columns()]
    for col, other in zip(columns, b.sparse_columns()):
        for i, x in other.items():
            add_into(col, i, x)
    return CycMatrix(a.field, columns, a.nrows)


def negated(mat: CycMatrix) -> CycMatrix:
    """The negative of a matrix, from its column dicts."""
    return CycMatrix(mat.field, [{i: -x for i, x in col.items()} for col in mat.sparse_columns()], mat.nrows)


def is_zero(mat: CycMatrix) -> bool:
    """Whether every column of the matrix is empty."""
    return not any(mat.sparse_columns())


def without_zeros(field: CyclotomicField, columns: Sequence[dict], nrows: int) -> CycMatrix:
    """The matrix of these column dicts, with their zero entries dropped: a CycMatrix holds none."""
    return CycMatrix(field, [{i: x for i, x in col.items() if x} for col in columns], nrows)


def diagonal(field: CyclotomicField, entries: Sequence[CycNum]) -> CycMatrix:
    """The diagonal matrix with these entries; a zero entry leaves its column empty."""
    return without_zeros(field, [{j: x} for j, x in enumerate(entries)], len(entries))


def identity(field: CyclotomicField, n: int) -> CycMatrix:
    return diagonal(field, [field.one] * n)


def induced_position(module, letters: Sequence[tuple[int, int]], b: int = 0) -> int:
    """The position of the basis vector ``letters ⊗ b`` of an induced module.

    ``letters`` lists raising letters as ``(pair position, sign)``, leftmost
    first; applied to the b-th vector of degree zero they give that basis
    vector, up to its sign.
    """
    vec = {module.layer_indices()[0][b]: module.ctx.field.one}
    for key in reversed(letters):
        vec = module.v_mats[key].apply(vec)
    (position,) = vec
    return position


def rational(field: CyclotomicField, value: Fraction | int) -> CycNum:
    """The field element for a rational, normalised and tagged as arithmetic would leave it."""
    value = Fraction(value)
    return CycNum._normalized(field, (value.numerator,) + (0,) * (field.degree - 1), value.denominator)


def from_rows(field: CyclotomicField, rows: Sequence[Sequence[CycNum | Fraction | int]]) -> CycMatrix:
    """The matrix with these rows, each entry an int, a Fraction or a field element."""
    ncols = len(rows[0]) if rows else 0
    columns: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        assert len(row) == ncols, "ragged rows"
        for j, x in enumerate(row):
            x = x if isinstance(x, CycNum) else rational(field, x)
            if x:
                columns[j][i] = x
    return CycMatrix(field, columns, len(rows))


@st.composite
def unit_monomials(draw, field: CyclotomicField, n: int) -> UnitMonomial:
    """An n x n UnitMonomial: a drawn permutation, and exponents drawn beyond 0 .. m-1 as well."""
    exps = draw(st.lists(st.integers(-2 * field.m, 2 * field.m), min_size=n, max_size=n))
    return UnitMonomial(field, draw(st.permutations(range(n))), exps)
