"""Column-dict references for the matrix algebra the package decides without forming it.

The package forms no product, sum or negation of :class:`CycMatrix`, and
builds the group action as :class:`UnitMonomial`, which it never turns into
a CycMatrix or back; the tests compare both against these, which read the
column dicts alone, convert with :func:`monomial_matrix` and
:func:`as_monomial`, and draw UnitMonomials with :func:`unit_monomials`.
The package solves no kernel; :func:`kernel` solves one by elimination,
for the references that need it.  Span membership is asked of a fresh
echelon basis by :func:`in_span`, and the references that read a vector
modulo a span take :func:`residual`.  A CycMatrix
holds no zero entry; references whose column dicts may hold one build
through :func:`without_zeros`.
A basis vector of a module has no name; :func:`induced_position` finds
one of an induced module by the letters that reach it.
:func:`inverted_operands` records what the eliminations invert.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

import pytest
from hypothesis import strategies as st

from dihedral_doubles.cyclotomic import (
    CycMatrix,
    CycNum,
    CyclotomicField,
    UnitMonomial,
    VecDict,
    _rref,
    add_into,
)


def times(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    """The product of two matrices, column by column from the left factor's action."""
    return CycMatrix(a.field, [a.apply(col) for col in b.sparse_columns()], a.nrows)


def kernel(field: CyclotomicField, rows: Iterable[VecDict], ncols: int) -> list[VecDict]:
    """Basis of the vectors in ``ncols`` coordinates that every row annihilates.

    One sparse vector per free column of the reduced rows: 1 at that column,
    minus the column's entry in each row at the row's pivot.
    """
    basis = _rref(field, rows)
    pivot_set = set(basis.pivots)
    out = {free: {free: field.one} for free in range(ncols) if free not in pivot_set}
    for pivot, row in zip(basis.pivots, basis.rows):
        for free, x in row.items():
            if free != pivot:
                out[free][pivot] = -x
    return list(out.values())


def in_span(field: CyclotomicField, rows: Iterable[VecDict], vec: VecDict) -> bool:
    """Whether ``vec`` lies in the span of ``rows``: a fresh echelon basis of the rows does not grow by it."""
    return not _rref(field, rows).insert(vec)


def residual(pivots: Sequence[int], rows: Sequence[VecDict], vec: VecDict) -> VecDict:
    """The vector minus its component in the span, 0 at every pivot and empty exactly on the span.

    ``pivots`` and ``rows`` are those of one :class:`EchelonBasis`, its rows
    read once by the caller: each read back-substitutes them again.  Reduced
    row r_q is 1 at its pivot q and 0 at the other pivots, so the component
    is the sum of ``vec[q] r_q`` over the pivots q of ``vec``.
    """
    out = dict(vec)
    for pivot, row in zip(pivots, rows):
        c = vec.get(pivot)
        if c is not None:
            for t, x in row.items():
                add_into(out, t, -(x * c))
    return out


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


def monomial_matrix(g: UnitMonomial) -> CycMatrix:
    """The unit monomial as a :class:`CycMatrix`: column j holds ``w^exps[j]`` in row ``rows[j]``."""
    zeta = g.field.zeta
    return CycMatrix(g.field, [{i: zeta(e)} for i, e in zip(g.rows, g.exps)], len(g.rows))


def as_monomial(mat: CycMatrix) -> UnitMonomial | None:
    """The matrix as a :class:`UnitMonomial`, or None unless it is one.

    None when a column is empty or has two entries, when two columns
    share a row, or when an entry is no power of w.
    """
    rows, exps = [], []
    for col in mat.sparse_columns():
        if len(col) != 1:
            return None
        ((i, val),) = col.items()
        rows.append(i)
        exps.append(val.unit)
    if len(set(rows)) != len(rows) or None in exps:
        return None
    return UnitMonomial(mat.field, rows, exps)


@st.composite
def unit_monomials(draw, field: CyclotomicField, n: int) -> UnitMonomial:
    """An n x n UnitMonomial: a drawn permutation, and exponents drawn beyond 0 .. m-1 as well."""
    exps = draw(st.lists(st.integers(-2 * field.m, 2 * field.m), min_size=n, max_size=n))
    return UnitMonomial(field, draw(st.permutations(range(n))), exps)


def inverted_operands(run: Callable[[], object]) -> tuple[int, list[CycNum]]:
    """How many times ``CycNum.inverse`` is called while ``run()`` runs, and the operands of those calls
    that carry no tag as a power of w (``CycNum.unit`` None).  Only eliminations invert: the leads of
    ``cyclotomic.EchelonBasis``."""
    inverse = CycNum.inverse
    count, untagged = 0, []

    def recorded(self: CycNum) -> CycNum:
        nonlocal count
        count += 1
        if self.unit is None:
            untagged.append(self)
        return inverse(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CycNum, "inverse", recorded)
        run()
    return count, untagged
