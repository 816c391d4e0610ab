"""Exact arithmetic in cyclotomic fields and sparse linear algebra over them.

Scalars live in Q(w) for a fixed primitive m-th root of unity w, written in
canonical coordinates over the power basis ``1, w, ..., w^(phi(m)-1)`` modulo
the m-th cyclotomic polynomial.  A value keeps integer numerator coordinates
over one positive denominator in lowest terms, so equality is literal tuple
equality and nothing is ever rounded.  Matrices store one dict of nonzero
entries per column.  All elimination goes through one sparse reduced echelon
basis, :class:`EchelonBasis`, built from sparse vectors by :func:`_rref`:
callers hand it the rows of a system or the vectors of a span, and read off
ranks (its pivots), span membership (:meth:`EchelonBasis.reduce`) and
kernels (:func:`kernel`).  A submodule in ``qdouble`` is one such basis
over the whole module.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


def _poly_divide_exact(num: list[int], den: Sequence[int]) -> list[int]:
    """Quotient of an exact division in Z[x]; ``den`` must be monic."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for top in range(len(num) - 1, dn - 1, -1):
        c = num[top]
        if c:
            quot[top - dn] = c
            for t in range(dn + 1):
                num[top - dn + t] -= c * den[t]
    if any(num):
        raise ArithmeticError("polynomial division left a nonzero remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients, low degree first, of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# per power-basis coordinate j: the nonzero (t, e) of a unit times w^j
UnitColumns = tuple[tuple[tuple[int, int], ...], ...]


class CyclotomicField:
    """The field Q(w) for a primitive m-th root of unity w.

    Instances are shared per m (see :func:`get_field`); numbers carry a
    reference to their field and arithmetic requires matching fields.
    """

    __slots__ = (
        "m", "minpoly", "degree", "_reduction", "zero", "one", "_half_turn",
        "_zeta_pows", "_units", "_unit_actions", "_conjugations", "_inverses",
    )

    def __init__(self, m: int) -> None:
        self.m = m
        self.minpoly = cyclotomic_polynomial(m)
        self.degree = len(self.minpoly) - 1
        self._reduction = self._reduction_rows()
        self.zero = CycNum(self, (0,) * self.degree, 1)
        one = [0] * self.degree
        one[0] = 1
        # w^k carries its exponent k as a unit tag; -1 is w^(m/2) for even m
        self._zeta_pows = tuple(CycNum(self, c, 1, k) for k, c in enumerate(self.zeta_multiples(one)))
        self.one = self._zeta_pows[0]
        self._half_turn = m // 2 if m % 2 == 0 else None
        self._units = self._unit_table()
        self._unit_actions = tuple(self._units[power.coords] for power in self._zeta_pows)
        # per Galois automorphism w -> w^a with a != 1: the images of the basis
        self._conjugations = tuple(
            tuple(self._zeta_pows[a * j % m].coords for j in range(self.degree))
            for a in range(2, m)
            if gcd(a, m) == 1
        )
        # inverses computed so far, keyed by (coords, den): elimination pivots repeat
        self._inverses: dict[tuple[tuple[int, ...], int], CycNum] = {}

    def _reduction_rows(self) -> tuple[tuple[int, ...], ...]:
        # row j holds the canonical coordinates of w^(degree + j), as integers
        # (the minimal polynomial is monic), enough for degree-2*degree-2 products.
        d = self.degree
        rows: list[tuple[int, ...]] = []
        row = [-c for c in self.minpoly[:d]]
        rows.append(tuple(row))
        for _ in range(1, max(1, d - 1)):
            top = row[d - 1]
            row = [0] + row[: d - 1]
            if top:
                base = rows[0]
                for t in range(d):
                    row[t] += top * base[t]
            rows.append(tuple(row))
        return tuple(rows)

    def _unit_table(self) -> dict[tuple[int, ...], tuple[int, UnitColumns | None]]:
        """How multiplying by each unit +-w^k acts, keyed by the unit's coordinates.

        +-1 map to ``(+-1, None)``.  Any other unit u maps to ``(1, columns)``:
        column j lists the nonzero ``(t, e)`` of the coordinates of u * w^j, so
        the product of u with coordinates c has ``sum_j c_j e`` at each t.
        ``_unit_actions[k]`` is the entry of w^k, for numbers tagged k.
        """
        units: dict[tuple[int, ...], tuple[int, UnitColumns | None]] = {}
        for k, power in enumerate(self._zeta_pows):
            for sign in (1, -1):
                key = tuple(sign * c for c in power.coords)
                if key in units:
                    continue  # for even m, -w^k is w^(k + m/2), and -1 is met first
                if k == 0:
                    units[key] = (sign, None)
                    continue
                columns = tuple(
                    tuple((t, sign * e) for t, e in enumerate(self._zeta_pows[(k + j) % self.m].coords) if e)
                    for j in range(self.degree)
                )
                units[key] = (1, columns)
        return units

    def mul_coords(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Canonical integer coordinates of the product of two coordinate vectors."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        for j in range(2 * d - 2, d - 1, -1):
            c = conv[j]
            if c:
                row = self._reduction[j - d]
                for t in range(d):
                    conv[t] += c * row[t]
        return tuple(conv[:d])

    def zeta_multiples(self, coords: Sequence[int]) -> list[tuple[int, ...]]:
        """Canonical integer coordinates of ``c * w^b`` for b = 0 .. m-1, c given by coordinates."""
        d = self.degree
        top_row = self._reduction[0]  # w^degree
        cur = list(coords)
        out = [tuple(cur)]
        for _ in range(1, self.m):
            top = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if top:
                for t in range(d):
                    cur[t] += top * top_row[t]
            out.append(tuple(cur))
        return out

    def conjugate_coords(self, coords: Sequence[int]) -> list[int]:
        """Coordinates of the complex conjugate, the image under w -> w^-1."""
        out = [0] * self.degree
        for a, c in enumerate(coords):
            if c:
                for t, e in enumerate(self._zeta_pows[-a % self.m].coords):
                    out[t] += c * e
        return out

    def zeta(self, exponent: int = 1) -> CycNum:
        """The root of unity w raised to the given exponent."""
        return self._zeta_pows[exponent % self.m]

    def from_integer(self, value: int) -> CycNum:
        """An integer; 1, and -1 for even m, are the tagged powers of w."""
        if value == 1:
            return self.one
        if value == -1:
            return -self.one
        coords = [0] * self.degree
        coords[0] = value
        return CycNum(self, tuple(coords), 1)

    def from_fraction(self, value: Fraction | int) -> CycNum:
        """A rational; integers come from :meth:`from_integer`."""
        value = Fraction(value)
        if value.denominator == 1:
            return self.from_integer(value.numerator)
        coords = [0] * self.degree
        coords[0] = value.numerator
        return CycNum._normalized(self, coords, value.denominator)

    def num(self, value: CycNum | Fraction | int) -> CycNum:
        """Coerce an int, Fraction or CycNum into this field."""
        if isinstance(value, CycNum):
            if value.field.m != self.m:
                raise ValueError(f"cannot mix Q(zeta_{value.field.m}) with Q(zeta_{self.m})")
            return value
        return self.from_fraction(value)

    def parse(self, text: str) -> CycNum:
        """Inverse of ``str`` on field elements; accepts e.g. ``1/2 - 3*w^2``."""
        stripped = text.replace(" ", "")
        if not stripped:
            raise ValueError("empty field element")
        terms: list[tuple[int, str]] = []
        sign, start = 1, 0
        if stripped[0] in "+-":
            sign = -1 if stripped[0] == "-" else 1
            start = 1
        cur = start
        for pos in range(start, len(stripped) + 1):
            if pos == len(stripped) or stripped[pos] in "+-":
                if pos > cur and stripped[pos - 1] in "*/^":
                    continue  # sign inside an exponent/coefficient is not supported anyway
                terms.append((sign, stripped[cur:pos]))
                if pos < len(stripped):
                    sign = -1 if stripped[pos] == "-" else 1
                    cur = pos + 1
        total = self.zero
        for tsign, term in terms:
            if not term:
                raise ValueError(f"malformed field element: {text!r}")
            if "w" in term:
                coeff_part, _, tail = term.partition("w")
                coeff = Fraction(coeff_part.rstrip("*")) if coeff_part.rstrip("*") else Fraction(1)
                exponent = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
                if exponent is None:
                    raise ValueError(f"malformed field element: {text!r}")
                total = total + self.zeta(exponent) * (tsign * coeff)
            else:
                total = total + self.from_fraction(tsign * Fraction(term))
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclotomicField) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.m))

    def __repr__(self) -> str:
        return f"CyclotomicField({self.m})"


@lru_cache(maxsize=None)
def get_field(m: int) -> CyclotomicField:
    return CyclotomicField(m)


class CycNum:
    """An element of Q(w): integer coordinates over one positive denominator.

    ``unit`` is k when the number is the field's tagged w^k (its power table
    entry, or a product or negation of such entries) and None otherwise; an
    untagged number may still equal a power of w.
    """

    __slots__ = ("field", "coords", "den", "unit")

    def __init__(self, field: CyclotomicField, coords: tuple[int, ...], den: int, unit: int | None = None) -> None:
        self.field = field
        self.coords = coords
        self.den = den
        self.unit = unit

    @staticmethod
    def _normalized(field: CyclotomicField, coords: Iterable[int], den: int) -> CycNum:
        coords = list(coords)
        if den < 0:
            den = -den
            coords = [-c for c in coords]
        g = den
        for c in coords:
            if c:
                g = gcd(g, c)
                if g == 1:
                    break
        if g > 1:
            den //= g
            coords = [c // g for c in coords]
        if not any(coords):
            den = 1
        return CycNum(field, tuple(coords), den)

    def _coerce(self, other: CycNum | Fraction | int) -> CycNum | None:
        if isinstance(other, CycNum):
            if other.field.m != self.field.m:
                raise ValueError("field elements belong to different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other: CycNum | Fraction | int) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == 1 and o.den == 1:
            return CycNum(self.field, tuple([a + b for a, b in zip(self.coords, o.coords)]), 1)
        g = gcd(self.den, o.den)
        fa, fb = o.den // g, self.den // g
        coords = [a * fa + b * fb for a, b in zip(self.coords, o.coords)]
        return CycNum._normalized(self.field, coords, self.den * fa)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        field = self.field
        if self.unit is not None and field._half_turn is not None:
            return field._zeta_pows[(self.unit + field._half_turn) % field.m]
        return CycNum(field, tuple([-c for c in self.coords]), self.den)

    def __sub__(self, other: CycNum | Fraction | int) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Fraction | int) -> CycNum:
        return (-self) + other

    def __mul__(self, other: CycNum | Fraction | int) -> CycNum:
        """The product; a unit +-w^k on either side takes a fast path.

        Almost every product in module construction and relation checks has
        a unit operand, and most have two.  The product of two tagged powers
        of w is the tagged power of the summed exponents.  Otherwise a unit,
        found by its tag or by its coordinates, maps the other operand's
        integer coordinates by an invertible integer matrix, so the product
        keeps that operand's denominator and stays in lowest terms: no gcd
        is needed.
        """
        field = self.field
        if isinstance(other, CycNum):
            if other.field is not field and other.field.m != field.m:
                raise ValueError("field elements belong to different cyclotomic fields")
            o = other
        elif isinstance(other, int):
            if other == 1:
                return self
            if other == -1:
                return -self
            if not other:
                return field.zero
            return CycNum._normalized(field, (c * other for c in self.coords), self.den)
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if self.unit is not None:
            if o.unit is not None:
                return field._zeta_pows[(self.unit + o.unit) % field.m]
            action, x = field._unit_actions[self.unit], o
        elif o.unit is not None:
            action, x = field._unit_actions[o.unit], self
        else:
            units = field._units
            action = units.get(o.coords) if o.den == 1 else None
            x = self
            if action is None and self.den == 1:
                action = units.get(self.coords)
                x = o
            if action is None:
                return CycNum._normalized(field, field.mul_coords(self.coords, o.coords), self.den * o.den)
        sign, columns = action
        if columns is None:
            return x if sign > 0 else -x
        out = [0] * field.degree
        for c, column in zip(x.coords, columns):
            if c:
                for t, e in column:
                    out[t] += c * e
        return CycNum(field, tuple(out), x.den)

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse: the other Galois conjugates over the norm.

        For integer coordinates c, the product of the conjugates of c under
        every automorphism w -> w^a, a != 1 coprime to m, is a cofactor whose
        product with c is the norm of c, a nonzero integer; all of it stays in
        integer arithmetic.  Elimination divides by the same few pivots over
        and over, so each field memoises the inverses it has computed.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        key = (self.coords, self.den)
        cached = field._inverses.get(key)
        if cached is not None:
            return cached
        cofactor = field.one.coords
        for images in field._conjugations:
            conj = [0] * field.degree
            for c, image in zip(self.coords, images):
                if c:
                    for t, e in enumerate(image):
                        if e:
                            conj[t] += c * e
            cofactor = field.mul_coords(cofactor, conj)
        norm = field.mul_coords(self.coords, cofactor)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError(f"norm of {self} is not a nonzero rational")
        inverse = CycNum._normalized(field, [c * self.den for c in cofactor], norm[0])
        field._inverses[key] = inverse
        return inverse

    def __truediv__(self, other: CycNum | Fraction | int) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Fraction | int) -> CycNum:
        return self.inverse() * other

    def __pow__(self, exponent: int) -> CycNum:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result, base = self.field.one, self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.field.m == other.field.m and self.coords == other.coords and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.field.m, self.coords, self.den))

    def rational_value(self) -> Fraction:
        """The value as a rational number; raises if the element is irrational."""
        if any(self.coords[1:]):
            raise ValueError(f"{self} is not rational")
        return Fraction(self.coords[0], self.den)

    def __str__(self) -> str:
        parts: list[str] = []
        for j, c in enumerate(self.coords):
            if not c:
                continue
            mag = Fraction(abs(c), self.den)
            if j == 0:
                body = str(mag)
            elif j == 1:
                body = f"{mag}*w"
            else:
                body = f"{mag}*w^{j}"
            parts.append(("-" if c < 0 else "+") + " " + body)
        if not parts:
            return "0"
        first = parts[0]
        text = ("-" + first[2:]) if first[0] == "-" else first[2:]
        return " ".join([text] + parts[1:])

    def __repr__(self) -> str:
        return f"CycNum({self.field.m}, {str(self)!r})"


VecDict = dict[int, CycNum]


class CycMatrix:
    """A sparse matrix over a fixed cyclotomic field, stored by columns.

    Column j is a dict from row index to entry that holds only the nonzero
    entries, so two matrices of one shape are equal exactly when their
    column dicts are.  The columns are shared, never copied: treat the
    result of :meth:`sparse_columns` as read-only.
    """

    __slots__ = ("field", "nrows", "ncols", "_columns")

    def __init__(self, field: CyclotomicField, columns: list[VecDict], nrows: int) -> None:
        self.field = field
        self.nrows = nrows
        self.ncols = len(columns)
        self._columns = columns

    @classmethod
    def from_column_dicts(cls, field: CyclotomicField, cols: Sequence[VecDict], nrows: int) -> CycMatrix:
        return cls(field, [{i: x for i, x in col.items() if x} for col in cols], nrows)

    @classmethod
    def from_rows(cls, field: CyclotomicField, rows: Sequence[Sequence[CycNum | Fraction | int]]) -> CycMatrix:
        ncols = len(rows[0]) if rows else 0
        columns: list[VecDict] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                x = field.num(x)
                if x:
                    columns[j][i] = x
        return cls(field, columns, len(rows))

    @classmethod
    def zeros(cls, field: CyclotomicField, nrows: int, ncols: int) -> CycMatrix:
        return cls(field, [{} for _ in range(ncols)], nrows)

    @classmethod
    def identity(cls, field: CyclotomicField, n: int) -> CycMatrix:
        return cls.diagonal(field, [field.one] * n)

    @classmethod
    def diagonal(cls, field: CyclotomicField, entries: Sequence[CycNum]) -> CycMatrix:
        return cls(field, [{j: x} if x else {} for j, x in enumerate(entries)], len(entries))

    def sparse_columns(self) -> list[VecDict]:
        """The stored columns: one dict of nonzero entries per column."""
        return self._columns

    def apply(self, vec: VecDict) -> VecDict:
        """The image of a sparse vector, with no zero entries.

        The vector must hold no zero entries either.  A product of two
        nonzero field elements is nonzero, so the first write to a row needs
        no zero test; only a sum can cancel.
        """
        out: VecDict = {}
        cols = self._columns
        for j, x in vec.items():
            for i, a in cols[j].items():
                cur = out.get(i)
                if cur is None:
                    out[i] = a * x
                else:
                    val = cur + a * x
                    if val:
                        out[i] = val
                    else:
                        del out[i]
        return out

    def __mul__(self, other: CycMatrix) -> CycMatrix:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        return CycMatrix(self.field, [self.apply(col) for col in other._columns], self.nrows)

    def __add__(self, other: CycMatrix) -> CycMatrix:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in matrix addition")
        columns = []
        for col_a, col_b in zip(self._columns, other._columns):
            col = dict(col_a)
            for i, x in col_b.items():
                val = col[i] + x if i in col else x
                if val:
                    col[i] = val
                else:
                    del col[i]
            columns.append(col)
        return CycMatrix(self.field, columns, self.nrows)

    def __neg__(self) -> CycMatrix:
        return CycMatrix(self.field, [{i: -x for i, x in col.items()} for col in self._columns], self.nrows)

    def __sub__(self, other: CycMatrix) -> CycMatrix:
        return self + (-other)

    def transpose(self) -> CycMatrix:
        columns: list[VecDict] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self._columns):
            for i, x in col.items():
                columns[i][j] = x
        return CycMatrix(self.field, columns, self.ncols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> CycMatrix:
        position = {i: t for t, i in enumerate(row_idx)}
        columns = [
            {position[i]: x for i, x in self._columns[j].items() if i in position} for j in col_idx
        ]
        return CycMatrix(self.field, columns, len(row_idx))

    def is_zero(self) -> bool:
        return not any(self._columns)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CycMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._columns == other._columns
        )

    def __hash__(self) -> int:
        return hash((self.field.m, self.nrows, tuple(frozenset(col.items()) for col in self._columns)))

    def __repr__(self) -> str:
        return f"CycMatrix({self.nrows}x{self.ncols} over Q(zeta_{self.field.m}))"

    def __str__(self) -> str:
        zero = self.field.zero
        return "\n".join(
            "[" + ", ".join(str(col.get(i, zero)) for col in self._columns) + "]" for i in range(self.nrows)
        )


def add_into(target: dict, key, value: CycNum) -> None:
    """Add ``value`` to the entry at ``key``, dropping the entry if it becomes zero."""
    acc = target.get(key)
    acc = value if acc is None else acc + value
    if acc:
        target[key] = acc
    elif key in target:
        del target[key]


def _clear(target: VecDict, pivot: int, row: VecDict) -> None:
    """Subtract the multiple of ``row`` (1 at ``pivot``) that clears ``target`` there."""
    neg = -target.pop(pivot)
    for t, x in row.items():
        if t != pivot:
            add_into(target, t, x * neg)


class EchelonBasis:
    """A subspace held as its reduced row echelon form, one sparse row per pivot.

    Each row is 1 at its pivot, its smallest index, and every row is 0 at the
    pivots of the others, so a vector in the span is the combination of the
    rows whose coefficients are its own entries at the pivots.  Rows are kept
    sorted by pivot.  The reduced form of a row space is unique, so the rows
    do not depend on the order in which vectors were inserted.  Rows hold no zero entries, and neither may the
    vectors handed in: an explicit zero could be taken for a pivot.  Treat
    ``rows`` and ``pivots`` as read-only.
    """

    __slots__ = ("field", "rows", "pivots", "_row_at")

    def __init__(self, field: CyclotomicField) -> None:
        self.field = field
        self.rows: list[VecDict] = []
        self.pivots: list[int] = []
        self._row_at: dict[int, VecDict] = {}

    def reduce(self, vec: VecDict) -> VecDict:
        """The vector minus its component in the span: zero at every pivot."""
        out = dict(vec)
        # A row is 0 at every other pivot, so clearing one pivot leaves the
        # others as they were: only the pivots present in the vector need work.
        for pivot in [t for t in vec if t in self._row_at]:
            _clear(out, pivot, self._row_at[pivot])
        return out

    def insert(self, vec: VecDict) -> bool:
        """Add the vector to the span; False if it already lay in it."""
        row = self.reduce(vec)
        if not row:
            return False
        pivot = min(row)
        lead = row[pivot]
        if lead != self.field.one:
            inv = lead.inverse()
            row = {t: x * inv for t, x in row.items()}
        for other in self.rows:
            if pivot in other:
                _clear(other, pivot, row)
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, row)
        self._row_at[pivot] = row
        return True


def _rref(field: CyclotomicField, rows: Iterable[VecDict]) -> EchelonBasis:
    """The reduced row echelon form of the span of sparse rows."""
    basis = EchelonBasis(field)
    for row in rows:
        basis.insert(row)
    return basis


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
