"""Exact arithmetic in cyclotomic fields and sparse linear algebra over them.

Scalars live in Q(w) for a fixed primitive m-th root of unity w, written in
canonical coordinates over the power basis ``1, w, ..., w^(phi(m)-1)`` modulo
the m-th cyclotomic polynomial.  A value keeps integer numerator coordinates
over one positive denominator in lowest terms, so equality is literal tuple
equality and nothing is ever rounded.  A value that equals a power w^k is
the field's one copy of it, tagged with k, so products and inverses of
roots of unity add exponents.  Arithmetic takes field elements only: sums,
negatives, products and inverses, with integers entering through
:meth:`CyclotomicField.from_integer`.  Matrices store one dict of nonzero
entries per column, and nothing derived from them.  The group action, an
invertible monomial matrix with powers of w as entries, is held as integer
row maps and exponents alone (:class:`UnitMonomial`), and its products
are integer arithmetic.  All elimination goes through
one sparse echelon basis, :class:`EchelonBasis`, built from sparse vectors
by :func:`_rref`: callers hand it the rows of a system or the vectors of a
span, and read off ranks (its pivots), span membership
(:meth:`EchelonBasis.reduce`) and kernels (:func:`kernel`).  Inserts
eliminate forward only, which is all a rank or a membership test needs;
the reduced rows that kernels and submodules read are built once, on first
read.  A submodule in ``qdouble`` is one such basis over the whole module.
"""

from __future__ import annotations

from bisect import insort
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


# per power-basis coordinate j: the nonzero (t, e) of a power of w times w^j
UnitColumns = tuple[tuple[tuple[int, int], ...], ...]


class CyclotomicField:
    """The field Q(w) for a primitive m-th root of unity w.

    Instances are shared per m (see :func:`get_field`); numbers carry a
    reference to their field and arithmetic requires matching fields.
    """

    __slots__ = (
        "m", "minpoly", "degree", "_reduction", "zero", "one", "_half_turn",
        "_zeta_pows", "_exponents", "_unit_actions", "_conjugations",
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
        # the coordinates of each w^k, to tag a number that comes out equal to one
        self._exponents = {power.coords: k for k, power in enumerate(self._zeta_pows)}
        self.one = self._zeta_pows[0]
        self._half_turn = m // 2 if m % 2 == 0 else None
        self._unit_actions = self._unit_table()
        # per Galois automorphism w -> w^a with a != 1: the images of the basis
        self._conjugations = tuple(
            tuple(self._zeta_pows[a * j % m].coords for j in range(self.degree))
            for a in range(2, m)
            if gcd(a, m) == 1
        )

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

    def _unit_table(self) -> tuple[tuple[int, UnitColumns | None], ...]:
        """How multiplying by w^k acts, indexed by the exponent k.

        1 is ``(1, None)`` and, for even m, -1 = w^(m/2) is ``(-1, None)``.
        Any other power is ``(1, columns)``: column j lists the nonzero
        ``(t, e)`` of the coordinates of w^(k+j), so the product of w^k with
        coordinates c has ``sum_j c_j e`` at each t.  A number tagged k
        multiplies by entry k.
        """
        actions: list[tuple[int, UnitColumns | None]] = []
        for k in range(self.m):
            if k == 0:
                actions.append((1, None))
            elif k == self._half_turn:
                actions.append((-1, None))
            else:
                columns = tuple(
                    tuple((t, e) for t, e in enumerate(self._zeta_pows[(k + j) % self.m].coords) if e)
                    for j in range(self.degree)
                )
                actions.append((1, columns))
        return tuple(actions)

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

    ``unit`` is k exactly when the number equals w^k, and None otherwise:
    every power of w that arithmetic produces is the field's shared power
    table entry, tagged with its exponent.  A result is tagged where it is
    made: a product, negation or inverse of tagged numbers by its exponent,
    an integer by :meth:`CyclotomicField.from_integer`, and a sum or a
    normalised value by looking its integer coordinates up in the field's
    table of powers.  So the products and inverses of roots of unity, which
    are almost every entry of the group action and the letters, add
    exponents mod m.  This rule is what makes ``==`` correct: when either
    side is tagged the two are equal exactly when their tags are, and only
    two untagged numbers compare coordinates.  The constructor takes the tag
    as given: it is for coordinates that are no power of w, or whose tag is
    known.  Every operand is a ``CycNum``: an ``int`` or ``Fraction`` is
    refused, and compares unequal, rather than converted.
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
        if den == 1:
            return CycNum._integral(field, tuple(coords))
        return CycNum(field, tuple(coords), den)

    @staticmethod
    def _integral(field: CyclotomicField, coords: tuple[int, ...]) -> CycNum:
        """The number with these integer coordinates: the shared w^k if it is one."""
        k = field._exponents.get(coords)
        return CycNum(field, coords, 1) if k is None else field._zeta_pows[k]

    def __add__(self, o: CycNum) -> CycNum:
        if not isinstance(o, CycNum):
            return NotImplemented
        field = self.field
        if o.field is not field and o.field.m != field.m:
            raise ValueError("field elements belong to different cyclotomic fields")
        if self.unit is not None and o.unit is not None and (self.unit - o.unit) % field.m == field._half_turn:
            return field.zero  # w^k and -w^k, the cancellation every anticommutator check ends in
        if self.den == 1 and o.den == 1:
            return CycNum._integral(field, tuple([a + b for a, b in zip(self.coords, o.coords)]))
        g = gcd(self.den, o.den)
        fa, fb = o.den // g, self.den // g
        coords = [a * fa + b * fb for a, b in zip(self.coords, o.coords)]
        return CycNum._normalized(field, coords, self.den * fa)

    def __neg__(self) -> CycNum:
        field = self.field
        if field._half_turn is None:
            # odd m: -w^k is no power of w, but the negative of one may be
            if self.den == 1 and self.unit is None:
                return CycNum._integral(field, tuple([-c for c in self.coords]))
        elif self.unit is not None:
            return field._zeta_pows[(self.unit + field._half_turn) % field.m]
        return CycNum(field, tuple([-c for c in self.coords]), self.den)

    def __mul__(self, o: CycNum) -> CycNum:
        """The product; a power of w on either side takes a fast path.

        Almost every product in module construction and relation checks has
        a power of w as an operand, and most have two.  The product of two
        is the power of the summed exponents.  Otherwise the power maps the
        other operand's integer coordinates by an invertible integer matrix,
        so the product keeps that operand's denominator and stays in lowest
        terms, and it is no power of w: no gcd and no lookup are needed.
        """
        if not isinstance(o, CycNum):
            return NotImplemented
        field = self.field
        if o.field is not field and o.field.m != field.m:
            raise ValueError("field elements belong to different cyclotomic fields")
        if self.unit is not None:
            if o.unit is not None:
                return field._zeta_pows[(self.unit + o.unit) % field.m]
            action, x = field._unit_actions[self.unit], o
        elif o.unit is not None:
            action, x = field._unit_actions[o.unit], self
        else:
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

    def inverse(self) -> CycNum:
        """Multiplicative inverse: the other Galois conjugates over the norm.

        For integer coordinates c, the product of the conjugates of c under
        every automorphism w -> w^a, a != 1 coprime to m, is a cofactor whose
        product with c is the norm of c, a nonzero integer; all of it stays in
        integer arithmetic.  The inverse of w^k is w^-k, read off the tag.
        Nothing is memoised: over every case of the benchmark's workloads,
        each number inverted is a power of w, so a memo of the norm path
        would never be read there.
        """
        field = self.field
        if self.unit is not None:
            return field._zeta_pows[-self.unit % field.m]
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
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
        return CycNum._normalized(field, [c * self.den for c in cofactor], norm[0])

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.field.m != other.field.m:
            return False
        if self.unit is not None or other.unit is not None:
            return self.unit == other.unit
        return self.coords == other.coords and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.field.m, self.coords, self.den))

    def __str__(self) -> str:
        parts: list[str] = []
        for j, c in enumerate(self.coords):
            if not c:
                continue
            g = gcd(c, self.den)
            mag = f"{abs(c) // g}" if g == self.den else f"{abs(c) // g}/{self.den // g}"
            if j == 0:
                body = mag
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

    There is no matrix product, sum or negation: relation checks decide them
    column by column (``qdouble``), and the group action, whose products are
    formed, is a :class:`UnitMonomial`.
    """

    __slots__ = ("field", "nrows", "ncols", "_columns")

    def __init__(self, field: CyclotomicField, columns: list[VecDict], nrows: int) -> None:
        self.field = field
        self.nrows = nrows
        self.ncols = len(columns)
        self._columns = columns

    def sparse_columns(self) -> list[VecDict]:
        """The columns: one dict of nonzero entries per column."""
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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CycMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self._columns == other._columns
        )

    def __repr__(self) -> str:
        return f"CycMatrix({self.nrows}x{self.ncols} over Q(zeta_{self.field.m}))"


class UnitMonomial:
    """An invertible monomial matrix whose entries are powers of w, held as integers.

    Column j holds w^exps[j] in row rows[j], with the exponents reduced mod
    m.  x and y act so on every module (``weights.QDModule``), so their
    products, powers, blocks, Kronecker products and traces are integer
    arithmetic on row maps and exponents.  The value is never changed once
    built, so it is hashable, and ``==`` compares row maps and exponents.
    The constructor takes the rows as given; ``QDModule`` checks that they
    are a permutation.
    """

    __slots__ = ("field", "rows", "exps")

    def __init__(self, field: CyclotomicField, rows: Iterable[int], exps: Iterable[int]) -> None:
        m = field.m
        self.field = field
        self.rows = tuple(rows)
        self.exps = tuple([e % m for e in exps])

    @classmethod
    def identity(cls, field: CyclotomicField, n: int) -> UnitMonomial:
        return cls(field, range(n), [0] * n)

    @classmethod
    def from_matrix(cls, mat: CycMatrix) -> UnitMonomial | None:
        """The matrix as this type, or None unless it is one.

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
        return cls(mat.field, rows, exps)

    def matrix(self) -> CycMatrix:
        """The same matrix as a :class:`CycMatrix`."""
        zeta = self.field.zeta
        return CycMatrix(self.field, [{i: zeta(e)} for i, e in zip(self.rows, self.exps)], len(self.rows))

    def __mul__(self, other: UnitMonomial) -> UnitMonomial:
        """The product: column j is column ``other.rows[j]`` of self times ``w^other.exps[j]``."""
        rows, exps = self.rows, self.exps
        return UnitMonomial(
            self.field, [rows[r] for r in other.rows], [exps[r] + e for r, e in zip(other.rows, other.exps)]
        )

    def __pow__(self, power: int) -> UnitMonomial:
        """A power with ``power >= 0``, read off the cycles of the row map.

        Column j of the power lies ``power`` steps further along j's cycle.
        For a cycle of length L and exponent sum P, its exponent is
        ``(power // L) * P`` plus the exponents of the ``power % L`` columns
        passed on the way: a difference of the cycle's prefix sums, which
        gains one more P when the walk wraps past the cycle's start.  A
        fixed point takes ``power`` times its exponent.  One walk per cycle,
        and no intermediate products.
        """
        if power < 0:
            raise ValueError(f"negative power {power} of a UnitMonomial")
        rows, exps = self.rows, self.exps
        n = len(rows)
        out_rows, out_exps = list(range(n)), [0] * n
        seen = [False] * n
        for start in range(n):
            j = rows[start]
            if j == start:
                out_exps[start] = power * exps[start]
                continue
            if seen[start]:
                continue
            # the cycle through start, with the exponent sums of its first i columns
            cycle, total = [start], exps[start]
            prefix = [0, total]
            while j != start:
                seen[j] = True
                cycle.append(j)
                total += exps[j]
                prefix.append(total)
                j = rows[j]
            length = len(cycle)
            turns, shift = divmod(power, length)
            base = turns * total
            for i, j in enumerate(cycle):
                end = i + shift
                if end < length:
                    out_rows[j] = cycle[end]
                    out_exps[j] = base + prefix[end] - prefix[i]
                else:
                    out_rows[j] = cycle[end - length]
                    out_exps[j] = base + total + prefix[end - length] - prefix[i]
        return UnitMonomial(self.field, out_rows, out_exps)

    def order_divides(self, k: int) -> bool:
        """Whether the k-th power is the identity, decided without forming it.

        It is exactly when every cycle of the row map has a length L that
        divides k and an exponent sum P with ``P * (k / L) = 0`` mod m: k
        steps are k / L full turns of each cycle.
        """
        rows, exps, m = self.rows, self.exps, self.field.m
        seen = [False] * len(rows)
        for start in range(len(rows)):
            j = rows[start]
            if j == start:
                if exps[start] * k % m:
                    return False
                continue
            if seen[start]:
                continue
            length, total = 1, exps[start]
            while j != start:
                seen[j] = True
                length += 1
                total += exps[j]
                j = rows[j]
            if k % length or total * (k // length) % m:
                return False
        return True

    def restricted(self, idxs: Sequence[int]) -> UnitMonomial:
        """The block on the basis vectors ``idxs``, in that order.

        Raises:
            ValueError: if the matrix sends one of them outside the block.
        """
        position = {i: t for t, i in enumerate(idxs)}
        rows = [position.get(self.rows[j]) for j in idxs]
        if None in rows:
            raise ValueError("the matrix does not keep the block")
        return UnitMonomial(self.field, rows, [self.exps[j] for j in idxs])

    def kron(self, other: UnitMonomial) -> UnitMonomial:
        """The Kronecker product: column ``a n + b`` is the tensor of column a of self and column b of other."""
        n = len(other.rows)
        rows = [ia * n + ib for ia in self.rows for ib in other.rows]
        return UnitMonomial(self.field, rows, [ea + eb for ea in self.exps for eb in other.exps])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnitMonomial)
            and self.field.m == other.field.m
            and self.rows == other.rows
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.exps))

    def __repr__(self) -> str:
        return f"UnitMonomial({self.field.m}, rows={self.rows}, exps={self.exps})"


def add_into(target: dict, key, value: CycNum) -> None:
    """Add ``value`` to the entry at ``key``, dropping the entry if it becomes zero."""
    acc = target.get(key)
    acc = value if acc is None else acc + value
    if acc:
        target[key] = acc
    elif key in target:
        del target[key]


def _clear(target: VecDict, pivot: int, row: VecDict) -> None:
    """Subtract the multiple of ``row`` that clears ``target`` at ``pivot``."""
    x = target.pop(pivot)
    if len(row) == 1:
        # a coordinate row c e_pivot: the multiple clears the pivot and nothing else
        return
    lead = row[pivot]
    neg = -x if lead.unit == 0 else -(x * lead.inverse())
    for t, y in row.items():
        if t != pivot:
            add_into(target, t, y * neg)


class EchelonBasis:
    """A subspace held in forward echelon form, one sparse row per pivot.

    A row's pivot is its smallest index, and no two rows share a pivot.
    The rows are neither scaled to 1 nor cleared at the larger pivots:
    :meth:`insert` clears a vector's leading entry until its leading index
    is new or the vector is zero.  That alone answers rank (``pivots``, kept
    sorted) and span membership (:meth:`reduce`).

    ``rows`` is the reduced row echelon form: each row 1 at its pivot and 0
    at the pivots of the others, so a vector in the span is the combination
    of the rows whose coefficients are its own entries at the pivots.  It is
    built once, by back-substitution, when first read after an insert, and
    kept until the next insert that grows the span; :meth:`reduce` clears
    the forward rows and does not read it.  The reduced form of a row space
    is unique, so ``rows`` does not depend on the order in which vectors
    were inserted.  Rows hold no zero entries, and neither may the vectors
    handed in: an explicit zero could be taken for a pivot.  Treat ``rows``
    and ``pivots`` as read-only.

    A coordinate row, one with a single entry, spans the basis vector e_p
    of its pivot and costs no field arithmetic: clearing by it drops the
    entry at p, and its reduced row is {p: 1}, the forward row itself when
    its entry is already 1.
    """

    __slots__ = ("field", "pivots", "_forward", "_reduced")

    def __init__(self, field: CyclotomicField) -> None:
        self.field = field
        self.pivots: list[int] = []
        self._forward: dict[int, VecDict] = {}
        # the reduced row at each pivot, in pivot order; None until the first
        # read, and again after each insert that grows the span
        self._reduced: dict[int, VecDict] | None = None

    @property
    def rows(self) -> list[VecDict]:
        """The reduced rows, sorted by pivot."""
        return list(self._reduced_rows().values())

    def _reduced_rows(self) -> dict[int, VecDict]:
        reduced = self._reduced
        if reduced is None:
            built: dict[int, VecDict] = {}
            # from the largest pivot down, the rows built so far are 0 at every pivot but their own
            for pivot in reversed(self.pivots):
                row = self._forward[pivot]
                if len(row) == 1:
                    # a coordinate row spans e_pivot, already reduced
                    built[pivot] = row if row[pivot].unit == 0 else {pivot: self.field.one}
                    continue
                row = dict(row)
                for later in [t for t in row if t in built]:
                    _clear(row, later, built[later])
                lead = row[pivot]
                if lead.unit != 0:
                    inv = lead.inverse()
                    row = {t: x * inv for t, x in row.items()}
                built[pivot] = row
            reduced = self._reduced = {pivot: built[pivot] for pivot in self.pivots}
        return reduced

    def reduce(self, vec: VecDict) -> VecDict:
        """The vector minus its component in the span: zero at every pivot."""
        out = dict(vec)
        # A forward row is 0 below its pivot, so clearing the pivots in
        # ascending order never brings back one already cleared.
        for pivot in self.pivots:
            if pivot in out:
                _clear(out, pivot, self._forward[pivot])
        return out

    def insert(self, vec: VecDict) -> bool:
        """Add the vector to the span; False if it already lay in it."""
        row = dict(vec)
        forward = self._forward
        while row:
            pivot = min(row)
            other = forward.get(pivot)
            if other is None:
                break
            _clear(row, pivot, other)
        else:
            return False
        insort(self.pivots, pivot)
        forward[pivot] = row
        self._reduced = None
        return True


def _rref(field: CyclotomicField, rows: Iterable[VecDict]) -> EchelonBasis:
    """The echelon basis of the span of sparse rows, eliminated forward only."""
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
