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
span, and read off ranks (its pivots) and span membership
(:meth:`EchelonBasis.insert`).  Inserts eliminate forward only, which is
all a rank or a membership test needs; the reduced rows that submodules
and heads read are back-substituted on each read of ``rows``, which each
of them reads once.  A submodule in ``qdouble`` is one such basis over the
whole module.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Sequence


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


# the nonzero (t, e) of the coordinates of one power of w
PowerTerms = tuple[tuple[int, int], ...]


class CyclotomicField:
    """The field Q(w) for a primitive m-th root of unity w.

    Instances are shared per m (see :func:`get_field`); numbers carry a
    reference to their field and arithmetic requires matching fields.
    The powers of w are tabulated once, in ``_zeta_pows`` and, by their
    nonzero coordinates, in ``power_terms``; the reduction rows of
    :meth:`mul_coords`, the action of each power by multiplication and the
    Galois images of the basis are read off that table.
    """

    __slots__ = (
        "m", "minpoly", "degree", "_reduction", "zero", "one", "_half_turn",
        "_zeta_pows", "power_terms", "_exponents", "_unit_actions", "_conjugations",
    )

    def __init__(self, m: int) -> None:
        self.m = m
        self.minpoly = cyclotomic_polynomial(m)
        d = self.degree = len(self.minpoly) - 1
        self.zero = CycNum(self, (0,) * d, 1)
        one = [0] * d
        one[0] = 1
        # w^k carries its exponent k as a unit tag; -1 is w^(m/2) for even m
        self._zeta_pows = tuple(CycNum(self, c, 1, k) for k, c in enumerate(self.zeta_multiples(one)))
        self.power_terms: tuple[PowerTerms, ...] = tuple(
            tuple((t, e) for t, e in enumerate(power.coords) if e) for power in self._zeta_pows
        )
        # the coordinates of each w^k, to tag a number that comes out equal to one
        self._exponents = {power.coords: k for k, power in enumerate(self._zeta_pows)}
        self.one = self._zeta_pows[0]
        self._half_turn = m // 2 if m % 2 == 0 else None
        # row j: the coordinates of w^(d + j), enough for products of degree up to 2d - 2
        self._reduction = tuple(self._zeta_pows[(d + j) % m].coords for j in range(max(1, d - 1)))
        # multiplying by w^k: 1 and, for even m, -1 = w^(m/2) by a sign; any
        # other power by columns, column j the terms of w^(k+j), so the
        # product of w^k with coordinates c has sum_j c_j e at each t
        self._unit_actions: tuple[tuple[int, tuple[PowerTerms, ...] | None], ...] = tuple(
            (1, None) if k == 0
            else (-1, None) if k == self._half_turn
            else (1, tuple(self.power_terms[(k + j) % m] for j in range(d)))
            for k in range(m)
        )
        # per Galois automorphism w -> w^a with a != 1: the terms of the images of the basis
        self._conjugations = tuple(
            tuple(self.power_terms[a * j % m] for j in range(d))
            for a in range(2, m)
            if gcd(a, m) == 1
        )

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
        top_row = [-c for c in self.minpoly[:d]]  # w^degree
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
        Two untagged operands, a rational one too, take the convolution
        (``mul_coords``), brought to lowest terms and tagged if the product
        is a power of w.
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
                    for t, e in image:
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
        no zero test; only a sum can cancel.  An entry 1 of the vector
        (``unit == 0``), as in the coordinate stand-in ``{p: one}``, takes
        the column's entries as they stand, with no product formed.
        """
        out: VecDict = {}
        cols = self._columns
        for j, x in vec.items():
            one = x.unit == 0
            for i, a in cols[j].items():
                term = a if one else a * x
                cur = out.get(i)
                if cur is None:
                    out[i] = term
                else:
                    val = cur + term
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
    are a permutation.  Each power formed is kept on the instance, in
    ``_powers``, made by the first power taken (:meth:`__pow__`); ``==`` and
    the hash do not read it.
    """

    __slots__ = ("field", "rows", "exps", "_powers")

    def __init__(self, field: CyclotomicField, rows: Iterable[int], exps: Iterable[int]) -> None:
        m = field.m
        self.field = field
        self.rows = tuple(rows)
        self.exps = tuple([e % m for e in exps])

    @classmethod
    def identity(cls, field: CyclotomicField, n: int) -> UnitMonomial:
        return cls(field, range(n), [0] * n)

    def __mul__(self, other: UnitMonomial) -> UnitMonomial:
        """The product: column j is column ``other.rows[j]`` of self times ``w^other.exps[j]``."""
        rows, exps = self.rows, self.exps
        return UnitMonomial(
            self.field, [rows[r] for r in other.rows], [exps[r] + e for r, e in zip(other.rows, other.exps)]
        )

    def _cycles(self) -> Iterator[tuple[int, int, int]]:
        """``(start, length, exponent sum)`` of each cycle of the row map, start its smallest column.

        A fixed point is a cycle of length 1.  This is the walk that
        :meth:`order_divides` and :meth:`cycle_starts` share.
        """
        rows, exps = self.rows, self.exps
        seen = [False] * len(rows)
        for start, j in enumerate(rows):
            if seen[start]:
                continue
            length, total = 1, exps[start]
            while j != start:
                seen[j] = True
                length += 1
                total += exps[j]
                j = rows[j]
            yield start, length, total

    def __pow__(self, power: int) -> UnitMonomial:
        """A power with ``power >= 0``, read off the cycles of the row map.

        Column j of the power lies ``power`` steps further along j's cycle.
        For a cycle of length L and exponent sum P, its exponent is
        ``(power // L) * P`` plus the exponents of the ``power % L`` columns
        passed on the way: a difference of the cycle's prefix sums, which
        gains one more P when the walk wraps past the cycle's start.  A
        fixed point takes ``power`` times its exponent.  One walk per cycle,
        and no intermediate products.

        The value never changes, so each power is formed once per instance
        and kept in a dict keyed by the power, made here on the first call:
        a repeat returns the same object.  The cross terms of ``_induce``,
        ``check_relations`` and ``theta_congruence`` and the pivot of
        ``quantum_dimension`` each take y^(+-i) or y^n of one module's y.
        """
        if power < 0:
            raise ValueError(f"negative power {power} of a UnitMonomial")
        try:
            powers = self._powers
        except AttributeError:
            powers = self._powers = {}
        known = powers.get(power)
        if known is not None:
            return known
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
        powers[power] = result = UnitMonomial(self.field, out_rows, out_exps)
        return result

    def order_divides(self, k: int) -> bool:
        """Whether the k-th power is the identity, decided without forming it.

        It is exactly when every cycle of the row map has a length L that
        divides k and an exponent sum P with ``P * (k / L) = 0`` mod m: k
        steps are k / L full turns of each cycle.
        """
        m = self.field.m
        for _, length, total in self._cycles():
            if k % length or total * (k // length) % m:
                return False
        return True

    def cycle_starts(self) -> list[int]:
        """The smallest column of each cycle of the row map, fixed points included, in increasing order."""
        return [start for start, _, _ in self._cycles()]

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
    sorted) and span membership: :meth:`insert` returns False exactly when
    the vector already lay in the span.

    ``rows`` is the reduced row echelon form: each row 1 at its pivot and 0
    at the pivots of the others, so a vector in the span is the combination
    of the rows whose coefficients are its own entries at the pivots.  It is
    built by back-substitution on each read, so a caller that reads the rows
    more than once keeps the list it read; :meth:`insert` clears with the
    forward rows and does not read it.  The reduced form of a row space is
    unique, so ``rows`` does not depend on the order in which vectors were
    inserted.  Rows hold no zero entries, and neither may the vectors handed
    in: an explicit zero could be taken for a pivot.  Treat ``rows`` and
    ``pivots`` as read-only.

    A coordinate row, one with a single entry, spans the basis vector e_p
    of its pivot and costs no field arithmetic: clearing by it drops the
    entry at p, and its reduced row is {p: 1}, the forward row itself when
    its entry is already 1.  These branches, here and in :func:`_clear`,
    are not only fast paths: they are the condition that keeps every
    inverted lead a tagged power of w.  A forward coordinate row's entry
    need not be one, it can be ±1 ± w² or ±2 ∓ w² at m = 12, and neither
    branch divides by it.  So only the leads of rows with more than one
    entry are inverted, and on every case the tests cover those are powers
    of w.
    """

    __slots__ = ("field", "pivots", "_forward")

    def __init__(self, field: CyclotomicField) -> None:
        self.field = field
        self.pivots: list[int] = []
        self._forward: dict[int, VecDict] = {}

    @property
    def rows(self) -> list[VecDict]:
        """The reduced rows, sorted by pivot, back-substituted on each read."""
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
        return [built[pivot] for pivot in self.pivots]

    def insert(self, vec: VecDict) -> bool:
        """Add the vector to the span; False if it already lay in it.

        A forward row is 0 below its pivot, so clearing the vector's
        smallest index each time never brings back an index already
        cleared; the vector lay in the span exactly when it clears to zero.
        """
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
        return True


def _rref(field: CyclotomicField, rows: Iterable[VecDict]) -> EchelonBasis:
    """The echelon basis of the span of sparse rows, eliminated forward only."""
    basis = EchelonBasis(field)
    for row in rows:
        basis.insert(row)
    return basis

