"""Modules over the Drinfeld double of the bosonized Nichols algebra.

The double is generated by the group part (x, y and the dual group-likes,
realized here as the group grading), a raising letter pair v+, v- for every
index pair, and a lowering pair a+, a- dual to it.  A module is a
``weights.QDModule``, the one module type: an exact matrix per generator,
an integer grading (the letter count, nonpositive) and the group grading.
:func:`check_relations` checks the group part as ``weights`` does, then the
letters.  Each letter relation is an exact equality of two matrix
expressions, decided column by column without building a product, a sum
or a cross-term matrix.  The products with x and y read the row maps and
exponents of x and y and the letters' sparse columns, on one path.  The
brackets of letters read each letter's row map and entries, a view that
:func:`check_relations` builds once per letter, and walk a column's few
entries where a letter has none, such as a lowering letter with two
entries in a column.  Tagged entries compare by exponent.  The cross
terms are read column by column from the group degrees and the row map
and exponents of a power of y.

Standard (Verma-type) modules are built by one induction that lets the
exterior algebra of the letters act freely on a base module and rewrites
each lowering generator past the letters; the cross terms produced by the
defining relations act through the group degree of the vector alone.  The
base is a weight, the module over the empty index set, or for one step of
the recursion a simple module.  Socles and heads are computed from scratch
by exact linear algebra, with no appeal to any closed-form answer, so they
can serve as independent evidence for one.  The closed-form side
(``theorems.predicted_character``) builds no module here: it takes the
exterior algebra of the letters one pair at a time, as weights.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycMatrix, CycNum, CyclotomicField, EchelonBasis, UnitMonomial, VecDict, add_into, kernel
from .dihedral import DihedralContext
from .nichols import (
    IndexSet,
    letter_insert,
    letter_pair,
    letter_sign,
    mask_letters,
    nichols_basis,
    rotation_exponents,
    swap_letters,
    validate_index_set,
)
from .weights import (
    QDModule,
    WeightLabel,
    build_weight,
    decomposition_counts,
    grading_failure,
    group_relation_failures,
    summand_text,
    tensor_dd,
)


def y_power(module: QDModule, power: int) -> UnitMonomial:
    """y^power, with the power taken mod m, since y^m = 1.

    y is held as a row map and exponents (see ``weights.QDModule``), so the
    power is read off its cycles, one walk per cycle (``UnitMonomial.__pow__``).
    """
    return module.y_mat ** (power % module.ctx.m)


@lru_cache(maxsize=None)
def _one_plus_powers(field: CyclotomicField) -> tuple[CycNum, ...]:
    """``1 + w^u`` for u = 0 .. m-1: the diagonal entries of the equal-sign cross terms."""
    return tuple(field.one + field.zeta(u) for u in range(field.m))


def _cross_term(module: QDModule, pair: tuple[int, int], eps: int, mu: int) -> Callable[[int], VecDict]:
    """Column reader of the rank-lowering cross term for one choice of signs; no matrix is built.

    The operator produced by commuting the lowering generator of sign eps
    past the raising generator of sign mu acts through group degrees alone:
    on a rotation-degree vector the equal-sign choices give
    ``1 - w^(+-a*k) y^(+-i)`` and the mixed ones vanish, while on a
    reflection-degree vector the equal-sign choices act as the identity and
    the mixed ones as a root-of-unity multiple of ``y^(-+i)``.  So it is
    ``[eps = mu] + y^p S`` for one power p and a diagonal S, whose entry
    ``-w^e`` the group degree of e_j gives as an integer exponent.  Column j
    is read off y^p's row map and exponents (see ``weights.QDModule``): a
    mixed-sign column is ``w^(u + e + m/2)`` in y^p's row, u the exponent
    of y^p's entry; an equal-sign rotation column where y^p keeps e_j is
    ``1 + w^u`` in row j, from a table per field.
    """
    ctx = module.ctx
    field, m, n = ctx.field, ctx.m, ctx.n
    i, k = pair
    same = eps == mu
    one, zeta, ones = field.one, field.zeta, _one_plus_powers(field)
    turn = y_power(module, eps * i if same else -eps * i)
    rows, exps = turn.rows, turn.exps
    gdeg = module.gdeg

    def column(j: int) -> VecDict:
        refl, a = divmod(gdeg[j], m)
        if refl and same:
            return {j: one}
        if refl:
            e = -(a + 2 * i) * k if eps > 0 else (a - 2 * i) * k
        elif same:
            e = eps * a * k
        else:
            return {}
        # the entry of y^p S in y^p's row r is -w^e w^u = w^(u + e + m/2)
        r, u = rows[j], exps[j]
        if same and r == j:
            total = ones[(u + e + n) % m]
            return {j: total} if total else {}
        entry = zeta(u + e + n)
        return {j: one, r: entry} if same else {r: entry}

    return column


def _pair_terms(module: QDModule, pair: tuple[int, int]) -> tuple[Callable[[int], VecDict], ...]:
    """The cross-term readers of one pair, for the signs (+,+), (-,-), (+,-) and (-,+)."""
    return tuple(_cross_term(module, pair, eps, mu) for eps, mu in ((1, 1), (-1, -1), (1, -1), (-1, 1)))


def _theta_column(terms: tuple[Callable[[int], VecDict], ...], j: int) -> VecDict:
    """Column j of ``pm mp - pp mm``, each cross term applied through its reader."""
    pp, mm, pm, mp = terms
    out: VecDict = {}
    for first, second, sign in ((mp, pm, 1), (mm, pp, -1)):
        for r, val in first(j).items():
            for row, entry in second(r).items():
                add_into(out, row, entry * val if sign > 0 else -(entry * val))
    return out


def _induce(
    ctx: DihedralContext,
    base: QDModule,
    new_pairs: tuple[tuple[int, int], ...],
    insert_pos: int,
    merged: IndexSet,
    weight: WeightLabel | None,
    kind: str,
) -> QDModule:
    """Let the exterior algebra on fresh letters act freely on the base module.

    The base is a module over the double of a smaller index set: a weight
    over the empty one for a standard module, a simple module for one step
    of the recursion.  Its letters pass the new ones with one sign flip per
    letter; the fresh lowering letters are rewritten recursively past the
    leading letter, picking up a cross term whenever they meet their own
    partner.
    """
    field = ctx.field
    sub = IndexSet(ctx.m, new_pairs)
    nu = len(new_pairs)
    masks: list[int] = []
    for deg in range(2 * nu + 1):
        masks.extend(nichols_basis(sub, deg))
    mask_exponents = {mask: rotation_exponents(sub, mask) for mask in masks}
    letters = {mask: tuple(mask_letters(mask)) for mask in masks}
    entries = [(mask, b) for mask in masks for b in range(base.dim)]
    entries.sort(key=lambda mb: (mb[0].bit_count() - base.zdeg[mb[1]], mb[0].bit_count(), letters[mb[0]], mb[1]))
    position = {mb: idx for idx, mb in enumerate(entries)}
    dim = len(entries)
    zdeg = [base.zdeg[b] - mask.bit_count() for mask, b in entries]
    # the group degree of (mask, b), keyed by the mask's rotation exponent and b
    degree_of: dict[tuple[int, int], int] = {}
    for isum in {isum for isum, _ in mask_exponents.values()}:
        turn = ctx.group.products[ctx.group.rotation(isum)]
        for b, g in enumerate(base.gdeg):
            degree_of[(isum, b)] = turn[g]
    gdeg = [degree_of[(mask_exponents[mask][0], b)] for mask, b in entries]

    def scatter(base_col: VecDict, target: VecDict, mask: int, scale: CycNum) -> None:
        for b2, val in base_col.items():
            add_into(target, position[(mask, b2)], val * scale)

    # x swaps v+ and v- of every pair, with a sign -1 = w^n; y scales the letters by a power of w
    base_x, base_y = base.x_mat, base.y_mat
    x_rows, x_exps, y_rows, y_exps = [], [], [], []
    for mask, b in entries:
        xsign, swapped = swap_letters(sub, mask)
        x_rows.append(position[(swapped, base_x.rows[b])])
        x_exps.append(base_x.exps[b] + (0 if xsign > 0 else ctx.n))
        y_rows.append(position[(mask, base_y.rows[b])])
        y_exps.append(base_y.exps[b] + mask_exponents[mask][1])
    base_y_powers = {p: y_power(base, p) for i, _ in new_pairs for p in (i, -i)}

    v_cols: dict[tuple[int, int], list[VecDict]] = {}
    for q in range(nu):
        for sign in (1, -1):
            letter = 2 * q + (0 if sign > 0 else 1)
            cols: list[VecDict] = [dict() for _ in range(dim)]
            for mask, b in entries:
                lsign, bigger = letter_insert(letter, mask)
                if lsign:
                    cols[position[(mask, b)]][position[(bigger, b)]] = field.from_integer(lsign)
            v_cols[(q, sign)] = cols

    zeta = field.zeta

    def phi_on(q: int, eps: int, mu: int, mask: int, b: int) -> dict[tuple[int, int], CycNum]:
        i, k = new_pairs[q]
        isum, ksum = mask_exponents[mask]
        refl, a = divmod(degree_of[(isum, b)], ctx.m)
        out: dict[tuple[int, int], CycNum] = {}

        def add_y_power(power: int, scale: CycNum) -> None:
            # y^power on (mask, b): the letters only contribute a root of unity
            turn = base_y_powers[power]
            add_into(out, (mask, turn.rows[b]), scale * zeta(power * ksum + turn.exps[b]))

        if refl == 0:
            if eps == mu:
                out[(mask, b)] = field.one
                add_y_power(i if eps > 0 else -i, -zeta(a * k if eps > 0 else -a * k))
        else:
            if eps == mu:
                out[(mask, b)] = field.one
            elif eps > 0:
                add_y_power(-i, -zeta(-(a + 2 * i) * k))
            else:
                add_y_power(i, -zeta((a - 2 * i) * k))
        return out

    def alpha_on(q: int, eps: int, mask: int, b: int) -> dict[tuple[int, int], CycNum]:
        if mask == 0:
            return {}
        low = mask & -mask
        letter = low.bit_length() - 1
        rest = mask ^ low
        out: dict[tuple[int, int], CycNum] = {}
        for (mk, b2), val in alpha_on(q, eps, rest, b).items():
            # the leading letter is smaller than every letter left in the
            # tail, so re-inserting it in front costs no crossing sign
            out[(mk | low, b2)] = -val
        if letter_pair(letter) == q:
            for key2, val in phi_on(q, eps, letter_sign(letter), rest, b).items():
                add_into(out, key2, val)
        return out

    a_cols: dict[tuple[int, int], list[VecDict]] = {}
    for q in range(nu):
        for sign in (1, -1):
            cols = []
            for mask, b in entries:
                cols.append(
                    {position[mb]: val for mb, val in alpha_on(q, sign, mask, b).items()}
                )
            a_cols[(q, sign)] = cols

    v_mats = {
        (insert_pos + q, sign): CycMatrix(field, cols, dim)
        for (q, sign), cols in v_cols.items()
    }
    a_mats = {
        (insert_pos + q, sign): CycMatrix(field, cols, dim)
        for (q, sign), cols in a_cols.items()
    }
    for base_mats, mats in ((base.v_mats, v_mats), (base.a_mats, a_mats)):
        for (pos, sign), mat in base_mats.items():
            cols = mat.sparse_columns()
            new_cols: list[VecDict] = [dict() for _ in range(dim)]
            for mask, b in entries:
                flip = field.from_integer(-1 if mask.bit_count() % 2 else 1)
                scatter(cols[b], new_cols[position[(mask, b)]], mask, flip)
            shifted = pos if pos < insert_pos else pos + nu
            mats[(shifted, sign)] = CycMatrix(field, new_cols, dim)
    x_mat, y_mat = UnitMonomial(field, x_rows, x_exps), UnitMonomial(field, y_rows, y_exps)
    return QDModule(ctx, merged, zdeg, gdeg, x_mat, y_mat, v_mats, a_mats, weight=weight, kind=kind)


def build_verma(ctx: DihedralContext, index_set: IndexSet, weight: WeightLabel) -> QDModule:
    """The standard module: the exterior algebra of the letters on a weight.

    The weight, as :func:`build_weight` makes it, is the module over the
    empty index set in degree 0, the base case of the recursion; over the
    empty index set the result is that module itself.
    """
    return _induce(ctx, build_weight(ctx, weight), index_set.pairs, 0, index_set, weight, "verma")


def induce_from_simple(ctx: DihedralContext, simple: QDModule, pair: tuple[int, int]) -> QDModule:
    """Extend a module over a smaller double by one fresh index pair."""
    old = simple.index_set
    merged = validate_index_set(ctx, old.pairs + (pair,))
    insert_pos = bisect_left(old.pairs, pair)
    return _induce(ctx, simple, (pair,), insert_pos, merged, simple.weight, "induced")


def check_relations(module: QDModule) -> list[str]:
    """Verify every defining relation on explicit matrices; list the failures.

    Covers the group part (:func:`group_relation_failures`), the grading
    compatibility of every letter, the smash-product commutation of x and y
    with each letter (``x A == A' x`` and ``y A == c A y``, decided by
    :func:`_products_equal`), all anticommutators among raising letters,
    among lowering letters, and the mixed ones, where the same-pair bracket
    must equal the cross term read by :func:`_cross_term` and distinct
    pairs must anticommute (decided by :func:`_bracket_equals`, on each
    letter's :func:`_letter_view`, built once here).  A letter's
    bracket with itself is checked as A^2 = 0.  Each check is an exact
    equality on this module, decided column by column with no product, sum
    or cross-term matrix built, and the failures are listed in that order.
    """
    group = module.ctx.group
    failures = group_relation_failures(module)
    pairs = module.index_set.pairs
    letters: dict[tuple[str, tuple[int, int]], CycMatrix] = {}
    # a raising letter lowers the degree by one and multiplies the group
    # degree by y^(+-i); a lowering letter does the opposite
    for kind, mats, zshift in (("v", module.v_mats, -1), ("a", module.a_mats, 1)):
        for (pos, sign), mat in mats.items():
            shift = group.rotation(-zshift * sign * pairs[pos][0])
            name = f"{kind}({pos},{sign:+d})"
            failure = grading_failure(module, name, mat.sparse_columns(), zshift, group.products[shift])
            if failure:
                failures.append(failure)
            letters[(kind, (pos, sign))] = mat

    x, y = module.x_mat, module.y_mat
    for (kind, (pos, sign)), mat in letters.items():
        name = f"{kind}({pos},{sign:+d})"
        partner = letters[(kind, (pos, -sign))]
        k = pairs[pos][1]
        if not _products_equal(x, mat, partner, x, 0):
            failures.append(f"x does not swap the sign of {name}")
        if not _products_equal(y, mat, mat, y, sign * k if kind == "v" else -sign * k):
            failures.append(f"y does not scale {name} as expected")

    views = {key: _letter_view(mat) for key, mat in letters.items()}
    # a letter is bracketed with itself, as the same matrix, only to check A^2 = 0
    v_keys = sorted(module.v_mats, key=lambda key: (key[0], -key[1]))
    a_keys = sorted(module.a_mats, key=lambda key: (key[0], -key[1]))
    for idx, ka in enumerate(v_keys):
        for kb in v_keys[idx:]:
            if not _bracket_equals(module.v_mats[ka], module.v_mats[kb], None, views[("v", ka)], views[("v", kb)]):
                failures.append(f"raising letters {ka} and {kb} do not anticommute")
    for idx, ka in enumerate(a_keys):
        for kb in a_keys[idx:]:
            if not _bracket_equals(module.a_mats[ka], module.a_mats[kb], None, views[("a", ka)], views[("a", kb)]):
                failures.append(f"lowering letters {ka} and {kb} do not anticommute")
    for ka in a_keys:
        for kb in v_keys:
            cross = _cross_term(module, pairs[ka[0]], ka[1], kb[1]) if ka[0] == kb[0] else None
            if not _bracket_equals(module.a_mats[ka], module.v_mats[kb], cross, views[("a", ka)], views[("v", kb)]):
                failures.append(f"mixed bracket of a{ka} with v{kb} does not match the cross term")
    return failures


def _products_equal(a: UnitMonomial, b: CycMatrix, c: CycMatrix, d: UnitMonomial, shift: int) -> bool:
    """Whether ``a b == w^shift c d``, column by column, with no product matrix built.

    a and d are group-likes: x, y or the pivot of a module, held as row maps
    and exponents (see ``weights.QDModule``); b and c are letters, read from
    their sparse columns.  Column j of ``a b`` holds ``w^a_exps[r] y`` in row
    ``a_rows[r]`` for each entry y of b's column j in row r, and column j of
    ``c d`` is ``w^d_exps[j]`` times column ``d_rows[j]`` of c.  a's row map
    is one to one, so the two columns are equal when they have as many
    entries and each entry of the first meets one of the second in its row.
    Two tagged entries compare by exponent sums mod m, any other pair as
    field elements.
    """
    field = b.field
    m, zeta = field.m, field.zeta
    a_rows, a_exps, d_rows, d_exps = a.rows, a.exps, d.rows, d.exps
    c_cols = c.sparse_columns()
    for j, b_col in enumerate(b.sparse_columns()):
        c_col = c_cols[d_rows[j]]
        if len(b_col) != len(c_col):
            return False
        for r, y in b_col.items():
            p = c_col.get(a_rows[r])
            if p is None:
                return False
            uy, up = y.unit, p.unit
            if uy is None or up is None:
                if y != p * zeta(shift + d_exps[j] - a_exps[r]):
                    return False
            elif (a_exps[r] + uy - up - d_exps[j] - shift) % m:
                return False
    return True


# The row map and entries of a letter with at most one entry per column: per
# column, the row of its entry and the entry, or None and None when it is empty.
LetterView = tuple[list[int | None], list[CycNum | None]]


def _letter_view(mat: CycMatrix) -> LetterView | None:
    """The row map and entries of a letter, or None if a column has two entries."""
    rows: list[int | None] = []
    vals: list[CycNum | None] = []
    for col in mat.sparse_columns():
        if not col:
            rows.append(None)
            vals.append(None)
        elif len(col) == 1:
            ((i, x),) = col.items()
            rows.append(i)
            vals.append(x)
        else:
            return None
    return rows, vals


def _bracket_equals(
    a: CycMatrix,
    b: CycMatrix,
    cross: Callable[[int], VecDict] | None,
    a_view: LetterView | None,
    b_view: LetterView | None,
) -> bool:
    """Whether ``a b + b a`` equals the target read by ``cross``, column by column, with no matrix built.

    ``cross`` maps j to the target's column j (:func:`_cross_term`); None is
    the zero target, and ``a is b`` against it checks ``a^2 == 0``.
    ``a_view`` and ``b_view`` are the operands' :func:`_letter_view`, built
    once per letter by the caller.  On the views each term of column j has
    at most one entry.  Against the zero target both must be empty or cancel
    in one row: ``x y == -(p q)``, for tagged powers of w an exponent
    difference of m/2.  Against a cross term the column is compared as
    field elements.  If an operand has no view, both terms of column j are
    walked from the sparse columns.
    """
    square = a is b and cross is None
    if not (a_view and b_view):
        a_cols = a.sparse_columns()
        for j, b_col in enumerate(b.sparse_columns()):
            col = a.apply(b_col)
            if not square:
                for i, val in b.apply(a_cols[j]).items():
                    add_into(col, i, val)
            if col != ({} if cross is None else cross(j)):
                return False
        return True
    (a_rows, a_vals), (b_rows, b_vals) = a_view, b_view
    m = a.field.m
    # -w^e is w^(e + m/2); for odd m no power of w is -1, and -1 matches no exponent
    half = m // 2 if m % 2 == 0 else -1
    for j, r in enumerate(b_rows):
        i = None if r is None else a_rows[r]
        s = None if square else a_rows[j]
        k = None if s is None else b_rows[s]
        if cross is not None:
            col: VecDict = {}
            if i is not None:
                col[i] = a_vals[r] * b_vals[j]
            if k is not None:
                add_into(col, k, b_vals[s] * a_vals[j])
            if col != cross(j):
                return False
        elif i is None and k is None:
            continue
        elif i != k:
            return False
        else:
            x, y, p, q = a_vals[r], b_vals[j], b_vals[s], a_vals[j]
            ux, uy, up, uq = x.unit, y.unit, p.unit, q.unit
            if ux is None or uy is None or up is None or uq is None:
                if x * y + p * q:
                    return False
            elif (ux + uy - up - uq) % m != half:
                return False
    return True


def theta_congruence(module: QDModule) -> list[str]:
    """Check the degree-zero congruence for every pair; list the failures.

    On each degree-zero basis vector, applying the two raising letters of a
    pair and then its two lowering letters must agree with the
    degree-preserving combination ``pm mp - pp mm`` of the cross terms,
    computed from group data alone: each cross term is read column by
    column (:func:`_cross_term`) and applied to that vector only.
    """
    failures: list[str] = []
    one, name = module.ctx.field.one, module.ctx.group.name
    top = [idx for idx, z in enumerate(module.zdeg) if z == 0]
    for pos, pair in enumerate(module.index_set.pairs):
        chain = [
            module.v_mats[(pos, -1)],
            module.v_mats[(pos, 1)],
            module.a_mats[(pos, -1)],
            module.a_mats[(pos, 1)],
        ]
        terms = _pair_terms(module, pair)
        for b in top:
            vec: VecDict = {b: one}
            for mat in chain:
                vec = mat.apply(vec)
            if vec != _theta_column(terms, b):
                failures.append(
                    f"degree-zero congruence fails for pair {pair} on vector {b}, of group degree {name(module.gdeg[b])}"
                )
    return failures


def highest_weight_vectors(
    module: QDModule, degree: int | None = None
) -> dict[int, list[VecDict]] | list[VecDict]:
    """Joint kernel of the lowering letters, per integer degree.

    With a degree given, returns the list of kernel vectors in that degree;
    otherwise a mapping from each populated degree to its (possibly empty)
    list, highest degree first.  Each degree is solved once per module
    object and its kernel kept on it (``_kernels``), so :func:`head` and
    :func:`socle` of one module share the solve.  Every call hands out
    copies of the kept vectors, which a caller may change.
    """
    if degree is None:
        return {
            z: highest_weight_vectors(module, z)
            for z in sorted(module.layer_indices(), reverse=True)
        }
    kernels: dict[int, list[VecDict]] = module.__dict__.setdefault("_kernels", {})
    found = kernels.get(degree)
    if found is None:
        idxs = module.layer_indices().get(degree, [])
        # one equation per lowering letter and row of the degree above: the
        # letter's row restricted to the layer, in the layer's coordinates
        rows: list[VecDict] = []
        for mat in module.a_mats.values():
            cols = mat.sparse_columns()
            by_row: dict[int, VecDict] = {}
            for t, j in enumerate(idxs):
                for i, val in cols[j].items():
                    by_row.setdefault(i, {})[t] = val
            rows.extend(by_row[i] for i in sorted(by_row))
        found = kernels[degree] = [
            {idxs[t]: val for t, val in vec.items()} for vec in kernel(module.ctx.field, rows, len(idxs))
        ]
    return [dict(vec) for vec in found]


def submodule_generated(module: QDModule, vectors: Iterable[VecDict]) -> EchelonBasis:
    """Smallest subspace containing the vectors and stable under every generator.

    Each vector must lie in one (degree, group degree) cell.  The generators
    are graded, so their images do too, and reduced rows from different
    cells share no coordinate: every row of the basis lies in one cell.
    Every image of a queued vector is inserted.  The image of a queued
    coordinate vector c e_j is c times the generator's column j, which spans
    the same line, so the column is inserted in its place, read as it
    stands: the columns are shared, and ``insert`` copies what it keeps.
    x and y are turned into :class:`~.cyclotomic.CycMatrix` once per call.
    The closure stops once the basis has ``module.dim`` pivots: no image
    can grow a span that holds every basis vector.
    """
    space = EchelonBasis(module.ctx.field)
    queue: list[VecDict] = []
    for vec in vectors:
        if len({(module.zdeg[i], module.gdeg[i]) for i in vec}) > 1:
            raise ValueError("vector is not homogeneous for the two gradings")
        if space.insert(vec):
            queue.append(vec)
    gens = [module.x_mat.matrix(), module.y_mat.matrix(), *module.v_mats.values(), *module.a_mats.values()]
    columns = [mat.sparse_columns() for mat in gens]
    while queue and len(space.pivots) < module.dim:
        vec = queue.pop()
        if len(vec) == 1:
            (j,) = vec
            images = [cols[j] for cols in columns]
        else:
            images = [mat.apply(vec) for mat in gens]
        for image in images:
            if space.insert(image):
                queue.append(image)
    return space


def _on_positions(
    module: QDModule,
    kept: Sequence[int],
    images: Callable[[CycMatrix], list[VecDict]],
    kind: str,
) -> QDModule:
    """The module with one basis vector per kept position of ``module``.

    ``images(mat)`` lists, per kept position, the image under a generator of
    the vector that stands for it; read at the kept positions, it is the
    generator's new column.  The images must hold no zero entry, as those
    of ``apply`` and ``reduce`` and the columns of a matrix do not.  x and
    y are turned into :class:`~.cyclotomic.CycMatrix` for this, and their
    new columns back into :class:`~.cyclotomic.UnitMonomial`.

    Raises:
        AssertionError: if x or y is not an invertible monomial matrix with
            powers of w as entries (``UnitMonomial.from_matrix``) on those
            vectors; the message names the generator and ``kind``.
    """
    field, dim = module.ctx.field, len(kept)
    new_index = {old: new for new, old in enumerate(kept)}

    def restrict(mat: CycMatrix) -> CycMatrix:
        cols = [{new_index[i]: val for i, val in image.items() if i in new_index} for image in images(mat)]
        return CycMatrix(field, cols, dim)

    zdeg, gdeg = [module.zdeg[i] for i in kept], [module.gdeg[i] for i in kept]
    group = [UnitMonomial.from_matrix(restrict(g.matrix())) for g in (module.x_mat, module.y_mat)]
    letters = [{key: restrict(mat) for key, mat in mats.items()} for mats in (module.v_mats, module.a_mats)]
    for name, mat in zip("xy", group):
        if mat is None:
            raise AssertionError(f"{name} is not an invertible monomial matrix on a module of kind {kind!r}")
    return QDModule(module.ctx, module.index_set, zdeg, gdeg, *group, *letters, weight=module.weight, kind=kind)


def quotient(module: QDModule, space: EchelonBasis, kind: str = "quotient") -> QDModule:
    """Quotient by a stable subspace, on the positions that are not its pivots.

    Position j stands for the class of e_j, and the class of a vector is
    read off its reduction, so a generator's column at j is ``reduce(g e_j)``.
    x and y must be invertible monomial matrices on those classes
    (:func:`_on_positions`), as they are for every quotient :func:`head` takes.
    """
    pivots = set(space.pivots)
    kept = [i for i in range(module.dim) if i not in pivots]

    def images(mat: CycMatrix) -> list[VecDict]:
        cols = mat.sparse_columns()
        return [space.reduce(cols[j]) for j in kept]

    return _on_positions(module, kept, images, kind)


def subspace_as_module(module: QDModule, space: EchelonBasis, kind: str = "submodule") -> QDModule:
    """A generator-stable subspace as a module, on the pivots of its reduced rows.

    Pivot p stands for the row r_p.  A vector in the span has its
    coefficients over the rows as its entries at the pivots, so a
    generator's column at p is ``g r_p`` read at the pivots.  A row with
    one entry is e_p, and its image is the generator's column p as it
    stands.  Every image is reduced, and one that leaves the span raises.
    x and y must be invertible monomial matrices on the rows
    (:func:`_on_positions`), as they are for every socle.

    A span of every basis vector is stable, and its reduced rows are the
    unit vectors, on which :func:`_on_positions` would rebuild the module's
    own matrices.  So it is returned at once as a new module that shares
    those matrices, which are read-only (``weights.QDModule``), with the
    weight and the kind given, and empty caches.
    """
    if len(space.pivots) == module.dim:
        mats = (module.x_mat, module.y_mat, module.v_mats, module.a_mats)
        return QDModule(module.ctx, module.index_set, module.zdeg, module.gdeg, *mats, weight=module.weight, kind=kind)

    def images(mat: CycMatrix) -> list[VecDict]:
        cols = mat.sparse_columns()
        out = [cols[p] if len(row) == 1 else mat.apply(row) for p, row in zip(space.pivots, space.rows)]
        if any(space.reduce(image) for image in out):
            raise AssertionError("subspace is not stable under a generator")
        return out

    return _on_positions(module, space.pivots, images, kind)


def socle(module: QDModule) -> QDModule:
    """The submodule generated by the lowest nonvanishing joint kernel.

    Scans degrees from the bottom up for the first degree z carrying vectors
    killed by every lowering letter and returns the submodule they generate.
    Its degree-z layer must be exactly their span, and must be a single
    multiplicity-one weight over the double of the group.  For standard
    modules the bottom layer of the result must also exhaust the bottom
    layer of the module.
    """
    layers = module.layer_indices()
    for z in sorted(layers):
        found = highest_weight_vectors(module, z)
        if found:
            break
    else:
        raise AssertionError("module has no joint kernel vectors at all")
    soc = subspace_as_module(module, submodule_generated(module, found), kind="socle")
    soc_layers = soc.layer_indices()
    if len(soc_layers[z]) != len(found):
        raise AssertionError("lowest joint kernel is not stable under the generators")
    counts = decomposition_counts(module.ctx, soc.layer_module(z))
    if len(counts) != 1 or counts[0][1] != 1:
        raise AssertionError(
            "lowest joint kernel is not a single multiplicity-one weight: "
            + ", ".join(f"{label} x{mult}" for label, mult in counts)
        )
    if module.kind == "verma":
        zmin = min(layers)
        if len(soc_layers.get(zmin, [])) != len(layers[zmin]):
            raise AssertionError("socle of a standard module misses part of the bottom layer")
    return soc


def head(module: QDModule) -> QDModule:
    """The maximal semisimple quotient, by repeatedly shaving negative kernels.

    Each pass quotients by the submodule generated by every joint kernel
    vector in negative degree; the loop must terminate with all joint kernel
    vectors concentrated in degree zero.
    """
    current = module
    for _ in range(2 * len(module.index_set.pairs) + 2):
        by_degree = highest_weight_vectors(current)
        negatives = [vec for z, vecs in by_degree.items() if z < 0 for vec in vecs]
        if not negatives:
            break
        space = submodule_generated(current, negatives)
        current = quotient(current, space, kind="head")
    else:
        raise AssertionError("head computation did not stabilize")
    return current


@dataclass(frozen=True)
class GradedCharacter:
    """Multiset of weights per integer degree: the invariant all claims compare."""

    layers: tuple[tuple[int, tuple[tuple[WeightLabel, int], ...]], ...]

    @classmethod
    def from_counts(cls, counts: dict[int, Sequence[tuple[WeightLabel, int]]]) -> GradedCharacter:
        layers = []
        for z in sorted(counts, reverse=True):
            entries = tuple(
                sorted(
                    ((label, mult) for label, mult in counts[z] if mult),
                    key=lambda lm: lm[0].sort_key(),
                )
            )
            if entries:
                layers.append((z, entries))
        return cls(tuple(layers))

    def shifted(self, offset: int) -> GradedCharacter:
        return GradedCharacter(tuple((z + offset, entries) for z, entries in self.layers))

    def __add__(self, other: GradedCharacter) -> GradedCharacter:
        counts: dict[int, dict[WeightLabel, int]] = {}
        for source in (self, other):
            for z, entries in source.layers:
                bucket = counts.setdefault(z, {})
                for label, mult in entries:
                    bucket[label] = bucket.get(label, 0) + mult
        return GradedCharacter.from_counts({z: list(b.items()) for z, b in counts.items()})

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "degree": z,
                "summands": [{"label": str(label), "mult": mult} for label, mult in entries],
            }
            for z, entries in self.layers
        ]

    def __str__(self) -> str:
        if not self.layers:
            return "0"
        return "\n".join(f"[{z}] {summand_text(entries)}" for z, entries in self.layers)


def graded_character(module: QDModule) -> GradedCharacter:
    """Decompose every integer-degree layer over the double of the group."""
    counts = {
        z: decomposition_counts(module.ctx, module.layer_module(z))
        for z in module.layer_indices()
    }
    return GradedCharacter.from_counts(counts)


def tensor_qd(ctx: DihedralContext, left: QDModule, right: QDModule) -> QDModule:
    """Tensor product of modules over the same double.

    The group part is :func:`tensor_dd` of the two; a raising letter acts on
    the right factor through the group degree of the left one, and a
    lowering letter likewise, swapping its sign on reflection-degree vectors.  The
    construction is guarded: the defining relations are re-checked on the
    result and any failure raises instead of being patched over.
    """
    if left.index_set != right.index_set:
        raise ValueError("tensor factors must share one index set")
    field = ctx.field
    dim_r = right.dim
    dim = left.dim * dim_r

    def fuse(a: int, b: int) -> int:
        return a * dim_r + b

    group = tensor_dd(left, right)
    v_mats: dict[tuple[int, int], CycMatrix] = {}
    a_mats: dict[tuple[int, int], CycMatrix] = {}
    for (pos, sign), mat in left.v_mats.items():
        i, _ = left.index_set.pairs[pos]
        va = mat.sparse_columns()
        vb = right.v_mats[(pos, sign)].sparse_columns()
        turn = y_power(left, sign * i)
        cols = []
        for ja in range(left.dim):
            ia, val = turn.rows[ja], field.zeta(turn.exps[ja])
            for jb in range(dim_r):
                col: VecDict = {}
                for ra, aval in va[ja].items():
                    add_into(col, fuse(ra, jb), aval)
                for ib, bval in vb[jb].items():
                    add_into(col, fuse(ia, ib), val * bval)
                cols.append(col)
        v_mats[(pos, sign)] = CycMatrix(field, cols, dim)
    for (pos, sign), mat in left.a_mats.items():
        _, k = left.index_set.pairs[pos]
        aa = mat.sparse_columns()
        ab_same = right.a_mats[(pos, sign)].sparse_columns()
        ab_opp = right.a_mats[(pos, -sign)].sparse_columns()
        cols = []
        for ja in range(left.dim):
            refl, a = divmod(left.gdeg[ja], ctx.m)
            if refl == 0:
                scale, partner = field.zeta(sign * a * k), ab_same
            else:
                scale, partner = field.zeta(-sign * a * k), ab_opp
            for jb in range(dim_r):
                col = {}
                for ia, val in aa[ja].items():
                    add_into(col, fuse(ia, jb), val)
                for ib, val in partner[jb].items():
                    add_into(col, fuse(ja, ib), scale * val)
                cols.append(col)
        a_mats[(pos, sign)] = CycMatrix(field, cols, dim)
    result = QDModule(
        ctx,
        left.index_set,
        [za + zb for za in left.zdeg for zb in right.zdeg],
        group.gdeg,
        group.x_mat,
        group.y_mat,
        v_mats,
        a_mats,
        weight=None,
        kind="tensor",
    )
    failures = check_relations(result)
    if failures:
        raise AssertionError(
            "tensor product violates the defining relations: " + "; ".join(failures)
        )
    return result

