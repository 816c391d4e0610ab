"""Modules over the Drinfeld double of the bosonized Nichols algebra.

The double is generated by the group part (x, y and the dual group-likes,
realized here as the group grading), a raising letter pair v+, v- for every
index pair, and a lowering pair a+, a- dual to it.  A module is a
``weights.QDModule``, the one module type: an exact matrix per generator,
an integer grading (the letter count, nonpositive) and the group grading.
:func:`check_relations` checks the group part as ``weights`` does, then the
letters.  Each letter relation is an exact equality of two matrix
expressions, decided column by column without building a product, a sum
or a cross-term matrix.  When the group part holds, conjugation by x swaps
the signs of the letters and of the cross terms, so a relation whose first
letter has sign -1 takes the outcome of its mirror of sign +1, once the
letters' x-swaps hold; only the others are decided on the matrices.  And
conjugation by y scales a bracket whose letters' y-scalings hold, so it is
decided on one column per cycle of y's row map: one column in m/2 on a
reflection weight, every column where y keeps each basis line, as on a
rotation weight.  The products with x and y read the row maps and
exponents of x and y and the letters' sparse columns, on one path.  The brackets of letters read each
letter's row map and entries, a view that :func:`check_relations` builds
once per letter, and walk a column's few entries where a letter has none,
such as a lowering letter with two entries in a column.  Tagged entries
compare by exponent.  The cross terms are read column by column from the
group degrees and the row map and exponents of a power of y.

Standard (Verma-type) modules are built one pair at a time: an induction
lets the exterior algebra of one new pair, four monomials written out as
tables, act freely on a base module, and rewrites each new lowering letter
past at most two letters; the cross terms produced by the defining
relations act through the group degree of the vector alone.  A standard
module folds the induction over its pairs in order, starting from the
weight, the module over the empty index set; one step of the recursion
induces one pair on a simple module.  Socles and heads are computed from
scratch by exact linear algebra, with no appeal to any closed-form answer,
so they can serve as independent evidence for one.  Both are one span,
walked breadth first under the lowering letters, mirror images of each
other.  By the PBW order of the double, U = U+ D(G) U-, the head is read
off degree 0 in one pass, through the functionals that the degree-0 layer
spans under the transposed lowering letters.  In the other order,
U = U- D(G) U+, the socle of a module free over the raising letters is
the span of its bottom layer under the lowering letters, whose stability
under every generator is then checked.  The closed-form side
(``theorems.predicted_character``) builds no module here: it takes the
exterior algebra of the letters one pair at a time, as weights.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycMatrix, CycNum, CyclotomicField, EchelonBasis, UnitMonomial, VecDict, add_into
from .dihedral import DihedralContext
from .nichols import IndexSet, validate_index_set
from .weights import (
    QDModule,
    WeightLabel,
    build_weight,
    decomposition_counts,
    grading_failure,
    group_module,
    group_relation_failures,
    summand_text,
    tensor_dd,
)


def y_power(module: QDModule, power: int) -> UnitMonomial:
    """y^power, with the power taken mod m, since y^m = 1.

    y is held as a row map and exponents (see ``weights.QDModule``), so the
    power is read off its cycles, one walk per cycle, and kept on y, so each
    power of one y is formed once (``UnitMonomial.__pow__``).
    """
    return module.y_mat ** (power % module.ctx.m)


@lru_cache(maxsize=None)
def _one_plus_powers(field: CyclotomicField) -> tuple[CycNum, ...]:
    """``1 + w^u`` for u = 0 .. m-1: the diagonal entries of the equal-sign cross terms."""
    return tuple(field.one + field.zeta(u) for u in range(field.m))


def _y_turns(module: QDModule, i: int) -> dict[int, UnitMonomial]:
    """y^i and y^-i, keyed by the sign of the power: the powers of y the cross terms of a pair read."""
    return {sign: y_power(module, sign * i) for sign in (1, -1)}


def _cross_term(
    module: QDModule, pair: tuple[int, int], eps: int, mu: int, turns: dict[int, UnitMonomial]
) -> Callable[[int], VecDict]:
    """Column reader of the rank-lowering cross term for one choice of signs; no matrix is built.

    The operator produced by commuting the lowering generator of sign eps
    past the raising generator of sign mu acts through group degrees alone:
    on a rotation-degree vector the equal-sign choices give
    ``1 - w^(+-a*k) y^(+-i)`` and the mixed ones vanish, while on a
    reflection-degree vector the equal-sign choices act as the identity and
    the mixed ones as a root-of-unity multiple of ``y^(-+i)``.  So it is
    ``[eps = mu] + y^p S`` for one power p and a diagonal S, whose entry
    ``-w^e`` the group degree of e_j gives as an integer exponent.  The
    power is p = mu i for equal and mixed signs alike, and y^p is taken from
    ``turns``, the pair's :func:`_y_turns`, so the caller forms each power
    of y once for all four choices of signs.  Column j
    is read off y^p's row map and exponents (see ``weights.QDModule``): a
    mixed-sign column is ``w^(u + e + m/2)`` in y^p's row, u the exponent
    of y^p's entry; an equal-sign rotation column where y^p keeps e_j is
    ``1 + w^u`` in row j, from a table per field.

    When the group part of the module holds, ``x C(eps, mu) x`` is
    ``C(-eps, -mu)``, which lets :func:`check_relations` decide a mixed
    bracket on its mirror.  With x^2 = 1 and x y x = y^-1, x y^p x is
    y^-p, the power of the flipped signs; and x S x is the diagonal whose
    entry at j is S's entry at x(j), whose group degree is the x-conjugate
    of that of e_j: a rotation or reflection exponent a becomes -a.  So S's
    exponent at -a must be that of the flipped signs at a, and it is: for
    equal signs ``eps (-a) k`` is ``(-eps) a k``; for mixed ones the eps = +1
    exponent ``-(a + 2 i) k`` at -a is ``(a - 2 i) k``, the eps = -1 one at
    a, and the eps = -1 exponent ``(a - 2 i) k`` at -a is ``-(a + 2 i) k``.
    """
    ctx = module.ctx
    field, m, n = ctx.field, ctx.m, ctx.n
    i, k = pair
    same = eps == mu
    one, zeta, ones = field.one, field.zeta, _one_plus_powers(field)
    turn = turns[mu]
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
    turns = _y_turns(module, pair[0])
    return tuple(_cross_term(module, pair, eps, mu, turns) for eps, mu in ((1, 1), (-1, -1), (1, -1), (-1, 1)))


def _theta_column(terms: tuple[Callable[[int], VecDict], ...], j: int) -> VecDict:
    """Column j of ``pm mp - pp mm``, each cross term applied through its reader."""
    pp, mm, pm, mp = terms
    out: VecDict = {}
    for first, second, sign in ((mp, pm, 1), (mm, pp, -1)):
        for r, val in first(j).items():
            for row, entry in second(r).items():
                add_into(out, row, entry * val if sign > 0 else -(entry * val))
    return out


# One pair's exterior algebra has four basis monomials, 1, v+, v- and v+ v-,
# numbered 0 to 3 by the bits of their letters (v+ is bit 0, v- bit 1).  Per
# monomial: its letter count; the multiple t of (i, k) that it adds to the
# rotation exponent of the group degree and to y's exponent; x's signed swap,
# since x v+ = v- x, so x v+ v- = v- v+ x = -v+ v- x; and the product with
# v+ and with v- on its left, with its sign: v- v+ = -v+ v-, and v+ v+ = 0.
_LETTER_COUNT = (0, 1, 1, 2)
_TURN = (0, 1, -1, 0)
_X_SWAP = ((1, 0), (1, 2), (1, 1), (-1, 3))
_TIMES = {1: {0: (1, 1), 2: (1, 3)}, -1: {0: (1, 2), 1: (-1, 3)}}


def _induce(
    ctx: DihedralContext, base: QDModule, pair: tuple[int, int], weight: WeightLabel | None, kind: str
) -> QDModule:
    """Let the exterior algebra of one fresh pair act freely on the base module.

    The base is a module over the double of a smaller index set: for a
    standard module the weight or the module induced so far, for one step of
    the recursion a simple module.  The new module has the basis s b, for the
    monomials s of the tables above and the base vectors b, ordered by
    degree, then s, then b.  The base letters pass the new ones with one sign
    flip per letter.  A new lowering letter a of sign eps kills 1 b, and by
    the defining relations takes v b to C b, for the cross term C of eps and
    v's sign (:func:`_cross_term`), read on the new module's group part.  On
    v+ v- b it is rewritten past v+ once:
    ``a v+ v- b = -v+ (a v- b) + C(eps, +) v- b``, two terms on v+ and on v-.
    """
    base.require_letters()
    field, group = ctx.field, ctx.group
    i, k = pair
    old = base.index_set.pairs
    merged = validate_index_set(ctx, old + (pair,))
    insert_pos = bisect_left(old, pair)
    size = base.dim
    entries = [(s, b) for s in range(4) for b in range(size)]
    entries.sort(key=lambda sb: (_LETTER_COUNT[sb[0]] - base.zdeg[sb[1]], sb))
    dim = len(entries)
    # position[s * size + b] is the position of s b
    position = [0] * dim
    for idx, (s, b) in enumerate(entries):
        position[s * size + b] = idx
    zdeg = [base.zdeg[b] - _LETTER_COUNT[s] for s, b in entries]
    turns = {t: group.products[group.rotation(t * i)] for t in (-1, 0, 1)}
    gdeg = [turns[_TURN[s]][base.gdeg[b]] for s, b in entries]

    # x swaps v+ and v- with a sign -1 = w^n on v+ v-; y scales the letters by a power of w
    base_x, base_y = base.x_mat, base.y_mat
    x_rows, x_exps, y_rows, y_exps = [], [], [], []
    for s, b in entries:
        xsign, swapped = _X_SWAP[s]
        x_rows.append(position[swapped * size + base_x.rows[b]])
        x_exps.append(base_x.exps[b] + (0 if xsign > 0 else ctx.n))
        y_rows.append(position[s * size + base_y.rows[b]])
        y_exps.append(base_y.exps[b] + _TURN[s] * k)
    x_mat, y_mat = UnitMonomial(field, x_rows, x_exps), UnitMonomial(field, y_rows, y_exps)

    v_mats: dict[tuple[int, int], CycMatrix] = {}
    a_mats: dict[tuple[int, int], CycMatrix] = {}
    for base_mats, mats in ((base.v_mats, v_mats), (base.a_mats, a_mats)):
        for (pos, sign), mat in base_mats.items():
            cols = mat.sparse_columns()
            new_cols = [
                {position[s * size + r]: -val if _LETTER_COUNT[s] % 2 else val for r, val in cols[b].items()}
                for s, b in entries
            ]
            mats[(pos if pos < insert_pos else pos + 1, sign)] = CycMatrix(field, new_cols, dim)
    for sign, products in _TIMES.items():
        cols = [{} for _ in range(dim)]
        for s, (tsign, t) in products.items():
            entry = field.one if tsign > 0 else -field.one
            for b in range(size):
                cols[position[s * size + b]] = {position[t * size + b]: entry}
        v_mats[(insert_pos, sign)] = CycMatrix(field, cols, dim)
    frame = group_module(ctx, gdeg, x_mat, y_mat)
    turns = _y_turns(frame, i)
    for eps in (1, -1):
        plus, minus = (_cross_term(frame, pair, eps, mu, turns) for mu in (1, -1))
        cols = [{} for _ in range(dim)]
        for b in range(size):
            start, low = position[b], position[2 * size + b]
            cols[position[size + b]] = plus(start)
            cols[low] = lowered = minus(start)
            # the cross term keeps the monomial, so a v- b lies on 1 and v+ (a v- b) on v+
            top = {position[size + entries[r][1]]: -val for r, val in lowered.items()}
            top.update(plus(low))
            cols[position[3 * size + b]] = top
        a_mats[(insert_pos, eps)] = CycMatrix(field, cols, dim)
    return QDModule(ctx, merged, zdeg, gdeg, x_mat, y_mat, v_mats, a_mats, weight=weight, kind=kind)


def build_verma(ctx: DihedralContext, index_set: IndexSet, weight: WeightLabel) -> QDModule:
    """The standard module: the exterior algebra of the letters on a weight.

    The weight, as :func:`build_weight` makes it, is the module over the
    empty index set in degree 0, the base case of the recursion.  The pairs
    are induced on it one at a time, in order (:func:`_induce`).  Over the
    empty index set the result is the weight's module itself, of kind
    ``"module"`` and weight None.
    """
    module = build_weight(ctx, weight)
    for pair in index_set.pairs:
        module = _induce(ctx, module, pair, weight, "verma")
    return module


def induce_from_simple(ctx: DihedralContext, simple: QDModule, pair: tuple[int, int]) -> QDModule:
    """Extend a module over a smaller double by one fresh index pair."""
    return _induce(ctx, simple, pair, simple.weight, "induced")


def basis_change(src: QDModule, dst: QDModule) -> UnitMonomial | None:
    """A unit monomial D with ``D g = g' D`` for every generator g of ``src`` and g' of ``dst``, or None.

    D is the identity on the degree-0 layer and keeps every degree and group
    degree, so it is an isomorphism of graded modules: it carries x, y and
    every letter, and the cross terms, which are read off the group degrees
    and y (:func:`_cross_term`).  Each relation, the head, the socle and
    their graded characters are then the same on both.  So when
    ``theorems.verify_simple`` induces a simple smaller standard module,
    which is that module's own head and socle, and D carries the induced
    module onto the standard module, that recursion step needs no check of
    its own.

    D is found breadth first along the raising letters, from the identity on
    degree 0, the layer the raising letters span the module from.  If A
    takes e_i to ``c e_j`` and its partner A' takes ``D e_i`` to ``d e_r``,
    ``D e_j`` is ``d c^-1 w^u e_r``, u the exponent of ``D e_i``; c and d
    must be tagged powers of w, compared by exponent.  None when a reached
    column is not one such entry, a position is left unreached, the rows are
    not a permutation, or a degree differs; and when D fails to carry x or
    y (products of unit monomials) or a letter (:func:`_products_equal`).
    """
    src.require_letters()
    dst.require_letters()
    dim = src.dim
    shape = (dim, src.index_set, src.v_mats.keys(), src.a_mats.keys())
    if shape != (dst.dim, dst.index_set, dst.v_mats.keys(), dst.a_mats.keys()):
        return None
    rows: list[int | None] = [None] * dim
    exps = [0] * dim
    reached = [j for j, z in enumerate(src.zdeg) if z == 0]
    for j in reached:
        rows[j] = j
    raising = [(mat.sparse_columns(), dst.v_mats[key].sparse_columns()) for key, mat in src.v_mats.items()]
    for i in reached:
        for cols, partner in raising:
            col = cols[i]
            if not col:
                continue
            image = partner[rows[i]]
            if len(col) != 1 or len(image) != 1:
                return None
            ((j, c),), ((r, d),) = col.items(), image.items()
            if c.unit is None or d.unit is None:
                return None
            if rows[j] is None:
                rows[j], exps[j] = r, exps[i] + d.unit - c.unit
                reached.append(j)
    if None in rows or len(set(rows)) != dim:
        return None
    if any(src.zdeg[j] != dst.zdeg[r] or src.gdeg[j] != dst.gdeg[r] for j, r in enumerate(rows)):
        return None
    change = UnitMonomial(src.ctx.field, rows, exps)
    if change * src.x_mat != dst.x_mat * change or change * src.y_mat != dst.y_mat * change:
        return None
    letters = [(mat, dst.v_mats[key]) for key, mat in src.v_mats.items()]
    letters += [(mat, dst.a_mats[key]) for key, mat in src.a_mats.items()]
    if not all(_products_equal(change, mat, partner, change, 0) for mat, partner in letters):
        return None
    return change


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

    When the group part holds, conjugation by x is an automorphism of the
    relations: x^2 = 1, x y x = y^-1, and a letter A whose x-swap holds has
    ``x A x = A'``, its partner of the other sign.  So a relation whose
    first letter has sign -1 is decided once, on its mirror with sign +1,
    and given the mirror's outcome:

    - the x-swap of A' holds exactly when that of A does, by x^2 = 1;
    - if it holds, A' = x A x is graded exactly when A is, since x keeps
      each degree and conjugates group degrees, and x h x = h^-1 for the
      rotation h that A multiplies group degrees by; when A is not graded,
      A' is checked itself, so that its failure line names its own column;
    - if it holds, ``y A' == c^-1 A' y`` is x times ``y A == c A y`` times
      x, since x y x = y^-1;
    - if both letters' x-swaps hold, the bracket of A' with B' is x times
      that of A with B times x, and so is its target, the cross term with
      both signs flipped (:func:`_cross_term`) or zero.  The brackets are
      walked with the sign +1 letter of a pair first, so the mirror is
      decided before.

    Any other relation, and every relation when the group part fails, is
    decided directly.  Each keeps its own failure line.

    A bracket decided directly is decided on one column per cycle of y's
    row map, when the group part holds and both letters' y-scalings hold.
    Then ``R = A B + B A - T`` has ``y R y^-1 = c_A c_B R``: the products
    are scaled so by ``y A y^-1 = c_A A`` and ``y B y^-1 = c_B B``, and the
    target T, zero or the cross term ``[eps = mu] + y^p S``, is scaled so
    too.  y commutes with y^p, and ``y S y^-1`` is the diagonal whose entry
    in y's row of j is S's entry at j.  As y conjugates group degrees, that
    row has the rotation exponent of j, or the reflection exponent a - 2
    where j has a.  The entries of S depend on the degree alone: at a
    rotation exponent they are kept, as ``c_A c_B = 1`` for equal signs and
    a mixed-sign S vanishes there; at a reflection exponent, equal signs
    give no S, and the mixed-sign exponent ``-(a + 2 i) k`` or
    ``(a - 2 i) k`` at a is that at a - 2 plus ``-2 k`` or ``2 k``, the
    exponent of ``c_A c_B``.  So with ``y e_j = w^u e_r``, column r of R is
    ``c^-1 w^-u y`` times column j: it vanishes exactly when column j does,
    and the first column of each cycle decides the cycle.  That is one
    column in m/2 on a reflection weight, and every column where y's row
    map is the identity (``UnitMonomial.cycle_starts``).
    The x-swaps and y-scalings, the premises, are decided on every column,
    and so is a bracket whose premises fail.
    """
    module.require_letters()
    group = module.ctx.group
    failures = group_relation_failures(module)
    mirrored = not failures
    pairs = module.index_set.pairs
    letters = {
        (kind, key): mat for kind, mats in (("v", module.v_mats), ("a", module.a_mats)) for key, mat in mats.items()
    }

    x, y = module.x_mat, module.y_mat
    swaps: dict[tuple[str, tuple[int, int]], bool] = {}
    scales: dict[tuple[str, tuple[int, int]], bool] = {}
    gradings: dict[tuple[str, tuple[int, int]], str | None] = {}
    # the sign +1 letters first, so that a sign -1 letter finds its partner's outcomes
    for key in sorted(letters, key=lambda key: -key[1][1]):
        kind, (pos, sign) = key
        partner = (kind, (pos, -sign))
        reuse = mirrored and sign < 0
        swaps[key] = swaps[partner] if reuse else _products_equal(x, letters[key], letters[partner], x, 0)
        if reuse and swaps[partner]:
            scales[key] = scales[partner]
        else:
            k = pairs[pos][1]
            scales[key] = _products_equal(y, letters[key], letters[key], y, sign * k if kind == "v" else -sign * k)
        if reuse and swaps[key] and gradings[partner] is None:
            # A' = x A x is graded as A is, since x keeps degrees and conjugates group degrees
            gradings[key] = None
        else:
            # a raising letter lowers the degree by one and multiplies the group
            # degree by y^(+-i); a lowering letter does the opposite
            zshift = -1 if kind == "v" else 1
            shift = group.rotation(-zshift * sign * pairs[pos][0])
            name = f"{kind}({pos},{sign:+d})"
            gradings[key] = grading_failure(module, name, letters[key].sparse_columns(), zshift, group.products[shift])
    failures += [gradings[key] for key in letters if gradings[key]]
    for key in letters:
        kind, (pos, sign) = key
        name = f"{kind}({pos},{sign:+d})"
        if not swaps[key]:
            failures.append(f"x does not swap the sign of {name}")
        if not scales[key]:
            failures.append(f"y does not scale {name} as expected")

    views = {key: _letter_view(mat) for key, mat in letters.items()}
    # each pair's y^i and y^-i, formed once for the cross terms of its mixed brackets
    turns = [_y_turns(module, i) for i, _ in pairs]
    held: dict[tuple[str, tuple[int, int], str, tuple[int, int]], bool] = {}
    every = range(module.dim)
    starts = y.cycle_starts() if mirrored else every

    def bracket_holds(first: str, ka: tuple[int, int], second: str, kb: tuple[int, int]) -> bool:
        left, right = (first, ka), (second, kb)
        if mirrored and ka[1] < 0 and swaps[left] and swaps[right]:
            # the loops below reach the mirror, both signs flipped, first
            holds = held[(first, (ka[0], 1), second, (kb[0], -kb[1]))]
        else:
            # the target of a mixed bracket of one pair is its cross term, of any other bracket zero
            mixed = first != second and ka[0] == kb[0]
            cross = _cross_term(module, pairs[ka[0]], ka[1], kb[1], turns[ka[0]]) if mixed else None
            # y R y^-1 = c R once both letters' y-scalings hold, so one column per cycle of y decides R
            columns = starts if scales[left] and scales[right] else every
            holds = _bracket_equals(letters[left], letters[right], cross, views[left], views[right], columns)
        held[(first, ka, second, kb)] = holds
        return holds

    # a letter is bracketed with itself, as the same matrix, only to check A^2 = 0
    v_keys = sorted(module.v_mats, key=lambda key: (key[0], -key[1]))
    a_keys = sorted(module.a_mats, key=lambda key: (key[0], -key[1]))
    for idx, ka in enumerate(v_keys):
        for kb in v_keys[idx:]:
            if not bracket_holds("v", ka, "v", kb):
                failures.append(f"raising letters {ka} and {kb} do not anticommute")
    for idx, ka in enumerate(a_keys):
        for kb in a_keys[idx:]:
            if not bracket_holds("a", ka, "a", kb):
                failures.append(f"lowering letters {ka} and {kb} do not anticommute")
    for ka in a_keys:
        for kb in v_keys:
            if not bracket_holds("a", ka, "v", kb):
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
    columns: Iterable[int],
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

    ``columns`` lists the columns decided: every column, or, from
    :func:`check_relations`, the first column of each cycle of y's
    row map when conjugation by y scales ``a b + b a`` minus the target by
    one root of unity c: with ``y e_j = w^u e_r``, column r of the
    difference is ``c^-1 w^-u y`` times its column j, so the one vanishes
    exactly when the other does, and the cycle's first column decides it.
    """
    square = a is b and cross is None
    if not (a_view and b_view):
        a_cols, b_cols = a.sparse_columns(), b.sparse_columns()
        for j in columns:
            col = a.apply(b_cols[j])
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
    for j in columns:
        r = b_rows[j]
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
    module.require_letters()
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


def _close(field: CyclotomicField, seeds: Iterable[VecDict], gens: list[CycMatrix], dim: int) -> EchelonBasis:
    """The echelon basis of the span of the seeds and their images under every word in ``gens``.

    The seeds are inserted, and each vector that grows the span is walked
    breadth first, in the order it was inserted: its image under every
    generator is inserted, and each image that grows the span is walked in
    turn.  Every walked vector's images lie in the span, so the span of the
    walked vectors is closed under ``gens``.  The walk stops once the basis
    has ``dim`` pivots: no image can grow a span that holds every basis
    vector, and breadth first it is often reached before the last layer.

    The image of a coordinate vector c e_j is c times the generator's column
    j, which spans the same line, so the column is inserted in its place,
    read as it stands: the columns are shared, and ``insert`` copies what it
    keeps.
    """
    space = EchelonBasis(field)
    columns = [mat.sparse_columns() for mat in gens]
    kept = [vec for vec in seeds if space.insert(vec)]
    # kept grows while it is walked
    for vec in kept:
        if len(space.pivots) == dim:
            break
        if len(vec) == 1:
            (j,) = vec
            images = [cols[j] for cols in columns]
        else:
            images = [mat.apply(vec) for mat in gens]
        for image in images:
            if space.insert(image):
                kept.append(image)
    return space


def _on_positions(
    module: QDModule,
    kept: Sequence[int],
    stand_ins: Sequence[VecDict],
    read: Callable[[VecDict], VecDict],
    kind: str,
    letters: bool = True,
) -> QDModule:
    """The module with one basis vector per kept position of ``module``.

    ``stand_ins`` lists, per kept position, the vector that stands for it,
    and ``read`` gives the coordinates of an image of a stand-in, keyed by
    new position: over the reduced rows of a submodule, raising when the
    image leaves their span (:func:`_span_reader`), or by the head's
    pairing.  Each generator is read once per kept position: the image of
    the stand-in is computed and read, and that is the generator's new
    column.  A letter's image of every stand-in, a coordinate vector e_p
    included, is its ``apply``.  x and y stay row maps and exponents: the
    image of a stand-in moves its entry at t to row ``rows[t]`` and scales
    it by ``w^exps[t]``, and its new column must be one power of w, the new
    row and exponent.  What ``read`` returns must hold no zero entry, as the
    columns of a matrix and the results of ``apply`` do not.  With
    ``letters=False`` no letter is read, and the module has x, y and the
    degrees, with None for ``v_mats`` and ``a_mats`` (``weights.QDModule``).

    Raises:
        AssertionError: if x or y is not an invertible monomial matrix with
            powers of w as entries on the stand-ins: a new column of it is
            not one tagged entry, or its new row map is no permutation
            (``weights.QDModule``); the message names the generator and
            ``kind``.
    """
    field, dim = module.ctx.field, len(kept)

    def letter(mat: CycMatrix) -> CycMatrix:
        return CycMatrix(field, [read(mat.apply(vec)) for vec in stand_ins], dim)

    mats = [
        {key: letter(mat) for key, mat in by_key.items()} if letters else None
        for by_key in (module.v_mats, module.a_mats)
    ]
    group = []
    for name, g in (("x", module.x_mat), ("y", module.y_mat)):
        cols = [read({g.rows[t]: val * field.zeta(g.exps[t]) for t, val in vec.items()}) for vec in stand_ins]
        if any(len(col) != 1 or next(iter(col.values())).unit is None for col in cols):
            raise AssertionError(f"{name} is not an invertible monomial matrix on a module of kind {kind!r}")
        entries = [next(iter(col.items())) for col in cols]
        group.append(UnitMonomial(field, [r for r, _ in entries], [val.unit for _, val in entries]))
    zdeg, gdeg = [module.zdeg[i] for i in kept], [module.gdeg[i] for i in kept]
    return QDModule(module.ctx, module.index_set, zdeg, gdeg, *group, *mats, weight=module.weight, kind=kind)


def _span_reader(pivots: Sequence[int], rows: Sequence[VecDict]) -> Callable[[VecDict], VecDict]:
    """The reader of a vector's coordinates over the reduced rows of a span, keyed by row position.

    ``pivots`` and ``rows`` are those of one ``EchelonBasis``, its rows read
    once by the caller.  Row r_q, at pivot q, is 1 at q and 0 at the other
    pivots.  So a vector v lies in the span exactly when ``v = sum over the
    pivots q of v of v[q] r_q``, and then its coordinates are its entries at
    the pivots.  The check touches only the rows at v's own pivots.  It is
    the one certificate of stability that :func:`subspace_as_module` asks
    for; ``EchelonBasis.insert`` decides the same membership with the
    forward rows, but grows the span by a vector outside it.

    Raises:
        AssertionError: if v is not in the span.
    """
    at_pivot = {q: (new, row) for new, (q, row) in enumerate(zip(pivots, rows))}

    def read(vec: VecDict) -> VecDict:
        out, rest = {}, dict(vec)
        for q, c in vec.items():
            if q in at_pivot:
                new, row = at_pivot[q]
                out[new] = c
                del rest[q]
                for t, val in row.items():
                    if t != q:
                        add_into(rest, t, -(val * c))
        if rest:
            raise AssertionError("subspace is not stable under a generator")
        return out

    return read


def subspace_as_module(
    module: QDModule, space: EchelonBasis, kind: str = "submodule", letters: bool = True
) -> QDModule:
    """A generator-stable subspace as a module, on the pivots of its reduced rows.

    Pivot p stands for the reduced row r_p, and a generator's column at p
    is ``g r_p`` read over the rows (:func:`_on_positions`): its entries at
    the pivots, once :func:`_span_reader` has found it in the span.  The
    rows are read off ``space`` once, as the stand-ins and as the reader's
    rows.  An image of a row that leaves the span raises: this is the one
    check that the span is a submodule, and :func:`socle`, which spans
    under the lowering letters alone, relies on it for x, y and the raising
    letters.
    x and y must be invertible monomial matrices on the rows
    (:func:`_on_positions`), as they are for every socle.  A span of every
    basis vector has the unit vectors for its reduced rows, and is rebuilt
    so, as a new module with matrices of its own.

    With ``letters=False`` the module has x, y and the degrees and no
    letters.  Every raising letter is still read on every row, and its
    image found in the span, so the check covers x, y and the raising
    letters as before; the lowering letters are not read, and the caller
    vouches for them, as :func:`socle` does with a span that :func:`_close`
    built under them.
    """
    rows = space.rows
    read = _span_reader(space.pivots, rows)
    if not letters:
        for mat in module.v_mats.values():
            for row in rows:
                read(mat.apply(row))
    return _on_positions(module, space.pivots, rows, read, kind, letters)


def socle(module: QDModule, letters: bool = True) -> QDModule:
    """The socle of a standard module or of a module induced from a simple one: its bottom layer's span.

    A standard module M = B(V) (x) λ is free over the Nichols algebra B(V)
    of the raising letters.  B(V) has a one-dimensional top degree Λ, and
    multiplication into it pairs its degrees nondegenerately, so every
    nonzero B(V)-submodule of M meets Λ (x) λ, the bottom layer B of M.  A
    nonzero submodule N of M meets B in a nonzero module over the double of
    the group; B is one weight of multiplicity one, a simple module there,
    so N holds B.  A module that one step of the recursion induces,
    B(V_p) (x) L for L simple over the double of the smaller index set, is
    free over B(V_p) in the same way, so N meets Λ_p (x) L.  The letters of
    the other pairs pass those of p with a sign and no cross term, and x
    and y scale v+ v-, so Λ_p (x) L is a module over the smaller double, L
    twisted by a character and so simple: N holds it, and B with it.
    Either way every nonzero submodule holds B and the submodule U B that B
    generates, which is therefore the one simple submodule: the socle.

    The defining relations rewrite any word in the generators as a sum of
    words with the lowering letters left of x and y, and these left of the
    raising letters: U = U- D(G) U+, the other PBW order to :func:`head`'s.
    A raising letter lowers the degree, so it kills the bottom layer, and
    D(G) keeps B: x and y keep the degree, and the dual group-likes act on
    a vector of one cell by a scalar.  So U B is U- B, the span of B's unit
    vectors under the lowering letters alone (:func:`_close`), the mirror
    of :func:`head`'s span; no kernel is solved.

    That holds on a module whose relations hold (:func:`check_relations`).
    :func:`subspace_as_module` checks the span's stability under every
    generator, which certifies what x, y and the raising letters would
    add, so on a module whose relations fail the socle may be refused
    there.  The abstract puts the socle's top layer at the lowest degree
    with a joint kernel of the lowering letters; the socle is not built
    from that claim, and the tests check it against that kernel, solved.

    On a simple module the span is the whole module.  :func:`head` returns
    its argument exactly when the module is simple, so ``verify_simple``
    does not ask for the socle of a module that ``head`` returned
    unchanged: it is its own socle.

    With ``letters=False`` the socle is built with x, y and its degrees and
    no letters (:func:`subspace_as_module`), for a caller that reads only
    those and its graded character.  Its stability under x, y and every
    raising letter is checked as before; the lowering letters, which it is
    spanned under, are not read.

    Raises:
        AssertionError: if the module was built without its letters; if it
            is of another kind than ``"verma"`` or ``"induced"``, whose
            freeness the argument needs; or if its bottom layer is not a
            single multiplicity-one weight over the double of the group.
    """
    module.require_letters()
    if module.kind not in ("verma", "induced"):
        raise AssertionError(f"socle needs a standard or an induced module, not one of kind {module.kind!r}")
    field, layers = module.ctx.field, module.layer_indices()
    bottom = min(layers)
    counts = decomposition_counts(module.ctx, module.layer_module(bottom))
    if len(counts) != 1 or counts[0][1] != 1:
        raise AssertionError(
            "bottom layer is not a single multiplicity-one weight: "
            + ", ".join(f"{label} x{mult}" for label, mult in counts)
        )
    units = [{t: field.one} for t in layers[bottom]]
    space = _close(field, units, list(module.a_mats.values()), module.dim)
    return subspace_as_module(module, space, kind="socle", letters=letters)


def _from_rows(field: CyclotomicField, rows: Iterable[tuple[int, VecDict]], dim: int) -> CycMatrix:
    """The square matrix of size ``dim`` with the given rows, each with its row index; every other row is 0."""
    cols: list[VecDict] = [{} for _ in range(dim)]
    for i, row in rows:
        for j, val in row.items():
            cols[j][i] = val
    return CycMatrix(field, cols, dim)


def _head_span(module: QDModule) -> EchelonBasis:
    """The span of the degree-0 unit functionals under the transposed lowering letters (:func:`_close`).

    Each functional is a row; each lowering letter is transposed once per
    call.  The rows are homogeneous, as the seeds are and a letter shifts
    the degree by one, so each degree's positions that are not pivots count
    the vectors of that degree on which the span vanishes.  :func:`head`
    reads its pivots and ``theorems.verify_rigid_tensor`` the positions that
    are not.
    """
    module.require_letters()
    field, dim = module.ctx.field, module.dim
    lowering = [_from_rows(field, enumerate(mat.sparse_columns()), dim) for mat in module.a_mats.values()]
    units = [{t: field.one} for t in module.layer_indices().get(0, [])]
    return _close(field, units, lowering, dim)


def head(module: QDModule, letters: bool = True) -> QDModule:
    """The quotient by the largest graded submodule that meets degree 0 in zero, read off degree 0 in one pass.

    That submodule is the common kernel of the functionals f u, f on the
    degree-0 layer and u in the double.  By the defining relations a
    lowering letter passes a raising one at the cost of a cross term in
    D(G), and x and y pass a letter at the cost of a root of unity or a
    sign swap, so every word in the generators is a sum of words with the
    raising letters left of x and y, and these left of the lowering
    letters: the PBW order U = U+ D(G) U- (:func:`socle` takes the other).
    A raising letter lowers the degree, so f u+ vanishes
    unless u+ is a scalar, and D(G) keeps the degree-0 functionals.  So the
    f u span W, the span of the unit functionals e_t* of the degree-0 layer
    under the transposed lowering letters (:func:`_head_span`, whose second
    caller is ``theorems.verify_rigid_tensor``).  The classes of the basis
    vectors at the pivots of W's reduced rows are a basis of the quotient:
    paired with those rows, the class of e_p is the unit vector at p.  So a generator's column at p is
    its column p read by that pairing (:func:`_on_positions`); for x or y,
    with ``g e_p = w^e e_r``, it is w^e times the pairing's column r, which
    must be one power of w, and no matrix is formed for x or y.  When W fills
    the module, the module itself is returned; with no degree-0 layer, the
    result is the zero module.

    The result is the head exactly when the module is generated by its
    degree-0 layer and that layer is one weight of multiplicity one, as on
    every standard module and every module induced from a simple one.  x
    and y must be invertible monomial matrices on the classes, as they are
    on every such head.

    With ``letters=False`` a proper head is built with x, y and its degrees
    and no letters (:func:`_on_positions`), for a caller that reads only
    those and its graded character: the letters' columns are not read by
    the pairing, and no check is skipped, since none is made there.  The
    module itself, when returned, keeps its letters.

    Raises:
        AssertionError: if the module was built without its letters.
    """
    span = _head_span(module)
    if len(span.pivots) == module.dim:
        return module
    field = module.ctx.field
    # column t of the pairing holds each row's entry at t, in the row's new position
    pairing = _from_rows(field, enumerate(span.rows), module.dim)
    stand_ins = [{p: field.one} for p in span.pivots]
    return _on_positions(module, span.pivots, stand_ins, pairing.apply, "head", letters)


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
    lowering letter likewise, swapping its sign on reflection-degree vectors.
    Both kinds are built by one loop: column ``(ja, jb)`` is the left letter's
    column ja tensored with e_jb, plus ``w^e e_ia`` tensored with column jb
    of a right letter.  For a raising letter, ia and e are column ja of
    y^(sign i) and the right letter has the same sign; for a lowering letter,
    ia is ja, e is ``sign a k`` and the right letter has the same sign on a
    rotation degree y^a, while on a reflection degree e is ``-sign a k`` and
    the sign is the opposite.  The construction is guarded: the defining
    relations are re-checked on the result and any failure raises instead of
    being patched over.
    """
    left.require_letters()
    right.require_letters()
    if left.index_set != right.index_set:
        raise ValueError("tensor factors must share one index set")
    field = ctx.field
    dim_r = right.dim
    dim = left.dim * dim_r

    group = tensor_dd(left, right)
    v_mats: dict[tuple[int, int], CycMatrix] = {}
    a_mats: dict[tuple[int, int], CycMatrix] = {}
    for raising, mats, built in ((True, left.v_mats, v_mats), (False, left.a_mats, a_mats)):
        for (pos, sign), mat in mats.items():
            i, k = left.index_set.pairs[pos]
            # per left column ja: the row ia, exponent e and right letter of the term w^e e_ia (x) letter
            if raising:
                turn = y_power(left, sign * i)
                partner = right.v_mats[(pos, sign)].sparse_columns()
                terms = [(ia, e, partner) for ia, e in zip(turn.rows, turn.exps)]
            else:
                same = right.a_mats[(pos, sign)].sparse_columns()
                opposite = right.a_mats[(pos, -sign)].sparse_columns()
                terms = []
                for ja, g in enumerate(left.gdeg):
                    refl, a = divmod(g, ctx.m)
                    terms.append((ja, sign * a * k, same) if refl == 0 else (ja, -sign * a * k, opposite))
            cols = []
            for own, (ia, e, partner) in zip(mat.sparse_columns(), terms):
                scale = field.zeta(e)
                for jb in range(dim_r):
                    col: VecDict = {}
                    for ra, val in own.items():
                        add_into(col, ra * dim_r + jb, val)
                    for ib, val in partner[jb].items():
                        add_into(col, ia * dim_r + ib, scale * val)
                    cols.append(col)
            built[(pos, sign)] = CycMatrix(field, cols, dim)
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

