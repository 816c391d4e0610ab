"""Modules over the Drinfeld double of the bosonized Nichols algebra.

The double is generated by the group part (x, y and the dual group-likes,
realized here as the group grading), a raising letter pair v+, v- for every
index pair, and a lowering pair a+, a- dual to it.  A module is a
``weights.QDModule``, the one module type: an exact matrix per generator,
an integer grading (the letter count, nonpositive) and the group grading.
:func:`check_relations` checks the group part as ``weights`` does, then the
letters.  Each letter relation is an exact equality of two matrix
expressions, decided column by column on the monomial views of the
operands without building a product or a sum; an operand with no view,
such as a lowering letter with two entries in a column, has the
expression formed instead.

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
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycMatrix, CycNum, EchelonBasis, VecDict, _rref, add_into, kernel
from .dihedral import DihedralContext, GroupElement
from .nichols import (
    ExtMonomial,
    IndexSet,
    letter_insert,
    letter_pair,
    letter_sign,
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
    invertible_monomial,
    tensor_dd,
)


def y_power(module: QDModule, power: int) -> CycMatrix:
    """The matrix of y^power, cached on the module object.

    The power is taken mod m.  y^p for p >= 2 is y^ceil(p/2) y^floor(p/2),
    both cached, so a power costs one product beyond the about log2(p)
    halves it needs.  y is an invertible monomial matrix (see
    ``weights.QDModule``), so the products compose row maps and build no
    column dicts.
    """
    power %= module.ctx.m
    cache: dict[int, CycMatrix] = module.__dict__.setdefault("_ypow", {})
    mat = cache.get(power)
    if mat is None:
        if power == 0:
            mat = CycMatrix.identity(module.ctx.field, module.dim)
        elif power == 1:
            mat = module.y_mat
        else:
            mat = y_power(module, power - power // 2) * y_power(module, power // 2)
        cache[power] = mat
    return mat


def phi_action(
    ctx: DihedralContext,
    pair: tuple[int, int],
    eps: int,
    mu: int,
    module: QDModule,
) -> CycMatrix:
    """Matrix of the rank-lowering cross term for one choice of signs.

    The operator produced by commuting the lowering generator of sign eps
    past the raising generator of sign mu acts through group degrees alone:
    on a rotation-degree vector the equal-sign choices give
    ``1 - w^(+-a*k) y^(+-i)`` and the mixed ones vanish, while on a
    reflection-degree vector the equal-sign choices act as the identity and
    the mixed ones as a root-of-unity multiple of ``y^(-+i)``.  So it is
    ``[eps = mu] + y^p S`` for one power p and a diagonal S.  y, and so
    y^p, is an invertible monomial matrix, so the mixed terms are monomial,
    and the equal-sign ones are wherever y^p is diagonal on the rotation
    degrees.  Column j is built as it stands: ``[eps = mu] e_j`` plus column
    j of y^p times the entry ``-w^e`` of S that the group degree of e_j
    gives.
    """
    i, k = pair
    same = eps == mu
    one = ctx.field.one
    y_cols = y_power(module, eps * i if same else -eps * i).sparse_columns()
    # S is nonzero on the rotation degrees for equal signs and on the
    # reflection degrees for mixed ones; its entry depends on the rotation a
    scales: dict[int, CycNum] = {}
    cols: list[VecDict] = []
    for j, g in enumerate(module.gdeg):
        if (g.refl == 0) != same:
            cols.append({j: one} if same else {})
            continue
        a = g.rot
        scale = scales.get(a)
        if scale is None:
            e = eps * a * k if same else (-(a + 2 * i) * k if eps > 0 else (a - 2 * i) * k)
            scale = scales[a] = -ctx.omega(e)
        col: VecDict = {}
        for row, val in y_cols[j].items():
            col[row] = scale * val
        if same:
            add_into(col, j, one)
        cols.append(col)
    return CycMatrix(ctx.field, cols, module.dim)


def theta_action(ctx: DihedralContext, pair: tuple[int, int], module: QDModule) -> CycMatrix:
    """The degree-preserving combination of the four cross terms of one pair."""
    pp = phi_action(ctx, pair, 1, 1, module)
    mm = phi_action(ctx, pair, -1, -1, module)
    pm = phi_action(ctx, pair, 1, -1, module)
    mp = phi_action(ctx, pair, -1, 1, module)
    return pm * mp - pp * mm


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
    mask_letters = {mask: tuple(ExtMonomial(mask).letters()) for mask in masks}
    mask_names = {mask: str(ExtMonomial(mask)) for mask in masks}
    entries = [(mask, b) for mask in masks for b in range(base.dim)]
    entries.sort(
        key=lambda mb: (
            -(base.zdeg[mb[1]] - mb[0].bit_count()),
            mb[0].bit_count(),
            mask_letters[mb[0]],
            mb[1],
        )
    )
    position = {mb: idx for idx, mb in enumerate(entries)}
    dim = len(entries)
    zdeg = [base.zdeg[b] - mask.bit_count() for mask, b in entries]
    # the group degree of (mask, b), keyed by the mask's rotation exponent and b
    degree_of: dict[tuple[int, int], GroupElement] = {}
    for isum in {isum for isum, _ in mask_exponents.values()}:
        turn = ctx.group.rotation(isum)
        for b, g in enumerate(base.gdeg):
            degree_of[(isum, b)] = turn * g
    gdeg = [degree_of[(mask_exponents[mask][0], b)] for mask, b in entries]
    labels = [f"{mask_names[mask]}⊗{base.basis_labels[b]}" for mask, b in entries]

    def scatter(base_col: VecDict, target: VecDict, mask: int, scale: CycNum) -> None:
        for b2, val in base_col.items():
            add_into(target, position[(mask, b2)], val * scale)

    x_cols: list[VecDict] = [dict() for _ in range(dim)]
    y_cols: list[VecDict] = [dict() for _ in range(dim)]
    base_x = base.x_mat.sparse_columns()
    base_y = base.y_mat.sparse_columns()
    base_y_powers = {p: y_power(base, p).sparse_columns() for i, _ in new_pairs for p in (i, -i)}
    for mask, b in entries:
        j = position[(mask, b)]
        xsign, swapped = swap_letters(sub, mask)
        scatter(base_x[b], x_cols[j], swapped, field.from_integer(xsign))
        scatter(base_y[b], y_cols[j], mask, ctx.omega(mask_exponents[mask][1]))

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

    omega = ctx.omega
    alpha_memo: dict[tuple[int, int, int, int], dict[tuple[int, int], CycNum]] = {}

    def phi_on(q: int, eps: int, mu: int, mask: int, b: int) -> dict[tuple[int, int], CycNum]:
        i, k = new_pairs[q]
        isum, ksum = mask_exponents[mask]
        g = degree_of[(isum, b)]
        a = g.rot
        out: dict[tuple[int, int], CycNum] = {}

        def add_y_power(power: int, scale: CycNum) -> None:
            # y^power on (mask, b): the letters only contribute a root of unity
            total = scale * omega(power * ksum)
            for b2, val in base_y_powers[power][b].items():
                add_into(out, (mask, b2), total * val)

        if g.refl == 0:
            if eps == mu:
                out[(mask, b)] = field.one
                add_y_power(i if eps > 0 else -i, -omega(a * k if eps > 0 else -a * k))
        else:
            if eps == mu:
                out[(mask, b)] = field.one
            elif eps > 0:
                add_y_power(-i, -omega(-(a + 2 * i) * k))
            else:
                add_y_power(i, -omega((a - 2 * i) * k))
        return out

    def alpha_on(q: int, eps: int, mask: int, b: int) -> dict[tuple[int, int], CycNum]:
        if mask == 0:
            return {}
        key = (q, eps, mask, b)
        cached = alpha_memo.get(key)
        if cached is not None:
            return cached
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
        alpha_memo[key] = out
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
    return QDModule(
        ctx,
        merged,
        labels,
        zdeg,
        gdeg,
        CycMatrix(field, x_cols, dim),
        CycMatrix(field, y_cols, dim),
        v_mats,
        a_mats,
        weight=weight,
        kind=kind,
    )


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
    with each letter (``x A == A' x`` and ``y A == A (c y)``, decided by
    :func:`_products_equal`), all anticommutators among raising letters,
    among lowering letters, and the mixed ones, where the same-pair bracket
    must equal the cross-term operator of :func:`phi_action` and distinct
    pairs must anticommute (decided by :func:`_bracket_equals`).  A letter's
    bracket with itself is checked as A^2 = 0.  Each check is an exact
    equality on this module, and the failures are listed in that order.
    """
    ctx = module.ctx
    failures = group_relation_failures(module)
    pairs = module.index_set.pairs
    letters: dict[tuple[str, tuple[int, int]], CycMatrix] = {}
    # a raising letter lowers the degree by one and multiplies the group
    # degree by y^(+-i); a lowering letter does the opposite
    for kind, mats, zshift in (("v", module.v_mats, -1), ("a", module.a_mats, 1)):
        for (pos, sign), mat in mats.items():
            shift = ctx.group.rotation(-zshift * sign * pairs[pos][0])
            failure = grading_failure(module, f"{kind}({pos},{sign:+d})", mat, zshift, lambda g: shift * g)
            if failure:
                failures.append(failure)
            letters[(kind, (pos, sign))] = mat

    x, y = module.x_mat, module.y_mat
    # y * A = c A * y is checked as y * A == A * (c y), one c y per scale c
    scaled_y: dict[CycNum, CycMatrix] = {}
    for (kind, (pos, sign)), mat in letters.items():
        name = f"{kind}({pos},{sign:+d})"
        partner = letters[(kind, (pos, -sign))]
        k = pairs[pos][1]
        if not _products_equal(x, mat, partner, x):
            failures.append(f"x does not swap the sign of {name}")
        scale = ctx.omega(sign * k if kind == "v" else -sign * k)
        if scale not in scaled_y:
            scaled_y[scale] = CycMatrix(
                ctx.field, [{i: scale * val for i, val in col.items()} for col in y.sparse_columns()], module.dim
            )
        if not _products_equal(y, mat, mat, scaled_y[scale]):
            failures.append(f"y does not scale {name} as expected")

    # a letter is bracketed with itself, as the same matrix, only to check A^2 = 0
    v_keys = sorted(module.v_mats, key=lambda key: (key[0], -key[1]))
    a_keys = sorted(module.a_mats, key=lambda key: (key[0], -key[1]))
    for idx, ka in enumerate(v_keys):
        for kb in v_keys[idx:]:
            if not _bracket_equals(module.v_mats[ka], module.v_mats[kb], None):
                failures.append(f"raising letters {ka} and {kb} do not anticommute")
    for idx, ka in enumerate(a_keys):
        for kb in a_keys[idx:]:
            if not _bracket_equals(module.a_mats[ka], module.a_mats[kb], None):
                failures.append(f"lowering letters {ka} and {kb} do not anticommute")
    for ka in a_keys:
        for kb in v_keys:
            cross = phi_action(ctx, pairs[ka[0]], ka[1], kb[1], module) if ka[0] == kb[0] else None
            if not _bracket_equals(module.a_mats[ka], module.v_mats[kb], cross):
                failures.append(f"mixed bracket of a{ka} with v{kb} does not match the cross term")
    return failures


def _same_product(x: CycNum, y: CycNum, p: CycNum, q: CycNum, m: int) -> bool:
    """Whether ``x y == p q``: by exponent sums mod m where all four are tagged powers of w."""
    if x.unit is None or y.unit is None or p.unit is None or q.unit is None:
        return x * y == p * q
    return (x.unit + y.unit - p.unit - q.unit) % m == 0


def _products_equal(a: CycMatrix, b: CycMatrix, c: CycMatrix, d: CycMatrix) -> bool:
    """Whether ``a b == c d``, column by column on the monomial views.

    Column j of ``a b`` is empty or holds ``a_vals[r] b_vals[j]`` in row
    ``a_rows[r]``, for r = ``b_rows[j]``; no product matrix is built.  If
    an operand has no view, the products are formed and compared.
    """
    views = (a.monomial(), b.monomial(), c.monomial(), d.monomial())
    if not all(views):
        return a * b == c * d
    (a_rows, a_vals), (b_rows, b_vals), (c_rows, c_vals), (d_rows, d_vals) = views
    m = a.field.m
    for j, r in enumerate(b_rows):
        s = d_rows[j]
        i = None if r is None else a_rows[r]
        if i != (None if s is None else c_rows[s]):
            return False
        if i is not None and not _same_product(a_vals[r], b_vals[j], c_vals[s], d_vals[j], m):
            return False
    return True


def _bracket_equals(a: CycMatrix, b: CycMatrix, target: CycMatrix | None) -> bool:
    """Whether ``a b + b a == target``, column by column on the monomial views.

    None is the zero target.  For ``a is b`` and a zero target the check is
    ``a^2 == 0``, which holds exactly when ``2 a^2 == 0`` does.  Column j
    holds ``a b e_j`` and ``b a e_j``, at most one entry each: in one row
    they are summed, and in two rows the column has two entries and cannot
    equal a column of the monomial target.  Two entries in one row cancel
    exactly when ``x y == (-p) q``, which compares exponent sums where all
    four are tagged powers of w (see :func:`_same_product`).  If an operand
    has no view, the bracket is formed and compared.
    """
    square = a is b and target is None
    a_view, b_view = a.monomial(), b.monomial()
    t_view = None if target is None else target.monomial()
    if not (a_view and b_view and (target is None or t_view)):
        bracket = a * a if square else a * b + b * a
        return bracket.is_zero() if target is None else bracket == target
    (a_rows, a_vals), (b_rows, b_vals) = a_view, b_view
    t_rows, t_vals = t_view or ([None] * a.ncols, None)
    m = a.field.m
    one = a.field.one
    for j, t in enumerate(t_rows):
        r = b_rows[j]
        i = None if r is None else a_rows[r]
        s = None if square else a_rows[j]
        k = None if s is None else b_rows[s]
        if i is None and k is None:
            if t is not None:
                return False
        elif k is None:
            if t != i or not _same_product(a_vals[r], b_vals[j], t_vals[j], one, m):
                return False
        elif i is None:
            if t != k or not _same_product(b_vals[s], a_vals[j], t_vals[j], one, m):
                return False
        elif i != k:
            return False
        else:
            x, y, p, q = a_vals[r], b_vals[j], b_vals[s], a_vals[j]
            if t is None:
                if not _same_product(x, y, -p, q, m):
                    return False
            elif t != i or x * y + p * q != t_vals[j]:
                return False
    return True


def theta_congruence(module: QDModule) -> list[str]:
    """Check the degree-zero congruence for every pair; list the failures.

    On each degree-zero basis vector, applying the two raising letters of a
    pair and then its two lowering letters must agree with the
    degree-preserving combination computed by :func:`theta_action` from
    group data alone.
    """
    ctx = module.ctx
    failures: list[str] = []
    top = [idx for idx, z in enumerate(module.zdeg) if z == 0]
    for pos, pair in enumerate(module.index_set.pairs):
        chain = [
            module.v_mats[(pos, -1)],
            module.v_mats[(pos, 1)],
            module.a_mats[(pos, -1)],
            module.a_mats[(pos, 1)],
        ]
        theta_cols = theta_action(ctx, pair, module).sparse_columns()
        for b in top:
            vec: VecDict = {b: ctx.field.one}
            for mat in chain:
                vec = mat.apply(vec)
            if vec != theta_cols[b]:
                failures.append(f"degree-zero congruence fails for pair {pair} on {module.basis_labels[b]}")
    return failures


def highest_weight_vectors(
    module: QDModule, degree: int | None = None
) -> dict[int, list[VecDict]] | list[VecDict]:
    """Joint kernel of the lowering letters, per integer degree.

    With a degree given, returns the list of kernel vectors in that degree;
    otherwise a mapping from each populated degree to its (possibly empty)
    list, highest degree first.
    """
    if degree is None:
        return {
            z: highest_weight_vectors(module, z)
            for z in sorted(module.layer_indices(), reverse=True)
        }
    idxs = module.layer_indices().get(degree, [])
    if not idxs:
        return []
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
    return [
        {idxs[t]: val for t, val in vec.items()} for vec in kernel(module.ctx.field, rows, len(idxs))
    ]


def submodule_generated(module: QDModule, vectors: Iterable[VecDict]) -> EchelonBasis:
    """Smallest subspace containing the vectors and stable under every generator.

    Each vector must lie in one (degree, group degree) cell.  The generators
    are graded, so their images do too, and reduced rows from different
    cells share no coordinate: every row of the basis lies in one cell.
    Every image of a queued vector is inserted.  The image of a queued
    coordinate vector c e_j is c times the generator's column j, which spans
    the same line, so the column is inserted in its place, read as it
    stands: the columns are shared, and ``insert`` copies what it keeps.
    """
    space = EchelonBasis(module.ctx.field)
    queue: list[VecDict] = []
    for vec in vectors:
        if len({(module.zdeg[i], module.gdeg[i]) for i in vec}) > 1:
            raise ValueError("vector is not homogeneous for the two gradings")
        if space.insert(vec):
            queue.append(vec)
    gens = [module.x_mat, module.y_mat, *module.v_mats.values(), *module.a_mats.values()]
    columns = [mat.sparse_columns() for mat in gens]
    while queue:
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


def _eigenspaces(
    ctx: DihedralContext, act: Callable[[VecDict], VecDict], order: int, spaces: list[list[VecDict]]
) -> list[list[VecDict]]:
    """Split each space, spanned by its vectors and kept by ``act``, into the eigenspaces of ``act``.

    ``act`` has order dividing ``order`` there, so its eigenvalues are
    ``w^(k m / order)``; the one for k, k ascending, is spanned by the images
    under ``sum_j w^(-j k m / order) act^j``.  Empty eigenspaces are kept.
    """
    out = []
    for vectors in spaces:
        powers = [vectors]
        while len(powers) < order:
            powers.append([act(vec) for vec in powers[-1]])
        for k in range(order):
            scales = [ctx.omega(-j * k * (ctx.m // order)) for j in range(order)]
            images = [{} for _ in vectors]
            for scale, vecs in zip(scales, powers):
                for image, vec in zip(images, vecs):
                    for i, val in vec.items():
                        add_into(image, i, scale * val)
            out.append(_rref(ctx.field, images).rows)
    return out


def _adapted_basis(
    ctx: DihedralContext, zdeg: Sequence[int], gdeg: Sequence[GroupElement], x: CycMatrix, y: CycMatrix
) -> list[VecDict]:
    """A basis on which x and y act as invertible monomial matrices, one vector per position.

    A position gets a vector of its (degree, group degree) cell.  The cells
    of one degree whose group degrees are conjugate form an orbit.  Its
    first cell (z, h) gets a basis that the centraliser of h permutes up to
    scalars: the eigenvectors of h and y^n for a reflection h, of y for a
    rotation h other than e and y^n, and for e and y^n those of y for w^k
    with 0 < k < n, their images under x, and in the eigenspaces of y for
    1 and -1 the eigenvectors of x.  Every other cell is reached from one
    already filled by x or y, and gets the images of its vectors.  So g
    sends the vector u e of a cell, e from the first cell, to ``u' c e``
    with c in the centraliser, and c e is a multiple of one e'.
    """
    n = ctx.n
    cells: dict[tuple[int, GroupElement], list[int]] = {}
    for i, key in enumerate(zip(zdeg, gdeg)):
        cells.setdefault(key, []).append(i)

    def turned(vec: VecDict, power: int) -> VecDict:
        for _ in range(power):
            vec = y.apply(vec)
        return vec

    filled: dict[tuple[int, GroupElement], list[VecDict]] = {}
    for (z, h), idxs in cells.items():
        if (z, h) in filled:
            continue
        spaces = [[{i: ctx.field.one} for i in idxs]]
        if h.refl:
            spaces = _eigenspaces(ctx, lambda vec: x.apply(turned(vec, h.rot)), 2, spaces)
            spaces = _eigenspaces(ctx, lambda vec: turned(vec, n), 2, spaces)
        else:
            spaces = _eigenspaces(ctx, y.apply, ctx.m, spaces)
        if not h.refl and h.rot % n == 0:
            by_k, spaces = spaces, []
            for k, space in enumerate(by_k):
                if k % n == 0:
                    spaces += _eigenspaces(ctx, x.apply, 2, [space])
                elif k < n:
                    spaces += [space, [x.apply(vec) for vec in space]]
        filled[(z, h)] = [vec for space in spaces for vec in space]
        orbit = [(z, h)]
        for key in orbit:
            for mat, t in ((x, ctx.group.x), (y, ctx.group.y)):
                image = (z, key[1].conjugated_by(t))
                if image not in filled:
                    filled[image] = [mat.apply(vec) for vec in filled[key]]
                    orbit.append(image)
    basis: list[VecDict] = [{}] * len(zdeg)
    for key, idxs in cells.items():
        for i, vec in zip(idxs, filled[key]):
            basis[i] = vec
    return basis


def _on_positions(
    module: QDModule,
    kept: Sequence[int],
    images: Callable[[CycMatrix], list[VecDict]],
    labels: Sequence[str],
    kind: str,
) -> QDModule:
    """The module with one basis vector per kept position of ``module``.

    ``images(mat)`` lists, per kept position, the image under a generator of
    the vector that stands for it; read at the kept positions, it is the
    generator's new column.  The images must hold no zero entry, as those
    of ``apply`` and ``reduce`` and the columns of a matrix do not.

    Where x or y is not an invertible monomial matrix on those vectors, the
    positions keep their labels but stand for the vectors b_t of
    :func:`_adapted_basis`.  A column is then the coordinates of an image
    over them: with each b_t extended by 1 at ``dim + t``, a vector reduced
    by the extended rows keeps minus its coordinates at ``dim + t`` alone.
    """
    field, dim = module.ctx.field, len(kept)
    new_index = {old: new for new, old in enumerate(kept)}

    def restrict(mat: CycMatrix) -> CycMatrix:
        cols = [{new_index[i]: val for i, val in image.items() if i in new_index} for image in images(mat)]
        return CycMatrix(field, cols, dim)

    zdeg, gdeg = [module.zdeg[i] for i in kept], [module.gdeg[i] for i in kept]
    x_mat, y_mat = restrict(module.x_mat), restrict(module.y_mat)
    letters = [{key: restrict(mat) for key, mat in mats.items()} for mats in (module.v_mats, module.a_mats)]
    if not (invertible_monomial(x_mat) and invertible_monomial(y_mat)):
        basis = _adapted_basis(module.ctx, zdeg, gdeg, x_mat, y_mat)
        frame = _rref(field, [{**vec, dim + t: field.one} for t, vec in enumerate(basis)])
        if frame.pivots != list(range(dim)):
            raise AssertionError("the adapted vectors are not a basis")

        def rebase(mat: CycMatrix) -> CycMatrix:
            cols = [frame.reduce(mat.apply(vec)) for vec in basis]
            return CycMatrix(field, [{i - dim: -val for i, val in col.items()} for col in cols], dim)

        x_mat, y_mat = rebase(x_mat), rebase(y_mat)
        letters = [{key: rebase(mat) for key, mat in mats.items()} for mats in letters]
    return QDModule(
        module.ctx, module.index_set, labels, zdeg, gdeg, x_mat, y_mat, *letters, weight=module.weight, kind=kind
    )


def quotient(module: QDModule, space: EchelonBasis, kind: str = "quotient") -> QDModule:
    """Quotient by a stable subspace, on the positions that are not its pivots.

    Position j stands for the class of e_j, and the class of a vector is
    read off its reduction, so a generator's column at j is ``reduce(g e_j)``;
    where x or y is not an invertible monomial matrix on those classes, the
    positions stand for the vectors of an adapted basis (:func:`_on_positions`).
    """
    pivots = set(space.pivots)
    kept = [i for i in range(module.dim) if i not in pivots]

    def images(mat: CycMatrix) -> list[VecDict]:
        cols = mat.sparse_columns()
        return [space.reduce(cols[j]) for j in kept]

    return _on_positions(module, kept, images, [module.basis_labels[i] for i in kept], kind)


def subspace_as_module(module: QDModule, space: EchelonBasis, kind: str = "submodule") -> QDModule:
    """A generator-stable subspace as a module, on the pivots of its reduced rows.

    Pivot p stands for the row r_p.  A vector in the span has its
    coefficients over the rows as its entries at the pivots, so a
    generator's column at p is ``g r_p`` read at the pivots.  A row with
    one entry is e_p, and its image is the generator's column p as it
    stands.  Every image is reduced, and one that leaves the span raises.
    Where x or y is not an invertible monomial matrix on the rows, the
    pivots stand for the vectors of an adapted basis (:func:`_on_positions`).
    """

    def images(mat: CycMatrix) -> list[VecDict]:
        cols = mat.sparse_columns()
        out = [cols[p] if len(row) == 1 else mat.apply(row) for p, row in zip(space.pivots, space.rows)]
        if any(space.reduce(image) for image in out):
            raise AssertionError("subspace is not stable under a generator")
        return out

    labels = [f"[{module.basis_labels[p]}]" for p in space.pivots]
    return _on_positions(module, space.pivots, images, labels, kind)


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

    def degrees(self) -> list[int]:
        return [z for z, _ in self.layers]

    def dimension(self, n: int) -> int:
        return sum(mult * label.dimension(n) for _, entries in self.layers for label, mult in entries)

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
        lines = []
        for z, entries in self.layers:
            body = " + ".join(
                (f"{mult}*{label}" if mult > 1 else str(label)) for label, mult in entries
            )
            lines.append(f"[{z}] {body}")
        return "\n".join(lines)


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
        ya = y_power(left, sign * i).sparse_columns()
        cols = []
        for ja in range(left.dim):
            for jb in range(dim_r):
                col: VecDict = {}
                for ia, val in va[ja].items():
                    add_into(col, fuse(ia, jb), val)
                for ia, val in ya[ja].items():
                    for ib, bval in vb[jb].items():
                        add_into(col, fuse(ia, ib), val * bval)
                cols.append(col)
        v_mats[(pos, sign)] = CycMatrix.from_column_dicts(field, cols, dim)
    for (pos, sign), mat in left.a_mats.items():
        _, k = left.index_set.pairs[pos]
        aa = mat.sparse_columns()
        ab_same = right.a_mats[(pos, sign)].sparse_columns()
        ab_opp = right.a_mats[(pos, -sign)].sparse_columns()
        cols = []
        for ja in range(left.dim):
            g = left.gdeg[ja]
            if g.refl == 0:
                scale, partner = ctx.omega(sign * g.rot * k), ab_same
            else:
                scale, partner = ctx.omega(-sign * g.rot * k), ab_opp
            for jb in range(dim_r):
                col = {}
                for ia, val in aa[ja].items():
                    add_into(col, fuse(ia, jb), val)
                for ib, val in partner[jb].items():
                    add_into(col, fuse(ja, ib), scale * val)
                cols.append(col)
        a_mats[(pos, sign)] = CycMatrix.from_column_dicts(field, cols, dim)
    result = QDModule(
        ctx,
        left.index_set,
        group.basis_labels,
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

