"""The induction of every pair at once, kept as the reference for ``qdouble._induce``.

``qdouble.build_verma`` lets one pair's exterior algebra act at a time, with
its four monomials written out as tables.  This module lets the exterior
algebra on the letters of every new pair act at once, as the package did
before, so the tests can compare the two.

Monomials are bitmasks over the letters in pair-major order, the + letter
before the - letter of the same pair: bit 2p is v+ of pair p, bit 2p+1 is
v- of pair p; :func:`mask_letters` lists a mask's letters.  Products carry
the usual alternating sign, one factor -1 per crossing when merging two
sorted letter lists.

The two bases are (monomial, base vector) in different orders and with
different signs.  :func:`signed_permutation` matches them by applying
raising-letter words to base vectors in each module, and
:func:`assert_same_module` compares every matrix after the match.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterator, Sequence

from dihedral_doubles.cyclotomic import CycMatrix, CycNum, UnitMonomial, VecDict, add_into
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.nichols import IndexSet, validate_index_set
from dihedral_doubles.qdouble import build_verma, y_power
from dihedral_doubles.weights import QDModule, WeightLabel, build_weight
from matrices import monomial_matrix


def mask_letters(mask: int) -> Iterator[int]:
    """The letters of a basis monomial of the exterior algebra, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def letter_pair(letter: int) -> int:
    return letter // 2


def letter_sign(letter: int) -> int:
    """+1 for a v+ letter, -1 for a v- letter."""
    return 1 if letter % 2 == 0 else -1


def ext_multiply(left: int, right: int) -> tuple[int, int]:
    """Product of two monomial bitmasks: (sign, mask), sign 0 when it vanishes."""
    if left & right:
        return 0, 0
    crossings = 0
    rest = right
    while rest:
        low = rest & -rest
        crossings += (left >> low.bit_length()).bit_count()
        rest ^= low
    return (-1 if crossings % 2 else 1), left | right


def letter_insert(letter: int, mask: int) -> tuple[int, int]:
    """Left-multiply a mask by one letter: (sign, mask), sign 0 when it vanishes."""
    bit = 1 << letter
    if mask & bit:
        return 0, 0
    below = (mask & (bit - 1)).bit_count()
    return (-1 if below % 2 else 1), mask | bit


def swap_letters(index_set: IndexSet, mask: int) -> tuple[int, int]:
    """Exchange v+ and v- of every pair; sign is -1 per fully present pair."""
    even = sum(1 << (2 * p) for p in range(index_set.size))
    swapped = ((mask & even) << 1) | ((mask & (even << 1)) >> 1)
    full_pairs = (mask & (mask >> 1) & even).bit_count()
    return (-1 if full_pairs % 2 else 1), swapped


def rotation_exponents(index_set: IndexSet, mask: int) -> tuple[int, int]:
    """(sum of +-i_p, sum of +-k_p) over the letters of the mask."""
    isum = ksum = 0
    for letter in mask_letters(mask):
        i, k = index_set.pairs[letter_pair(letter)]
        if letter % 2 == 0:
            isum += i
            ksum += k
        else:
            isum -= i
            ksum -= k
    return isum, ksum


def nichols_basis(index_set: IndexSet, degree: int) -> list[int]:
    """Monomial masks spanning the given exterior degree, in letter-lex order."""
    nletters = 2 * index_set.size
    if not 0 <= degree <= nletters:
        return []
    return [sum(1 << b for b in combo) for combo in combinations(range(nletters), degree)]


def induce(
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
                cols.append({position[mb]: val for mb, val in alpha_on(q, sign, mask, b).items()})
            a_cols[(q, sign)] = cols

    v_mats = {(insert_pos + q, sign): CycMatrix(field, cols, dim) for (q, sign), cols in v_cols.items()}
    a_mats = {(insert_pos + q, sign): CycMatrix(field, cols, dim) for (q, sign), cols in a_cols.items()}
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


def reference_verma(ctx: DihedralContext, index_set: IndexSet, weight: WeightLabel) -> QDModule:
    """The standard module, every pair induced at once on the weight."""
    return induce(ctx, build_weight(ctx, weight), index_set.pairs, 0, index_set, weight, "verma")


def reference_induce_from_simple(ctx: DihedralContext, simple: QDModule, pair: tuple[int, int]) -> QDModule:
    """One fresh pair induced on a module, through the many-pair path."""
    old = simple.index_set
    merged = validate_index_set(ctx, old.pairs + (pair,))
    return induce(ctx, simple, (pair,), bisect_left(old.pairs, pair), merged, simple.weight, "induced")


def signed_permutation(
    left: QDModule,
    right: QDModule,
    starts: tuple[Sequence[int], Sequence[int]],
    keys: Sequence[tuple[int, int]],
) -> tuple[list[int], list[CycNum]]:
    """The signed permutation that takes right's basis to left's.

    ``starts`` lists the positions of the base vectors in each module, the
    t-th of one standing for the t-th of the other.  Each word in the
    raising letters ``keys``, each letter at most once, in the order given,
    is applied to each base vector in both modules; in each it gives a basis
    vector up to a sign.  Returns, per position j of right, the position
    ``perm[j]`` of left and the sign with ``e_j -> signs[j] e_perm[j]``.
    """
    field = left.ctx.field
    perm: list[int | None] = [None] * right.dim
    signs: list[CycNum | None] = [None] * right.dim
    for mask in range(1 << len(keys)):
        word = [key for bit, key in enumerate(keys) if mask >> bit & 1]
        for start_left, start_right in zip(*starts):
            ends = []
            for module, start in ((left, start_left), (right, start_right)):
                vec = {start: field.one}
                for key in reversed(word):
                    vec = module.v_mats[key].apply(vec)
                ((end, val),) = vec.items()
                ends.append((end, val))
            (p, sign_left), (j, sign_right) = ends
            assert perm[j] is None, "two words reach one basis vector"
            # e_j = sign_right^-1 w = sign_right^-1 sign_left e_p, and each sign is +-1
            perm[j], signs[j] = p, sign_left * sign_right
    reached = sorted(p for p in perm if p is not None)
    assert reached == list(range(left.dim)), "a basis vector is reached no time or twice"
    return perm, signs


def assert_same_module(left: QDModule, right: QDModule, perm: Sequence[int], signs: Sequence[CycNum]) -> None:
    """Every grading, x, y and letter of right is left's after ``e_j -> signs[j] e_perm[j]``."""
    assert left.dim == right.dim and left.index_set == right.index_set
    assert [left.zdeg[p] for p in perm] == list(right.zdeg)
    assert [left.gdeg[p] for p in perm] == list(right.gdeg)
    assert left.v_mats.keys() == right.v_mats.keys() and left.a_mats.keys() == right.a_mats.keys()
    pairs = [(monomial_matrix(a), monomial_matrix(b)) for a, b in ((left.x_mat, right.x_mat), (left.y_mat, right.y_mat))]
    for mats_left, mats_right in ((left.v_mats, right.v_mats), (left.a_mats, right.a_mats)):
        pairs += [(mats_left[key], mats_right[key]) for key in mats_left]
    for mat_left, mat_right in pairs:
        cols_left = mat_left.sparse_columns()
        for j, col in enumerate(mat_right.sparse_columns()):
            # G e_j = sum_r G[r, j] e_r maps to sum_r G[r, j] signs[r] e_perm[r], which is signs[j] G' e_perm[j]
            mapped = {perm[r]: val * signs[r] * signs[j] for r, val in col.items()}
            assert mapped == cols_left[perm[j]], j


def assert_standard_module_matches_the_reference(
    ctx: DihedralContext, index_set: IndexSet, label: WeightLabel
) -> None:
    """``qdouble.build_verma`` against :func:`reference_verma`, matched by words in every raising letter."""
    built, reference = build_verma(ctx, index_set, label), reference_verma(ctx, index_set, label)
    assert built.kind == reference.kind == "verma" and built.weight == reference.weight == label
    starts = (reference.layer_indices()[0], built.layer_indices()[0])
    # the letters of a word in pair-major order, v+ before v-, as the reference's masks list them
    keys = sorted(reference.v_mats, key=lambda key: (key[0], -key[1]))
    assert_same_module(reference, built, *signed_permutation(reference, built, starts, keys))
