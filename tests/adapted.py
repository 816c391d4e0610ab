"""The joint kernels, the closure under every generator, submodules and quotients in a basis adapted to the
group action, and the head by shaving, for the tests.

:func:`highest_weight_vectors` solves the joint kernel of the lowering
letters in every degree, which the package never does; the references
below that start from a joint kernel read it.
:func:`assert_rigid_tensor_matches_the_reference` holds
``theorems.verify_rigid_tensor``, which reads the span ``qdouble.head``
closes, to the degrees where that kernel is not zero.
:func:`reference_generated` spans the images of its seeds under every word
in every generator, and is the one way the tests generate a submodule.
From the lowest joint kernel it gives :func:`reference_socle`, the socle as
the abstract describes it, the submodule that the highest weight of minimum
degree generates; ``qdouble.socle``, which spans the bottom layer under the
lowering letters alone and solves no kernel, is compared with it, a second
construction and not the same one run twice.
``qdouble.subspace_as_module`` builds a submodule only where x and y are
invertible monomial matrices on its reduced rows, as on every socle, and
raises otherwise; the package builds no quotient but the head.  The tests
also take submodules generated by kernels above the lowest degree,
quotients, and subquotients of modules they make, on which x or y need not
be monomial.  This builds those: :func:`reference_on_positions` reads each
generator on the vectors that stand for the kept positions, and
:func:`as_module` turns that into a module, changing to the basis of
:func:`adapted_basis` where x or y is not monomial there.
:func:`reference_head` reaches the head from the bottom, by quotients by
the submodules that the negative-degree joint kernels generate, the
reference that ``qdouble.head``, which reads it off degree 0, is compared
with (:func:`assert_head_matches_the_reference`).
:func:`reference_recursion` runs the recursion steps of
``theorems.verify_simple`` with no reuse between modules.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Sequence

import pytest

from dihedral_doubles import theorems
from dihedral_doubles.cyclotomic import CycMatrix, EchelonBasis, VecDict, _rref, add_into
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.nichols import IndexSet
from dihedral_doubles.qdouble import (
    build_verma,
    check_relations,
    graded_character,
    head,
    induce_from_simple,
    socle,
)
from dihedral_doubles.theorems import RIGID, RecursionCheck
from dihedral_doubles.weights import QDModule, WeightLabel
from matrices import as_monomial, kernel, monomial_matrix, residual, without_zeros


def reference_generated(module: QDModule, vectors) -> EchelonBasis:
    """The smallest subspace that holds the vectors and is stable under every generator, x and y included:
    every image of every vector that grows the span is inserted, each from ``apply``."""
    gens = [monomial_matrix(g) for g in (module.x_mat, module.y_mat)]
    gens += [*module.v_mats.values(), *module.a_mats.values()]
    space = EchelonBasis(module.ctx.field)
    queue = [vec for vec in vectors if space.insert(vec)]
    while queue:
        vec = queue.pop()
        for mat in gens:
            image = mat.apply(vec)
            if space.insert(image):
                queue.append(image)
    return space


def reference_on_positions(module, kept, images, kind):
    """The generators on the vectors that stand for the kept positions, with no zero entry: a namespace,
    since x and y need not be monomial on those vectors.  ``images(mat)`` lists the image of each vector
    under a generator; read at the kept positions, it is the generator's new column."""
    new_index = {old: new for new, old in enumerate(kept)}

    def restrict(mat):
        cols = [{new_index[i]: x for i, x in image.items() if i in new_index} for image in images(mat)]
        return without_zeros(module.ctx.field, cols, len(kept))

    return SimpleNamespace(
        ctx=module.ctx,
        dim=len(kept),
        zdeg=tuple(module.zdeg[i] for i in kept),
        gdeg=tuple(module.gdeg[i] for i in kept),
        x_mat=restrict(monomial_matrix(module.x_mat)),
        y_mat=restrict(monomial_matrix(module.y_mat)),
        v_mats={key: restrict(mat) for key, mat in module.v_mats.items()},
        a_mats={key: restrict(mat) for key, mat in module.a_mats.items()},
        kind=kind,
    )


def reference_submodule(module, space: EchelonBasis, kind: str):
    """The submodule on the pivots of the reduced rows, every generator applied to every row."""
    rows = space.rows

    def images(mat):
        out = [mat.apply(row) for row in rows]
        stable = not any(residual(space.pivots, rows, image) for image in out)
        assert stable, "subspace is not stable under a generator"
        return out

    return reference_on_positions(module, space.pivots, images, kind)


def highest_weight_vectors(module: QDModule) -> dict[int, list[VecDict]]:
    """Joint kernel of the lowering letters, per integer degree.

    A mapping from each populated degree to its (possibly empty) list of
    kernel vectors, highest degree first, each degree solved once per call.
    The package solves no joint kernel: the socle, the head and the rigid
    tensor check are compared with this.
    """
    field = module.ctx.field
    columns = [mat.sparse_columns() for mat in module.a_mats.values()]
    kernels: dict[int, list[VecDict]] = {}
    for z, idxs in sorted(module.layer_indices().items(), reverse=True):
        # one equation per lowering letter and row of the degree above: the
        # letter's row restricted to the layer, in the layer's coordinates
        rows: list[VecDict] = []
        for cols in columns:
            by_row: dict[int, VecDict] = {}
            for t, j in enumerate(idxs):
                for i, val in cols[j].items():
                    by_row.setdefault(i, {})[t] = val
            rows.extend(by_row[i] for i in sorted(by_row))
        kernels[z] = [{idxs[t]: val for t, val in vec.items()} for vec in kernel(field, rows, len(idxs))]
    return kernels


def assert_rigid_tensor_matches_the_reference(
    ctx: DihedralContext,
    index_set: IndexSet,
    mu: WeightLabel,
    lam: WeightLabel,
    lift_guard: bool = False,
    replace: Callable[[QDModule], QDModule] | None = None,
) -> str | None:
    """``theorems.verify_rigid_tensor`` on L(mu) x L(lam) against the joint kernel of its product, solved per
    degree: it must raise naming the highest degree z != 0 whose joint kernel is not zero, and pass when there
    is none.  ``lift_guard`` reports mu rigid to the guard, the first |I| calls of ``classify_weight``;
    ``replace`` puts a module of its own in place of the product.  Returns the message, or None on a pass."""
    guard = [RIGID] * index_set.size if lift_guard else []
    classify, tensor = theorems.classify_weight, theorems.tensor_qd
    products = []

    def recorded(ctx, left, right):
        product = tensor(ctx, left, right)
        products.append(product if replace is None else replace(product))
        return products[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            theorems, "classify_weight", lambda ctx, label, pair: guard.pop() if guard else classify(ctx, label, pair)
        )
        patch.setattr(theorems, "tensor_qd", recorded)
        try:
            theorems.verify_rigid_tensor(ctx, index_set, mu, lam)
            outcome = None
        except AssertionError as exc:
            outcome = str(exc)
    assert not guard
    (product,) = products
    degrees = [z for z, vecs in highest_weight_vectors(product).items() if z != 0 and vecs]
    expected = f"L({mu}) x L({lam}): joint kernel vectors in degree {degrees[0]}" if degrees else None
    assert outcome == expected, (index_set, mu, lam)
    return outcome


def lowest_joint_kernel(module: QDModule) -> tuple[int, list[VecDict]]:
    """The lowest degree whose joint kernel is not zero, and that kernel, read from the every-degree mapping."""
    by_degree = highest_weight_vectors(module)
    lowest = min(z for z, vecs in by_degree.items() if vecs)
    return lowest, by_degree[lowest]


def reference_socle(module: QDModule):
    """The submodule that the lowest nonempty joint kernel generates under every generator, as the reference
    submodule on the pivots of its reduced rows."""
    return reference_submodule(module, reference_generated(module, lowest_joint_kernel(module)[1]), "socle")


def assert_socle_matches_the_reference(module: QDModule) -> QDModule:
    """``qdouble.socle``, the span of the bottom layer under the lowering letters, against
    :func:`reference_socle`: the same degrees and every generator the same matrix, and the top layer in the
    degree of the lowest joint kernel, as the abstract says.  Returns the socle."""
    lowest, vectors = lowest_joint_kernel(module)
    built = socle(module)
    reference = reference_submodule(module, reference_generated(module, vectors), "socle")
    assert max(built.zdeg) == lowest, module
    assert (built.zdeg, built.gdeg, built.kind) == (reference.zdeg, reference.gdeg, reference.kind), module
    pairs = [(monomial_matrix(built.x_mat), reference.x_mat), (monomial_matrix(built.y_mat), reference.y_mat)]
    pairs += [(mat, reference.v_mats[key]) for key, mat in built.v_mats.items()]
    pairs += [(mat, reference.a_mats[key]) for key, mat in built.a_mats.items()]
    for mat, ref in pairs:
        assert mat.sparse_columns() == ref.sparse_columns(), module
    return built


def reference_quotient(module, space: EchelonBasis, kind: str):
    """The quotient on the positions that are not pivots, every class read off the reduction of its image."""
    kept = [i for i in range(module.dim) if i not in space.pivots]
    one = module.ctx.field.one
    rows = space.rows

    def images(mat):
        return [residual(space.pivots, rows, mat.apply({j: one})) for j in kept]

    return reference_on_positions(module, kept, images, kind)


def needs_adapted_basis(reference) -> bool:
    """Whether x or y is not an invertible monomial matrix on the reference's vectors."""
    return None in (as_monomial(reference.x_mat), as_monomial(reference.y_mat))


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
            scales = [ctx.field.zeta(-j * k * (ctx.m // order)) for j in range(order)]
            images = [{} for _ in vectors]
            for scale, vecs in zip(scales, powers):
                for image, vec in zip(images, vecs):
                    for i, val in vec.items():
                        add_into(image, i, scale * val)
            out.append(_rref(ctx.field, images).rows)
    return out


def adapted_basis(
    ctx: DihedralContext, zdeg: Sequence[int], gdeg: Sequence[int], x: CycMatrix, y: CycMatrix
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
    m, n, group = ctx.m, ctx.n, ctx.group
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(zdeg, gdeg)):
        cells.setdefault(key, []).append(i)

    def turned(vec: VecDict, power: int) -> VecDict:
        for _ in range(power):
            vec = y.apply(vec)
        return vec

    filled: dict[tuple[int, int], list[VecDict]] = {}
    for (z, h), idxs in cells.items():
        if (z, h) in filled:
            continue
        refl, rot = divmod(h, m)
        spaces = [[{i: ctx.field.one} for i in idxs]]
        if refl:
            spaces = _eigenspaces(ctx, lambda vec: x.apply(turned(vec, rot)), 2, spaces)
            spaces = _eigenspaces(ctx, lambda vec: turned(vec, n), 2, spaces)
        else:
            spaces = _eigenspaces(ctx, y.apply, m, spaces)
        if not refl and rot % n == 0:
            by_k, spaces = spaces, []
            for k, space in enumerate(by_k):
                if k % n == 0:
                    spaces += _eigenspaces(ctx, x.apply, 2, [space])
                elif k < n:
                    spaces += [space, [x.apply(vec) for vec in space]]
        filled[(z, h)] = [vec for space in spaces for vec in space]
        orbit = [(z, h)]
        for key in orbit:
            for mat, t in ((x, group.x), (y, group.y)):
                image = (z, group.conjugates[t][key[1]])
                if image not in filled:
                    filled[image] = [mat.apply(vec) for vec in filled[key]]
                    orbit.append(image)
    basis: list[VecDict] = [{}] * len(zdeg)
    for key, idxs in cells.items():
        for i, vec in zip(idxs, filled[key]):
            basis[i] = vec
    return basis


def as_module(module: QDModule, reference) -> QDModule:
    """The module on the reference's positions, over ``module``'s index set and weight.

    Where x and y are invertible monomial matrices with powers of w as
    entries on the reference's vectors, its matrices are the reference's.
    Elsewhere the positions keep their degrees but stand for the vectors b_t
    of :func:`adapted_basis`.  A column is then the coordinates of an image
    over them: with each b_t extended by 1 at ``dim + t``, a vector reduced
    by the extended rows keeps minus its coordinates at ``dim + t`` alone.

    Raises:
        AssertionError: if x or y is not such a matrix on the adapted basis
            either; the message names the generator and the reference's kind.
    """
    field, dim = module.ctx.field, reference.dim
    x_mat, y_mat = reference.x_mat, reference.y_mat
    group = [as_monomial(x_mat), as_monomial(y_mat)]
    letters = [reference.v_mats, reference.a_mats]
    if None in group:
        basis = adapted_basis(module.ctx, reference.zdeg, reference.gdeg, x_mat, y_mat)
        frame = _rref(field, [{**vec, dim + t: field.one} for t, vec in enumerate(basis)])
        assert frame.pivots == list(range(dim)), "the adapted vectors are not a basis"
        rows = frame.rows

        def rebase(mat: CycMatrix) -> CycMatrix:
            cols = [residual(frame.pivots, rows, mat.apply(vec)) for vec in basis]
            return CycMatrix(field, [{i - dim: -val for i, val in col.items()} for col in cols], dim)

        group = [as_monomial(rebase(x_mat)), as_monomial(rebase(y_mat))]
        letters = [{key: rebase(mat) for key, mat in mats.items()} for mats in letters]
    for name, mat in zip("xy", group):
        assert mat is not None, f"{name} is not an invertible monomial matrix on a module of kind {reference.kind!r}"
    return QDModule(
        module.ctx,
        module.index_set,
        reference.zdeg,
        reference.gdeg,
        *group,
        *letters,
        weight=module.weight,
        kind=reference.kind,
    )


def adapted_submodule(module: QDModule, space: EchelonBasis, kind: str = "submodule") -> QDModule:
    """A generator-stable subspace as a module, in the adapted basis where x or y is not monomial on its rows."""
    return as_module(module, reference_submodule(module, space, kind))


def adapted_quotient(module: QDModule, space: EchelonBasis, kind: str = "quotient") -> QDModule:
    """The quotient by a stable subspace, in the adapted basis where x or y is not monomial on its classes."""
    return as_module(module, reference_quotient(module, space, kind))


def reference_head(module: QDModule) -> QDModule:
    """The head by shaving: the quotient by the submodule generated by every negative-degree joint kernel
    vector, taken until no such vector is left, in at most ``2 |I| + 2`` passes.

    Each quotient is the reference quotient, as :func:`as_module` builds it.
    """
    for _ in range(2 * len(module.index_set.pairs) + 2):
        negatives = [vec for z, vecs in highest_weight_vectors(module).items() if z < 0 for vec in vecs]
        if not negatives:
            return module
        module = adapted_quotient(module, reference_generated(module, negatives), "head")
    raise AssertionError("head computation did not stabilize")


def assert_head_matches_the_reference(module: QDModule) -> QDModule:
    """``qdouble.head`` against :func:`reference_head`: the same dimension and graded character, and every
    defining relation holds on it.  Returns the head."""
    built, reference = head(module), reference_head(module)
    assert built.dim == reference.dim, module
    assert graded_character(built) == graded_character(reference), module
    assert check_relations(built) == [], module
    return built


def reference_recursion(ctx: DihedralContext, index_set: IndexSet, label: WeightLabel) -> tuple[RecursionCheck, ...]:
    """The recursion steps of ``theorems.verify_simple`` with no reuse: the standard module and each smaller
    one built on its own by ``build_verma``, and at each distinct pair the smaller head and the smaller socle
    induced apart, each induced module checked for the relations, even where the smaller module is simple."""
    if index_set.size == 1:
        return ()
    verma = build_verma(ctx, index_set, label)
    head_char, socle_char = graded_character(head(verma)), graded_character(socle(verma))
    steps = []
    for pair in sorted(set(index_set.pairs)):
        small = build_verma(ctx, index_set.without(index_set.pairs.index(pair)), label)
        from_head, from_socle = (induce_from_simple(ctx, base, pair) for base in (head(small), socle(small)))
        relations_ok = not check_relations(from_head) and not check_relations(from_socle)
        head_ok = graded_character(head(from_head)) == head_char
        socle_ok = graded_character(socle(from_socle)) == socle_char
        steps.append(RecursionCheck(pair, relations_ok, head_ok, socle_ok))
    return tuple(steps)
