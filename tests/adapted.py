"""Submodules and quotients in a basis adapted to the group action, for the tests.

``qdouble.subspace_as_module`` and ``qdouble.quotient`` build a module only
where x and y are invertible monomial matrices on the reduced rows or on
the classes of the kept positions, as on every socle and head, and raise
otherwise.  The tests also take submodules generated by kernels above the
lowest degree and subquotients of modules they make, on which x or y need
not be monomial.  This builds those: :func:`reference_on_positions` reads
each generator on the vectors that stand for the kept positions, and
:func:`as_module` turns that into a module, changing to the basis of
:func:`adapted_basis` where x or y is not monomial there.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Sequence

from dihedral_doubles.cyclotomic import CycMatrix, EchelonBasis, UnitMonomial, VecDict, _rref, add_into
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.weights import QDModule
from matrices import without_zeros


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
        x_mat=restrict(module.x_mat.matrix()),
        y_mat=restrict(module.y_mat.matrix()),
        v_mats={key: restrict(mat) for key, mat in module.v_mats.items()},
        a_mats={key: restrict(mat) for key, mat in module.a_mats.items()},
        kind=kind,
    )


def reference_submodule(module, space: EchelonBasis, kind: str):
    """The submodule on the pivots of the reduced rows, every generator applied to every row."""

    def images(mat):
        out = [mat.apply(row) for row in space.rows]
        assert not any(space.reduce(image) for image in out), "subspace is not stable under a generator"
        return out

    return reference_on_positions(module, space.pivots, images, kind)


def reference_quotient(module, space: EchelonBasis, kind: str):
    """The quotient on the positions that are not pivots, every class read off the reduction of its image."""
    kept = [i for i in range(module.dim) if i not in space.pivots]
    one = module.ctx.field.one

    def images(mat):
        return [space.reduce(mat.apply({j: one})) for j in kept]

    return reference_on_positions(module, kept, images, kind)


def needs_adapted_basis(reference) -> bool:
    """Whether x or y is not an invertible monomial matrix on the reference's vectors."""
    return None in (UnitMonomial.from_matrix(reference.x_mat), UnitMonomial.from_matrix(reference.y_mat))


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
    group = [UnitMonomial.from_matrix(x_mat), UnitMonomial.from_matrix(y_mat)]
    letters = [reference.v_mats, reference.a_mats]
    if None in group:
        basis = adapted_basis(module.ctx, reference.zdeg, reference.gdeg, x_mat, y_mat)
        frame = _rref(field, [{**vec, dim + t: field.one} for t, vec in enumerate(basis)])
        assert frame.pivots == list(range(dim)), "the adapted vectors are not a basis"

        def rebase(mat: CycMatrix) -> CycMatrix:
            cols = [frame.reduce(mat.apply(vec)) for vec in basis]
            return CycMatrix(field, [{i - dim: -val for i, val in col.items()} for col in cols], dim)

        group = [UnitMonomial.from_matrix(rebase(x_mat)), UnitMonomial.from_matrix(rebase(y_mat))]
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
