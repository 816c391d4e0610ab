"""The one module type, and the simple modules of the double of the group.

:class:`QDModule` stores a module over a double as an exact matrix per
generator, with an integer degree and a group degree per basis vector.  A
module over the Drinfeld double of the dihedral group itself is the module
over the empty index set, in degree 0, with no letters
(:func:`group_module`): a group-graded vector space with a compatible group
action.  The grading records the coaction by group-likes, and compatibility
means the action of g maps the degree-h component into the degree-``g h
g^-1`` one; :func:`group_relation_failures` checks this part of any module.
Hom spaces, decompositions, multiplicities and :func:`tensor_dd` read only
x, y and the group degrees, so they act on the restriction to the double of
the group.

Simple modules fall into seven families, labelled by a conjugacy class and an
irreducible character of its centralizer:

* ``e:chi1`` .. ``e:chi4``    - dimension 1, degree e;
* ``e:rho<l>``                - dimension 2, degree e, rotation eigenvalues w^(+-l);
* ``yn:chi1`` .. ``yn:chi4``  - dimension 1, degree y^n (n = m/2);
* ``yn:rho<l>``               - dimension 2, degree y^n;
* ``M<i>,<k>``                - dimension 2, degrees y^(+-i), 1 <= i <= n-1;
* ``Mx:<s>,<t>``              - dimension n, degrees on the even reflections;
* ``Mxy:<s>,<t>``             - dimension n, degrees on the odd reflections.

The catalog of all of them is complete: the sum of squared dimensions equals
the dimension (2m)^2 of the double, every member has a one-dimensional
endomorphism algebra, and distinct members admit no nonzero homomorphism.
When the catalog is built, the dimension count is checked directly and the
other two facts through Schur orthonormality of the members' characters on
the centralisers of the class representatives.

Multiplicities come from those characters (:func:`decomposition_counts`):
traces on the block of one degree per class and integer dot products, with
no linear solve.  Hom spaces are solved only where explicit embeddings are
needed (:func:`decompose`): the tensor splitting check, and the recheck of
each socle's bottom layer.  There the characters name the members, and one
hom space per named member plus a span check certify them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from math import lcm
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .cyclotomic import CycMatrix, CycNum, VecDict, _rref, add_into, kernel
from .dihedral import CHI_SIGNS, DihedralContext, GroupElement
from .nichols import IndexSet

_FAMILY_RANK = {"e:chi": 0, "e:rho": 1, "yn:chi": 2, "yn:rho": 3, "M": 4, "Mx": 5, "Mxy": 6}

_LABEL_PATTERNS = (
    ("e:chi", re.compile(r"e:chi([1-4])\Z")),
    ("e:rho", re.compile(r"e:rho(\d+)\Z")),
    ("yn:chi", re.compile(r"yn:chi([1-4])\Z")),
    ("yn:rho", re.compile(r"yn:rho(\d+)\Z")),
    ("Mx", re.compile(r"Mx:([01]),([01])\Z")),
    ("Mxy", re.compile(r"Mxy:([01]),([01])\Z")),
    ("M", re.compile(r"M(\d+),(\d+)\Z")),
)


@dataclass(frozen=True)
class WeightLabel:
    """Symbolic name of one simple module over the double of the group."""

    family: str
    params: tuple[int, ...]

    @classmethod
    def e_chi(cls, j: int) -> WeightLabel:
        return cls("e:chi", (j,))

    @classmethod
    def e_rho(cls, l: int) -> WeightLabel:
        return cls("e:rho", (l,))

    @classmethod
    def yn_chi(cls, j: int) -> WeightLabel:
        return cls("yn:chi", (j,))

    @classmethod
    def yn_rho(cls, l: int) -> WeightLabel:
        return cls("yn:rho", (l,))

    @classmethod
    def rotation_pair(cls, i: int, k: int) -> WeightLabel:
        return cls("M", (i, k))

    @classmethod
    def even_reflection(cls, s: int, t: int) -> WeightLabel:
        return cls("Mx", (s % 2, t % 2))

    @classmethod
    def odd_reflection(cls, s: int, t: int) -> WeightLabel:
        return cls("Mxy", (s % 2, t % 2))

    @property
    def is_reflection_type(self) -> bool:
        return self.family in ("Mx", "Mxy")

    def dimension(self, n: int) -> int:
        if self.family in ("e:chi", "yn:chi"):
            return 1
        if self.family in ("e:rho", "yn:rho", "M"):
            return 2
        return n

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (_FAMILY_RANK[self.family], self.params)

    def __str__(self) -> str:
        if self.family in ("e:chi", "e:rho", "yn:chi", "yn:rho"):
            return f"{self.family}{self.params[0]}"
        if self.family == "M":
            return f"M{self.params[0]},{self.params[1]}"
        return f"{self.family}:{self.params[0]},{self.params[1]}"

    def __repr__(self) -> str:
        return f"WeightLabel({str(self)!r})"


def parse_weight_label(text: str) -> WeightLabel:
    """Inverse of ``str`` on weight labels."""
    raw = text.replace(" ", "")
    for family, pattern in _LABEL_PATTERNS:
        match = pattern.match(raw)
        if match:
            return WeightLabel(family, tuple(int(g) for g in match.groups()))
    raise ValueError(f"malformed weight label: {text!r}")


class QDModule:
    """A doubly graded module over the double, with one matrix per generator.

    A module over the double of the group alone is the module over the
    empty index set, in degree 0, with no letters (:func:`group_module`).

    Attributes:
        ctx: shared dihedral context.
        index_set: the index pairs the double is built on.
        zdeg: integer degree of each basis vector (0 on the inducing weight).
        gdeg: group degree of each basis vector.
        x_mat, y_mat: group generator matrices.
        v_mats: raising matrices, keyed by (pair position, sign).
        a_mats: lowering matrices, keyed by (pair position, sign).
        weight: label of the inducing weight, when one applies.
        kind: how the module was produced (verma, induced, quotient, ...).
    """

    def __init__(
        self,
        ctx: DihedralContext,
        index_set: IndexSet,
        basis_labels: Sequence[str],
        zdeg: Sequence[int],
        gdeg: Sequence[GroupElement],
        x_mat: CycMatrix,
        y_mat: CycMatrix,
        v_mats: dict[tuple[int, int], CycMatrix],
        a_mats: dict[tuple[int, int], CycMatrix],
        weight: WeightLabel | None = None,
        kind: str = "module",
    ) -> None:
        self.ctx = ctx
        self.index_set = index_set
        self.basis_labels = tuple(basis_labels)
        self.zdeg = tuple(zdeg)
        self.gdeg = tuple(gdeg)
        self.dim = len(self.basis_labels)
        self.x_mat = x_mat
        self.y_mat = y_mat
        self.v_mats = v_mats
        self.a_mats = a_mats
        self.weight = weight
        self.kind = kind

    def layer_indices(self) -> dict[int, list[int]]:
        cached = self.__dict__.get("_layers")
        if cached is None:
            cached = {}
            for idx, z in enumerate(self.zdeg):
                cached.setdefault(z, []).append(idx)
            self.__dict__["_layers"] = cached
        return cached

    def layer_module(self, z: int) -> QDModule:
        """The degree-z layer as a module over the double of the group alone."""
        idxs = self.layer_indices().get(z, [])
        return group_module(
            self.ctx,
            [self.gdeg[i] for i in idxs],
            self.x_mat.submatrix(idxs, idxs),
            self.y_mat.submatrix(idxs, idxs),
            [self.basis_labels[i] for i in idxs],
        )

    def __repr__(self) -> str:
        name = str(self.weight) if self.weight else None
        return f"QDModule(kind={self.kind!r}, dim={self.dim}, index_set={str(self.index_set)!r}, weight={name!r})"


def group_module(
    ctx: DihedralContext,
    degrees: Sequence[GroupElement],
    x_mat: CycMatrix,
    y_mat: CycMatrix,
    labels: Sequence[str],
) -> QDModule:
    """A module over the double of the group: the module over the empty index set."""
    return QDModule(ctx, IndexSet(ctx.m, ()), labels, (0,) * len(degrees), degrees, x_mat, y_mat, {}, {})


def grading_failure(
    module: QDModule, name: str, mat: CycMatrix, zshift: int, gmap: Callable[[GroupElement], GroupElement]
) -> str | None:
    """Why ``mat`` fails to shift each degree by ``zshift`` and map each group degree by ``gmap``."""
    sparse = mat.sparse_columns()
    targets = {g: gmap(g) for g in set(module.gdeg)}
    for j in range(module.dim):
        target_z = module.zdeg[j] + zshift
        target_g = targets[module.gdeg[j]]
        for i in sparse[j]:
            if module.zdeg[i] != target_z or module.gdeg[i] != target_g:
                return f"{name} breaks the grading at column {j}"
    return None


def _power(mat: CycMatrix, exponent: int) -> CycMatrix:
    """``mat`` to a positive power by square-and-multiply."""
    result = None
    while True:
        if exponent & 1:
            result = mat if result is None else result * mat
        exponent >>= 1
        if not exponent:
            return result
        mat = mat * mat


def group_relation_failures(module: QDModule) -> list[str]:
    """Check the group part of a module; list the failures.

    x and y must keep each degree and conjugate each group degree, and
    satisfy x^2 = y^m = (x y)^2 = 1.  y^m is formed by square-and-multiply,
    about 2 log2(m) products, and kept nowhere: catalog modules hold no
    cache of y powers.
    """
    ctx = module.ctx
    group = ctx.group
    failures = []
    for name, mat, t in (("x", module.x_mat, group.x), ("y", module.y_mat, group.y)):
        failure = grading_failure(module, name, mat, 0, lambda g: g.conjugated_by(t))
        if failure:
            failures.append(failure)
    x, y = module.x_mat, module.y_mat
    ident = CycMatrix.identity(ctx.field, module.dim)
    if x * x != ident:
        failures.append("x^2 != 1")
    if _power(y, ctx.m) != ident:
        failures.append(f"y^{ctx.m} != 1")
    xy = x * y
    if xy * xy != ident:
        failures.append("(x y)^2 != 1")
    return failures


def build_weight(ctx: DihedralContext, label: WeightLabel) -> QDModule:
    """Construct the simple module named by the label, with validated ranges."""
    field, group, m, n = ctx.field, ctx.group, ctx.m, ctx.n
    family, params = label.family, label.params
    if family in ("e:chi", "yn:chi"):
        (j,) = params
        sx, sy = CHI_SIGNS[j]
        deg = group.identity if family == "e:chi" else group.rotation(n)
        one = field.from_integer
        return group_module(
            ctx, [deg], CycMatrix.from_rows(field, [[one(sx)]]), CycMatrix.from_rows(field, [[one(sy)]]), ["m"]
        )
    if family in ("e:rho", "yn:rho"):
        (l,) = params
        if not 1 <= l <= n - 1:
            raise ValueError(f"rotation character index out of range: {label}")
        deg = group.identity if family == "e:rho" else group.rotation(n)
        return group_module(
            ctx,
            [deg, deg],
            _swap_matrix(field),
            CycMatrix.diagonal(field, [ctx.omega(l), ctx.omega(-l)]),
            ["m+", "m-"],
        )
    if family == "M":
        i, k = params
        if not 1 <= i <= n - 1:
            raise ValueError(f"rotation degree out of range: {label}")
        if not 0 <= k <= m - 1:
            raise ValueError(f"rotation eigenvalue exponent out of range: {label}")
        return group_module(
            ctx,
            [group.rotation(i), group.rotation(-i)],
            _swap_matrix(field),
            CycMatrix.diagonal(field, [ctx.omega(k), ctx.omega(-k)]),
            ["m+", "m-"],
        )
    if family in ("Mx", "Mxy"):
        s, t = params
        odd = family == "Mxy"
        degrees = [group.reflection(2 * j + (1 if odd else 0)) for j in range(n)]
        labels = [f"m{j}" for j in range(n)]
        zero, one = field.zero, field.one
        xcols: list[dict[int, CycNum]] = []
        for j in range(n):
            if odd:
                xcols.append({n - 1 - j: field.from_integer((-1) ** (s + t))})
            elif j == 0:
                xcols.append({0: field.from_integer((-1) ** s)})
            else:
                xcols.append({n - j: field.from_integer((-1) ** (s + t))})
        ycols: list[dict[int, CycNum]] = []
        for j in range(n):
            if j == 0:
                ycols.append({n - 1: field.from_integer((-1) ** t)})
            else:
                ycols.append({j - 1: one})
        return group_module(
            ctx,
            degrees,
            CycMatrix.from_column_dicts(field, xcols, n),
            CycMatrix.from_column_dicts(field, ycols, n),
            labels,
        )
    raise ValueError(f"unknown weight family: {family!r}")


def _swap_matrix(field) -> CycMatrix:
    return CycMatrix.from_rows(field, [[0, 1], [1, 0]])


def pair_module(ctx: DihedralContext, i: int, k: int) -> QDModule:
    """The two-dimensional module with degrees y^(+-i) and rotation exponents +-k.

    For 1 <= i <= n-1 this is the catalog member ``M<i>,<k>``; for i = n both
    basis vectors sit in degree y^n and the module is isomorphic to a
    ``yn:rho`` member (see :func:`pair_weight_label`).
    """
    if not 1 <= i <= ctx.n:
        raise ValueError(f"rotation degree out of range: {i}")
    if i < ctx.n:
        return build_weight(ctx, WeightLabel.rotation_pair(i, k % ctx.m))
    field, group = ctx.field, ctx.group
    deg = group.rotation(ctx.n)
    return group_module(
        ctx,
        [deg, deg],
        _swap_matrix(field),
        CycMatrix.diagonal(field, [ctx.omega(k), ctx.omega(-k)]),
        ["m+", "m-"],
    )


def pair_weight_label(ctx: DihedralContext, i: int, k: int) -> WeightLabel:
    """Catalog label of :func:`pair_module`; for i = n the exponent is folded."""
    k %= ctx.m
    if i < ctx.n:
        return WeightLabel.rotation_pair(i, k)
    return WeightLabel.yn_rho(min(k, ctx.m - k))


def class_key(ctx: DihedralContext, label: WeightLabel) -> str:
    """Conjugacy class name supporting the label: e, yn, y<i>, x or xy."""
    if label.family in ("e:chi", "e:rho"):
        return "e"
    if label.family in ("yn:chi", "yn:rho"):
        return "yn"
    if label.family == "M":
        return f"y{label.params[0]}"
    return "x" if label.family == "Mx" else "xy"


def tensor_dd(left: QDModule, right: QDModule) -> QDModule:
    """Tensor product of the restrictions of two modules to the double of the group.

    Group degrees multiply and x and y act diagonally; the result is a
    module over the empty index set.
    """
    ctx = left.ctx
    if right.ctx.m != ctx.m:
        raise ValueError("tensor factors live over different group orders")
    degrees = [ga * gb for ga in left.gdeg for gb in right.gdeg]
    labels = [f"{la}⊗{lb}" for la in left.basis_labels for lb in right.basis_labels]
    return group_module(
        ctx,
        degrees,
        _kronecker(left.x_mat, right.x_mat),
        _kronecker(left.y_mat, right.y_mat),
        labels,
    )


def _kronecker(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    field = a.field
    nrows, ncols = a.nrows * b.nrows, a.ncols * b.ncols
    cols: list[dict[int, CycNum]] = []
    a_cols, b_cols = a.sparse_columns(), b.sparse_columns()
    for ja in range(a.ncols):
        for jb in range(b.ncols):
            col: dict[int, CycNum] = {}
            for ia, va in a_cols[ja].items():
                for ib, vb in b_cols[jb].items():
                    col[ia * b.nrows + ib] = va * vb
            cols.append(col)
    return CycMatrix.from_column_dicts(field, cols, nrows)


def hom_space(source: QDModule, target: QDModule) -> list[CycMatrix]:
    """Basis of the homomorphisms from source to target over the double of the group.

    Only ``x_mat``, ``y_mat`` and ``gdeg`` are read, so for modules with
    letters this is the hom space between their restrictions.  A
    homomorphism must preserve the group grading and commute with both
    group generators; the result is the exact kernel of the corresponding
    linear system, one ``target.dim x source.dim`` matrix per basis vector.
    """
    ctx = source.ctx
    field = ctx.field
    variables = [
        (r, c)
        for c in range(source.dim)
        for r in range(target.dim)
        if target.gdeg[r] == source.gdeg[c]
    ]
    if not variables:
        return []
    # one row per equation (generator, row, column) of
    # ``g_target * hom - hom * g_source = 0``, over the variables; the two
    # diagonal terms of a variable often cancel, and add_into drops the zero
    equations: dict[tuple[int, int, int], VecDict] = {}
    for gen_id, (g_target, g_source) in enumerate(
        ((target.x_mat, source.x_mat), (target.y_mat, source.y_mat))
    ):
        t_cols = g_target.sparse_columns()
        s_rows = g_source.transpose().sparse_columns()
        for var, (r, c) in enumerate(variables):
            for i, val in t_cols[r].items():
                add_into(equations.setdefault((gen_id, i, c), {}), var, val)
            for j, val in s_rows[c].items():
                add_into(equations.setdefault((gen_id, r, j), {}), var, -val)
    homs = []
    for vec in kernel(field, equations.values(), len(variables)):
        cols: list[dict[int, CycNum]] = [dict() for _ in range(source.dim)]
        for idx, value in vec.items():
            r, c = variables[idx]
            cols[c][r] = value
        homs.append(CycMatrix.from_column_dicts(field, cols, target.dim))
    return homs


class WeightCatalog:
    """All simple modules over the double for one group order, verified complete.

    ``characters`` maps each conjugacy class representative g to the
    characters of the members on its class, in catalog order (see
    :func:`decomposition_counts`).
    """

    def __init__(
        self,
        ctx: DihedralContext,
        labels: Sequence[WeightLabel],
        modules: dict[WeightLabel, QDModule],
        characters: dict[GroupElement, list[_Member]],
    ):
        self.ctx = ctx
        self.labels = tuple(labels)
        self._modules = modules
        self.characters = characters

    def module(self, label: WeightLabel) -> QDModule:
        try:
            return self._modules[label]
        except KeyError:
            raise KeyError(f"label {label} is not in the catalog for m={self.ctx.m}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: WeightLabel) -> bool:
        return label in self._modules


def all_weight_labels(ctx: DihedralContext) -> list[WeightLabel]:
    """Every catalog label in canonical order."""
    n, m = ctx.n, ctx.m
    labels: list[WeightLabel] = []
    labels += [WeightLabel.e_chi(j) for j in range(1, 5)]
    labels += [WeightLabel.e_rho(l) for l in range(1, n)]
    labels += [WeightLabel.yn_chi(j) for j in range(1, 5)]
    labels += [WeightLabel.yn_rho(l) for l in range(1, n)]
    labels += [WeightLabel.rotation_pair(i, k) for i in range(1, n) for k in range(m)]
    labels += [WeightLabel.even_reflection(s, t) for s in (0, 1) for t in (0, 1)]
    labels += [WeightLabel.odd_reflection(s, t) for s in (0, 1) for t in (0, 1)]
    return labels


@dataclass(frozen=True)
class _ClassData:
    """One conjugacy class with what a character inner product on it needs.

    Attributes:
        rep: the representative g, the smallest class element.
        elements: the whole class.
        order: the order of the centraliser C(g).
        orbits: C(g) split into its classes merged with their inverses, as
            ``(h, same, inverse)``: the smallest element h, the number of
            elements conjugate to h, and the number conjugate to h^-1 but not
            to h.  A character takes one value on the first part and its
            complex conjugate on the second, so its value at h determines it.
    """

    rep: GroupElement
    elements: frozenset[GroupElement]
    order: int
    orbits: tuple[tuple[GroupElement, int, int], ...]


class _Member(NamedTuple):
    """A catalog member's character on its class, as integer weights.

    ``weights[c]`` dotted with the trace vector of a module on the class
    representative g (:func:`_trace_vector`) gives coordinate c of
    ``|C(g)|`` times the multiplicity of the member in the module.
    """

    index: int
    label: WeightLabel
    dim: int
    weights: tuple[tuple[int, ...], ...]


def _element_key(g: GroupElement) -> tuple[int, int]:
    return (g.refl, g.rot)


def _class_data(ctx: DihedralContext) -> list[_ClassData]:
    """Every conjugacy class with its centraliser orbits, built once and cached on the context."""
    cached = ctx._weight_cache.get("classes")
    if cached is not None:
        return cached
    group = ctx.group
    classes = []
    for elements in group.conjugacy_classes():
        rep = min(elements, key=_element_key)
        centraliser = group.centralizer(rep)
        seen: set[GroupElement] = set()
        orbits = []
        for h in sorted(centraliser, key=_element_key):
            if h in seen:
                continue
            same = {h.conjugated_by(t) for t in centraliser}
            inverse = {h.inverse().conjugated_by(t) for t in centraliser} - same
            seen |= same | inverse
            orbits.append((h, len(same), len(inverse)))
        classes.append(_ClassData(rep, elements, len(centraliser), tuple(orbits)))
    ctx._weight_cache["classes"] = classes
    return classes


def _trace_vector(module: QDModule, cls: _ClassData, block: Sequence[int]) -> tuple[list[int], int]:
    """Traces of the orbit representatives on the block of basis vectors of degree g.

    Returned as the concatenated integer coordinates of the traces over one
    common denominator.  The element ``x^a y^b`` acts as ``X^a Y^b``; the
    vectors ``Y^b e_j`` are built once per basis vector e_j of the block.
    """
    field = module.ctx.field
    by_rot: dict[int, list[GroupElement]] = {}
    for h, _, _ in cls.orbits:
        by_rot.setdefault(h.rot, []).append(h)
    top = max(by_rot)
    x_cols = module.x_mat.sparse_columns()
    traces = {h: field.zero for h, _, _ in cls.orbits}
    for j in block:
        vec: VecDict = {j: field.one}
        for b in range(top + 1):
            for h in by_rot.get(b, ()):
                if h.refl:
                    # entry j of X vec: row j of X against vec
                    for k, val in vec.items():
                        entry = x_cols[k].get(j)
                        if entry is not None:
                            traces[h] = traces[h] + entry * val
                elif j in vec:
                    traces[h] = traces[h] + vec[j]
            if b < top:
                vec = module.y_mat.apply(vec)
    values = [traces[h] for h, _, _ in cls.orbits]
    den = lcm(*(value.den for value in values))
    if den == 1:
        return list(chain.from_iterable(value.coords for value in values)), 1
    return [c * (den // value.den) for value in values for c in value.coords], den


def _blocks(module: QDModule) -> dict[GroupElement, list[int]]:
    """Basis indices of the module by degree."""
    blocks: dict[GroupElement, list[int]] = {}
    for j, deg in enumerate(module.gdeg):
        blocks.setdefault(deg, []).append(j)
    return blocks


def _catalog_characters(
    ctx: DihedralContext, labels: Sequence[WeightLabel], modules: dict[WeightLabel, QDModule]
) -> dict[GroupElement, list[_Member]]:
    """Character weights of every member, by class representative, checked orthonormal.

    Let t be the trace of an orbit representative h on a member S.  Over
    the orbit, a module V with trace T at h contributes
    ``same * T conj(t) + inverse * conj(T) t`` to ``|C(g)|`` times the
    multiplicity of S, so the orbit's weights pair coordinate a of T with the
    coordinates of ``same * conj(t) w^a + inverse * t w^-a``.  Catalog
    matrices have entries in Z[w], so the weights are integers.

    The Gram matrix of the members of each class, the traces of one against
    the weights of the other, must be the identity: Schur orthonormality.

    Raises:
        AssertionError: if a member's character is not integral, or the
            characters are not orthonormal.
    """
    field = ctx.field
    degree = field.degree
    characters: dict[GroupElement, list[_Member]] = {}
    for cls in _class_data(ctx):
        members: list[_Member] = []
        vectors: list[list[int]] = []
        for index, label in enumerate(labels):
            module = modules[label]
            support = frozenset(module.gdeg)
            if not support & cls.elements:
                continue
            if not support <= cls.elements:
                raise AssertionError(f"{label} has degrees in more than one conjugacy class")
            block = _blocks(module).get(cls.rep)
            if block is None:
                raise AssertionError(f"{label} has no basis vector in degree {cls.rep}")
            vector, den = _trace_vector(module, cls, block)
            if den != 1:
                raise AssertionError(f"the character of {label} is not integral")
            columns: list[tuple[int, ...]] = []
            for pos, (_, same, inverse) in enumerate(cls.orbits):
                trace = vector[pos * degree : (pos + 1) * degree]
                plain = field.zeta_multiples([same * c for c in field.conjugate_coords(trace)])
                flipped = field.zeta_multiples([inverse * c for c in trace])
                columns += [tuple(map(add, plain[a], flipped[-a])) for a in range(degree)]
            members.append(_Member(index, label, module.dim, tuple(zip(*columns))))
            vectors.append(vector)
        for vector, member in zip(vectors, members):
            for other in members:
                gram = [sum(map(mul, vector, row)) for row in other.weights]
                expected = [cls.order if other is member else 0] + [0] * (degree - 1)
                if gram != expected:
                    raise AssertionError(
                        f"catalog characters of {member.label} and {other.label} are not orthonormal"
                    )
        characters[cls.rep] = members
    return characters


def weight_catalog(ctx: DihedralContext) -> WeightCatalog:
    """The verified catalog for this context, built once and cached on it.

    Each member must satisfy the group relations (an ``AssertionError``
    names the member that does not) and have its degrees in one conjugacy
    class, the squared dimensions must sum to the dimension (2m)^2
    of the double, and the characters of the members on each class must be
    orthonormal, <chi_S, chi_T> = delta_ST (Schur orthonormality, checked
    exactly by :func:`_catalog_characters`).  A module on one class is
    induced from its block on the representative g, so orthonormality makes
    each member simple with a one-dimensional endomorphism algebra and
    distinct members non-isomorphic; the dimension count then leaves no
    simple module out.  These are the facts a hom-space check of every pair
    of members certifies, at the cost of one trace per centraliser orbit.
    """
    cached = ctx._weight_cache.get("catalog")
    if cached is not None:
        return cached
    labels = all_weight_labels(ctx)
    modules: dict[WeightLabel, QDModule] = {}
    for label in labels:
        module = build_weight(ctx, label)
        failures = group_relation_failures(module)
        if failures:
            raise AssertionError(f"catalog member {label} breaks the group relations: " + "; ".join(failures))
        modules[label] = module
    total = sum(mod.dim * mod.dim for mod in modules.values())
    if total != (2 * ctx.m) ** 2:
        raise AssertionError(
            f"catalog incomplete: squared dimensions sum to {total}, expected {(2 * ctx.m) ** 2}"
        )
    classes = {class_key(ctx, label) for label in labels}
    if len(classes) != ctx.n + 3:
        raise AssertionError(f"expected {ctx.n + 3} conjugacy classes, found {len(classes)}")
    catalog = WeightCatalog(ctx, labels, modules, _catalog_characters(ctx, labels, modules))
    ctx._weight_cache["catalog"] = catalog
    return catalog


def decompose(ctx: DihedralContext, module: QDModule) -> list[tuple[WeightLabel, list[CycMatrix]]]:
    """Split the restriction of a module to the double of the group into catalog members.

    Only ``x_mat``, ``y_mat`` and ``gdeg`` are read.  Returns (label,
    embeddings) pairs in catalog order; the number of embeddings is the
    multiplicity.  The characters choose the members
    (:func:`decomposition_counts`); for each one the embedding space is the
    hom space from the member, solved exactly, and its dimension must equal
    the character multiplicity.  The stacked embedding images are then
    checked to have full rank, so hom spaces plus a span check certify the
    decomposition exhaustive, and every call cross-checks the character
    path.  Use it where the embeddings are needed; the multiplicities alone
    come from :func:`decomposition_counts`.

    Raises:
        AssertionError: if a hom space disagrees with the character
            multiplicity of its member, or the members do not fill the module.
    """
    catalog = weight_catalog(ctx)
    found: list[tuple[WeightLabel, list[CycMatrix]]] = []
    remaining = module.dim
    for label, mult in decomposition_counts(ctx, module):
        candidate = catalog.module(label)
        homs = hom_space(candidate, module)
        if len(homs) != mult:
            raise AssertionError(
                f"hom space from {label} has dimension {len(homs)}, its character multiplicity is {mult}"
            )
        found.append((label, homs))
        remaining -= candidate.dim * len(homs)
    columns = [col for _, homs in found for emb in homs for col in emb.sparse_columns()]
    if remaining != 0 or len(columns) != module.dim:
        raise AssertionError(
            f"decomposition of a dimension-{module.dim} module found only {module.dim - remaining}"
        )
    if len(_rref(ctx.field, columns).pivots) != module.dim:
        raise AssertionError("decomposition embeddings do not span the module")
    return found


def decomposition_counts(ctx: DihedralContext, module: QDModule) -> list[tuple[WeightLabel, int]]:
    """Multiplicity of each catalog member in the module, in catalog order.

    Only ``x_mat``, ``y_mat`` and ``gdeg`` are read: these are the
    multiplicities in the restriction to the double of the group.  A simple
    module is a conjugacy class with an irreducible representation
    of the centraliser C(g) of its representative g, so the multiplicity of
    a member S in V is the inner product
    ``(1/|C(g)|) sum over h in C(g) of tr(h | V_g) tr(h^-1 | S_g)``,
    V_g being the basis vectors of degree g.  It takes traces and integer
    dot products only: no linear solve and no field inverse.  Members of
    multiplicity zero are left out.

    Raises:
        AssertionError: if a multiplicity is not a nonnegative integer, or
            the multiplicities times the member dimensions do not add up to
            the dimension of the module.
    """
    characters = weight_catalog(ctx).characters
    found: list[tuple[int, WeightLabel, int]] = []
    filled = 0
    blocks = _blocks(module)
    for cls in _class_data(ctx):
        block = blocks.get(cls.rep)
        if block is None:
            continue
        vector, den = _trace_vector(module, cls, block)
        scale = cls.order * den
        # most trace coordinates are zero: take the dot products over the others
        support = [pos for pos, c in enumerate(vector) if c]
        values = [vector[pos] for pos in support]
        for member in characters[cls.rep]:
            coords = [sum(map(mul, values, map(row.__getitem__, support))) for row in member.weights]
            mult, rest = divmod(coords[0], scale)
            if rest or any(coords[1:]):
                value = CycNum(ctx.field, tuple(coords), scale)
                raise AssertionError(f"multiplicity of {member.label} is not an integer: {value}")
            if mult < 0:
                raise AssertionError(f"multiplicity of {member.label} is negative: {mult}")
            if mult:
                found.append((member.index, member.label, mult))
                filled += mult * member.dim
    if filled != module.dim:
        raise AssertionError(
            f"character multiplicities of a dimension-{module.dim} module fill dimension {filled}"
        )
    found.sort()
    return [(label, mult) for _, label, mult in found]

