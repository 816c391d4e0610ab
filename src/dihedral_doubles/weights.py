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
traces on the block of one degree per class and one integer dot product per
member, with no linear solve.  The members' traces, each taken its
multiplicity times, must rebuild the block's traces exactly, and with
orthonormality that makes every inner product the integer it was read as.
Hom spaces are solved only where explicit embeddings are needed
(:func:`decompose`): the tensor splitting check, and the recheck of each
socle's bottom layer.  There the characters name the members, and one hom
space per named member plus a span check certify them.  Every module's x
and y are invertible monomial matrices, checked once when it is built, so a
hom space is walked along its two-term equations rather than eliminated
(:func:`hom_space`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .cyclotomic import CycMatrix, CycNum, VecDict, _rref
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

    x and y act as invertible monomial matrices (:func:`invertible_monomial`)
    on every module that is built: the catalog members are written so, an
    induced module lets them act on letters times base vectors as a signed
    letter swap or a scalar times their action on the base, a
    :func:`tensor_dd` takes Kronecker products and a layer keeps a block,
    and a submodule or quotient (``qdouble._on_positions``) is given a basis
    adapted to the group action wherever its reduced rows are not.  It is
    checked here, once per module, so the traces, hom spaces and tensor
    products that read x and y take one path.  The letters may have columns
    with two entries.

    Raises:
        AssertionError: if x or y is not an invertible monomial matrix; the
            message names the generator and the module's kind.

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
        for name, mat in (("x", x_mat), ("y", y_mat)):
            if not invertible_monomial(mat):
                raise AssertionError(f"{name} is not an invertible monomial matrix on a module of kind {kind!r}")

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


def invertible_monomial(mat: CycMatrix) -> bool:
    """Whether ``mat`` has a monomial view with no empty column and no two columns in one row."""
    view = mat.monomial()
    return view is not None and None not in view[0] and len(set(view[0])) == len(view[0])


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
    """Why ``mat`` fails to shift each degree by ``zshift`` and map each group degree by ``gmap``.

    Group degrees are compared as the integers ``refl * m + rot``, and
    ``gmap`` is applied once per distinct degree.  A monomial ``mat`` is read
    through its row map.
    """
    m = module.ctx.m
    codes = [g.refl * m + g.rot for g in module.gdeg]
    targets: dict[int, int] = {}
    for code, g in zip(codes, module.gdeg):
        if code not in targets:
            image = gmap(g)
            targets[code] = image.refl * m + image.rot
    zdeg = module.zdeg
    view = mat.monomial()
    if view:
        for j, i in enumerate(view[0]):
            if i is not None and (zdeg[i] != zdeg[j] + zshift or codes[i] != targets[codes[j]]):
                return f"{name} breaks the grading at column {j}"
        return None
    sparse = mat.sparse_columns()
    for j in range(module.dim):
        target_z = zdeg[j] + zshift
        target_g = targets[codes[j]]
        for i in sparse[j]:
            if zdeg[i] != target_z or codes[i] != target_g:
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
        return _two_dimensional(ctx, 0 if family == "e:rho" else n, l)
    if family == "M":
        i, k = params
        if not 1 <= i <= n - 1:
            raise ValueError(f"rotation degree out of range: {label}")
        if not 0 <= k <= m - 1:
            raise ValueError(f"rotation eigenvalue exponent out of range: {label}")
        return _two_dimensional(ctx, i, k)
    if family in ("Mx", "Mxy"):
        s, t = params
        odd = family == "Mxy"
        degrees = [group.reflection(2 * j + (1 if odd else 0)) for j in range(n)]
        labels = [f"m{j}" for j in range(n)]
        one = field.one
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


def _two_dimensional(ctx: DihedralContext, i: int, k: int) -> QDModule:
    """Degrees y^(+-i), x swapping the two vectors, y = diag(w^k, w^-k)."""
    field, group = ctx.field, ctx.group
    return group_module(
        ctx,
        [group.rotation(i), group.rotation(-i)],
        CycMatrix.from_rows(field, [[0, 1], [1, 0]]),
        CycMatrix.diagonal(field, [ctx.omega(k), ctx.omega(-k)]),
        ["m+", "m-"],
    )


def pair_module(ctx: DihedralContext, i: int, k: int) -> QDModule:
    """The two-dimensional module with degrees y^(+-i) and rotation exponents +-k.

    For 1 <= i <= n-1 this is the catalog member ``M<i>,<k>``.  For i = n both
    basis vectors sit in degree y^n: it is ``yn:rho<l>`` with l = +-k mod m in
    1..n-1, except when k = 0 or n mod m, where y is scalar and it splits into
    ``yn:chi1 + yn:chi2`` or ``yn:chi3 + yn:chi4``.  A valid pair (n, k) has k
    odd, so only (n, n) with n odd (m = 2 mod 4) splits.
    """
    if not 1 <= i <= ctx.n:
        raise ValueError(f"rotation degree out of range: {i}")
    return _two_dimensional(ctx, i, k)


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
    """The Kronecker product of two invertible monomial matrices, composed from their views."""
    (a_rows, a_vals), (b_rows, b_vals) = a.monomial(), b.monomial()
    n = b.nrows
    rows = [ia * n + ib for ia in a_rows for ib in b_rows]
    vals = [va * vb for va in a_vals for vb in b_vals]
    return CycMatrix._from_monomial(a.field, rows, vals, a.nrows * n)


def hom_space(source: QDModule, target: QDModule) -> list[CycMatrix]:
    """Basis of the homomorphisms from source to target over the double of the group.

    Only ``x_mat``, ``y_mat`` and ``gdeg`` are read, so for modules with
    letters this is the hom space between their restrictions.  A
    homomorphism F must preserve the group grading and commute with both
    group generators, ``G_T F = F G_S``; its unknowns are the entries
    ``F[r, c]`` with r and c of one degree, and the result is the exact
    kernel of that linear system, one ``target.dim x source.dim`` matrix per
    basis vector: the reduced free-column basis that elimination would read
    off the echelon form of the equations.

    x and y of every module are invertible monomial matrices (see
    :class:`QDModule`), so every equation has two terms and the kernel is
    walked with no elimination (:func:`_walked_kernel`).  The equations
    split into orbits of unknowns, each solved by one vector nonzero on all
    of its unknowns or by zero; the free column of an orbit's echelon rows
    is its largest unknown, and the walk scales the orbit's vector to 1
    there, which is the reduced free-column basis vector.

    Raises:
        AssertionError: if x or y of either module breaks the group grading.
    """
    field = source.ctx.field
    blocks = _blocks(target)
    variables = [(r, c) for c, deg in enumerate(source.gdeg) for r in blocks.get(deg, ())]
    if not variables:
        return []
    homs = []
    for vec in _walked_kernel(source, target, variables):
        cols: list[dict[int, CycNum]] = [dict() for _ in range(source.dim)]
        for idx, value in vec.items():
            r, c = variables[idx]
            cols[c][r] = value
        homs.append(CycMatrix.from_column_dicts(field, cols, target.dim))
    return homs


def _walked_kernel(source: QDModule, target: QDModule, variables: list[tuple[int, int]]) -> list[VecDict]:
    """The kernel :func:`hom_space` solves, walked along its two-term equations.

    Write ``G e_r = a_r e_t(r)`` for a generator on the target and
    ``G e_c = b_c e_s(c)`` for it on the source, read off the monomial
    views.  Entry (t(r), c) of ``G_T F = F G_S`` has two terms,
    ``a_r F[r, c] = b_c F[t(r), s(c)]``: it links unknown (r, c) to unknown
    (t(r), s(c)).  Each generator permutes the unknowns, so every unknown
    lies in one orbit of the group they generate, and following the links
    forward from one root reaches all of it.  Roots are taken in descending
    order, so each is the largest unknown of its orbit.  The orbit's values
    are propagated from 1 at its root, and every link that meets a valued
    unknown is checked as an exact equality; one failure makes the orbit's
    solution zero, and otherwise it is one line v, nonzero on every unknown
    of the orbit.

    The echelon rows of that orbit's equations are then ``e_u - (v_u /
    v_last) e_last`` for every unknown u but its largest, ``last``, so the
    reduced free-column basis vector is the solution scaled to 1 at
    ``last``, as walked; the walk lists those vectors by free column.

    Raises:
        AssertionError: if a link leaves the unknowns, which happens only
            when x or y of one of the modules breaks the group grading.
    """
    links = []
    for name, g_target, g_source in (("x", target.x_mat, source.x_mat), ("y", target.y_mat, source.y_mat)):
        t_rows, t_vals = g_target.monomial()
        s_rows, s_vals = g_source.monomial()
        links.append((name, t_rows, t_vals, s_rows, [b.inverse() for b in s_vals]))
    position = {var: pos for pos, var in enumerate(variables)}
    values: list[CycNum | None] = [None] * len(variables)
    one = source.ctx.field.one
    vectors: list[VecDict] = []
    for root in reversed(range(len(variables))):
        if values[root] is not None:
            continue
        values[root] = one
        orbit = [root]
        consistent = True
        for pos in orbit:  # grows as the walk reaches new unknowns
            r, c = variables[pos]
            value = values[pos]
            for name, t_rows, t_vals, s_rows, s_inverses in links:
                linked = position.get((t_rows[r], s_rows[c]))
                if linked is None:
                    raise AssertionError(
                        f"{name} breaks the group grading of the source (kind {source.kind!r})"
                        f" or the target (kind {target.kind!r}) of a hom space"
                    )
                image = t_vals[r] * value * s_inverses[c]
                known = values[linked]
                if known is None:
                    values[linked] = image
                    orbit.append(linked)
                elif known != image:
                    consistent = False
        if consistent:
            vectors.append({pos: values[pos] for pos in orbit})
    vectors.reverse()
    return vectors


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
    """A catalog member's character on its class, as integer weights and traces.

    ``weights[c]`` dotted with the trace vector of a module on the class
    representative g (:func:`_trace_vector`) gives coordinate c of
    ``|C(g)|`` times the multiplicity of the member in the module.
    ``trace`` is the member's own trace vector, with denominator 1.  The
    trace vector of a module is the sum of its summands' trace vectors, each
    taken its multiplicity times, which :func:`decomposition_counts` checks.
    """

    index: int
    label: WeightLabel
    dim: int
    weights: tuple[tuple[int, ...], ...]
    trace: tuple[int, ...]


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
    common denominator.  The element ``x^a y^b`` acts as ``X^a Y^b``, and X
    and Y are invertible monomial matrices (see :class:`QDModule`), so the
    traces come from the y-cycles of the block.  Y e_k is ``c_k e_s(k)``, so
    Y^b e_j is one multiple of one basis vector, read off the walk j, s(j),
    s(s(j)), ... with the running product of the c along it.  The walk stops
    when it returns to j, after L steps with product P, or after the largest
    exponent b needed; when it returns, ``Y^b e_j = P^(b div L) Y^(b mod L)
    e_j``.  So e_j adds P^(b/L) to the trace of y^b for each multiple b of
    L, and to that of x y^b the entry of X that takes Y^b e_j back to e_j,
    if there is one.  A term that is a tagged power w^e is counted by its
    exponent, and the counts become coordinates once at the end.
    """
    field = module.ctx.field
    x_rows, x_vals = module.x_mat.monomial()
    y_rows, y_vals = module.y_mat.monomial()
    one = field.one
    rotations: dict[int, list[int]] = {}  # b: the positions of the orbits of y^b
    reflections: list[tuple[int, int]] = []  # (position, b) for the orbits of x y^b
    for pos, (h, _, _) in enumerate(cls.orbits):
        if h.refl:
            reflections.append((pos, h.rot))
        else:
            rotations.setdefault(h.rot, []).append(pos)
    top = max(h.rot for h, _, _ in cls.orbits)
    values = [field.zero] * len(cls.orbits)
    # (orbit, e): the number of w^e terms; y^0 adds 1 = w^0 for every vector
    tagged = {(pos, 0): len(block) for pos in rotations.get(0, ())}

    def add(pos: int, value: CycNum) -> None:
        if value.unit is None:
            values[pos] = values[pos] + value
        else:
            key = (pos, value.unit)
            tagged[key] = tagged.get(key, 0) + 1

    for j in block:
        path, prods = [j], [one]
        cycle = None
        k, prod = j, one
        for _ in range(top):
            row = y_rows[k]
            prod = y_vals[k] * prod
            if row == j:
                cycle = prod
                break
            k = row
            path.append(k)
            prods.append(prod)
        length = len(path)
        if cycle is not None:
            power = one
            for b in range(length, top + 1, length):
                power = power * cycle
                for pos in rotations.get(b, ()):
                    add(pos, power)
        for pos, b in reflections:
            turns, t = divmod(b, length) if cycle is not None else (0, b)
            if t < length and x_rows[path[t]] == j:
                value = x_vals[path[t]] * prods[t]
                add(pos, value * cycle**turns if turns else value)
    coords = [[0] * field.degree for _ in values]
    for (pos, e), count in tagged.items():
        row = coords[pos]
        for t, c in enumerate(field.zeta(e).coords):
            if c:
                row[t] += count * c
    den = lcm(*(value.den for value in values))
    vector: list[int] = []
    for row, value in zip(coords, values):
        scale = den // value.den
        vector += [den * c + scale * v for c, v in zip(row, value.coords)]
    return vector, den


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
            members.append(_Member(index, label, module.dim, tuple(zip(*columns)), tuple(vector)))
        for member in members:
            for other in members:
                gram = [sum(map(mul, member.trace, row)) for row in other.weights]
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

    Each multiplicity is read from the rational coordinate of its inner
    product alone, one dot product per member.  The block is then certified
    at once: the members' trace vectors, each taken its multiplicity times,
    must add up to the block's trace vector exactly.  The inner product is
    linear in the traces and the catalog characters are orthonormal, so
    then every inner product equals its integer in all coordinates.

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
        members = characters[cls.rep]
        # most trace coordinates are zero: take the dot products over the others
        support = [pos for pos, c in enumerate(vector) if c]
        values = [vector[pos] for pos in support]
        rebuilt: list[int] | None = [0] * len(vector)
        for member in members:
            mult, rest = divmod(sum(map(mul, values, map(member.weights[0].__getitem__, support))), scale)
            if rest or mult < 0:
                rebuilt = None
                break
            if mult:
                found.append((member.index, member.label, mult))
                filled += mult * member.dim
                rebuilt = list(map(add, rebuilt, map((mult * den).__mul__, member.trace)))
        if rebuilt != vector:
            raise AssertionError(_inner_product_failure(ctx, members, support, values, scale))
    if filled != module.dim:
        raise AssertionError(
            f"character multiplicities of a dimension-{module.dim} module fill dimension {filled}"
        )
    found.sort()
    return [(label, mult) for _, label, mult in found]


def _inner_product_failure(
    ctx: DihedralContext, members: Sequence[_Member], support: list[int], values: list[int], scale: int
) -> str:
    """Name the first member whose inner product is not a nonnegative integer.

    Each inner product is taken in all its coordinates; only a block that
    :func:`decomposition_counts` could not certify comes here.
    """
    for member in members:
        coords = [sum(map(mul, values, map(row.__getitem__, support))) for row in member.weights]
        mult, rest = divmod(coords[0], scale)
        if rest or any(coords[1:]):
            value = CycNum(ctx.field, tuple(coords), scale)
            return f"multiplicity of {member.label} is not an integer: {value}"
        if mult < 0:
            return f"multiplicity of {member.label} is negative: {mult}"
    # unreached: the members' characters span the class functions of C(g)
    return "the traces of a block are not a sum of catalog characters"
