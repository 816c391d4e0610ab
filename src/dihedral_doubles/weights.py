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
Each context memoises these multiplicities, keyed on the group degrees and
the exact x and y of the module, so a layer, tensor piece or socle met
again is not decomposed again.

Hom spaces are solved only where explicit embeddings are needed
(:func:`decompose`): the tensor splitting check, and the recheck of each
socle's bottom layer.  There the characters name the members, and one hom
space per named member plus a span check certify them.  Every module's x
and y are invertible monomial matrices with powers of w as entries, held as
integer row maps and exponents (``cyclotomic.UnitMonomial``), so a hom
space is walked along its two-term equations rather than eliminated
(:func:`hom_space`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .cyclotomic import CycMatrix, CycNum, UnitMonomial, VecDict, _rref
from .dihedral import CHI_SIGNS, DihedralContext
from .nichols import IndexSet

_FAMILY_RANK = {"e:chi": 0, "e:rho": 1, "yn:chi": 2, "yn:rho": 3, "M": 4, "Mx": 5, "Mxy": 6}

_LABEL_PATTERNS = (
    ("e:chi", re.compile(r"e:chi([1-4])")),
    ("e:rho", re.compile(r"e:rho(\d+)")),
    ("yn:chi", re.compile(r"yn:chi([1-4])")),
    ("yn:rho", re.compile(r"yn:rho(\d+)")),
    ("Mx", re.compile(r"Mx:([01]),([01])")),
    ("Mxy", re.compile(r"Mxy:([01]),([01])")),
    ("M", re.compile(r"M(\d+),(\d+)")),
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


def _label_at(text: str, pos: int) -> tuple[WeightLabel | None, int]:
    """The label that starts at ``text[pos]`` and the position after it, or None and ``pos``."""
    for family, pattern in _LABEL_PATTERNS:
        match = pattern.match(text, pos)
        if match:
            return WeightLabel(family, tuple(int(g) for g in match.groups())), match.end()
    return None, pos


def parse_weight_label(text: str) -> WeightLabel:
    """Inverse of ``str`` on weight labels."""
    raw = text.replace(" ", "")
    label, end = _label_at(raw, 0)
    if label is None or end != len(raw):
        raise ValueError(f"malformed weight label: {text!r}")
    return label


def parse_weight_list(text: str) -> list[WeightLabel]:
    """Weight labels separated by commas, spaces or semicolons; a label may hold a comma itself."""
    labels: list[WeightLabel] = []
    pos = 0
    while pos < len(text):
        if text[pos] in ", ;":
            pos += 1
            continue
        label, end = _label_at(text, pos)
        if label is None or (end < len(text) and text[end] not in ", ;"):
            raise ValueError(f"malformed weight list at {text[pos:]!r}")
        labels.append(label)
        pos = end
    return labels


class QDModule:
    """A doubly graded module over the double, with one matrix per generator.

    A module over the double of the group alone is the module over the
    empty index set, in degree 0, with no letters (:func:`group_module`).

    x and y act as invertible monomial matrices whose every entry is a
    power of w on every module that is built, and are held so, as integer
    row maps and exponents (``cyclotomic.UnitMonomial``): the catalog
    members are written so, an induced module lets them act on letters
    times base vectors as a signed letter swap or a power of w times their
    action on the base, a :func:`tensor_dd` takes Kronecker products and a
    layer keeps a block, and a submodule or quotient
    (``qdouble._on_positions``) is built only where x and y are such
    matrices on its reduced rows or classes, and raises otherwise, which no
    socle or head does.  So the traces, hom spaces, tensor
    products, memo keys, cross terms and commutation checks that read x and
    y read integers.  The row maps are checked here, once per module.  The
    letters are :class:`~.cyclotomic.CycMatrix`: they may have columns with
    two entries, and entries that are no power of w.  The relation checks
    read their columns (``qdouble._products_equal``), and the brackets a
    row-map view of each letter that ``qdouble.check_relations`` builds.

    A module's matrices are read-only once it is built: a submodule that
    spans the whole module shares them (``qdouble.subspace_as_module``), and
    each object keeps answers read from them in its own caches, ``_layers``
    (:meth:`layer_indices`) and ``_kernels``
    (``qdouble.highest_weight_vectors``).  A module built from another's
    matrices starts with empty caches.  A basis vector has no name: its
    position, integer degree and group degree identify it.

    Raises:
        AssertionError: if the row map of x or y is not a permutation of the
            basis; the message names the generator and the module's kind.

    Attributes:
        ctx: shared dihedral context.
        index_set: the index pairs the double is built on.
        dim: the number of basis vectors, ``len(zdeg)``.
        zdeg: integer degree of each basis vector (0 on the inducing weight).
        gdeg: group degree of each basis vector, as the integer
            ``refl * m + rot`` (see ``dihedral``).
        x_mat, y_mat: the group generators x and y.
        v_mats: raising matrices, keyed by (pair position, sign).
        a_mats: lowering matrices, keyed by (pair position, sign).
        weight: label of the inducing weight, when one applies.
        kind: how the module was produced (verma, induced, quotient, ...).
    """

    def __init__(
        self,
        ctx: DihedralContext,
        index_set: IndexSet,
        zdeg: Sequence[int],
        gdeg: Sequence[int],
        x_mat: UnitMonomial,
        y_mat: UnitMonomial,
        v_mats: dict[tuple[int, int], CycMatrix],
        a_mats: dict[tuple[int, int], CycMatrix],
        weight: WeightLabel | None = None,
        kind: str = "module",
    ) -> None:
        self.ctx = ctx
        self.index_set = index_set
        self.zdeg = tuple(zdeg)
        self.gdeg = tuple(gdeg)
        self.dim = len(self.zdeg)
        self.x_mat = x_mat
        self.y_mat = y_mat
        self.v_mats = v_mats
        self.a_mats = a_mats
        self.weight = weight
        self.kind = kind
        basis = list(range(self.dim))
        for name, mat in (("x", x_mat), ("y", y_mat)):
            if sorted(mat.rows) != basis:
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
        x, y = self.x_mat.restricted(idxs), self.y_mat.restricted(idxs)
        return group_module(self.ctx, [self.gdeg[i] for i in idxs], x, y)

    def __repr__(self) -> str:
        name = str(self.weight) if self.weight else None
        return f"QDModule(kind={self.kind!r}, dim={self.dim}, index_set={str(self.index_set)!r}, weight={name!r})"


def group_module(ctx: DihedralContext, degrees: Sequence[int], x_mat: UnitMonomial, y_mat: UnitMonomial) -> QDModule:
    """A module over the double of the group: the module over the empty index set."""
    return QDModule(ctx, IndexSet(ctx.m, ()), (0,) * len(degrees), degrees, x_mat, y_mat, {}, {})


def grading_failure(
    module: QDModule, name: str, columns: Iterable[Iterable[int]], zshift: int, images: Sequence[int]
) -> str | None:
    """Why a map fails to shift each degree by ``zshift`` and send each group degree g to ``images[g]``.

    ``columns`` holds, for each column of the map, the rows of its nonzero
    entries.  ``images`` is a row of the group's tables: ``conjugates[t]``
    for the action of a group element t, ``products[h]`` for a letter that
    multiplies group degrees by h.
    """
    zdeg, gdeg = module.zdeg, module.gdeg
    for j, col in enumerate(columns):
        target_z = zdeg[j] + zshift
        target_g = images[gdeg[j]]
        for i in col:
            if zdeg[i] != target_z or gdeg[i] != target_g:
                return f"{name} breaks the grading at column {j}"
    return None


def group_relation_failures(module: QDModule) -> list[str]:
    """Check the group part of a module; list the failures.

    x and y must keep each degree and conjugate each group degree, and
    satisfy x^2 = y^m = (x y)^2 = 1 (:func:`_order_failures`).
    """
    group = module.ctx.group
    failures = []
    for name, mat, t in (("x", module.x_mat, group.x), ("y", module.y_mat, group.y)):
        failure = grading_failure(module, name, [(i,) for i in mat.rows], 0, group.conjugates[t])
        if failure:
            failures.append(failure)
    return failures + _order_failures(module.x_mat, module.y_mat, module.ctx.m)


def _order_failures(x: UnitMonomial, y: UnitMonomial, m: int) -> list[str]:
    """Which of x^2 = 1, y^m = 1 and (x y)^2 = 1 fail, read off the cycles of x, y and x y.

    No power is formed: ``UnitMonomial.order_divides`` decides each from the
    lengths and exponent sums of the cycles.
    """
    orders = (("x^2 != 1", x, 2), (f"y^{m} != 1", y, m), ("(x y)^2 != 1", x * y, 2))
    return [failure for failure, g, k in orders if not g.order_divides(k)]


def build_weight(ctx: DihedralContext, label: WeightLabel) -> QDModule:
    """Construct the simple module named by the label, with validated ranges."""
    field, group, m, n = ctx.field, ctx.group, ctx.m, ctx.n
    family, params = label.family, label.params
    # -1 is w^n
    if family in ("e:chi", "yn:chi"):
        (j,) = params
        sx, sy = CHI_SIGNS[j]
        deg = group.identity if family == "e:chi" else group.rotation(n)
        x, y = (UnitMonomial(field, [0], [0 if sign > 0 else n]) for sign in (sx, sy))
        return group_module(ctx, [deg], x, y)
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
        if odd:
            x = UnitMonomial(field, [n - 1 - j for j in range(n)], [(s + t) * n] * n)
        else:
            x = UnitMonomial(field, [-j % n for j in range(n)], [s * n] + [(s + t) * n] * (n - 1))
        y = UnitMonomial(field, [(j - 1) % n for j in range(n)], [t * n] + [0] * (n - 1))
        return group_module(ctx, degrees, x, y)
    raise ValueError(f"unknown weight family: {family!r}")


def _two_dimensional(ctx: DihedralContext, i: int, k: int) -> QDModule:
    """Degrees y^(+-i), x swapping the two vectors, y = diag(w^k, w^-k)."""
    x, y = UnitMonomial(ctx.field, [1, 0], [0, 0]), UnitMonomial(ctx.field, [0, 1], [k, -k])
    return group_module(ctx, [ctx.group.rotation(i), ctx.group.rotation(-i)], x, y)


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


def summand_text(entries: Iterable[tuple[WeightLabel, int]]) -> str:
    """A list of (member, multiplicity) as ``2*Mx:0,1 + e:chi1``: the multiplicity written when above 1."""
    return " + ".join(f"{mult}*{label}" if mult > 1 else str(label) for label, mult in entries)


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
    _same_order("tensor factors", ctx, right.ctx)
    products = ctx.group.products
    degrees = [products[ga][gb] for ga in left.gdeg for gb in right.gdeg]
    return group_module(ctx, degrees, left.x_mat.kron(right.x_mat), left.y_mat.kron(right.y_mat))


def _same_order(what: str, ctx: DihedralContext, other: DihedralContext) -> None:
    """Raise ``ValueError`` unless the two contexts have one group order."""
    if other.m != ctx.m:
        raise ValueError(f"{what} live over different group orders: m = {ctx.m} and m = {other.m}")


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
        ValueError: if the two modules live over different group orders.
        AssertionError: if x or y of either module breaks the group grading.
    """
    _same_order("source and target of a hom space", source.ctx, target.ctx)
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
        homs.append(CycMatrix(field, cols, target.dim))
    return homs


def _walked_kernel(source: QDModule, target: QDModule, variables: list[tuple[int, int]]) -> list[VecDict]:
    """The kernel :func:`hom_space` solves, walked along its two-term equations.

    Write ``G e_r = w^a_r e_t(r)`` for a generator on the target and
    ``G e_c = w^b_c e_s(c)`` for it on the source, read off their row maps
    and exponents.  Entry (t(r), c) of ``G_T F = F G_S`` has two terms,
    ``w^a_r F[r, c] = w^b_c F[t(r), s(c)]``: it links unknown (r, c) to
    unknown (t(r), s(c)).  Each generator permutes the unknowns, so every
    unknown lies in one orbit of the group they generate, and following the
    links forward from one root reaches all of it.  Roots are taken in
    descending order, so each is the largest unknown of its orbit.  The
    orbit's values are propagated from 1 = w^0 at its root, so every value
    is a power of w and is walked as its exponent, and every link that meets
    a valued unknown is checked as an equality of exponents mod m; one
    failure makes the orbit's solution zero, and otherwise it is one line
    v, nonzero on every unknown of the orbit.

    The echelon rows of that orbit's equations are then ``e_u - (v_u /
    v_last) e_last`` for every unknown u but its largest, ``last``, so the
    reduced free-column basis vector is the solution scaled to 1 at
    ``last``, as walked; the walk lists those vectors by free column.

    Raises:
        AssertionError: if a link leaves the unknowns, which happens only
            when x or y of one of the modules breaks the group grading.
    """
    links = [
        (name, g_target.rows, g_target.exps, g_source.rows, g_source.exps)
        for name, g_target, g_source in (("x", target.x_mat, source.x_mat), ("y", target.y_mat, source.y_mat))
    ]
    position = {var: pos for pos, var in enumerate(variables)}
    values: list[int | None] = [None] * len(variables)
    field = source.ctx.field
    m = field.m
    vectors: list[VecDict] = []
    for root in reversed(range(len(variables))):
        if values[root] is not None:
            continue
        values[root] = 0
        orbit = [root]
        consistent = True
        for pos in orbit:  # grows as the walk reaches new unknowns
            r, c = variables[pos]
            value = values[pos]
            for name, t_rows, t_exps, s_rows, s_exps in links:
                linked = position.get((t_rows[r], s_rows[c]))
                if linked is None:
                    raise AssertionError(
                        f"{name} breaks the group grading of the source (kind {source.kind!r})"
                        f" or the target (kind {target.kind!r}) of a hom space"
                    )
                image = (t_exps[r] + value - s_exps[c]) % m
                known = values[linked]
                if known is None:
                    values[linked] = image
                    orbit.append(linked)
                elif known != image:
                    consistent = False
        if consistent:
            vectors.append({pos: field.zeta(values[pos]) for pos in orbit})
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
        characters: dict[int, list[_Member]],
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

    rep: int
    elements: frozenset[int]
    order: int
    orbits: tuple[tuple[int, int, int], ...]


class _Member(NamedTuple):
    """A catalog member's character on its class, as integer weights and traces.

    ``weights[c]`` dotted with the trace vector of a module on the class
    representative g (:func:`_trace_vector`) gives coordinate c of
    ``|C(g)|`` times the multiplicity of the member in the module.
    ``trace`` is the member's own trace vector.  Both are built from the
    member's exponent counts (:func:`_trace_counts`) by
    :func:`_catalog_characters`; :func:`decomposition_counts` reads them
    as coordinates.  The trace vector of a module is the sum of its
    summands' trace vectors, each taken its multiplicity times, which
    :func:`decomposition_counts` checks.
    """

    index: int
    label: WeightLabel
    dim: int
    weights: tuple[tuple[int, ...], ...]
    trace: tuple[int, ...]


def _class_data(ctx: DihedralContext) -> list[_ClassData]:
    """Every conjugacy class with its centraliser orbits, built once and cached on the context."""
    cached = ctx._weight_cache.get("classes")
    if cached is not None:
        return cached
    group = ctx.group
    conjugates = group.conjugates
    classes = []
    for elements in group.conjugacy_classes():
        rep = min(elements)
        centraliser = group.centralizer(rep)
        seen: set[int] = set()
        orbits = []
        for h in centraliser:
            if h in seen:
                continue
            same = {conjugates[t][h] for t in centraliser}
            inverse = {conjugates[t][group.inverses[h]] for t in centraliser} - same
            seen |= same | inverse
            orbits.append((h, len(same), len(inverse)))
        classes.append(_ClassData(rep, elements, len(centraliser), tuple(orbits)))
    ctx._weight_cache["classes"] = classes
    return classes


def _trace_counts(module: QDModule, cls: _ClassData, block: Sequence[int]) -> dict[tuple[int, int], int]:
    """Traces of the orbit representatives on the block of basis vectors of degree g, as exponent counts.

    Returned as ``{(orbit position, e): number of w^e terms}``; the trace of
    an orbit is the sum of w^e over its counts.  The
    element ``x^a y^b`` acts as ``X^a Y^b``, and X and Y are held as row
    maps and exponents of powers of w (see :class:`QDModule`), so the traces
    come from the y-cycles of the block, walked in exponents.
    Y e_k is ``w^c_k e_s(k)``, so Y^b e_j is one power of w times one basis
    vector, read off the walk j, s(j), s(s(j)), ... with the running sum of
    the c along it.  The walk stops when it returns to j, after L steps with
    sum P, or after the largest exponent b needed; when it returns, ``Y^b
    e_j = w^(P (b div L)) Y^(b mod L) e_j``.  So e_j adds w^(P b/L) to the
    trace of y^b for each multiple b of L, and to that of x y^b the entry of
    X that takes Y^b e_j back to e_j, if there is one.  The terms are
    counted by exponent.
    """
    m = module.ctx.m
    x_rows, x_exps = module.x_mat.rows, module.x_mat.exps
    y_rows, y_exps = module.y_mat.rows, module.y_mat.exps
    rotations: dict[int, list[int]] = {}  # b: the positions of the orbits of y^b
    reflections: list[tuple[int, int]] = []  # (position, b) for the orbits of x y^b
    for pos, (h, _, _) in enumerate(cls.orbits):
        refl, b = divmod(h, m)
        if refl:
            reflections.append((pos, b))
        else:
            rotations.setdefault(b, []).append(pos)
    top = max(h % m for h, _, _ in cls.orbits)
    # (orbit, e): the number of w^e terms; y^0 adds 1 = w^0 for every vector
    counts = {(pos, 0): len(block) for pos in rotations.get(0, ())}
    for j in block:
        path, sums = [j], [0]
        closed, cycle = False, 0
        k, total = j, 0
        for _ in range(top):
            row = y_rows[k]
            total += y_exps[k]
            if row == j:
                closed, cycle = True, total
                break
            k = row
            path.append(k)
            sums.append(total)
        length = len(path)
        if closed:
            for turns, b in enumerate(range(length, top + 1, length), 1):
                for pos in rotations.get(b, ()):
                    key = (pos, turns * cycle % m)
                    counts[key] = counts.get(key, 0) + 1
        for pos, b in reflections:
            turns, t = divmod(b, length) if closed else (0, b)
            if t < length and x_rows[path[t]] == j:
                key = (pos, (x_exps[path[t]] + sums[t] + turns * cycle) % m)
                counts[key] = counts.get(key, 0) + 1
    return counts


def _trace_vector(module: QDModule, cls: _ClassData, block: Sequence[int]) -> list[int]:
    """Traces of the orbit representatives on the block, as concatenated integer coordinates.

    :func:`decomposition_counts` dots this vector with the members' weight
    rows.  The exponent counts of :func:`_trace_counts` become coordinates
    once, here.
    """
    field = module.ctx.field
    degree = field.degree
    vector = [0] * (degree * len(cls.orbits))
    for (pos, e), count in _trace_counts(module, cls, block).items():
        for t, c in enumerate(field.zeta(e).coords, pos * degree):
            if c:
                vector[t] += count * c
    return vector


def _blocks(module: QDModule) -> dict[int, list[int]]:
    """Basis indices of the module by degree."""
    blocks: dict[int, list[int]] = {}
    for j, deg in enumerate(module.gdeg):
        blocks.setdefault(deg, []).append(j)
    return blocks


def _catalog_characters(
    ctx: DihedralContext, labels: Sequence[WeightLabel], modules: dict[WeightLabel, QDModule]
) -> dict[int, list[_Member]]:
    """Character weights of every member, by class representative, checked orthonormal.

    Let t be the trace of an orbit representative h on a member S.  Over
    the orbit, a module V with trace T at h contributes
    ``same * T conj(t) + inverse * conj(T) t`` to ``|C(g)|`` times the
    multiplicity of S, so the orbit's weights pair coordinate a of T with the
    coordinates of ``same * conj(t) w^a + inverse * t w^-a``.

    All of it is read from exponent counts (:func:`_trace_counts`).  With t
    the sum of ``c_f w^f``, weight column a is the sum of
    ``c_f (same * w^(a-f) + inverse * w^(f-a))``, integers taken from one
    table of the sparse coordinates of each w^e; an orbit's rows and trace
    coordinates are made once per (counts, same, inverse) met.  The Gram
    matrix of the members of each class, the traces of one against the
    weights of the other, must be the identity: Schur orthonormality.  Each
    entry is the orbit sum above gathered as integer counts per exponent
    (``e - f`` for ``same``, ``f - e`` for ``inverse``), turned into
    coordinates and compared in every coordinate.  The entry of (T, S)
    counts the exponents of (S, T) negated: it is the conjugate entry, and
    right exactly when that one is, since the expected value is a rational
    integer.  So each unordered pair of members, a member with itself
    included, is checked once.

    Raises:
        AssertionError: if the characters are not orthonormal.
    """
    field, m = ctx.field, ctx.m
    degree = field.degree
    # the nonzero (coordinate, value) of each power w^e
    powers = [[(c, v) for c, v in enumerate(field.zeta(e).coords) if v] for e in range(m)]
    # (counts, same, inverse): an orbit's weight rows and trace coordinates
    orbit_parts: dict[tuple, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {}

    def orbit_part(
        counts: tuple[tuple[int, int], ...], same: int, inverse: int
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        part = orbit_parts.get((counts, same, inverse))
        if part is None:
            rows = [[0] * degree for _ in range(degree)]
            trace = [0] * degree
            for f, count in counts:
                for c, v in powers[f]:
                    trace[c] += count * v
                for a in range(degree):
                    for c, v in powers[(a - f) % m]:
                        rows[c][a] += same * count * v
                    for c, v in powers[(f - a) % m]:
                        rows[c][a] += inverse * count * v
            part = orbit_parts[counts, same, inverse] = (tuple(map(tuple, rows)), tuple(trace))
        return part

    characters: dict[int, list[_Member]] = {}
    for cls in _class_data(ctx):
        members: list[_Member] = []
        member_counts: list[list[tuple[tuple[int, int], ...]]] = []
        for index, label in enumerate(labels):
            module = modules[label]
            support = frozenset(module.gdeg)
            if not support & cls.elements:
                continue
            if not support <= cls.elements:
                raise AssertionError(f"{label} has degrees in more than one conjugacy class")
            block = _blocks(module).get(cls.rep)
            if block is None:
                raise AssertionError(f"{label} has no basis vector in degree {ctx.group.name(cls.rep)}")
            by_orbit: list[list[tuple[int, int]]] = [[] for _ in cls.orbits]
            for (pos, e), count in sorted(_trace_counts(module, cls, block).items()):
                by_orbit[pos].append((e, count))
            counts = list(map(tuple, by_orbit))
            parts = [orbit_part(terms, same, inverse) for terms, (_, same, inverse) in zip(counts, cls.orbits)]
            rows = tuple(map(tuple, map(chain.from_iterable, zip(*(orbit_rows for orbit_rows, _ in parts)))))
            trace = tuple(chain.from_iterable(orbit_trace for _, orbit_trace in parts))
            members.append(_Member(index, label, module.dim, rows, trace))
            member_counts.append(counts)
        for idx, (member, counts) in enumerate(zip(members, member_counts)):
            # (other, member) would give the conjugate entry: one check per unordered pair
            for other, other_counts in zip(members[idx:], member_counts[idx:]):
                # the pair's inner product as integer counts of each power of w
                exponents = [0] * m
                for (_, same, inverse), terms, other_terms in zip(cls.orbits, counts, other_counts):
                    for e, count in terms:
                        for f, other_count in other_terms:
                            product = count * other_count
                            exponents[(e - f) % m] += same * product
                            exponents[(f - e) % m] += inverse * product
                gram = [0] * degree
                for e, count in enumerate(exponents):
                    for c, v in powers[e] if count else ():
                        gram[c] += count * v
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
        ValueError: if the module lives over another group order than ctx.
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


# the size at which a context's memo of decomposition_counts is cleared
_COUNTS_LIMIT = 4096


def decomposition_counts(ctx: DihedralContext, module: QDModule) -> list[tuple[WeightLabel, int]]:
    """Multiplicity of each catalog member in the module, in catalog order.

    Only ``x_mat``, ``y_mat`` and ``gdeg`` are read: these are the
    multiplicities in the restriction to the double of the group.  x and y
    are held as row maps and exponents of powers of w (see
    :class:`QDModule`), so the traces are integer coordinate vectors
    (:func:`_trace_vector`).  A simple
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

    The answers are memoised per context, in ``ctx._weight_cache["counts"]``,
    keyed on everything the computation reads besides the context's own
    catalog: the group degrees, and x and y, whose equality and hash read
    their row maps and exponents.  Two modules with one key have the same
    blocks and the same traces, so a memoised answer is the one recomputing
    would give; a module that differs from a memoised one in a single entry
    of x misses the memo.  A module that raises is not stored, and every call
    returns a fresh list.  The memo is cleared when it holds
    ``_COUNTS_LIMIT`` (4,096) entries, so it never grows past that; a full
    singleton sweep at m = 16 leaves about 2,000.

    Raises:
        ValueError: if the module lives over another group order than ctx.
        AssertionError: if a multiplicity is not a nonnegative integer, or
            the multiplicities times the member dimensions do not add up to
            the dimension of the module.
    """
    _same_order("the context and the module", ctx, module.ctx)
    memo = ctx._weight_cache.setdefault("counts", {})
    key = (module.gdeg, module.x_mat, module.y_mat)
    known = memo.get(key)
    if known is not None:
        return list(known)
    characters = weight_catalog(ctx).characters
    found: list[tuple[int, WeightLabel, int]] = []
    filled = 0
    blocks = _blocks(module)
    for cls in _class_data(ctx):
        block = blocks.get(cls.rep)
        if block is None:
            continue
        vector = _trace_vector(module, cls, block)
        members = characters[cls.rep]
        # most trace coordinates are zero: take the dot products over the others
        support = [pos for pos, c in enumerate(vector) if c]
        values = [vector[pos] for pos in support]
        rebuilt: list[int] | None = [0] * len(vector)
        for member in members:
            mult, rest = divmod(sum(map(mul, values, map(member.weights[0].__getitem__, support))), cls.order)
            if rest or mult < 0:
                rebuilt = None
                break
            if mult:
                found.append((member.index, member.label, mult))
                filled += mult * member.dim
                rebuilt = list(map(add, rebuilt, map(mult.__mul__, member.trace)))
        if rebuilt != vector:
            raise AssertionError(_inner_product_failure(ctx, members, support, values, cls.order))
    if filled != module.dim:
        raise AssertionError(
            f"character multiplicities of a dimension-{module.dim} module fill dimension {filled}"
        )
    found.sort()
    counts = [(label, mult) for _, label, mult in found]
    if len(memo) >= _COUNTS_LIMIT:
        memo.clear()
    memo[key] = tuple(counts)
    return counts


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
            value = CycNum._normalized(ctx.field, coords, scale)
            return f"multiplicity of {member.label} is not an integer: {value}"
        if mult < 0:
            return f"multiplicity of {member.label} is negative: {mult}"
    # unreached: the members' characters span the class functions of C(g)
    return "the traces of a block are not a sum of catalog characters"
