from __future__ import annotations

from collections import Counter
from operator import add, mul
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihedral_doubles import get_context, weights
from dihedral_doubles.cyclotomic import CycMatrix, UnitMonomial, add_into, get_field
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.nichols import parse_index_set, validate_index_set, valid_pairs
from dihedral_doubles.qdouble import build_verma, head, socle, y_power
from dihedral_doubles.weights import (
    WeightLabel,
    _Member,
    _blocks,
    _catalog_characters,
    _class_data,
    _inner_product_failure,
    _orbit_counts,
    _order_failures,
    _pairing,
    _trace_counts,
    _trace_vector,
    all_weight_labels,
    build_weight,
    class_key,
    decompose,
    decomposition_counts,
    group_module,
    group_relation_failures,
    hom_space,
    pair_module,
    parse_weight_label,
    parse_weight_list,
    tensor_dd,
    weight_catalog,
)
from matrices import (
    as_monomial,
    diagonal,
    from_rows,
    has_two_entry_column,
    identity,
    kernel,
    monomial_matrix,
    times,
    unit_monomials,
    without_zeros,
)


def test_catalog_count_and_dimension_sum(ctx12, ctx16):
    cat12 = weight_catalog(ctx12)
    assert len(cat12.labels) == 86
    assert sum(lab.dimension(6) ** 2 for lab in cat12.labels) == 576
    cat16 = weight_catalog(ctx16)
    assert len(cat16.labels) == 142
    assert sum(lab.dimension(8) ** 2 for lab in cat16.labels) == 1024


@pytest.mark.parametrize("m", [12, 16])
def test_catalog_y_powers_match_repeated_products(m):
    # y^p is read off the cycles of y, and the power is taken mod m; the
    # products of y with itself are formed one factor at a time
    ctx = get_context(m)
    catalog = weight_catalog(ctx)
    for label in catalog.labels:
        module = catalog.module(label)
        product = UnitMonomial.identity(ctx.field, module.dim)
        for power in range(m):
            for shift in (-m, 0, m):
                assert y_power(module, power + shift) == product, (label, power + shift)
            product = product * module.y_mat
        assert product == UnitMonomial.identity(ctx.field, module.dim), label


def test_catalog_partition_by_central_class(ctx12):
    sizes = Counter(class_key(ctx12, label) for label in weight_catalog(ctx12).labels)
    assert sizes == {
        "e": 9,
        "yn": 9,
        "y1": 12,
        "y2": 12,
        "y3": 12,
        "y4": 12,
        "y5": 12,
        "x": 4,
        "xy": 4,
    }


def test_every_weight_satisfies_the_module_axioms(ctx12):
    for label in all_weight_labels(ctx12):
        assert group_relation_failures(build_weight(ctx12, label)) == [], label


# x^2 = y^m = (x y)^2 = 1, decided in row maps and exponents, against the products of the column dicts.


def _reference_order_failures(x, y, m):
    x, y = monomial_matrix(x), monomial_matrix(y)
    ident = identity(x.field, x.nrows)
    power = ident
    for _ in range(m):
        power = times(y, power)
    xy = times(x, y)
    checks = (("x^2 != 1", times(x, x)), (f"y^{m} != 1", power), ("(x y)^2 != 1", times(xy, xy)))
    return [message for message, product in checks if product != ident]


@st.composite
def _redrawn_exponents(draw, exponents):
    """These exponents, now and then one raised by a drawn amount."""
    exponents = list(exponents)
    if exponents and draw(st.integers(0, 3)) == 0:
        exponents[draw(st.integers(0, len(exponents) - 1))] += draw(st.integers(1, 3))
    return exponents


@st.composite
def _invertible_monomial_pairs(draw):
    """(x, y, m): x an involution of the positions with entries w^t and w^-t on each swapped pair and +-1
    on each fixed point, so that x^2 = 1 unless an entry is changed; y any permutation, its cycles of
    any length up to 7, with drawn powers of w."""
    m = draw(st.sampled_from((9, 12, 16)))
    field = get_field(m)
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    swapped = draw(st.integers(0, n // 2))
    x_rows, x_exps = list(range(n)), [0] * n
    for a, b in zip(order[: 2 * swapped : 2], order[1 : 2 * swapped : 2]):
        t = draw(st.integers(0, m - 1))
        x_rows[a], x_rows[b], x_exps[a], x_exps[b] = b, a, t, -t
    for j in order[2 * swapped :]:
        x_exps[j] = draw(st.sampled_from((0, m // 2))) if m % 2 == 0 else 0
    y_rows = draw(st.permutations(range(n)))
    y_exps = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    x = UnitMonomial(field, x_rows, draw(_redrawn_exponents(x_exps)))
    y = UnitMonomial(field, y_rows, draw(_redrawn_exponents(y_exps)))
    return x, y, m


@st.composite
def _module_group_pairs(draw):
    """(x, y, 12) of a catalog member or a tensor product of two, which satisfy the group relations, with
    their exponents redrawn by ``_redrawn_exponents``: now and then one changed."""
    ctx = get_context(12)
    labels = all_weight_labels(ctx)
    module = build_weight(ctx, draw(st.sampled_from(labels)))
    if draw(st.booleans()):
        module = tensor_dd(module, build_weight(ctx, draw(st.sampled_from(labels))))
    x, y = module.x_mat, module.y_mat
    redrawn = [UnitMonomial(ctx.field, mat.rows, draw(_redrawn_exponents(mat.exps))) for mat in (x, y)]
    return (*redrawn, ctx.m)


@settings(max_examples=200)
@given(st.one_of(_invertible_monomial_pairs(), _module_group_pairs()))
def test_group_relations_on_the_views_match_the_formed_products(case):
    # the products and powers of row maps and exponents against those of the column dicts
    x, y, m = case
    assert _order_failures(x, y, m) == _reference_order_failures(x, y, m)


def test_group_relations_catch_a_y_cycle_whose_length_does_not_divide_m(ctx12):
    # a 5-cycle of ones: y^5 = 1, and y^12 = y^2 moves every vector
    y = UnitMonomial(ctx12.field, [(j + 1) % 5 for j in range(5)], [0] * 5)
    x = UnitMonomial.identity(ctx12.field, 5)
    module = group_module(ctx12, [ctx12.group.identity] * 5, x, y)
    assert group_relation_failures(module) == ["y^12 != 1", "(x y)^2 != 1"]


def test_group_relations_catch_an_x_that_swaps_with_the_wrong_sign(ctx12):
    # x swaps the two vectors of e:rho1 as before, with -1 on one of them: x^2 = -1
    member = build_weight(ctx12, parse_weight_label("e:rho1"))
    x = UnitMonomial(ctx12.field, [1, 0], [0, ctx12.n])
    module = group_module(ctx12, member.gdeg, x, member.y_mat)
    assert group_relation_failures(module) == ["x^2 != 1", "(x y)^2 != 1"]


def test_label_parse_round_trip(ctx12, ctx16):
    for ctx in (ctx12, ctx16):
        labels = all_weight_labels(ctx)
        for label in labels:
            assert parse_weight_label(str(label)) == label
        for separator in (",", ", ", " ", ";", " ;,"):
            assert parse_weight_list(separator.join(map(str, labels))) == labels
    for text in ("Q:1,2", "e:chi12", "Mx:2,0", "M2,3Mx:0,0"):
        with pytest.raises(ValueError, match="malformed weight label"):
            parse_weight_label(text)
        with pytest.raises(ValueError, match=f"malformed weight list at {text!r}"):
            parse_weight_list(f"e:chi1, {text}")


def test_schur_orthogonality_sampled(ctx12):
    cat = weight_catalog(ctx12)
    sample = [cat.labels[i] for i in (0, 3, 10, 40, 78, 85)]
    for a in sample:
        for b in sample:
            dim = len(hom_space(cat.module(a), cat.module(b)))
            assert dim == (1 if a == b else 0)


@pytest.mark.parametrize("m", [12, 16])
def test_catalog_members_are_pairwise_distinct_by_hom_spaces(m):
    """The hom-space reference for the catalog's character orthonormality check."""
    ctx = get_context(m)
    cat = weight_catalog(ctx)
    for a_idx, a in enumerate(cat.labels):
        source = cat.module(a)
        assert len(hom_space(source, source)) == 1, f"End({a}) is not one-dimensional"
        for b in cat.labels[a_idx + 1 :]:
            target = cat.module(b)
            if set(source.gdeg) & set(target.gdeg):
                assert not hom_space(source, target), f"nonzero hom from {a} to {b}"


def test_catalog_check_rejects_a_repeated_or_reducible_member(ctx12):
    cat = weight_catalog(ctx12)
    labels = cat.labels
    modules = {label: cat.module(label) for label in labels}
    _catalog_characters(ctx12, labels, modules)  # the true catalog passes
    field = ctx12.field
    chi1_plus_chi2 = group_module(
        ctx12,
        [ctx12.group.identity] * 2,
        UnitMonomial(field, [0, 1], [0, ctx12.n]),
        UnitMonomial.identity(field, 2),
    )
    # e:rho1 taken twice is wrong on the Gram diagonal alone: <chi, chi> = 4, and 0 against every other member
    rho1 = cat.module(parse_weight_label("e:rho1"))

    def twice(g):
        return UnitMonomial(field, [*g.rows, *(r + rho1.dim for r in g.rows)], g.exps * 2)

    rho1_twice = group_module(ctx12, rho1.gdeg * 2, twice(rho1.x_mat), twice(rho1.y_mat))
    for label, stand_in, refused in (
        ("M1,3", cat.module(parse_weight_label("M1,4")), "not orthonormal"),
        ("e:rho1", chi1_plus_chi2, "not orthonormal"),
        ("e:rho1", rho1_twice, "catalog characters of e:rho1 and e:rho1 are not orthonormal"),
    ):
        broken = dict(modules)
        broken[parse_weight_label(label)] = stand_in
        with pytest.raises(AssertionError, match=refused):
            _catalog_characters(ctx12, labels, broken)


def _coordinate_characters(ctx, labels, modules):
    """The reference for ``_catalog_characters``: weight rows and Gram matrix in field coordinates.

    Each orbit's weight column a holds the coordinates of ``same * conj(t) w^a``
    plus those of ``inverse * t w^-a``, taken from ``zeta_multiples`` of the
    conjugated trace and of the trace.  Row c of a member's weights, dotted
    with a module's trace vector, gives coordinate c of ``|C(g)|`` times the
    member's multiplicity; the catalog keeps row 0.  The Gram matrix is d dot
    products of one member's trace vector with the other's weight rows, for
    every pair of members of a class.
    """
    field = ctx.field
    degree = field.degree
    characters = {}
    for cls in _class_data(ctx):
        members = []
        for index, label in enumerate(labels):
            module = modules[label]
            block = _blocks(module).get(cls.rep)
            if block is None:
                continue
            vector = _trace_vector(module, cls, block)
            columns = []
            for pos, (_, same, inverse) in enumerate(cls.orbits):
                trace = vector[pos * degree : (pos + 1) * degree]
                terms = (field.zeta(-a) * field.from_integer(c) for a, c in enumerate(trace))
                conjugate = sum(terms, field.zero).coords
                plain = field.zeta_multiples([same * c for c in conjugate])
                flipped = field.zeta_multiples([inverse * c for c in trace])
                columns += [tuple(map(add, plain[a], flipped[-a])) for a in range(degree)]
            members.append(_Member(index, label, module.dim, tuple(zip(*columns)), tuple(vector)))
        for member in members:
            for other in members:
                gram = [sum(map(mul, member.trace, row)) for row in other.weights]
                expected = [cls.order if other is member else 0] + [0] * (degree - 1)
                assert gram == expected, f"{member.label} and {other.label} are not orthonormal"
        characters[cls.rep] = members
    return characters


def assert_catalog_matches_the_coordinate_reference(m):
    """Every member's weight row and trace vector, class by class, equal the reference's row 0 and trace."""
    ctx = DihedralContext(m)
    catalog = weight_catalog(ctx)
    modules = {label: catalog.module(label) for label in catalog.labels}
    reference = _coordinate_characters(ctx, catalog.labels, modules)
    assert list(catalog.characters) == list(reference)
    for cls in _class_data(ctx):
        for member, expected in zip(catalog.characters[cls.rep], reference[cls.rep], strict=True):
            name = f"{member.label} on the class of {ctx.group.name(cls.rep)}"
            assert type(member) is _Member
            assert len(member.weights) == ctx.field.degree * len(cls.orbits)
            assert member == expected._replace(weights=expected.weights[0]), name


@pytest.mark.parametrize("m", [12, 16, 20])
def test_catalog_members_match_the_coordinate_reference(m):
    assert_catalog_matches_the_coordinate_reference(m)


_REFERENCES: dict[int, dict] = {}


def _reference_characters(m):
    """The coordinate reference of the catalog on ``get_context(m)``, built once per order."""
    if m not in _REFERENCES:
        catalog = weight_catalog(get_context(m))
        modules = {label: catalog.module(label) for label in catalog.labels}
        _REFERENCES[m] = _coordinate_characters(catalog.ctx, catalog.labels, modules)
    return _REFERENCES[m]


@st.composite
def _member_products(draw):
    """The tensor product of two catalog members at m = 12 to 24, each member's family drawn first."""
    ctx = get_context(draw(st.sampled_from((12, 16, 20, 24))))
    labels = all_weight_labels(ctx)
    families = sorted({label.family for label in labels})

    def weight():
        family = draw(st.sampled_from(families))
        return draw(st.sampled_from([label for label in labels if label.family == family]))

    return tensor_dd(build_weight(ctx, weight()), build_weight(ctx, weight()))


@given(_member_products())
def test_pairings_match_every_weight_row_of_the_coordinate_reference(product):
    # the catalog keeps weight row 0; every other coordinate of an inner product comes from _pairing,
    # here against the reference's rows, dotted with the trace vector of each block of the product
    ctx = product.ctx
    catalog = weight_catalog(ctx)
    reference = _reference_characters(ctx.m)
    blocks = _blocks(product)
    for cls in _class_data(ctx):
        block = blocks.get(cls.rep)
        if block is None:
            continue
        vector = _trace_vector(product, cls, block)
        counts = _orbit_counts(cls, _trace_counts(product, cls, block))
        for expected in reference[cls.rep]:
            member = catalog.module(expected.label)
            member_counts = _orbit_counts(cls, _trace_counts(member, cls, _blocks(member)[cls.rep]))
            dots = [sum(map(mul, row, vector)) for row in expected.weights]
            assert _pairing(ctx, cls, counts, member_counts) == dots, expected.label


def test_the_catalog_gram_counts_both_halves_of_each_orbit(ctx12):
    # On the class of y^i, 0 < i < n, the centraliser is the rotation group, so y^b and y^-b
    # (0 < b < n) form one orbit: its same half and its inverse half.  The members there, M<i>,<k>,
    # have one basis vector in degree y^i, so each trace is one power of w and a member's norm
    # counts every element of C(g) once: m with both halves, n + 1 with the same halves alone.
    n = ctx12.n
    catalog = weight_catalog(ctx12)
    for cls in _class_data(ctx12):
        if 0 < cls.rep < n:
            assert cls.orbits == tuple((b, 1, int(0 < b < n)) for b in range(n + 1))
            assert sum(same + inverse for _, same, inverse in cls.orbits) == cls.order == ctx12.m
            members = catalog.characters[cls.rep]
            assert [str(member.label) for member in members] == [f"M{cls.rep},{k}" for k in range(ctx12.m)]
            assert all(_blocks(catalog.module(member.label))[cls.rep] == [0] for member in members)
    modules = {label: catalog.module(label) for label in catalog.labels}
    assert _catalog_characters(ctx12, catalog.labels, modules) == catalog.characters


def _hom_space_counts(ctx, module):
    """Multiplicities by the unguided search: a hom space from every member that fits."""
    cat = weight_catalog(ctx)
    support = set(module.gdeg)
    counts = []
    for label in cat.labels:
        member = cat.module(label)
        if set(member.gdeg) <= support:
            dim = len(hom_space(member, module))
            if dim:
                counts.append((label, dim))
    return counts


# one member of each dimension: 1, 2 and m/2
TENSOR_PARTNERS = ("yn:chi3", "M1,3", "Mxy:1,0")


@pytest.mark.parametrize(("m", "unsafe"), [(12, False), (16, False), (8, True)])
def test_character_counts_match_hom_spaces_on_tensor_products(m, unsafe):
    ctx = get_context(m, unsafe=unsafe)
    cat = weight_catalog(ctx)
    for text in TENSOR_PARTNERS:
        partner = cat.module(parse_weight_label(text))
        for label in cat.labels:
            product = tensor_dd(cat.module(label), partner)
            assert decomposition_counts(ctx, product) == _hom_space_counts(ctx, product), f"{label} x {text}"


@pytest.mark.parametrize("index_text", ["(2,3)", "(1,6),(3,6)"])
def test_character_counts_match_hom_spaces_on_standard_module_layers(ctx12, index_text):
    index_set = parse_index_set(ctx12, index_text)
    for label in all_weight_labels(ctx12):
        verma = build_verma(ctx12, index_set, label)
        for z in verma.layer_indices():
            layer = verma.layer_module(z)
            assert decomposition_counts(ctx12, layer) == _hom_space_counts(ctx12, layer), f"{label} [{z}]"


def _rescaled(ctx, module, shifts):
    """The module in the basis ``w^shifts[i] e_i``: column j of x and y gains ``w^(shifts[j] - shifts[i])``
    at row i."""

    def conjugate(mat):
        exps = [e + shifts[j] - shifts[i] for j, (i, e) in enumerate(zip(mat.rows, mat.exps))]
        return UnitMonomial(ctx.field, mat.rows, exps)

    return group_module(ctx, module.gdeg, conjugate(module.x_mat), conjugate(module.y_mat))


def _head_and_socle_layers(ctx):
    """Each layer of the head and socle of ``(1,6),(3,6)`` for every 4th weight, as built and rescaled.

    Heads and socles come from quotient and subspace bases; in the basis
    rescaled by powers of w, x and y have other powers of w as entries.
    """
    field = ctx.field
    index_set = parse_index_set(ctx, "(1,6),(3,6)")
    for label in all_weight_labels(ctx)[::4]:
        verma = build_verma(ctx, index_set, label)
        for name, module in (("head", head(verma)), ("socle", socle(verma))):
            for z in module.layer_indices():
                layer = module.layer_module(z)
                rescaled = _rescaled(ctx, layer, range(layer.dim))
                yield f"{label} {name} [{z}]", layer, rescaled


def test_character_counts_match_hom_spaces_on_head_and_socle_layers(ctx12):
    for name, layer, rescaled in _head_and_socle_layers(ctx12):
        counts = _hom_space_counts(ctx12, layer)
        assert decomposition_counts(ctx12, layer) == counts, name
        assert decomposition_counts(ctx12, rescaled) == counts, f"{name} rescaled"


def _walked_trace_vector(module, cls, block):
    """The reference for ``_trace_vector``: Y^b e_j by one ``apply`` per power, for any X and Y."""
    field = module.ctx.field
    by_rot = {}
    for h, _, _ in cls.orbits:
        by_rot.setdefault(h % module.ctx.m, []).append(h)
    top = max(by_rot)
    x_mat, y_mat = _matrix(module.x_mat), _matrix(module.y_mat)
    x_cols = x_mat.sparse_columns()
    traces = {h: field.zero for h, _, _ in cls.orbits}
    for j in block:
        vec = {j: field.one}
        for b in range(top + 1):
            for h in by_rot.get(b, ()):
                if h >= module.ctx.m:  # a reflection
                    for k, val in vec.items():
                        entry = x_cols[k].get(j)
                        if entry is not None:
                            traces[h] = traces[h] + entry * val
                elif j in vec:
                    traces[h] = traces[h] + vec[j]
            if b < top:
                vec = y_mat.apply(vec)
    values = [traces[h] for h, _, _ in cls.orbits]
    assert all(value.den == 1 for value in values)
    return [c for value in values for c in value.coords]


def _matrix(mat):
    """x or y as a CycMatrix: a module holds a UnitMonomial, a stand-in a CycMatrix."""
    return monomial_matrix(mat) if isinstance(mat, UnitMonomial) else mat


def _sheared(ctx, module, i, j, c):
    """x and y in the basis with e_j replaced by e_j + c e_i (e_i, e_j of one degree).

    No module holds them: the result is a stand-in with the fields the
    references read.
    """
    one = ctx.field.one

    def shear(scale):
        cols = [{k: one, i: scale} if k == j else {k: one} for k in range(module.dim)]
        return CycMatrix(ctx.field, cols, module.dim)

    forward, back = shear(c), shear(-c)
    return SimpleNamespace(
        ctx=ctx,
        dim=module.dim,
        gdeg=module.gdeg,
        x_mat=times(times(back, monomial_matrix(module.x_mat)), forward),
        y_mat=times(times(back, monomial_matrix(module.y_mat)), forward),
    )


def _refused(mat):
    """Whether the matrix does not convert to the UnitMonomial that a module holds as x or y."""
    return as_monomial(mat) is None


@st.composite
def _group_modules(draw):
    """A layer of a standard module at m = 12 to 24, as built or rescaled.

    Rescaling by powers of w keeps x and y monomial with other powers of w
    as entries.  A layer of a rotation weight carries y diagonal
    on its rotation degrees, so its y-cycles are shorter than the powers
    read.
    """
    ctx = get_context(draw(st.sampled_from((12, 16, 20, 24))))
    pair = draw(st.sampled_from(valid_pairs(ctx)))
    label = draw(st.sampled_from(all_weight_labels(ctx)))
    verma = build_verma(ctx, validate_index_set(ctx, [pair]), label)
    module = verma.layer_module(draw(st.sampled_from(sorted(verma.layer_indices()))))
    if draw(st.booleans()):
        shift = draw(st.integers(1, ctx.m - 1))
        module = _rescaled(ctx, module, [shift * i for i in range(module.dim)])
    return ctx, module


# x = 1 and y = -1: the y-cycle has length 1, so the trace of x y^b takes its product to the power b
E_CHI3 = build_weight(get_context(12), parse_weight_label("e:chi3"))


@given(_group_modules())
@example((get_context(12), E_CHI3))
def test_cycle_traces_match_the_walk_on_drawn_modules(case):
    ctx, module = case
    blocks = _blocks(module)
    for cls in _class_data(ctx):
        if cls.rep in blocks:
            assert _trace_vector(module, cls, blocks[cls.rep]) == _walked_trace_vector(module, cls, blocks[cls.rep])


@pytest.mark.parametrize("m", [12, 16, 20, 24])
def test_traces_of_a_module_whose_y_is_not_monomial_match_the_walk(m):
    # such a y does not convert to what a module holds; the walk over its
    # basis still gives the traces of the module in the monomial basis, so
    # the characters lose nothing to the refusal
    ctx = get_context(m)
    rho = build_weight(ctx, parse_weight_label("e:rho1"))
    sheared = _sheared(ctx, rho, 0, 1, ctx.field.one)
    assert has_two_entry_column(sheared.y_mat)
    # a standard module layer with a multiplicity, sheared inside one degree
    verma = build_verma(ctx, validate_index_set(ctx, [valid_pairs(ctx)[0]]), parse_weight_label("Mx:0,0"))
    layer = verma.layer_module(-1)
    i, j = next(block for block in _blocks(layer).values() if len(block) > 1)[:2]
    sheared_layer = _sheared(ctx, layer, i, j, ctx.field.zeta(1))
    assert has_two_entry_column(sheared_layer.x_mat) or has_two_entry_column(sheared_layer.y_mat)
    for module, stand_in in ((rho, sheared), (layer, sheared_layer)):
        assert _refused(stand_in.x_mat) or _refused(stand_in.y_mat)
        blocks = _blocks(module)
        for cls in _class_data(ctx):
            if cls.rep in blocks:
                walked = _walked_trace_vector(stand_in, cls, blocks[cls.rep])
                assert walked == _trace_vector(module, cls, blocks[cls.rep])


def _eliminated_hom_space(source, target):
    """The reference for ``hom_space``: the kernel of its equations by elimination, for any x and y."""
    field = source.ctx.field
    variables = [
        (r, c)
        for c in range(source.dim)
        for r in range(target.dim)
        if target.gdeg[r] == source.gdeg[c]
    ]
    if not variables:
        return []
    equations = {}
    for gen_id, (g_target, g_source) in enumerate(
        ((target.x_mat, source.x_mat), (target.y_mat, source.y_mat))
    ):
        g_target, g_source = _matrix(g_target), _matrix(g_source)
        t_cols = g_target.sparse_columns()
        s_rows: list[dict] = [{} for _ in range(g_source.nrows)]
        for j, col in enumerate(g_source.sparse_columns()):
            for i, val in col.items():
                s_rows[i][j] = val
        for var, (r, c) in enumerate(variables):
            for i, val in t_cols[r].items():
                add_into(equations.setdefault((gen_id, i, c), {}), var, val)
            for j, val in s_rows[c].items():
                add_into(equations.setdefault((gen_id, r, j), {}), var, -val)
    homs = []
    for vec in kernel(field, equations.values(), len(variables)):
        cols = [dict() for _ in range(source.dim)]
        for idx, value in vec.items():
            r, c = variables[idx]
            cols[c][r] = value
        homs.append(without_zeros(field, cols, target.dim))
    return homs


def _assert_hom_spaces_match_elimination(pairs):
    """``hom_space`` equals the reference on each (source, target) pair."""
    for source, target in pairs:
        assert hom_space(source, target) == _eliminated_hom_space(source, target), (source, target)


@pytest.mark.parametrize("m", [12, 16])
def test_hom_spaces_between_catalog_members_match_elimination(m):
    catalog = weight_catalog(get_context(m))
    members = [catalog.module(label) for label in catalog.labels]
    _assert_hom_spaces_match_elimination((source, target) for source in members for target in members)


@st.composite
def _tensor_products(draw):
    """A product of two catalog members at m = 12 to 24, and one more member."""
    ctx = get_context(draw(st.sampled_from((12, 16, 20, 24))))
    catalog = weight_catalog(ctx)
    left, right, other = (catalog.module(draw(st.sampled_from(catalog.labels))) for _ in range(3))
    return ctx, tensor_dd(left, right), other


@given(_tensor_products())
def test_hom_spaces_with_tensor_products_match_elimination(case):
    ctx, product, other = case
    catalog = weight_catalog(ctx)
    members = [other] + [catalog.module(label) for label, _ in decomposition_counts(ctx, product)]
    _assert_hom_spaces_match_elimination([(member, product) for member in members] + [(product, other)])


def test_hom_spaces_into_head_and_socle_layers_match_elimination(ctx12):
    catalog = weight_catalog(ctx12)
    members = [catalog.module(label) for label in catalog.labels]
    for _, layer, rescaled in _head_and_socle_layers(ctx12):
        support = set(layer.gdeg)
        fitting = [member for member in members if set(member.gdeg) <= support]
        _assert_hom_spaces_match_elimination((member, module) for member in fitting for module in (layer, rescaled))


def test_hom_spaces_the_walk_declines_match_elimination(ctx12):
    # what the walk cannot read does not convert to what a module holds: a y
    # that is not monomial, and an x with an empty column or two columns in
    # one row; an x that breaks the group grading is refused when a hom space
    # is asked of it
    field, group = ctx12.field, ctx12.group
    one = field.one
    catalog = weight_catalog(ctx12)

    def member(text):
        return catalog.module(parse_weight_label(text))

    product = tensor_dd(member("Mx:0,0"), member("Mxy:1,0"))
    i, j = next(block for block in _blocks(product).values() if len(block) > 1)[:2]
    sheared = _sheared(ctx12, product, i, j, ctx12.field.zeta(1))
    assert has_two_entry_column(sheared.y_mat)
    assert _refused(sheared.y_mat)
    # elimination in the sheared basis finds the hom spaces the walk finds in the monomial one
    for label, mult in decomposition_counts(ctx12, product):
        other = catalog.module(label)
        assert len(_eliminated_hom_space(other, sheared)) == len(hom_space(other, product)) == mult
        assert len(_eliminated_hom_space(sheared, other)) == len(hom_space(product, other)) == mult
    for columns in ([{0: one}, {}], [{0: one}, {0: one}]):
        x_mat = CycMatrix(field, columns, 2)
        assert not has_two_entry_column(x_mat) and _refused(x_mat)
    # M1,3 plus a vector of degree y that x fixes, where x must send degree y to y^-1
    off_grading = group_module(
        ctx12,
        [group.rotation(1), group.rotation(-1), group.rotation(1)],
        UnitMonomial(field, [1, 0, 2], [0, 0, 0]),
        UnitMonomial(field, [0, 1, 2], [3, -3, 3]),
    )
    assert any(_eliminated_hom_space(member("M1,3"), off_grading))
    for source, target in ((member("M1,3"), off_grading), (off_grading, member("M1,3"))):
        with pytest.raises(AssertionError, match="x breaks the group grading of the source .* or the target"):
            hom_space(source, target)


def _one_dimensional(ctx, degree, x_exp, y_exp):
    """The module on one vector of this degree, with x = w^x_exp and y = w^y_exp."""
    field = ctx.field
    return group_module(ctx, [degree], UnitMonomial(field, [0], [x_exp]), UnitMonomial(field, [0], [y_exp]))


def _not_a_module_with_a_fraction(ctx):
    """Degrees (e, e), x = 1 and y = diag(w^2, w^10) at m = 12: (x y)^2 != 1, and e:chi1 appears 3/4 times."""
    return group_module(
        ctx,
        [ctx.group.identity] * 2,
        UnitMonomial.identity(ctx.field, 2),
        UnitMonomial(ctx.field, [0, 1], [2, 10]),
    )


def test_character_counts_reject_what_is_not_a_module(ctx12):
    group = ctx12.group
    # x = 2 or -3 is no power of w: it does not convert to what a module holds
    for x_value in (2, -3):
        assert as_monomial(from_rows(ctx12.field, [[x_value]])) is None
    cases = {
        # x y x = y^-1 fails: the multiplicity of e:chi1 has an integer
        # rational part and a nonzero irrational one
        "e:chi1 is not an integer": _one_dimensional(ctx12, group.identity, 0, 4),
        # tr(x y) = w^2 + w^10 = 1 on the two vectors: the trivial character appears 3/4 times
        "e:chi1 is not an integer: 3/4": _not_a_module_with_a_fraction(ctx12),
        # nothing on the class representative y
        "fill dimension 0": _one_dimensional(ctx12, group.rotation(-1), 0, 0),
        # y = w^3 on both vectors, not w^l and w^-l: the rational coordinates
        # alone read e:rho3 once, and only the rebuilt trace vector differs
        r"e:chi1 is not an integer: 1/6\*w\^3": group_module(
            ctx12,
            [group.identity] * 2,
            UnitMonomial(ctx12.field, [1, 0], [0, 0]),
            UnitMonomial(ctx12.field, [0, 1], [3, 3]),
        ),
    }
    for message, module in cases.items():
        with pytest.raises(AssertionError, match=message):
            decomposition_counts(ctx12, module)


@pytest.mark.parametrize("label_text", ["e:chi1", "e:rho2", "M2,3", "Mxy:1,0"])
def test_inner_product_failure_names_a_negative_multiplicity(ctx12, label_text):
    # no module with power-of-w x and y is known to read a negative multiplicity, so the message is
    # tested on exponent counts that are minus a catalog member's: every member before it reads 0
    label = parse_weight_label(label_text)
    module = weight_catalog(ctx12).module(label)
    blocks = _blocks(module)
    cls = next(cls for cls in _class_data(ctx12) if cls.rep in blocks)
    counts = _trace_counts(module, cls, blocks[cls.rep])
    message = _inner_product_failure(ctx12, cls, {key: -count for key, count in counts.items()})
    assert message == f"multiplicity of {label} is negative: -1"


def test_known_tensor_products(ctx12):
    def product_labels(a_text, b_text):
        a = build_weight(ctx12, parse_weight_label(a_text))
        b = build_weight(ctx12, parse_weight_label(b_text))
        return [
            (str(lab), mult) for lab, mult in decomposition_counts(ctx12, tensor_dd(a, b))
        ]

    assert product_labels("e:chi2", "Mxy:1,0") == [("Mxy:0,0", 1)]
    assert product_labels("M2,3", "Mx:0,0") == [("Mx:0,1", 1), ("Mx:1,1", 1)]
    assert product_labels("e:chi1", "e:rho3") == [("e:rho3", 1)]
    assert product_labels("M2,3", "M3,9") == [("M1,6", 1), ("M5,0", 1)]


def test_tensor_with_trivial_weight_is_identity(ctx12):
    trivial = build_weight(ctx12, WeightLabel("e:chi", (1,)))
    for label in all_weight_labels(ctx12)[:20]:
        module = build_weight(ctx12, label)
        counts = decomposition_counts(ctx12, tensor_dd(trivial, module))
        assert counts == [(label, 1)]


def _across_orders(ctx12, ctx16):
    """Pairs of one label built at m = 12 and at m = 16, in both orders: their group degrees are integers
    below 24 and below 32 that mean different elements, so only the order check can refuse them."""
    for label in ("e:chi1", "M2,3", "Mx:0,0"):
        small, large = (build_weight(ctx, parse_weight_label(label)) for ctx in (ctx12, ctx16))
        yield small, large
        yield large, small


@pytest.mark.parametrize("m", [12, 16])
def test_counts_on_the_permutation_module_of_the_vertices_of_the_m_gon(m):
    # m vectors of degree e, y e_j = e_(j+1) and x e_j = e_(-j): one y-cycle of length m, longer than
    # every exponent b the traces on the class of e need, so the walk never closes and the traces of
    # x and x y come from its open path; the character counts fixed vertices
    ctx = get_context(m)
    field, n = ctx.field, ctx.n
    x = UnitMonomial(field, [-j % m for j in range(m)], [0] * m)
    y = UnitMonomial(field, [(j + 1) % m for j in range(m)], [0] * m)
    module = group_module(ctx, [ctx.group.identity] * m, x, y)
    assert group_relation_failures(module) == []
    expected = [("e:chi1", 1), ("e:chi3", 1)] + [(f"e:rho{l}", 1) for l in range(1, n)]
    assert [(str(label), mult) for label, mult in decomposition_counts(ctx, module)] == expected
    assert [(str(label), len(homs)) for label, homs in decompose(ctx, module)] == expected


def test_hom_space_refuses_modules_of_two_group_orders(ctx12, ctx16):
    for source, target in _across_orders(ctx12, ctx16):
        orders = f"m = {source.ctx.m} and m = {target.ctx.m}"
        with pytest.raises(ValueError, match=f"hom space live over different group orders: {orders}"):
            hom_space(source, target)


def test_decomposition_counts_refuse_a_module_of_another_group_order(ctx12, ctx16):
    for ctx_module, module in _across_orders(ctx12, ctx16):
        orders = f"m = {ctx_module.ctx.m} and m = {module.ctx.m}"
        with pytest.raises(ValueError, match=f"different group orders: {orders}"):
            decomposition_counts(ctx_module.ctx, module)


def test_decompose_refuses_a_module_of_another_group_order(ctx12, ctx16):
    for ctx_module, module in _across_orders(ctx12, ctx16):
        orders = f"m = {ctx_module.ctx.m} and m = {module.ctx.m}"
        with pytest.raises(ValueError, match=f"different group orders: {orders}"):
            decompose(ctx_module.ctx, module)


def test_tensor_dd_refuses_factors_of_two_group_orders(ctx12, ctx16):
    for left, right in _across_orders(ctx12, ctx16):
        orders = f"m = {left.ctx.m} and m = {right.ctx.m}"
        with pytest.raises(ValueError, match=f"tensor factors live over different group orders: {orders}"):
            tensor_dd(left, right)


@given(st.integers(min_value=0, max_value=85), st.integers(min_value=0, max_value=85))
def test_tensor_dimensions_multiply(ctx12, i, j):
    labels = all_weight_labels(ctx12)
    a, b = labels[i], labels[j]
    product = tensor_dd(build_weight(ctx12, a), build_weight(ctx12, b))
    assert product.dim == a.dimension(6) * b.dimension(6)
    counts = decomposition_counts(ctx12, product)
    assert sum(lab.dimension(6) * mult for lab, mult in counts) == product.dim


@given(st.integers(12, 24), st.integers(0, 3), st.integers(0, 3), st.data())
def test_kronecker_products_match_their_entries(m, na, nb, data):
    field = get_field(m)
    a, b = data.draw(unit_monomials(field, na)), data.draw(unit_monomials(field, nb))
    # entry (ia nb + ib, ja nb + jb) of the product is A[ia, ja] B[ib, jb]
    expected = [
        {ia * nb + ib: x * y for ia, x in col_a.items() for ib, y in col_b.items()}
        for col_a in monomial_matrix(a).sparse_columns()
        for col_b in monomial_matrix(b).sparse_columns()
    ]
    product = monomial_matrix(a.kron(b))
    assert (product.nrows, product.ncols) == (na * nb, na * nb)
    assert product.sparse_columns() == expected


def test_decompose_returns_full_rank_embeddings(ctx12):
    product = tensor_dd(
        build_weight(ctx12, parse_weight_label("M2,3")),
        build_weight(ctx12, parse_weight_label("Mx:0,0")),
    )
    parts = decompose(ctx12, product)
    total = 0
    for label, embeddings in parts:
        for emb in embeddings:
            assert emb.ncols == label.dimension(6)
            total += emb.ncols
    assert total == product.dim


@pytest.mark.parametrize(
    ("label_text", "mult"),
    [
        ("Mx:0,1", 2),  # a summand, at twice its multiplicity
        ("Mx:0,0", 1),  # a member that is not a summand
    ],
)
def test_decompose_rejects_a_multiplicity_its_hom_space_contradicts(ctx12, monkeypatch, label_text, mult):
    product = tensor_dd(
        build_weight(ctx12, parse_weight_label("M2,3")),
        build_weight(ctx12, parse_weight_label("Mx:0,0")),
    )
    misreported = [(parse_weight_label(label_text), mult)]
    monkeypatch.setattr(weights, "decomposition_counts", lambda ctx, module: misreported)
    with pytest.raises(AssertionError, match=f"hom space from {label_text} has dimension"):
        decompose(ctx12, product)


def test_decompose_rejects_embeddings_that_do_not_span(ctx12, monkeypatch):
    product = tensor_dd(
        build_weight(ctx12, parse_weight_label("M2,3")),
        build_weight(ctx12, parse_weight_label("Mx:0,0")),
    )
    (label, (emb,)), _ = decompose(ctx12, product)
    # a second embedding of the same summand: the counts and dimensions add up, the images coincide
    turned = times(emb, diagonal(ctx12.field, [ctx12.field.zeta(1)] * emb.ncols))
    assert turned != emb and 2 * emb.ncols == product.dim
    monkeypatch.setattr(weights, "decomposition_counts", lambda ctx, module: [(label, 2)])
    monkeypatch.setattr(weights, "hom_space", lambda source, target: [emb, turned])
    with pytest.raises(AssertionError, match="decomposition embeddings do not span the module"):
        decompose(ctx12, product)


def test_pair_module_matches_catalog_labels(ctx12):
    for (i, k), expected in {(2, 3): "M2,3", (1, 6): "M1,6", (6, 5): "yn:rho5", (6, 9): "yn:rho3"}.items():
        assert decomposition_counts(ctx12, pair_module(ctx12, i, k)) == [(parse_weight_label(expected), 1)]
    # at m = 10 the pair (5, 5) is valid and y acts on its module as the scalar -1
    ctx10 = get_context(10, unsafe=True)
    counts = decomposition_counts(ctx10, pair_module(ctx10, 5, 5))
    assert [(str(label), mult) for label, mult in counts] == [("yn:chi3", 1), ("yn:chi4", 1)]


# The memo of decomposition_counts, each test on a fresh context so that its memo starts empty.


@pytest.mark.parametrize(
    ("first", "second"),
    [("e:chi1", "e:chi2"), ("e:chi1", "e:chi3"), ("e:chi1", "yn:chi1")],
    ids=["x", "y", "group degree"],
)
def test_counts_memo_tells_apart_modules_that_differ_in_one_part_of_its_key(first, second):
    ctx = DihedralContext(12)
    for text in (first, second):
        label = parse_weight_label(text)
        assert decomposition_counts(ctx, build_weight(ctx, label)) == [(label, 1)]
    assert len(ctx._weight_cache["counts"]) == 2


def test_counts_memo_hands_out_a_fresh_list_each_call():
    ctx = DihedralContext(12)
    product = tensor_dd(build_weight(ctx, parse_weight_label("M2,3")), build_weight(ctx, parse_weight_label("Mx:0,0")))
    expected = [(parse_weight_label("Mx:0,1"), 1), (parse_weight_label("Mx:1,1"), 1)]
    counts = decomposition_counts(ctx, product)
    assert counts == expected
    counts[0] = (parse_weight_label("e:chi1"), 4)
    counts.append((parse_weight_label("e:chi2"), 1))
    again = decomposition_counts(ctx, product)
    assert again == expected and again is not counts
    again.clear()
    assert decomposition_counts(ctx, product) == expected


def test_counts_memo_is_cleared_at_its_size_limit(monkeypatch):
    monkeypatch.setattr(weights, "_COUNTS_LIMIT", 3)
    ctx = DihedralContext(12)
    labels = all_weight_labels(ctx)[:10]
    for _ in range(2):
        for label in labels:
            assert decomposition_counts(ctx, build_weight(ctx, label)) == [(label, 1)]
            assert 1 <= len(ctx._weight_cache["counts"]) <= 3


def test_counts_memo_never_stores_a_module_that_raises():
    ctx = DihedralContext(12)
    module = _not_a_module_with_a_fraction(ctx)
    for _ in range(2):
        with pytest.raises(AssertionError, match="not an integer: 3/4"):
            decomposition_counts(ctx, module)
    assert ctx._weight_cache["counts"] == {}


# The trace lookup of decomposition_counts against its dot products.


@pytest.mark.parametrize("m", [12, 16])
def test_each_member_trace_against_each_weight_row_is_the_centraliser_order_times_delta(m):
    # the premise of the lookup: a block with member S's trace vector has S's inner products, in the
    # very form the dot products take them, so a hit is the answer the dot products would give
    ctx = get_context(m)
    catalog = weight_catalog(ctx)
    pairs = 0
    for cls in _class_data(ctx):
        members = catalog.characters[cls.rep]
        assert len({member.trace for member in members}) == len(members)
        assert catalog.traces[cls.rep] == {member.trace: member for member in members}
        for source in members:
            for target in members:
                dot = sum(map(mul, target.weights, source.trace))
                assert dot == (cls.order if target is source else 0)
                pairs += 1
    assert pairs == {12: 914, 16: 2066}[m]


@pytest.fixture(scope="module")
def lookup_and_dot_path():
    """Per group order, a fresh context with its trace tables and one whose tables are emptied, so
    that its every block takes the dot products."""
    sides = {}
    for m in (12, 16, 20, 24):
        looked_up, dotted = DihedralContext(m), DihedralContext(m)
        for table in weight_catalog(dotted).traces.values():
            table.clear()
        sides[m] = looked_up, dotted
    return sides


def _assert_the_lookup_matches_the_dot_path(sides, module, name=None):
    """The counts of the module on both contexts of its order, each memo cleared first, are equal."""
    counts = []
    for ctx in sides[module.ctx.m]:
        ctx._weight_cache.pop("counts", None)
        counts.append(decomposition_counts(ctx, module))
    assert counts[0] == counts[1], name
    assert not any(weight_catalog(sides[module.ctx.m][1]).traces.values())


def test_the_lookup_matches_the_dot_path_on_every_catalog_member(ctx12, lookup_and_dot_path):
    for label in all_weight_labels(ctx12):
        module = build_weight(ctx12, label)
        assert decomposition_counts(ctx12, module) == [(label, 1)]
        _assert_the_lookup_matches_the_dot_path(lookup_and_dot_path, module, label)


def test_the_lookup_matches_the_dot_path_on_every_layer_of_every_singleton_standard_module(
    ctx12, lookup_and_dot_path
):
    for pair in valid_pairs(ctx12):
        for label in all_weight_labels(ctx12):
            verma = build_verma(ctx12, validate_index_set(ctx12, [pair]), label)
            for z in verma.layer_indices():
                name = f"{pair} {label} [{z}]"
                _assert_the_lookup_matches_the_dot_path(lookup_and_dot_path, verma.layer_module(z), name)


@st.composite
def _two_pair_layers_and_tensor_products(draw):
    """A layer of a two-pair standard module, or a tensor product of two members, at m = 12 to 24.

    Each weight's family is drawn first, so the few reflection members come
    up as often as the others; the second pair is drawn from those
    admissible with the first.
    """
    ctx = get_context(draw(st.sampled_from((12, 16, 20, 24))))
    labels = all_weight_labels(ctx)
    families = sorted({label.family for label in labels})

    def weight():
        family = draw(st.sampled_from(families))
        return draw(st.sampled_from([label for label in labels if label.family == family]))

    if draw(st.booleans()):
        return tensor_dd(build_weight(ctx, weight()), build_weight(ctx, weight()))
    first = draw(st.sampled_from(valid_pairs(ctx)))
    admissible = []
    for pair in valid_pairs(ctx):
        try:
            admissible.append(validate_index_set(ctx, [first, pair]))
        except ValueError:
            continue
    verma = build_verma(ctx, draw(st.sampled_from(admissible)), weight())
    return verma.layer_module(draw(st.sampled_from(sorted(verma.layer_indices()))))


@given(_two_pair_layers_and_tensor_products())
def test_the_lookup_matches_the_dot_path_on_drawn_layers_and_tensor_products(lookup_and_dot_path, module):
    _assert_the_lookup_matches_the_dot_path(lookup_and_dot_path, module)


def test_class_key_separates_degree_support(ctx12):
    assert class_key(ctx12, parse_weight_label("e:chi3")) == "e"
    assert class_key(ctx12, parse_weight_label("yn:rho2")) == "yn"
    assert class_key(ctx12, parse_weight_label("M2,9")) == "y2"
    assert class_key(ctx12, parse_weight_label("M5,0")) == "y5"
    assert class_key(ctx12, parse_weight_label("Mx:1,0")) == "x"
    assert class_key(ctx12, parse_weight_label("Mxy:0,1")) == "xy"


def test_sort_key_orders_families_stably(ctx12):
    labels = all_weight_labels(ctx12)
    assert labels == sorted(labels, key=lambda lab: lab.sort_key())
    assert [str(lab) for lab in labels[:4]] == ["e:chi1", "e:chi2", "e:chi3", "e:chi4"]
