from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dihedral_doubles import get_context, weights
from dihedral_doubles.cyclotomic import CycMatrix, add_into, kernel
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.nichols import parse_index_set, validate_index_set, valid_pairs
from dihedral_doubles.qdouble import build_verma, head, socle
from dihedral_doubles.weights import (
    WeightLabel,
    _blocks,
    _catalog_characters,
    _class_data,
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
    tensor_dd,
    weight_catalog,
)


def test_catalog_count_and_dimension_sum(ctx12, ctx16):
    cat12 = weight_catalog(ctx12)
    assert len(cat12) == 86
    assert sum(lab.dimension(6) ** 2 for lab in cat12.labels) == 576
    cat16 = weight_catalog(ctx16)
    assert len(cat16) == 142
    assert sum(lab.dimension(8) ** 2 for lab in cat16.labels) == 1024


@pytest.mark.parametrize("m", [12, 16])
def test_catalog_modules_keep_no_y_power_cache(m):
    # the catalog lives as long as its context, so a y^k cache filled while
    # checking y^m = 1 would stay for the whole process; a fresh context
    # keeps other tests' use of the shared catalog out of this check
    catalog = weight_catalog(DihedralContext(m))
    assert [label for label in catalog.labels if "_ypow" in vars(catalog.module(label))] == []


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


def test_label_parse_round_trip(ctx12, ctx16):
    for ctx in (ctx12, ctx16):
        for label in all_weight_labels(ctx):
            assert parse_weight_label(str(label)) == label
    with pytest.raises(ValueError):
        parse_weight_label("Q:1,2")


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
        CycMatrix.diagonal(field, [field.one, -field.one]),
        CycMatrix.identity(field, 2),
        ["a", "b"],
    )
    for label, stand_in in (("M1,3", cat.module(parse_weight_label("M1,4"))), ("e:rho1", chi1_plus_chi2)):
        broken = dict(modules)
        broken[parse_weight_label(label)] = stand_in
        with pytest.raises(AssertionError, match="not orthonormal"):
            _catalog_characters(ctx12, labels, broken)


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


def _rescaled(ctx, module, factors):
    """The module in the basis ``factors[i] * e_i``."""

    def conjugate(mat):
        cols = [
            {i: value * factors[j] / factors[i] for i, value in col.items()}
            for j, col in enumerate(mat.sparse_columns())
        ]
        return CycMatrix.from_column_dicts(ctx.field, cols, module.dim)

    return group_module(ctx, module.gdeg, conjugate(module.x_mat), conjugate(module.y_mat), module.basis_labels)


def _head_and_socle_layers(ctx):
    """Each layer of the head and socle of ``(1,6),(3,6)`` for every 4th weight, as built and rescaled.

    Heads and socles come from quotient and subspace bases; in the rescaled
    basis x and y have entries with denominators that are not units of Z[w].
    """
    field = ctx.field
    factor = field.from_integer(2) + field.zeta(1)
    index_set = parse_index_set(ctx, "(1,6),(3,6)")
    for label in all_weight_labels(ctx)[::4]:
        verma = build_verma(ctx, index_set, label)
        for name, module in (("head", head(verma)), ("socle", socle(verma))):
            for z in module.layer_indices():
                layer = module.layer_module(z)
                rescaled = _rescaled(ctx, layer, [factor ** (i % 3) * (i + 1) for i in range(layer.dim)])
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
        by_rot.setdefault(h.rot, []).append(h)
    top = max(by_rot)
    x_cols = module.x_mat.sparse_columns()
    traces = {h: field.zero for h, _, _ in cls.orbits}
    for j in block:
        vec = {j: field.one}
        for b in range(top + 1):
            for h in by_rot.get(b, ()):
                if h.refl:
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
    return [c * (den // value.den) for value in values for c in value.coords], den


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
        basis_labels=module.basis_labels,
        x_mat=back * module.x_mat * forward,
        y_mat=back * module.y_mat * forward,
    )


def _assert_refused(ctx, stand_in, generator="[xy]"):
    """Building a module from the stand-in's x and y raises the monomial gate's message."""
    with pytest.raises(AssertionError, match=f"{generator} is not an invertible monomial matrix on a module of kind"):
        group_module(ctx, stand_in.gdeg, stand_in.x_mat, stand_in.y_mat, stand_in.basis_labels)


@st.composite
def _group_modules(draw):
    """A layer of a standard module at m = 12 to 24, as built or rescaled.

    Rescaling by factors that are not units keeps x and y monomial with
    entries off the units.  A layer of a rotation weight carries y diagonal
    on its rotation degrees, so its y-cycles are shorter than the powers
    read.
    """
    ctx = get_context(draw(st.sampled_from((12, 16, 20, 24))))
    pair = draw(st.sampled_from(valid_pairs(ctx)))
    label = draw(st.sampled_from(all_weight_labels(ctx)))
    verma = build_verma(ctx, validate_index_set(ctx, [pair]), label)
    module = verma.layer_module(draw(st.sampled_from(sorted(verma.layer_indices()))))
    if draw(st.booleans()):
        factor = ctx.field.from_integer(2) + ctx.field.zeta(1)
        module = _rescaled(ctx, module, [factor ** (i % 3) * (i + 1) for i in range(module.dim)])
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
    # such a module is refused when it is built; the walk over its basis
    # still gives the traces of the module in the monomial basis, so the
    # characters lose nothing to the refusal
    ctx = get_context(m)
    rho = build_weight(ctx, parse_weight_label("e:rho1"))
    sheared = _sheared(ctx, rho, 0, 1, ctx.field.one)
    assert rho.y_mat.monomial() is not None
    assert sheared.y_mat.monomial() is None
    # a standard module layer with a multiplicity, sheared inside one degree
    verma = build_verma(ctx, validate_index_set(ctx, [valid_pairs(ctx)[0]]), parse_weight_label("Mx:0,0"))
    layer = verma.layer_module(-1)
    i, j = next(block for block in _blocks(layer).values() if len(block) > 1)[:2]
    sheared_layer = _sheared(ctx, layer, i, j, ctx.field.zeta(1))
    assert sheared_layer.x_mat.monomial() is None or sheared_layer.y_mat.monomial() is None
    for module, stand_in in ((rho, sheared), (layer, sheared_layer)):
        _assert_refused(ctx, stand_in)
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
        t_cols = g_target.sparse_columns()
        s_rows = g_source.transpose().sparse_columns()
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
        homs.append(CycMatrix.from_column_dicts(field, cols, target.dim))
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
    # what the walk cannot read is refused: a y that is not monomial, and an x
    # with an empty column or two columns in one row, when the module is built;
    # an x that breaks the group grading when a hom space is asked of it
    field, group = ctx12.field, ctx12.group
    one = field.one
    catalog = weight_catalog(ctx12)

    def member(text):
        return catalog.module(parse_weight_label(text))

    product = tensor_dd(member("Mx:0,0"), member("Mxy:1,0"))
    i, j = next(block for block in _blocks(product).values() if len(block) > 1)[:2]
    sheared = _sheared(ctx12, product, i, j, ctx12.omega(1))
    assert sheared.y_mat.monomial() is None
    _assert_refused(ctx12, sheared)
    # elimination in the sheared basis finds the hom spaces the walk finds in the monomial one
    for label, mult in decomposition_counts(ctx12, product):
        other = catalog.module(label)
        assert len(_eliminated_hom_space(other, sheared)) == len(hom_space(other, product)) == mult
        assert len(_eliminated_hom_space(sheared, other)) == len(hom_space(product, other)) == mult
    for columns in ([{0: one}, {}], [{0: one}, {0: one}]):
        x_mat = CycMatrix.from_column_dicts(field, columns, 2)
        assert x_mat.monomial() is not None
        stand_in = SimpleNamespace(
            gdeg=[group.identity] * 2, x_mat=x_mat, y_mat=CycMatrix.identity(field, 2), basis_labels=["a", "b"]
        )
        _assert_refused(ctx12, stand_in, "x")
    # M1,3 plus a vector of degree y that x fixes, where x must send degree y to y^-1
    off_grading = group_module(
        ctx12,
        [group.rotation(1), group.rotation(-1), group.rotation(1)],
        CycMatrix.from_column_dicts(field, [{1: one}, {0: one}, {2: one}], 3),
        CycMatrix.diagonal(field, [ctx12.omega(3), ctx12.omega(-3), ctx12.omega(3)]),
        ["m+", "m-", "v"],
    )
    assert any(_eliminated_hom_space(member("M1,3"), off_grading))
    for source, target in ((member("M1,3"), off_grading), (off_grading, member("M1,3"))):
        with pytest.raises(AssertionError, match="x breaks the group grading of the source .* or the target"):
            hom_space(source, target)


def _one_dimensional(ctx, degree, x_value, y_value):
    field = ctx.field
    return group_module(
        ctx,
        [degree],
        CycMatrix.from_rows(field, [[x_value]]),
        CycMatrix.from_rows(field, [[y_value]]),
        ["v"],
    )


def test_character_counts_reject_what_is_not_a_module(ctx12):
    group = ctx12.group
    cases = {
        # x y x = y^-1 fails: the multiplicity of e:chi1 has an integer
        # rational part and a nonzero irrational one
        "e:chi1 is not an integer": _one_dimensional(ctx12, group.identity, 1, ctx12.omega(4)),
        # tr(x) = 2: the trivial character appears 3/2 times
        "not an integer: 3/2": _one_dimensional(ctx12, group.identity, 2, 1),
        # tr(x) = -3: the trivial character appears -1 times
        "negative": _one_dimensional(ctx12, group.identity, -3, 1),
        # nothing on the class representative y
        "fill dimension 0": _one_dimensional(ctx12, group.rotation(-1), 1, 1),
        # y = w^3 on both vectors, not w^l and w^-l: the rational coordinates
        # alone read e:rho3 once, and only the rebuilt trace vector differs
        r"e:chi1 is not an integer: 1/6\*w\^3": group_module(
            ctx12,
            [group.identity] * 2,
            CycMatrix.from_rows(ctx12.field, [[0, 1], [1, 0]]),
            CycMatrix.diagonal(ctx12.field, [ctx12.omega(3)] * 2),
            ["a", "b"],
        ),
    }
    for message, module in cases.items():
        with pytest.raises(AssertionError, match=message):
            decomposition_counts(ctx12, module)


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
    trivial = build_weight(ctx12, WeightLabel.e_chi(1))
    for label in all_weight_labels(ctx12)[:20]:
        module = build_weight(ctx12, label)
        counts = decomposition_counts(ctx12, tensor_dd(trivial, module))
        assert counts == [(label, 1)]


@given(st.integers(min_value=0, max_value=85), st.integers(min_value=0, max_value=85))
def test_tensor_dimensions_multiply(ctx12, i, j):
    labels = all_weight_labels(ctx12)
    a, b = labels[i], labels[j]
    product = tensor_dd(build_weight(ctx12, a), build_weight(ctx12, b))
    assert product.dim == a.dimension(6) * b.dimension(6)
    counts = decomposition_counts(ctx12, product)
    assert sum(lab.dimension(6) * mult for lab, mult in counts) == product.dim


@st.composite
def _invertible_monomial(draw, field, n):
    """The columns of an invertible monomial n x n matrix: powers of w and rationals on a permutation."""
    entries = st.sampled_from([field.zeta(1), -field.zeta(5), field.one, field.from_fraction(Fraction(-2, 3))])
    return [{i: draw(entries)} for i in draw(st.permutations(range(n)))]


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_kronecker_products_match_their_entries(na, nb, data):
    field = get_context(12).field
    a_cols = data.draw(_invertible_monomial(field, na))
    b_cols = data.draw(_invertible_monomial(field, nb))
    a, b = CycMatrix(field, a_cols, na), CycMatrix(field, b_cols, nb)
    # entry (ia nb + ib, ja nb + jb) of the product is A[ia, ja] B[ib, jb]
    expected = [
        {ia * nb + ib: x * y for ia, x in col_a.items() for ib, y in col_b.items()}
        for col_a in a_cols
        for col_b in b_cols
    ]
    product = weights._kronecker(a, b)
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
    turned = emb * CycMatrix.diagonal(ctx12.field, [ctx12.field.zeta(1)] * emb.ncols)
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
