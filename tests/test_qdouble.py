from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_doubles import get_context, qdouble
from dihedral_doubles.cyclotomic import CycMatrix, EchelonBasis, UnitMonomial, _rref, add_into, get_field
from dihedral_doubles.nichols import IndexSet, parse_index_set, valid_pairs, validate_index_set
from dihedral_doubles.qdouble import (
    GradedCharacter,
    _bracket_equals,
    _letter_view,
    _products_equal,
    basis_change,
    build_verma,
    check_relations,
    graded_character,
    head,
    induce_from_simple,
    socle,
    subspace_as_module,
    tensor_qd,
    theta_congruence,
    y_power,
)
from dihedral_doubles.theorems import pivot_check
from dihedral_doubles.weights import (
    QDModule,
    all_weight_labels,
    build_weight,
    decomposition_counts,
    group_module,
    group_relation_failures,
    hom_space,
    parse_weight_label,
    tensor_dd,
    weight_catalog,
)
from adapted import (
    adapted_basis,
    adapted_quotient,
    adapted_submodule,
    as_module,
    assert_head_matches_the_reference,
    assert_socle_matches_the_reference,
    highest_weight_vectors,
    lowest_joint_kernel,
    needs_adapted_basis,
    reference_generated,
    reference_quotient,
    reference_socle,
    reference_submodule,
)
from matrices import (
    as_monomial,
    diagonal,
    has_two_entry_column,
    identity,
    in_span,
    induced_position,
    is_zero,
    monomial_matrix,
    negated,
    plus,
    rational,
    times,
    unit_monomials,
)
from oracle import phi_action, theta_action
from relations import every_relation_failures


def _char_text(char: GradedCharacter) -> str:
    return str(char).replace("\n", " | ")


def _verma(ctx, iset_text, label_text):
    return build_verma(
        ctx, parse_index_set(ctx, iset_text), parse_weight_label(label_text)
    )


def test_standard_module_shape(ctx12):
    verma = _verma(ctx12, "(2,3)", "e:rho3")
    assert verma.dim == 8
    layers = {z: len(ix) for z, ix in verma.layer_indices().items()}
    assert layers == {0: 2, -1: 4, -2: 2}
    assert check_relations(verma) == []
    assert theta_congruence(verma) == []


def test_lowering_rewrite_on_the_double_letter(ctx12):
    verma = _verma(ctx12, "(2,3)", "e:rho3")
    # the lowering letter a+ of pair 0 on the top monomial v+0 ∧ v-0 over the first weight vector
    source = induced_position(verma, [(0, 1), (0, -1)])
    image = verma.a_mats[(0, 1)].sparse_columns()[source]
    target = induced_position(verma, [(0, -1)])
    assert set(image) == {target}
    assert image[target] == ctx12.field.from_integer(2)


def test_grading_of_generator_matrices(ctx12):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    zdeg = verma.zdeg
    for mat in verma.v_mats.values():
        for col, column in enumerate(mat.sparse_columns()):
            for row, _ in column.items():
                assert zdeg[row] == zdeg[col] - 1
    for mat in verma.a_mats.values():
        for col, column in enumerate(mat.sparse_columns()):
            for row, _ in column.items():
                assert zdeg[row] == zdeg[col] + 1
    for mat in (verma.x_mat, verma.y_mat):
        for col, row in enumerate(mat.rows):
            assert zdeg[row] == zdeg[col]


def _moved_to_a_wrong_group_degree(module, mat, keep):
    """The column of ``mat``'s first entry, and ``mat`` with that entry moved to a row of its layer in
    another group degree; with ``keep`` the entry also stays where it was."""
    cols = [dict(col) for col in mat.sparse_columns()]
    for j, col in enumerate(cols):
        for i, x in col.items():
            for wrong in range(module.dim):
                if module.zdeg[wrong] == module.zdeg[i] and module.gdeg[wrong] != module.gdeg[i]:
                    if not keep:
                        del col[i]
                    col[wrong] = x
                    return j, CycMatrix(module.ctx.field, cols, mat.nrows)
    raise AssertionError("no entry can be moved")


def _swapped_to_a_wrong_group_degree(module, mat):
    """The first column j of ``mat``, and ``mat`` with the rows of columns j and k swapped, for the first k
    of j's layer in another group degree: still an invertible monomial matrix."""
    rows = list(mat.rows)
    j = 0
    k = next(k for k in range(module.dim) if module.zdeg[k] == module.zdeg[j] and module.gdeg[k] != module.gdeg[j])
    rows[j], rows[k] = rows[k], rows[j]
    return j, UnitMonomial(mat.field, rows, mat.exps)


@pytest.mark.parametrize("keep", [False, True], ids=["monomial", "two entries"])
def test_a_generator_that_breaks_the_group_grading_is_named_with_its_column(ctx12, keep):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")

    def with_mats(x_mat, v_mats):
        return QDModule(
            ctx12, verma.index_set, verma.zdeg, verma.gdeg,
            x_mat, verma.y_mat, v_mats, verma.a_mats, verma.weight, verma.kind,
        )

    j, letter = _moved_to_a_wrong_group_degree(verma, verma.v_mats[(0, 1)], keep)
    assert has_two_entry_column(letter) == keep
    broken = with_mats(verma.x_mat, {**verma.v_mats, (0, 1): letter})
    assert f"v(0,+1) breaks the grading at column {j}" in check_relations(broken)
    # an x with an entry moved is singular, and with an entry added not monomial: neither converts, and a
    # row map with two columns in one row is refused
    _, moved = _moved_to_a_wrong_group_degree(verma, monomial_matrix(verma.x_mat), keep)
    assert has_two_entry_column(moved) == keep
    assert as_monomial(moved) is None
    if not keep:
        rows, vals = zip(*(entry for col in moved.sparse_columns() for entry in col.items()))
        with pytest.raises(AssertionError, match="x is not an invertible monomial matrix on a module of kind 'verma'"):
            with_mats(UnitMonomial(ctx12.field, rows, [val.unit for val in vals]), verma.v_mats)
    j, x_mat = _swapped_to_a_wrong_group_degree(verma, verma.x_mat)
    failures = group_relation_failures(with_mats(x_mat, verma.v_mats))
    assert failures[0] == f"x breaks the grading at column {j}"


def test_a_standard_module_is_carried_onto_itself_by_the_identity(ctx12):
    verma = _verma(ctx12, "(1,6),(3,6)", "M1,2")
    assert basis_change(verma, verma) == UnitMonomial.identity(ctx12.field, verma.dim)


def test_basis_change_refuses_what_no_unit_monomial_carries(ctx12):
    verma = _verma(ctx12, "(1,6),(3,6)", "e:chi1")
    field, key = ctx12.field, (0, 1)

    def with_raising(v_mats):
        return QDModule(
            ctx12, verma.index_set, verma.zdeg, verma.gdeg, verma.x_mat, verma.y_mat,
            v_mats, verma.a_mats, verma.weight, verma.kind,
        )

    # an entry of a raising letter that is no power of w, on either side
    two = field.from_integer(2)
    doubled = [{r: val * two for r, val in col.items()} for col in verma.v_mats[key].sparse_columns()]
    assert doubled[0][next(iter(doubled[0]))].unit is None
    broken = with_raising({**verma.v_mats, key: CycMatrix(field, doubled, verma.dim)})
    assert basis_change(broken, verma) is None
    assert basis_change(verma, broken) is None
    # raising letters that reach nothing beyond degree 0
    silent = with_raising({k: CycMatrix(field, [{} for _ in range(verma.dim)], verma.dim) for k in verma.v_mats})
    assert basis_change(silent, verma) is None
    # the head has another dimension
    assert basis_change(head(verma), verma) is None


def test_head_and_socle_of_singletons(ctx12):
    cases = {
        ("(2,3)", "e:chi1"): ("[0] e:chi1", "[-2] e:chi2"),
        ("(2,3)", "M2,3"): ("[0] M2,3", "[-2] M2,3"),
        ("(2,3)", "Mx:0,0"): (
            "[0] Mx:0,0 | [-1] Mx:0,1",
            "[-1] Mx:1,1 | [-2] Mx:1,0",
        ),
        ("(6,1)", "Mx:0,0"): (
            "[0] Mx:0,0 | [-1] Mx:0,1",
            "[-1] Mx:1,1 | [-2] Mx:1,0",
        ),
        ("(6,1)", "Mx:0,1"): (
            "[0] Mx:0,1 | [-1] Mx:0,0",
            "[-1] Mx:1,0 | [-2] Mx:1,1",
        ),
    }
    for (iset_text, label_text), (head_text, socle_text) in cases.items():
        verma = _verma(ctx12, iset_text, label_text)
        assert _char_text(graded_character(head(verma))) == head_text
        assert _char_text(graded_character(socle(verma))) == socle_text


def test_projective_weight_keeps_the_whole_module(ctx12):
    verma = _verma(ctx12, "(2,3)", "e:rho3")
    full = _char_text(graded_character(verma))
    assert full == "[0] e:rho3 | [-1] M2,0 + M2,6 | [-2] e:rho3"
    assert _char_text(graded_character(head(verma))) == full
    assert _char_text(graded_character(socle(verma))) == full


def test_two_pair_heads(ctx12):
    verma = _verma(ctx12, "(6,1),(6,3)", "Mx:0,0")
    assert verma.dim == 96
    expected = "[0] Mx:0,0 | [-1] 2*Mx:0,1 | [-2] Mx:0,0"
    assert _char_text(graded_character(head(verma))) == expected

    verma = _verma(ctx12, "(2,3),(6,3)", "Mxy:1,0")
    assert _char_text(graded_character(head(verma))) == (
        "[0] Mxy:1,0 | [-1] 2*Mxy:1,1 | [-2] Mxy:1,0"
    )


def test_highest_weight_vector_layout(ctx12):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    by_degree = {z: len(v) for z, v in highest_weight_vectors(verma).items() if v}
    # one six-dimensional weight on top, one in the middle
    assert by_degree == {0: 6, -1: 6}


def test_submodule_and_quotient_dimensions(ctx12):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    hw = highest_weight_vectors(verma)
    space = reference_generated(verma, hw[-1])
    assert len(space.rows) == 12
    quotient_module = adapted_quotient(verma, space)
    assert quotient_module.dim == 12
    assert check_relations(quotient_module) == []
    assert _char_text(graded_character(quotient_module)) == "[0] Mx:0,0 | [-1] Mx:0,1"
    # the submodule and the quotient of one space split the module
    submodule = subspace_as_module(verma, space)
    assert submodule.dim + quotient_module.dim == verma.dim
    assert check_relations(submodule) == []
    assert graded_character(submodule) + graded_character(quotient_module) == graded_character(verma)


@pytest.mark.parametrize("iset_text", ["(2,3)", "(1,6),(3,6)", "(2,3),(2,9)"])
def test_generated_submodules_have_each_reduced_row_in_one_cell(ctx12, iset_text):
    # every weight; the spans qdouble._close makes for socle, the bottom layer's unit vectors under the
    # lowering letters, and for head and the rigid tensor check, the degree-0 unit functionals under the
    # transposed lowering letters (qdouble._head_span); the
    # lowest joint kernel under the raising letters, the same span as socle's; and the test helper's span of the
    # negative-degree joint kernels under every generator, which the shaving head divides out
    field = ctx12.field
    for label in all_weight_labels(ctx12):
        verma = build_verma(ctx12, parse_index_set(ctx12, iset_text), label)
        by_degree = highest_weight_vectors(verma)
        lowest = by_degree[min(z for z, vecs in by_degree.items() if vecs)]
        negatives = [vec for z, vecs in by_degree.items() if z < 0 for vec in vecs]
        layers = verma.layer_indices()
        bottom = [{t: field.one} for t in layers[min(layers)]]
        spans = (
            qdouble._close(field, bottom, list(verma.a_mats.values()), verma.dim),
            qdouble._head_span(verma),
            qdouble._close(field, lowest, list(verma.v_mats.values()), verma.dim),
            reference_generated(verma, negatives),
        )
        assert spans[0].rows == spans[2].rows
        for span in spans:
            for row in span.rows:
                assert len({(verma.zdeg[i], verma.gdeg[i]) for i in row}) == 1


def test_subspaces_that_are_not_submodules_are_rejected(ctx12):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    one = ctx12.field.one
    span = EchelonBasis(ctx12.field)
    span.insert({0: one})
    with pytest.raises(AssertionError, match="not stable under a generator"):
        subspace_as_module(verma, span)


def test_socle_rejects_part_of_the_lowest_kernel(ctx12, monkeypatch):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    full = qdouble._close

    def first_seed_only(field, seeds, gens, dim):
        return full(field, list(seeds)[:1], gens, dim)

    monkeypatch.setattr(qdouble, "_close", first_seed_only)
    # the lowering letters span the first unit vector of the bottom layer, and x, y or a raising letter leaves
    # that span
    with pytest.raises(AssertionError, match="not stable under a generator"):
        socle(verma)


@st.composite
def _spans_and_vectors(draw):
    """A span of drawn rows of 1 to 3 entries at m = 12 or 16, and a vector drawn in it or, where the span
    leaves a basis vector out, outside it; the flag says which."""
    field = get_field(draw(st.sampled_from((12, 16))))
    dim = draw(st.integers(1, 8))

    def entry():
        power = field.zeta(draw(st.integers(0, field.m - 1)))
        kind = draw(st.sampled_from(("power", "scaled", "sum")))
        if kind == "scaled":
            return power * rational(field, draw(st.sampled_from((2, -1, Fraction(1, 2), Fraction(-2, 3)))))
        if kind == "sum":
            # a sum of two powers of w, often untagged; where it is zero, which no entry may be, the first power
            return power + field.zeta(draw(st.integers(0, field.m - 1))) or power
        return power

    rows = []
    for _ in range(draw(st.integers(0, dim))):
        positions = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3, unique=True))
        rows.append({t: entry() for t in positions})
    space = _rref(field, rows)
    vec = {}
    for row in rows:
        if draw(st.booleans()):
            scale = entry()
            for t, val in row.items():
                add_into(vec, t, val * scale)
    outside = [t for t in range(dim) if not in_span(field, rows, {t: field.one})]
    inside = not outside or draw(st.booleans())
    if not inside:
        # a basis vector outside the span, added to a vector in it, leaves it outside
        add_into(vec, draw(st.sampled_from(outside)), entry())
    return rows, space, vec, inside


@settings(max_examples=300)
@given(_spans_and_vectors())
def test_the_reduced_row_membership_read_agrees_with_insert(case):
    # subspace_as_module decides stability on the reduced rows at a vector's own pivots
    # (qdouble._span_reader); EchelonBasis.insert clears the vector with the forward rows
    rows, space, vec, inside = case
    assert in_span(space.field, rows, vec) == inside
    reduced = space.rows
    read = qdouble._span_reader(space.pivots, reduced)
    if not inside:
        with pytest.raises(AssertionError, match="subspace is not stable under a generator"):
            read(vec)
        return
    coords = read(vec)
    assert coords == {new: vec[q] for new, q in enumerate(space.pivots) if q in vec}
    rebuilt = {}
    for new, scale in coords.items():
        for t, val in reduced[new].items():
            add_into(rebuilt, t, val * scale)
    assert rebuilt == vec


def _leaving_kinds(module, space):
    """The kinds of generator, x, y, raising or lowering letters, that take some reduced row of ``space`` out
    of it, each image applied and asked of a fresh basis of the rows."""
    kinds = {
        "x": [monomial_matrix(module.x_mat)],
        "y": [monomial_matrix(module.y_mat)],
        "raising": list(module.v_mats.values()),
        "lowering": list(module.a_mats.values()),
    }
    rows = space.rows
    return {
        kind
        for kind, mats in kinds.items()
        if any(not in_span(space.field, rows, g.apply(row)) for g in mats for row in rows)
    }


@pytest.mark.parametrize("letters", [True, False])
@pytest.mark.parametrize("part", ["degree 0", "bottom layer", "socle below its top"])
def test_spans_that_only_one_kind_of_letter_leaves_are_refused(ctx12, part, letters):
    # x and y keep each of these spans, and so does one kind of letter: the refusal must come from the other.
    # Without letters, the raising letters are still read on every row; the lowering letters are not, and a
    # span that only they leave is built, as socle's caller vouches for them by spanning under them
    field = ctx12.field
    verma = _verma(ctx12, "(1,6),(3,6)", "Mx:0,0")
    layers = verma.layer_indices()
    bottom = [{t: field.one} for t in layers[min(layers)]]
    if part == "degree 0":
        rows, leaving = [{t: field.one} for t in layers[0]], "raising"
    elif part == "bottom layer":
        rows, leaving = bottom, "lowering"
    else:
        spanned = qdouble._close(field, bottom, list(verma.a_mats.values()), verma.dim).rows
        top = max(verma.zdeg[next(iter(row))] for row in spanned)
        rows, leaving = [row for row in spanned if verma.zdeg[next(iter(row))] < top], "lowering"
        assert any(len(row) > 1 for row in rows)
    space = _rref(field, rows)
    assert space.rows == rows
    assert _leaving_kinds(verma, space) == {leaving}
    if leaving == "lowering" and not letters:
        built = subspace_as_module(verma, space, letters=False)
        assert (built.dim, built.v_mats, built.a_mats) == (len(rows), None, None)
        return
    with pytest.raises(AssertionError, match="subspace is not stable under a generator"):
        subspace_as_module(verma, space, letters=letters)


@pytest.mark.parametrize("letters", [True, False])
@pytest.mark.parametrize(("label_text", "leaving"), [("e:rho1", "x"), ("Mx:0,0", "y")])
def test_spans_that_x_or_y_leaves_are_refused_with_or_without_letters(ctx12, label_text, leaving, letters):
    # one unit vector of the bottom layer: the raising letters kill it and the lowering letters leave its span,
    # and so does x on e:rho1, where y keeps each basis line, or y on Mx:0,0, where x fixes the vector.  Without
    # letters, x and y are read as before, and the refusal must come from the one that leaves
    field = ctx12.field
    verma = _verma(ctx12, "(1,6),(3,6)", label_text)
    layers = verma.layer_indices()
    rows = [{layers[min(layers)][0]: field.one}]
    space = _rref(field, rows)
    assert _leaving_kinds(verma, space) == {leaving, "lowering"}
    with pytest.raises(AssertionError, match="subspace is not stable under a generator"):
        subspace_as_module(verma, space, letters=letters)


def _unit_block(a, b):
    """The block diagonal matrix of two UnitMonomials."""
    n = len(a.rows)
    return UnitMonomial(a.field, a.rows + tuple(n + i for i in b.rows), a.exps + b.exps)


def _direct_sum(first, second, zshift, kind):
    """The direct sum on concatenated bases, with the degrees of ``second`` shifted by zshift."""
    n = first.dim

    def block(a, b):
        cols = list(a.sparse_columns()) + [{n + i: x for i, x in col.items()} for col in b.sparse_columns()]
        return CycMatrix(a.field, cols, n + b.nrows)

    return QDModule(
        first.ctx,
        first.index_set,
        first.zdeg + tuple(z + zshift for z in second.zdeg),
        first.gdeg + second.gdeg,
        _unit_block(first.x_mat, second.x_mat),
        _unit_block(first.y_mat, second.y_mat),
        {key: block(mat, second.v_mats[key]) for key, mat in first.v_mats.items()},
        {key: block(mat, second.a_mats[key]) for key, mat in first.a_mats.items()},
        weight=first.weight,
        kind=kind,
    )


def test_socle_of_a_standard_module_must_reach_its_whole_bottom_layer(ctx12):
    # the standard module with its one-dimensional head set beside its bottom
    # layer: the bottom layer is then two weights
    verma = _verma(ctx12, "(2,3)", "e:chi1")
    top, bottom = head(verma), min(verma.zdeg)
    padded = _direct_sum(verma, top, bottom, "verma")
    with pytest.raises(AssertionError, match="not a single multiplicity-one weight"):
        socle(padded)
    # with the head set beside degree 0 the bottom layer is one weight, but a direct sum is not free over the
    # raising letters, and socle takes only the kinds that are
    summed = _direct_sum(verma, top, 0, "sum")
    assert decomposition_counts(ctx12, summed.layer_module(bottom)) == [(parse_weight_label("e:chi2"), 1)]
    with pytest.raises(AssertionError, match="not one of kind 'sum'"):
        socle(summed)


# The socle is generated by the joint kernel of lowest degree.  Over (1,6), (2,3), (1,6),(3,6) and (2,3),(2,9)
# at m = 12, 80 of the 344 standard modules have joint kernels in more than one degree, and each of the 180
# kernels above the lowest generates a submodule of another character than the socle's.  Some of them:
KERNELS_IN_SEVERAL_DEGREES = [
    ("(2,3)", "e:chi1", [-2, -1, 0]),
    ("(1,6)", "Mx:0,0", [-1, 0]),
    ("(1,6),(3,6)", "e:chi1", [-4, -3, -2, -1, 0]),
    ("(2,3),(2,9)", "M2,3", [-4, -3, -2, -1, 0]),
    ("(2,3),(2,9)", "Mxy:1,1", [-2, -1, 0]),
]


@pytest.mark.parametrize("iset_text, label_text, degrees", KERNELS_IN_SEVERAL_DEGREES)
def test_a_joint_kernel_above_the_lowest_degree_generates_no_socle(ctx12, iset_text, label_text, degrees):
    verma = _verma(ctx12, iset_text, label_text)
    kernels = {z: vecs for z, vecs in highest_weight_vectors(verma).items() if vecs}
    assert sorted(kernels) == degrees
    socle_char = graded_character(socle(verma))
    # the socle's top is the lowest kernel
    assert socle_char.layers[0][0] == degrees[0]
    for z in degrees[1:]:
        # x or y need not be an invertible monomial matrix on these rows: the test helper builds the module
        generated = adapted_submodule(verma, reference_generated(verma, kernels[z]))
        assert graded_character(generated) != socle_char, z


@pytest.mark.parametrize("iset_text", ["(2,3)", "(1,6)", "(1,6),(3,6)", "(2,3),(2,9)"])
def test_the_socle_top_is_the_lowest_joint_kernel(ctx12, monkeypatch, iset_text):
    # the abstract's claim, which socle does not build on: the highest weight of minimum degree determines the
    # socle.  socle spans the bottom layer; the top layer of that span must be the lowest nonzero joint kernel,
    # in the same degree and with the same reduced rows
    spans = []

    def recorded(module, space, kind="submodule", letters=True):
        spans.append(space)
        return subspace_as_module(module, space, kind, letters)

    monkeypatch.setattr(qdouble, "subspace_as_module", recorded)
    for label in all_weight_labels(ctx12):
        verma = build_verma(ctx12, parse_index_set(ctx12, iset_text), label)
        soc = socle(verma)
        z, lowest = lowest_joint_kernel(verma)
        assert max(soc.zdeg) == z, label
        rows = spans.pop().rows
        assert all(len({verma.zdeg[i] for i in row}) == 1 for row in rows), label
        top = [row for row in rows if verma.zdeg[next(iter(row))] == z]
        assert _rref(ctx12.field, top).rows == _rref(ctx12.field, lowest).rows, label


def test_a_submodule_on_whose_rows_x_is_not_monomial_is_refused(ctx12):
    # the negative-degree joint kernel of this standard module generates a submodule on whose reduced rows x is
    # no invertible monomial matrix: the package changes to no other basis, and the test helper builds it
    verma = _verma(ctx12, "(1,6),(3,6)", "Mx:0,0")
    space = reference_generated(verma, _negatives(verma))
    with pytest.raises(AssertionError, match="x is not an invertible monomial matrix on a module of kind 'submodule'"):
        subspace_as_module(verma, space)
    assert needs_adapted_basis(reference_submodule(verma, space, "submodule"))
    assert adapted_submodule(verma, space).dim == len(space.pivots)


def test_joint_kernels_per_degree_of_a_module_and_of_modules_built_from_its_matrices(ctx12):
    verma = _verma(ctx12, "(2,3)", "e:chi1")
    first = highest_weight_vectors(verma)
    assert {z: len(vecs) for z, vecs in first.items()} == {0: 1, -1: 2, -2: 1}
    assert highest_weight_vectors(verma) == first
    # modules made from the module's matrices have kernels of their own
    zero = {key: CycMatrix(ctx12.field, [{} for _ in range(verma.dim)], verma.dim) for key in verma.a_mats}
    assert {z: len(vecs) for z, vecs in highest_weight_vectors(_mutated(verma, a_mats=zero)).items()} == {
        z: len(idxs) for z, idxs in verma.layer_indices().items()
    }
    padded = highest_weight_vectors(_direct_sum(verma, head(verma), -2, "sum"))
    assert {z: len(vecs) for z, vecs in padded.items()} == {0: 1, -1: 2, -2: 2}


def test_cross_term_operators_detect_weight_class(ctx12):
    def weight(text):
        # a weight is the standard module over the empty index set
        return build_verma(ctx12, IndexSet(12, ()), parse_weight_label(text))

    rigid = weight("e:chi1")
    for eps in (1, -1):
        for mu in (1, -1):
            assert is_zero(phi_action(ctx12, (2, 3), eps, mu, rigid))
    projective = weight("e:rho3")
    assert not is_zero(theta_action(ctx12, (2, 3), projective))
    reflection = weight("Mx:0,0")
    assert not is_zero(phi_action(ctx12, (2, 3), 1, -1, reflection))


def _reference_phi_action(ctx, pair, eps, mu, module):
    """The reference for ``phi_action``: ``[eps = mu] I + y^p S`` as a matrix product and sum."""
    i, k = pair
    field = ctx.field
    same = eps == mu
    scales = []
    for g in module.gdeg:
        refl, a = divmod(g, ctx.m)
        if refl == 0:
            scales.append(-field.zeta(eps * a * k) if same else field.zero)
        elif same:
            scales.append(field.zero)
        else:
            scales.append(-field.zeta(-(a + 2 * i) * k if eps > 0 else (a - 2 * i) * k))
    part = times(monomial_matrix(y_power(module, eps * i if same else -eps * i)), diagonal(field, scales))
    return plus(identity(field, module.dim), part) if same else part


def _assert_cross_terms_match_the_reference(module, pairs=None):
    """Each cross term against its reference, and ``x C(eps, mu) x == C(-eps, -mu)`` column by column:
    ``check_relations`` decides a mixed bracket of a sign -1 lowering letter on that mirror."""
    assert group_relation_failures(module) == []
    x_mat = monomial_matrix(module.x_mat)
    for pair in module.index_set.pairs if pairs is None else pairs:
        for eps in (1, -1):
            for mu in (1, -1):
                built = phi_action(module.ctx, pair, eps, mu, module)
                assert built == _reference_phi_action(module.ctx, pair, eps, mu, module)
                assert all(x for col in built.sparse_columns() for x in col.values())
                conjugated = times(times(x_mat, built), x_mat).sparse_columns()
                for j, col in enumerate(phi_action(module.ctx, pair, -eps, -mu, module).sparse_columns()):
                    assert conjugated[j] == col, (pair, eps, mu, j)


@pytest.mark.parametrize("iset_text", ["(1,6),(3,6)", "(2,3),(2,9)"])
def test_cross_terms_match_the_reference_on_every_standard_module(ctx12, iset_text):
    for label in all_weight_labels(ctx12):
        _assert_cross_terms_match_the_reference(build_verma(ctx12, parse_index_set(ctx12, iset_text), label))


def _doubled(mat):
    """A copy of ``mat`` with every entry doubled: no entry is a power of w, so none carries a unit tag."""
    two = mat.field.from_integer(2)
    cols = [{i: x * two for i, x in col.items()} for col in mat.sparse_columns()]
    return CycMatrix(mat.field, cols, mat.nrows)


def test_cross_terms_match_the_reference_for_a_y_that_moves_rotation_degrees(ctx12):
    # the cross terms read only gdeg and y, so a module over the empty index set takes any pair; on
    # the rotation degrees of Mx:0,0 (x) Mx:1,0, y^i moves basis vectors, and a column of an equal-sign
    # cross term has two entries; a y off the powers of w does not convert to the type a module holds
    pairs = valid_pairs(ctx12)
    moved = 0
    for summands in ("Mx:0,0 Mx:1,0", "Mxy:0,1 Mx:1,1", "e:rho1 M2,3 + Mxy:1,0"):
        built = _sum_of_tensor_products(ctx12, summands)
        assert as_monomial(_doubled(monomial_matrix(built.y_mat))) is None
        _assert_cross_terms_match_the_reference(built, pairs)
        for eps in (1, -1):
            columns = phi_action(ctx12, pairs[0], eps, eps, built).sparse_columns()
            moved += sum(len(col) == 2 for col in columns)
    assert moved


# The column kernels of check_relations against the matrix expressions they decide.


def _bracket_reference(a, b, target):
    bracket = plus(times(a, b), times(b, a))
    return is_zero(bracket) if target is None else bracket == target


def _columns_of(target):
    """The column reader of a target matrix, as ``_bracket_equals`` takes it; None stays the zero target."""
    return None if target is None else target.sparse_columns().__getitem__


@st.composite
def _entries(draw, field):
    """A nonzero entry: a tagged power of w, its negative, or a non-unit."""
    k = draw(st.integers(0, field.m - 1))
    power = field.zeta(k)
    kind = draw(st.sampled_from(("tagged", "negated", "non-unit")))
    if kind == "tagged":
        return power
    if kind == "negated":
        return -power  # tagged for even m; for odd m no power of w
    return field.one + -power if k else field.from_integer(2)


@st.composite
def _drawn_matrices(draw, field, n):
    """An n x n matrix with some empty columns, and columns with two entries as often as not."""
    sizes = draw(st.sampled_from([(0, 1, 1), (0, 1, 2)]))
    cols = []
    for _ in range(n):
        size = min(draw(st.sampled_from(sizes)), n)
        rows = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        cols.append({i: draw(_entries(field)) for i in rows})
    return CycMatrix(field, cols, n)


@st.composite
def _variants(draw, mat):
    """The matrix itself, or a copy: from its columns, with one entry flipped or moved, or with a second
    entry in one column."""
    kind = draw(st.sampled_from(("same", "same", "columns", "flipped", "moved", "second entry")))
    if kind == "same":
        return mat
    field = mat.field
    cols = [dict(col) for col in mat.sparse_columns()]
    filled = [j for j, col in enumerate(cols) if col]
    if kind != "columns" and filled:
        j = draw(st.sampled_from(filled))
        i = draw(st.sampled_from(sorted(cols[j])))
        others = [r for r in range(mat.nrows) if r not in cols[j]]
        if kind == "flipped":
            cols[j][i] = -cols[j][i]
        elif others:
            row = draw(st.sampled_from(others))
            entry = cols[j].pop(i) if kind == "moved" else draw(_entries(field))
            cols[j][row] = entry
    return CycMatrix(field, cols, mat.nrows)


@st.composite
def _anticommuting(draw, field, n):
    """(a, b) with ``a b + b a == 0``: b is ``diag(s_j c)`` for signs s and one drawn entry c, and a
    sends each column of sign s to rows of sign -s, with up to two entries per column; the two terms of
    every column cancel, as field elements whether c is tagged or not."""
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    c = draw(_entries(field))
    cols = []
    for j in range(n):
        rows = [i for i in range(n) if signs[i] == -signs[j]]
        picked = draw(st.lists(st.sampled_from(rows), max_size=2, unique=True)) if rows else []
        cols.append({i: draw(_entries(field)) for i in picked})
    b = CycMatrix(field, [{j: c if s > 0 else -c} for j, s in enumerate(signs)], n)
    return CycMatrix(field, cols, n), b


@lru_cache(maxsize=None)
def _relation_modules():
    # rotation and reflection weights, and an induced module whose lowering letters of pair 0 are not monomial
    ctx = get_context(12)
    return (
        _verma(ctx, "(2,3)", "e:rho3"),
        _verma(ctx, "(2,3),(2,9)", "e:chi2"),
        _verma(ctx, "(2,3)", "Mx:0,0"),
        induce_from_simple(ctx, head(_verma(ctx, "(3,6)", "Mx:0,0")), (1, 6)),
    )


@st.composite
def _bracket_cases(draw):
    """(a, b, target): letters of a module with their cross term or no target, or drawn matrices,
    with one operand changed or not (see ``_variants``)."""
    if draw(st.booleans()):
        module = draw(st.sampled_from(_relation_modules()))
        pos = draw(st.integers(0, len(module.index_set.pairs) - 1))
        eps, mu = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        kind = draw(st.sampled_from(("mixed", "raising", "lowering")))
        if kind == "mixed":
            a, b = module.a_mats[(pos, eps)], module.v_mats[(pos, mu)]
            target = phi_action(module.ctx, module.index_set.pairs[pos], eps, mu, module)
        else:
            mats = module.v_mats if kind == "raising" else module.a_mats
            a, b, target = mats[(pos, eps)], mats[(draw(st.integers(0, pos)), mu)], None
    else:
        field = get_field(draw(st.sampled_from((9, 12, 16))))
        n = draw(st.integers(1, 5))
        if draw(st.booleans()):
            a, b = draw(_anticommuting(field, n))
        else:
            a, b = draw(_drawn_matrices(field, n)), draw(_drawn_matrices(field, n))
        target = draw(st.sampled_from((None, plus(times(a, b), times(b, a)), draw(_drawn_matrices(field, n)))))
    if draw(st.integers(0, 3)) == 0:
        b = a
    operands = [a, b, target]
    changed = draw(st.sampled_from([0, 1, 2] if target is not None else [0, 1]))
    operands[changed] = draw(_variants(operands[changed]))
    return tuple(operands)


@settings(max_examples=150)
@given(_bracket_cases())
def test_the_bracket_kernel_decides_the_matrix_equality(case):
    a, b, target = case
    found = _bracket_equals(a, b, _columns_of(target), _letter_view(a), _letter_view(b), range(a.ncols))
    assert found == _bracket_reference(a, b, target)


def _each_entry_moved(mat):
    """Copies of ``mat``, one per entry, with that entry moved to the next row."""
    for j, col in enumerate(mat.sparse_columns()):
        for i, x in col.items():
            cols = [dict(c) for c in mat.sparse_columns()]
            del cols[j][i]
            cols[j][(i + 1) % mat.nrows] = x
            yield CycMatrix(mat.field, cols, mat.nrows)


@pytest.mark.parametrize("iset_text, label_text", [("(2,3)", "Mx:0,0"), ("(2,3),(2,9)", "e:rho3")])
def test_the_bracket_kernel_reads_the_row_of_every_target_entry(ctx12, iset_text, label_text):
    module = _verma(ctx12, iset_text, label_text)
    cases = []
    for eps in (1, -1):
        for mu in (1, -1):
            cross = phi_action(ctx12, (2, 3), eps, mu, module)
            cases.append((module.a_mats[(0, eps)], module.v_mats[(0, mu)], cross))
    # y bracketed with itself is 2 y^2: both terms of each column land in one row
    y, square = monomial_matrix(module.y_mat), monomial_matrix(module.y_mat**2)
    cases.append((y, y, plus(square, square)))
    for a, b, target in cases:
        assert not has_two_entry_column(target)
        assert _bracket_equals(a, b, _columns_of(target), _letter_view(a), _letter_view(b), range(a.ncols))
        for moved in _each_entry_moved(target):
            assert not _bracket_equals(a, b, _columns_of(moved), _letter_view(a), _letter_view(b), range(a.ncols))
            assert not _bracket_reference(a, b, moved)


def _scaled(mat, shift):
    """w^shift times ``mat``."""
    scale = mat.field.zeta(shift)
    return CycMatrix(mat.field, [{i: scale * x for i, x in col.items()} for col in mat.sparse_columns()], mat.nrows)


@st.composite
def _unit_variants(draw, g):
    """The UnitMonomial itself, or a copy with one exponent raised by 1 or two columns' rows swapped."""
    kind = draw(st.sampled_from(("same", "same", "flipped", "swapped")))
    rows, exps = list(g.rows), list(g.exps)
    j, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    if kind == "flipped":
        exps[j] += 1
    elif kind == "swapped":
        rows[j], rows[k] = rows[k], rows[j]
    return UnitMonomial(g.field, rows, exps)


@st.composite
def _product_cases(draw):
    """(a, b, c, d, shift): the swap by x and the scaling by y of a module's letters, or drawn matrices,
    with one operand or the shift changed or not.  a and d are group-likes, as ``_products_equal``
    requires: UnitMonomials."""
    shift = 0
    if draw(st.booleans()):
        module = draw(st.sampled_from(_relation_modules()))
        kind, pos = draw(st.sampled_from("va")), draw(st.integers(0, len(module.index_set.pairs) - 1))
        sign = draw(st.sampled_from([1, -1]))
        mats = module.v_mats if kind == "v" else module.a_mats
        letter = mats[(pos, sign)]
        if draw(st.booleans()):
            a, b, c, d = module.x_mat, letter, mats[(pos, -sign)], module.x_mat
        else:
            k = module.index_set.pairs[pos][1]
            a, b, c, d = module.y_mat, letter, letter, module.y_mat
            shift = sign * k if kind == "v" else -sign * k
    else:
        field = get_field(draw(st.sampled_from((9, 12, 16))))
        n = draw(st.integers(1, 5))
        a, d = draw(unit_monomials(field, n)), draw(unit_monomials(field, n))
        if draw(st.booleans()):
            b, c = monomial_matrix(d), monomial_matrix(a)
        else:
            b, c = draw(_drawn_matrices(field, n)), draw(_drawn_matrices(field, n))
        shift = draw(st.sampled_from((0, draw(st.integers(-field.m, 2 * field.m)))))
    operands = [a, b, c, d]
    changed = draw(st.integers(0, 4))
    if changed in (0, 3):
        operands[changed] = draw(_unit_variants(operands[changed]))
    elif changed < 4:
        operands[changed] = draw(_variants(operands[changed]))
    else:
        shift += draw(st.integers(1, 3))
    return (*operands, shift)


@settings(max_examples=150)
@given(_product_cases())
def test_the_product_kernel_decides_the_matrix_equality(case):
    a, b, c, d, shift = case
    expected = times(monomial_matrix(a), b) == _scaled(times(c, monomial_matrix(d)), shift)
    assert _products_equal(a, b, c, d, shift) == expected


def test_induction_multiplies_dimension_by_four(ctx12):
    base = head(_verma(ctx12, "(3,6)", "Mx:0,0"))
    assert base.dim == 12
    induced = induce_from_simple(ctx12, base, (1, 6))
    assert induced.dim == 48
    assert check_relations(induced) == []
    assert _char_text(graded_character(head(induced))) == (
        "[0] Mx:0,0 | [-1] 2*Mxy:0,0 | [-2] Mx:0,0"
    )


def _generators(module):
    """Every generator as a CycMatrix; x and y of a reference namespace already are."""
    group = [monomial_matrix(g) if isinstance(g, UnitMonomial) else g for g in (module.x_mat, module.y_mat)]
    return [*group, *module.v_mats.values(), *module.a_mats.values()]


def _standard_and_induced(ctx, label_text):
    """The standard module over (1,6),(3,6), and the modules induced from the head and socle over (3,6)."""
    small = _verma(ctx, "(3,6)", label_text)
    modules = [_verma(ctx, "(1,6),(3,6)", label_text)]
    return modules + [induce_from_simple(ctx, base, (1, 6)) for base in (head(small), socle(small))]


@pytest.mark.parametrize("label_text", ["e:chi1", "e:rho3", "yn:rho2", "M2,3", "Mx:0,0", "Mxy:1,0"])
def test_induced_matrices_hold_no_zero_entry(ctx12, label_text):
    # _induce builds its matrices from column dicts as they stand, with no pass that drops zeros
    for module in _standard_and_induced(ctx12, label_text):
        for mat in _generators(module):
            assert all(x for col in mat.sparse_columns() for x in col.values())


# Socles, heads and submodules against a reference that applies every generator to every row.


def _negatives(module):
    return [vec for z, vecs in highest_weight_vectors(module).items() if z < 0 for vec in vecs]


def _change_of_basis(reference):
    """None where x and y are invertible monomial matrices on the reference's vectors; otherwise the
    matrix whose columns are the adapted basis, checked to be a basis of vectors of their positions' cells."""
    x_mat, y_mat = _generators(reference)[:2]
    if None not in (as_monomial(x_mat), as_monomial(y_mat)):
        return None
    basis = adapted_basis(reference.ctx, reference.zdeg, reference.gdeg, x_mat, y_mat)
    cells = list(zip(reference.zdeg, reference.gdeg))
    assert all({cells[i] for i in vec} == {cells[j]} for j, vec in enumerate(basis))
    assert len(_rref(reference.ctx.field, basis).pivots) == reference.dim
    return CycMatrix(reference.ctx.field, basis, reference.dim)


def _assert_same_module(built, reference):
    """Equal degrees and matrices; where x or y is not an invertible monomial matrix on the
    reference's vectors, the adapted basis C must carry the reference's matrices to the built ones,
    ``R C = C B`` for every generator.  Returns whether the basis was adapted."""
    assert (built.zdeg, built.gdeg, built.kind) == (reference.zdeg, reference.gdeg, reference.kind)
    assert list(built.v_mats) == list(reference.v_mats) and list(built.a_mats) == list(reference.a_mats)
    change = _change_of_basis(reference)
    for mat, ref in zip(_generators(built), _generators(reference)):
        if change is None:
            assert mat.sparse_columns() == ref.sparse_columns()
        else:
            assert times(ref, change).sparse_columns() == times(change, mat).sparse_columns()
    return change is not None


def _submodule(module, space):
    """The submodule ``space`` as ``subspace_as_module`` makes it, equal to the reference, where x and y are
    invertible monomial matrices on the reference's vectors, as is the test helper's; elsewhere
    ``subspace_as_module`` must refuse it, and the test helper builds it in the adapted basis, checked against
    the reference.  Returns the module and whether the basis was adapted."""
    reference = reference_submodule(module, space, "submodule")
    if not needs_adapted_basis(reference):
        built = subspace_as_module(module, space)
        assert not _assert_same_module(built, reference)
        assert not _assert_same_module(as_module(module, reference), reference)
        return built, False
    with pytest.raises(AssertionError, match="is not an invertible monomial matrix on a module of kind 'submodule'"):
        subspace_as_module(module, space)
    built = as_module(module, reference)
    assert _assert_same_module(built, reference)
    return built, True


def _quotient(module, space):
    """The quotient by ``space`` as the test helper builds it, checked against the reference quotient.
    Returns the module and whether the basis was adapted."""
    reference = reference_quotient(module, space, "quotient")
    built = as_module(module, reference)
    return built, _assert_same_module(built, reference)


@lru_cache(maxsize=None)
def _standard_and_recursion_modules(iset_text):
    """Every 4th weight: the standard module, and per pair the two induced modules of the recursion."""
    ctx = get_context(12)
    iset = parse_index_set(ctx, iset_text)
    modules = []
    for label in all_weight_labels(ctx)[::4]:
        modules.append(build_verma(ctx, iset, label))
        for pos, pair in enumerate(iset.pairs):
            small = build_verma(ctx, iset.without(pos), label)
            modules += [induce_from_simple(ctx, head(small), pair), induce_from_simple(ctx, socle(small), pair)]
    return modules


@pytest.mark.parametrize("iset_text", ["(1,6),(3,6)", "(2,3),(2,9)"])
def test_socles_heads_and_submodules_match_a_reference_that_applies_every_generator(iset_text):
    adapted = full_spans = zero_heads = 0
    for module in _standard_and_recursion_modules(iset_text):
        # the socle spans the bottom layer under the lowering letters, the reference the lowest joint kernel under
        # every generator
        soc = socle(module)
        _assert_same_module(soc, reference_socle(module))
        # a socle that spans the whole module: its reduced rows are the unit vectors
        full_spans += soc.dim == module.dim
        # head reads the quotient off degree 0 in another basis than the reference's chain of quotients
        zero_heads += not assert_head_matches_the_reference(module).dim
        negatives = _negatives(module)
        if negatives:
            _, in_adapted_basis = _submodule(module, reference_generated(module, negatives))
            adapted += in_adapted_basis
    # the modules induced from a socle below degree 0 have no degree-0 layer: both heads are zero
    assert full_spans and zero_heads
    # x is not monomial on the reduced rows of that submodule of the standard modules of reflection weights
    assert adapted


def _seeds_outside_the_joint_kernel(module):
    """Seed lists of one vector each: e_j for the first j of the bottom degree, and a combination with
    coefficients w^t of the basis vectors of the first cell one degree above it."""
    layers = module.layer_indices()
    bottom = min(layers)
    seeds = [[{layers[bottom][0]: module.ctx.field.one}]]
    above = layers.get(bottom + 1, [])
    if above:
        cell = [j for j in above if module.gdeg[j] == module.gdeg[above[0]]]
        seeds.append([{j: module.ctx.field.zeta(t) for t, j in enumerate(cell)}])
    return seeds


@pytest.mark.parametrize("iset_text", ["(1,6),(3,6)", "(2,3),(2,9)"])
def test_submodules_generated_from_seeds_outside_the_joint_kernel_match_the_reference(iset_text):
    # qdouble._close walks breadth first and stops at dim pivots; given every generator, on seeds that the
    # lowering letters move, its span is the reference's, which walks depth first to the end; on standard
    # modules, induced modules of the recursion, and the quotients by their negative kernels
    lowered = 0
    for module in _standard_and_recursion_modules(iset_text):
        negatives = _negatives(module)
        quotients = [adapted_quotient(module, reference_generated(module, negatives))] if negatives else []
        for mod in [module, *(q for q in quotients if q.dim)]:
            gens = [monomial_matrix(mod.x_mat), monomial_matrix(mod.y_mat), *mod.v_mats.values(), *mod.a_mats.values()]
            for seeds in _seeds_outside_the_joint_kernel(mod):
                closed = qdouble._close(mod.ctx.field, seeds, gens, mod.dim)
                assert closed.rows == reference_generated(mod, seeds).rows
                lowered += any(mat.apply(vec) for mat in mod.a_mats.values() for vec in seeds)
    assert lowered


@settings(max_examples=30)
@given(st.data())
def test_heads_of_drawn_standard_modules_match_the_shaving_reference(data):
    # one to three pairs at m = 12, 16 and 20: head reads the quotient off degree 0, the reference shaves; the
    # socle spans the bottom layer under the lowering letters, the reference the lowest joint kernel under every
    # generator
    ctx = get_context(data.draw(st.sampled_from((12, 16, 20))))
    iset = data.draw(_index_sets(ctx, 3))
    module = build_verma(ctx, iset, data.draw(st.sampled_from(all_weight_labels(ctx))))
    assert_head_matches_the_reference(module)
    assert_socle_matches_the_reference(module)


def test_a_simple_module_is_its_own_head_and_a_module_without_degree_0_has_a_zero_head(ctx12):
    # the functionals read off degree 0 span every degree of a simple standard module
    simple = _verma(ctx12, "(2,3)", "e:rho3")
    assert head(simple) is simple
    empty = group_module(ctx12, [], UnitMonomial.identity(ctx12.field, 0), UnitMonomial.identity(ctx12.field, 0))
    assert head(empty) is empty
    # the socle of the smaller module lies in degree -1, and so does the module induced from it
    below = induce_from_simple(ctx12, socle(_verma(ctx12, "(3,6)", "Mx:0,0")), (1, 6))
    assert max(below.zdeg) < 0
    top = head(below)
    assert (top.dim, top.kind) == (0, "head")


def _with_letters_as(module, letters):
    """``module`` with ``letters`` in place of both its raising and its lowering matrices."""
    return QDModule(
        module.ctx, module.index_set, module.zdeg, module.gdeg, module.x_mat, module.y_mat, letters, letters,
        weight=module.weight, kind=module.kind,
    )


_LETTER_READERS = {
    "check_relations": lambda ctx, bare, full: check_relations(bare),
    "theta_congruence": lambda ctx, bare, full: theta_congruence(bare),
    "induce_from_simple": lambda ctx, bare, full: induce_from_simple(ctx, bare, (5, 6)),
    "head": lambda ctx, bare, full: head(bare),
    "socle": lambda ctx, bare, full: socle(bare),
    "tensor_qd": lambda ctx, bare, full: tensor_qd(ctx, full, bare),
    "pivot_check": lambda ctx, bare, full: pivot_check(ctx, bare, 3),
    "basis_change": lambda ctx, bare, full: basis_change(bare, bare),
}


@pytest.mark.parametrize("reader", sorted(_LETTER_READERS))
@pytest.mark.parametrize("built", ["head", "socle"])
def test_a_module_built_without_its_letters_is_refused(ctx12, reader, built):
    # a head or socle read only for its character holds None for its letters: every reader of the letters
    # raises on it, where empty dicts would let check_relations and pivot_check pass with no letter checked
    verma = _verma(ctx12, "(1,6),(3,6)", "Mx:0,0")
    full = (head if built == "head" else socle)(verma)
    bare = (head if built == "head" else socle)(verma, letters=False)
    assert full is not verma and (bare.v_mats, bare.a_mats) == (None, None)
    with pytest.raises(AssertionError, match=f"a module of kind '{built}' built without its letters has none to read"):
        _LETTER_READERS[reader](ctx12, bare, full)
    if reader in ("check_relations", "pivot_check"):
        assert _LETTER_READERS[reader](ctx12, _with_letters_as(bare, {}), full) in ([], True)


def _assert_letterless_agrees(module):
    """``head`` and ``socle`` of ``module`` with and without letters give the same dimension, degrees, x, y and
    character; without, a module built anew holds no letters, and a simple module is its own head as it is."""
    for take in [head, socle] if module.kind in ("verma", "induced") else [head]:
        full, bare = take(module), take(module, letters=False)
        if full is module:
            assert bare is module
            continue
        assert (bare.v_mats, bare.a_mats) == (None, None)
        assert (bare.kind, bare.dim, bare.zdeg, bare.gdeg) == (full.kind, full.dim, full.zdeg, full.gdeg)
        assert (bare.x_mat, bare.y_mat) == (full.x_mat, full.y_mat)
        assert graded_character(bare) == graded_character(full)


@pytest.mark.parametrize(
    ("m", "iset_text"), [(12, "(2,3)"), (12, "(1,6)"), (12, "(1,6),(3,6)"), (12, "(2,3),(2,9)"), (16, "(2,4),(2,12)")]
)
def test_heads_and_socles_without_letters_agree_with_the_full_ones(m, iset_text):
    # theorems reads the standard module's head and socle, and those of the modules each recursion step
    # induces, for their characters alone; the smaller head and socle, which are induced from, keep their letters
    ctx = get_context(m)
    iset = parse_index_set(ctx, iset_text)
    for label in all_weight_labels(ctx):
        _assert_letterless_agrees(build_verma(ctx, iset, label))
        for pos, pair in enumerate(iset.pairs if iset.size > 1 else ()):
            smaller = build_verma(ctx, iset.without(pos), label)
            for base in (head(smaller), socle(smaller)):
                _assert_letterless_agrees(induce_from_simple(ctx, base, pair))


def _omega_sum(ctx, exponents):
    return sum((ctx.field.zeta(e) for e in exponents), ctx.field.zero)


# A module over the double of the group, the span of the images of one vector of a cell, and the quotient
# by it; on the reduced rows or on the positions that are not their pivots, x or y is not monomial.
ADAPTED_CASES = [
    # reflection cells
    ("M4,10 Mxy:1,1 M1,6", "x*y^2", {4: [0], 7: [1], 20: [2]}),
    # rotation cells other than e and y^n
    ("Mxy:1,0 Mx:1,0 e:rho4", "y^7", {8: [0], 9: [1], 22: [2]}),
    # the cell of e: x swaps the eigenspaces of y for w^k and w^-k
    ("e:rho5 Mxy:1,0 Mxy:0,0", "e", {14: [6, 2], 57: [1, 9], 64: [2]}),
]


@pytest.mark.parametrize("factors, cell, vector", ADAPTED_CASES, ids=[case[1] for case in ADAPTED_CASES])
def test_submodules_and_quotients_get_a_basis_adapted_to_the_group_action(ctx12, factors, cell, vector):
    labels = factors.split()
    module = build_weight(ctx12, parse_weight_label(labels[0]))
    for label in labels[1:]:
        module = tensor_dd(module, build_weight(ctx12, parse_weight_label(label)))
    degree = next(g for g in ctx12.group.elements() if ctx12.group.name(g) == cell)
    vec = {i: _omega_sum(ctx12, exponents) for i, exponents in vector.items()}
    assert all(module.gdeg[i] == degree for i in vec)
    space = reference_generated(module, [vec])
    sub, sub_adapted = _submodule(module, space)
    quot, quot_adapted = _quotient(module, space)
    assert sub_adapted or quot_adapted
    assert group_relation_failures(sub) == group_relation_failures(quot) == []
    assert graded_character(sub) + graded_character(quot) == graded_character(module)


def _sheared_in_each_cell(module):
    """x and y in the basis ``(1 + N) e_j``: N adds to the first vector of each (degree, group degree)
    cell w^t times its t-th other vector, so N^2 = 0 and the basis change is undone by 1 - N."""
    field = module.ctx.field
    cols = [dict() for _ in range(module.dim)]
    cells = {}
    for j, key in enumerate(zip(module.zdeg, module.gdeg)):
        cells.setdefault(key, []).append(j)
    for first, *others in cells.values():
        for t, j in enumerate(others):
            cols[j][first] = field.zeta(t)
    shear = CycMatrix(field, cols, module.dim)
    ident = identity(field, module.dim)
    back, forward = plus(ident, negated(shear)), plus(ident, shear)
    return [times(times(back, monomial_matrix(mat)), forward) for mat in (module.x_mat, module.y_mat)]


def _sum_of_tensor_products(ctx, text):
    """The direct sum of the ``+``-separated tensor products of catalog members."""
    module = None
    for summand in text.split("+"):
        labels = summand.split()
        part = build_weight(ctx, parse_weight_label(labels[0]))
        for label in labels[1:]:
            part = tensor_dd(part, build_weight(ctx, parse_weight_label(label)))
        if module is not None:
            x_mat, y_mat = _unit_block(module.x_mat, part.x_mat), _unit_block(module.y_mat, part.y_mat)
            part = group_module(ctx, module.gdeg + part.gdeg, x_mat, y_mat)
        module = part
    return module


def _line(vec):
    """The vector scaled to 1 at its smallest index, as a hashable key of the line it spans."""
    lead = vec[min(vec)]
    scale = lead.inverse()
    return tuple(sorted((i, x * scale) for i, x in vec.items()))


# cells of e, y^n, other rotations and reflections, with eigenspaces of dimension above one; in the
# last two, x is not a scalar on the eigenspace of y for 1 in the cell of e, and y^n not one on the
# eigenspaces of a reflection
ADAPTED_MODULES = [
    "Mx:0,0 Mx:1,0",
    "Mx:0,1 Mxy:1,1",
    "e:rho1 e:rho1 e:rho1",
    "Mx:0,0 e:rho2 M1,6",
    "e:rho1 e:rho1 + e:chi2",
    "Mx:0,0 + Mx:0,1",
]


@pytest.mark.parametrize("summands", ADAPTED_MODULES)
def test_the_adapted_basis_makes_x_and_y_permute_its_lines(ctx12, summands):
    module = _sum_of_tensor_products(ctx12, summands)
    x_mat, y_mat = _sheared_in_each_cell(module)
    assert as_monomial(x_mat) is None and as_monomial(y_mat) is None
    basis = adapted_basis(ctx12, module.zdeg, module.gdeg, x_mat, y_mat)
    assert all({module.gdeg[i] for i in vec} == {module.gdeg[j]} for j, vec in enumerate(basis))
    assert len(_rref(ctx12.field, basis).pivots) == module.dim
    lines = {_line(vec): j for j, vec in enumerate(basis)}
    for mat in (x_mat, y_mat):
        # each image is a multiple of one basis vector, and no two are of the same one
        assert sorted(lines[_line(mat.apply(vec))] for vec in basis) == list(range(module.dim))


@pytest.mark.parametrize("label_text", ["e:chi1", "e:rho3", "yn:rho2", "M2,3", "Mx:0,0", "Mxy:1,0"])
def test_socle_head_and_subquotient_matrices_hold_no_zero_entry(ctx12, label_text):
    # _on_positions builds its matrices from the images as they stand, with no pass that drops zeros; a
    # submodule it refuses is built by the test helper
    for module in _standard_and_induced(ctx12, label_text):
        built = [socle(module), head(module)]
        negatives = _negatives(module)
        if negatives:
            built.append(_submodule(module, reference_generated(module, negatives))[0])
        for part in built:
            for mat in _generators(part):
                assert all(x for col in mat.sparse_columns() for x in col.values())


def test_hom_space_and_tensor_letter_matrices_hold_no_zero_entry(ctx12):
    # hom_space and tensor_qd build their matrices from column dicts as they stand, with no pass that drops
    # zeros: a hom space writes powers of w, and a tensor letter writes through add_into
    catalog = weight_catalog(ctx12)
    members = [catalog.module(parse_weight_label(text)) for text in ("e:rho1", "yn:rho2", "M2,3", "Mx:0,0", "Mxy:1,0")]
    built = []
    for left in members:
        for right in members:
            product = tensor_dd(left, right)
            for label, _ in decomposition_counts(ctx12, product):
                member = catalog.module(label)
                built += hom_space(member, product) + hom_space(product, member)
    iset = parse_index_set(ctx12, "(2,3)")
    simples = [head(build_verma(ctx12, iset, parse_weight_label(text))) for text in ("e:chi2", "e:rho3", "Mx:0,0")]
    for left in simples:
        for right in simples:
            product = tensor_qd(ctx12, left, right)
            built += [*product.v_mats.values(), *product.a_mats.values()]
    assert built
    for mat in built:
        assert all(x for col in mat.sparse_columns() for x in col.values())


def test_tensor_of_simples_passes_relations(ctx12):
    iset = parse_index_set(ctx12, "(2,3)")
    left = head(build_verma(ctx12, iset, parse_weight_label("e:chi2")))
    right = head(build_verma(ctx12, iset, parse_weight_label("M2,3")))
    product = tensor_qd(ctx12, left, right)
    assert product.dim == left.dim * right.dim
    assert check_relations(product) == []
    assert _char_text(graded_character(product)) == "[0] M2,3"


@pytest.mark.parametrize("source", ["verma", "induced"])
def test_y_power_columns_match_repeated_y(ctx12, source):
    if source == "verma":
        module = _verma(ctx12, "(1,6),(3,6)", "Mx:0,1")
    else:
        module = induce_from_simple(ctx12, head(_verma(ctx12, "(3,6)", "Mx:0,0")), (1, 6))
    one = ctx12.field.one
    expected = [{j: one} for j in range(module.dim)]
    for power in range(ctx12.m):
        assert monomial_matrix(y_power(module, power)).sparse_columns() == expected, power
        expected = [monomial_matrix(module.y_mat).apply(col) for col in expected]
    # y^m = 1, and a power is read mod m
    assert expected == monomial_matrix(y_power(module, 0)).sparse_columns()
    assert y_power(module, -1) == y_power(module, ctx12.m - 1)


def character_dimension(char, n):
    """The dimension of a module with this graded character."""
    return sum(mult * label.dimension(n) for _, entries in char.layers for label, mult in entries)


def test_character_json_round_trip(ctx12):
    verma = _verma(ctx12, "(2,3)", "e:rho3")
    char = graded_character(verma)
    obj = char.to_json_obj()
    assert obj == [
        {"degree": 0, "summands": [{"label": "e:rho3", "mult": 1}]},
        {"degree": -1, "summands": [{"label": "M2,0", "mult": 1}, {"label": "M2,6", "mult": 1}]},
        {"degree": -2, "summands": [{"label": "e:rho3", "mult": 1}]},
    ]
    counts = {
        entry["degree"]: [(parse_weight_label(s["label"]), s["mult"]) for s in entry["summands"]] for entry in obj
    }
    assert GradedCharacter.from_counts(counts) == char
    assert character_dimension(char, ctx12.n) == verma.dim
    shifted = char.shifted(-2)
    assert [z for z, _ in shifted.layers] == [-2, -3, -4]
    assert character_dimension(char + char, ctx12.n) == 2 * verma.dim


def test_socle_refuses_modules_without_kernel_vectors(ctx12):
    verma = _verma(ctx12, "(2,3)", "M2,3")
    soc = socle(verma)
    assert soc.kind == "socle"
    assert min(soc.zdeg) == -2


# Each mutation below breaks one relation; check_relations must name it.


def _mutated(module, y_mat=None, v_mats=(), a_mats=(), x_mat=None):
    """A copy of the module with its x or y matrix or some letters replaced."""
    return QDModule(
        module.ctx,
        module.index_set,
        module.zdeg,
        module.gdeg,
        module.x_mat if x_mat is None else x_mat,
        module.y_mat if y_mat is None else y_mat,
        {**module.v_mats, **dict(v_mats)},
        {**module.a_mats, **dict(a_mats)},
        weight=module.weight,
        kind=module.kind,
    )


def _flip_one_sign(mat):
    cols = [dict(col) for col in mat.sparse_columns()]
    j = next(j for j, col in enumerate(cols) if col)
    i = min(cols[j])
    cols[j][i] = -cols[j][i]
    return CycMatrix(mat.field, cols, mat.nrows)


@pytest.mark.parametrize("source", ["verma", "induced"])
def test_relations_catch_one_flipped_sign_in_a_letter(ctx12, source):
    if source == "verma":
        module = _verma(ctx12, "(2,3),(2,9)", "Mx:0,0")
    else:
        module = induce_from_simple(ctx12, head(_verma(ctx12, "(3,6)", "Mx:0,0")), (1, 6))
    assert check_relations(module) == []
    failures = check_relations(_mutated(module, v_mats={(0, 1): _flip_one_sign(module.v_mats[(0, 1)])}))
    assert "raising letters (0, 1) and (0, -1) do not anticommute" in failures
    x_lines = [line for line in failures if line.startswith("x does not swap")]
    assert sorted(x_lines) == ["x does not swap the sign of v(0,+1)", "x does not swap the sign of v(0,-1)"]
    assert "mixed bracket of a(0, 1) with v(0, 1) does not match the cross term" in failures


@pytest.mark.parametrize("key", [(1, 1), (0, 1)], ids=["monomial", "two entries"])
def test_relations_catch_one_flipped_sign_in_a_lowering_letter(ctx12, key):
    # in this induced module the lowering letters of pair 0 have columns with two entries
    module = induce_from_simple(ctx12, head(_verma(ctx12, "(3,6)", "Mx:0,0")), (1, 6))
    letter = module.a_mats[key]
    assert has_two_entry_column(letter) == (key == (0, 1))
    failures = check_relations(_mutated(module, a_mats={key: _flip_one_sign(letter)}))
    brackets = [line for line in failures if line.startswith(("lowering", "mixed"))]
    if key == (1, 1):
        lowering = ["(0, 1) and (1, 1)", "(0, -1) and (1, 1)"]
    else:
        lowering = ["(0, 1) and (0, 1)", "(0, 1) and (0, -1)", "(0, 1) and (1, 1)", "(0, 1) and (1, -1)"]
    assert brackets == [f"lowering letters {pair} do not anticommute" for pair in lowering] + [
        f"mixed bracket of a{key} with v{kb} does not match the cross term"
        for kb in ((0, 1), (0, -1), (1, 1), (1, -1))
    ]


def test_relations_catch_a_letter_scaled_wrongly_by_y(ctx12):
    # on reflection degrees, conjugation by y shifts the rotation exponent by
    # two, so w^(rotation exponent) times the letter scales under y by w^2 more
    module = _verma(ctx12, "(2,3)", "Mx:0,0")
    twist = diagonal(ctx12.field, [ctx12.field.zeta(divmod(g, ctx12.m)[1]) for g in module.gdeg])
    failures = check_relations(_mutated(module, v_mats={(0, 1): times(module.v_mats[(0, 1)], twist)}))
    assert "y does not scale v(0,+1) as expected" in failures


def test_relations_catch_a_raising_letter_that_does_not_square_to_zero(ctx12):
    # pairs (2,3) and (2,9) have letters of one rotation, so sending v+0 (x) m
    # on to v+0 v+1 (x) m keeps the grading and gives (v+0)^2 != 0
    module = _verma(ctx12, "(2,3),(2,9)", "e:chi1")
    cols = [dict(col) for col in module.v_mats[(0, 1)].sparse_columns()]
    j = induced_position(module, [(0, 1)])
    assert not cols[j]
    cols[j] = dict(module.v_mats[(1, 1)].sparse_columns()[j])
    assert cols[j]
    letter = CycMatrix(ctx12.field, cols, module.dim)
    assert not is_zero(times(letter, letter))
    failures = check_relations(_mutated(module, v_mats={(0, 1): letter}))
    assert "raising letters (0, 1) and (0, 1) do not anticommute" in failures


def test_relations_catch_a_y_of_the_wrong_order(ctx12):
    # 2 y is no power of w anywhere: it does not convert to the type a module holds
    module = _verma(ctx12, "(2,3)", "e:rho1")
    assert as_monomial(_doubled(monomial_matrix(module.y_mat))) is None
    # one entry of a y-cycle of length 6 times w: the cycle's product is w, and w^2 != 1
    module = _verma(ctx12, "(2,3)", "Mx:0,0")
    y = module.y_mat
    turned = UnitMonomial(ctx12.field, y.rows, (y.exps[0] + 1,) + y.exps[1:])
    assert "y^12 != 1" in check_relations(_mutated(module, y_mat=turned))


def _signed_shift(field, dim, m):
    """On each run of m basis vectors, e_t -> e_(t+1) and the last back to -e_0 = w^(m/2) e_0: order 2m.
    A last run shorter than m, of length L, is shifted so too, with order 2L."""
    ends = [min(j - j % m + m, dim) for j in range(dim)]
    rows = [j + 1 if j + 1 < end else j - j % m for j, end in enumerate(ends)]
    return UnitMonomial(field, rows, [0 if j + 1 < end else m // 2 for j, end in enumerate(ends)])


def test_relations_catch_a_y_whose_mth_power_is_minus_one(ctx12):
    # y^m = -1 and y^(2m) = 1: only the exponent m itself tells this y apart
    module = _verma(ctx12, "(2,3)", "Mx:0,0")
    shift = _signed_shift(ctx12.field, module.dim, ctx12.m)
    ident = identity(ctx12.field, module.dim)
    power = ident
    for _ in range(ctx12.m):
        power = times(monomial_matrix(shift), power)
    assert power == negated(ident)
    assert times(power, power) == ident
    assert "y^12 != 1" in check_relations(_mutated(module, y_mat=shift))
    layer = module.layer_module(-1)
    assert layer.dim == ctx12.m
    assert group_relation_failures(layer) == []
    twisted = group_module(ctx12, layer.gdeg, layer.x_mat, _signed_shift(ctx12.field, layer.dim, ctx12.m))
    assert "y^12 != 1" in group_relation_failures(twisted)


def test_theta_congruence_names_each_degree_zero_vector_it_fails_on(ctx12):
    # e:rho3 is projective for (2,3), so the combination of cross terms is nonzero on both degree-zero
    # vectors; negating the first raising letter's column at the last one breaks the congruence there only
    module = _verma(ctx12, "(2,3)", "e:rho3")
    assert theta_congruence(module) == []
    last = module.layer_indices()[0][-1]
    cols = [dict(col) for col in module.v_mats[(0, -1)].sparse_columns()]
    cols[last] = {i: -x for i, x in cols[last].items()}
    mutated = _mutated(module, v_mats={(0, -1): CycMatrix(ctx12.field, cols, module.dim)})
    assert last == 1
    assert theta_congruence(mutated) == ["degree-zero congruence fails for pair (2, 3) on vector 1, of group degree e"]


# A pair taken twice is admissible: its two copies are distinct letters that must anticommute.


@pytest.mark.parametrize("iset_text", ["(1,6),(1,6)", "(2,3),(2,3)"])
def test_relations_hold_over_a_repeated_pair(ctx12, iset_text):
    for label_text in ("M2,3", "Mx:0,0", "Mxy:1,0"):
        module = _verma(ctx12, iset_text, label_text)
        assert module.index_set.pairs[0] == module.index_set.pairs[1]
        assert check_relations(module) == []
        assert theta_congruence(module) == []


@pytest.mark.parametrize("iset_text", ["(1,6),(1,6)", "(2,3),(2,3)"])
def test_relations_name_a_flipped_sign_in_the_second_copy_of_a_repeated_pair(ctx12, iset_text):
    module = _verma(ctx12, iset_text, "Mxy:1,0")
    failures = check_relations(_mutated(module, v_mats={(1, 1): _flip_one_sign(module.v_mats[(1, 1)])}))
    x_lines = [line for line in failures if line.startswith("x does not swap")]
    assert x_lines == ["x does not swap the sign of v(1,+1)", "x does not swap the sign of v(1,-1)"]
    assert "raising letters (1, 1) and (1, -1) do not anticommute" in failures
    assert "mixed bracket of a(1, 1) with v(1, 1) does not match the cross term" in failures
    brackets = [line for line in failures if line.startswith(("raising", "lowering", "mixed"))]
    assert all("(1, 1)" in line for line in brackets)


# check_relations decides a relation whose first letter has sign -1 on its x-mirror, and a bracket on one
# column per cycle of y; the loop of tests/relations.py decides every relation directly, on every column.
# The two must list the same lines in one order.


def _braiding(ctx, pairs):
    """Whether every two of the pairs, a pair with itself too, satisfy w^(i k) = -1."""
    return all((s[0] * t[1]) % ctx.m == ctx.n for s in pairs for t in pairs)


@st.composite
def _index_sets(draw, ctx, most):
    """One to ``most`` pairs that braid; when there is room, a pair is taken twice in half the draws."""
    valid = valid_pairs(ctx)
    picked = [draw(st.sampled_from(valid))]
    for pair in draw(st.lists(st.sampled_from(valid), max_size=most - 1)):
        if _braiding(ctx, picked + [pair]):
            picked.append(pair)
    if len(picked) < most and draw(st.booleans()):
        picked.append(draw(st.sampled_from(picked)))
    return validate_index_set(ctx, picked)


@lru_cache(maxsize=None)
def _head_and_socle(ctx, iset, label):
    verma = build_verma(ctx, iset, label)
    return head(verma), socle(verma)


@st.composite
def _relation_checked_modules(draw):
    """A standard module at m = 12, 16 or 20 over one to three pairs, a module induced from the head or
    the socle of one over one or two pairs at m = 12, or the tensor product of two heads over one pair.
    At least half the weights drawn are reflection weights, on which y moves basis vectors."""
    source = draw(st.sampled_from(("standard", "standard", "head", "socle", "tensor")))
    ctx = get_context(draw(st.sampled_from((12, 16, 20))) if source == "standard" else 12)
    labels = all_weight_labels(ctx)
    reflections = [label for label in labels if label.family in ("Mx", "Mxy")]

    def weight():
        return draw(st.sampled_from(reflections if draw(st.booleans()) else labels))

    if source == "standard":
        return build_verma(ctx, draw(_index_sets(ctx, 3)), weight())
    if source == "tensor":
        iset = draw(_index_sets(ctx, 1))
        left, right = (_head_and_socle(ctx, iset, weight())[0] for _ in range(2))
        return tensor_qd(ctx, left, right)
    iset = draw(_index_sets(ctx, 2))
    base = _head_and_socle(ctx, iset, weight())[source == "socle"]
    fresh = [pair for pair in valid_pairs(ctx) if _braiding(ctx, iset.pairs + (pair,))]
    return induce_from_simple(ctx, base, draw(st.sampled_from(fresh)))


@st.composite
def _reflection_standard_modules(draw, m):
    """A standard module of a reflection weight at order m over one or two pairs: y has cycles of length m/2."""
    ctx = get_context(m)
    reflections = [label for label in all_weight_labels(ctx) if label.family in ("Mx", "Mxy")]
    return build_verma(ctx, draw(_index_sets(ctx, 2)), draw(st.sampled_from(reflections)))


def _letter(module, kind, key):
    return (module.v_mats if kind == "v" else module.a_mats)[key]


def _flipped(module, kind, key):
    """One entry of a letter negated: its x-swap fails, and so may its bracket and y relations."""
    return _mutated(module, **{f"{kind}_mats": {key: _flip_one_sign(_letter(module, kind, key))}})


def _x_mirrored(module, kind, key, i, j, t):
    """Entry (i, j) of a letter and entry (x(i), x(j)) of its partner, each times w^t: as x^2 = 1,
    ``x A x`` is still the partner, so every x-swap holds and only brackets or y can fail."""
    scale, rows = module.ctx.field.zeta(t), module.x_mat.rows
    changed = {}
    for (r, c), name in (((i, j), key), ((rows[i], rows[j]), (key[0], -key[1]))):
        cols = [dict(col) for col in _letter(module, kind, name).sparse_columns()]
        cols[c][r] = cols[c][r] * scale
        changed[name] = CycMatrix(module.ctx.field, cols, module.dim)
    return _mutated(module, **{f"{kind}_mats": changed})


def _twisted(module, group_like, kind, key, t):
    """x or y times a diagonal D that commutes with one letter: D is w^(t c) on the c-th connected
    component of the graph of the letter's entries.  The letter's x-swap or y relation still holds,
    its partner's may not, and the group part may fail: x^2 or (x y)^2 need not be 1."""
    parent = list(range(module.dim))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for j, col in enumerate(_letter(module, kind, key).sparse_columns()):
        for i in col:
            parent[root(i)] = root(j)
    components = {}
    twist = [t * components.setdefault(root(j), len(components)) for j in range(module.dim)]
    g = module.x_mat if group_like == "x" else module.y_mat
    g = UnitMonomial(module.ctx.field, g.rows, [e + d for e, d in zip(g.exps, twist)])
    return _mutated(module, **{f"{group_like}_mat": g})


def _off_cycle_start(module, kind, key, i, j, t):
    """Entry (i, j) of a letter times w^t, j a column that is not the first of its y-cycle: the letter's
    y-scaling fails, so its brackets are decided on every column."""
    cols = [dict(col) for col in _letter(module, kind, key).sparse_columns()]
    cols[j][i] = cols[j][i] * module.ctx.field.zeta(t)
    return _mutated(module, **{f"{kind}_mats": {key: CycMatrix(module.ctx.field, cols, module.dim)}})


def _misgraded(module, kind, key, i, j):
    """Entry (i, j) of a letter moved to the first row of another (degree, group degree) cell that column j
    leaves empty: the letter breaks the grading at column j, and its x-swap fails."""
    cells = list(zip(module.zdeg, module.gdeg))
    cols = [dict(col) for col in _letter(module, kind, key).sparse_columns()]
    row = next(r for r in range(module.dim) if cells[r] != cells[i] and r not in cols[j])
    cols[j][row] = cols[j].pop(i)
    return _mutated(module, **{f"{kind}_mats": {key: CycMatrix(module.ctx.field, cols, module.dim)}})


def _regraded(module, j):
    """Basis vector j given the group degree of y e_j: on a reflection cell that is another degree, so the
    group part fails, while every letter's y-scaling holds and the cross terms change in column j alone."""
    gdeg = list(module.gdeg)
    gdeg[j] = module.gdeg[module.y_mat.rows[j]]
    mats = (module.x_mat, module.y_mat, module.v_mats, module.a_mats)
    return QDModule(module.ctx, module.index_set, module.zdeg, gdeg, *mats, weight=module.weight, kind=module.kind)


def _letter_keys(module):
    """(kind, key) of every letter with an entry."""
    keys = [("v", key) for key, mat in module.v_mats.items() if not is_zero(mat)]
    return keys + [("a", key) for key, mat in module.a_mats.items() if not is_zero(mat)]


@st.composite
def _mutants(draw, module):
    """(mutation, module): the module, or one with a letter's sign flipped, an x-mirrored pair of entries
    scaled, x or y twisted along a letter (``_twisted``), a y of order 2m on runs of m basis vectors, one
    entry of a letter scaled in a column that is not the first of its y-cycle (``_off_cycle_start``), where
    y moves a column with an entry, the group degree of such a column changed (``_regraded``), or one entry
    of a letter moved out of its cell (``_misgraded``)."""
    mutations = ("none", "flipped", "mirrored", "x", "y", "shift", "off_start", "regraded", "misgraded")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "shift":
        return mutation, _mutated(module, y_mat=_signed_shift(module.ctx.field, module.dim, module.ctx.m))
    letters = _letter_keys(module)
    starts = set(module.y_mat.cycle_starts())
    moved = [j for j in range(module.dim) if j not in starts]
    if mutation == "regraded":
        return ("regraded", _regraded(module, draw(st.sampled_from(moved)))) if moved else ("none", module)
    if mutation == "off_start":
        letters = [letter for letter in letters if any(_letter(module, *letter).sparse_columns()[j] for j in moved)]
    if mutation == "none" or not letters:
        return "none", module
    kind, key = draw(st.sampled_from(letters))
    if mutation == "flipped":
        return mutation, _flipped(module, kind, key)
    if mutation in "xy":
        return mutation, _twisted(module, mutation, kind, key, draw(st.integers(1, module.ctx.m - 1)))
    cols = _letter(module, kind, key).sparse_columns()
    j = draw(st.sampled_from([j for j, col in enumerate(cols) if col and (mutation != "off_start" or j in moved)]))
    i = draw(st.sampled_from(sorted(cols[j])))
    if mutation == "misgraded":
        return mutation, _misgraded(module, kind, key, i, j)
    build = _x_mirrored if mutation == "mirrored" else _off_cycle_start
    return mutation, build(module, kind, key, i, j, draw(st.integers(1, module.ctx.m - 1)))


@settings(max_examples=60)
@given(st.data())
def test_relations_decided_on_x_mirrors_match_every_relation_decided(data):
    # every example also takes a reflection weight at m = 16 and at m = 20, where y has 8- and 10-cycles
    sources = (_relation_checked_modules(), _reflection_standard_modules(16), _reflection_standard_modules(20))
    for source in sources:
        mutation, module = data.draw(_mutants(data.draw(source)))
        failures = check_relations(module)
        assert failures == every_relation_failures(module)
        if mutation == "off_start":
            assert any(line.startswith("y does not scale") for line in failures)


def test_a_sign_minus_letter_conjugated_by_an_x_that_breaks_the_grading_is_checked_itself(ctx12):
    # x a transposition of two basis vectors of different cells and v(0,-1) = x v(0,+1) x: both x-swaps
    # hold while the group part fails, so the grading of v(0,-1) is decided on v(0,-1), which breaks it
    module = _verma(ctx12, "(2,3)", "Mx:0,0")
    plus = module.v_mats[(0, 1)]
    cells = list(zip(module.zdeg, module.gdeg))
    # p a column with an entry, q a vector outside the cells of p and of p's image
    p, col = next((j, col) for j, col in enumerate(plus.sparse_columns()) if col)
    q = next(j for j in range(module.dim) if cells[j] not in (cells[p], *(cells[r] for r in col)))
    rows = list(range(module.dim))
    rows[p], rows[q] = q, p
    x = monomial_matrix(UnitMonomial(ctx12.field, rows, [0] * module.dim))
    mutant = _mutated(module, x_mat=as_monomial(x), v_mats={(0, -1): times(x, times(plus, x))})
    failures = check_relations(mutant)
    assert failures == every_relation_failures(mutant)
    assert group_relation_failures(mutant)
    assert not {f"x does not swap the sign of v(0,{sign:+d})" for sign in (1, -1)} & set(failures)
    assert any(line.startswith("v(0,-1) breaks the grading") for line in failures)


@pytest.mark.parametrize("mutation", ["flipped", "mirrored", "x", "y", "misgraded"])
@pytest.mark.parametrize("index", range(4))
def test_each_letter_mutated_lists_the_failures_of_every_relation_decided(index, mutation):
    # flipped: both x-swaps of the pair fail, and on a reflection weight the y relation of the flipped
    # letter alone; mirrored: the group part and every x-swap hold, so each relation with a sign -1
    # first letter takes its mirror's outcome; x or y twisted: the group part fails, and the letter
    # twisted along keeps its x-swap or y relation while its partner's may fail; misgraded: the group
    # part holds and the letter's x-swap fails, so a sign -1 letter is checked for grading itself
    module = _relation_modules()[index]
    for kind, key in _letter_keys(module):
        j, col = next((j, col) for j, col in enumerate(_letter(module, kind, key).sparse_columns()) if col)
        if mutation == "flipped":
            mutant = _flipped(module, kind, key)
        elif mutation == "mirrored":
            mutant = _x_mirrored(module, kind, key, min(col), j, 1)
        elif mutation == "misgraded":
            mutant = _misgraded(module, kind, key, min(col), j)
        else:
            mutant = _twisted(module, mutation, kind, key, 1)
        failures = check_relations(mutant)
        assert failures == every_relation_failures(mutant)
        group_part = group_relation_failures(mutant)
        swaps = [line for line in failures if line.startswith("x does not swap")]
        if mutation == "flipped":
            assert {f"x does not swap the sign of {kind}({key[0]},{sign:+d})" for sign in (1, -1)} <= set(swaps)
        elif mutation == "mirrored":
            assert failures and not group_part and not swaps
        elif mutation == "misgraded":
            assert f"{kind}({key[0]},{key[1]:+d}) breaks the grading at column {j}" in failures and not group_part
        else:
            relation = "x does not swap the sign of {}" if mutation == "x" else "y does not scale {} as expected"
            assert failures and group_part
            assert relation.format(f"{kind}({key[0]},{key[1]:+d})") not in failures
