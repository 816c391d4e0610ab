from __future__ import annotations

import pytest

from dihedral_doubles import qdouble
from dihedral_doubles.cyclotomic import CycMatrix, EchelonBasis
from dihedral_doubles.nichols import IndexSet, parse_index_set
from dihedral_doubles.qdouble import (
    GradedCharacter,
    build_verma,
    check_relations,
    graded_character,
    head,
    highest_weight_vectors,
    induce_from_simple,
    phi_action,
    quotient,
    socle,
    submodule_generated,
    subspace_as_module,
    tensor_qd,
    theta_action,
    theta_congruence,
    y_power_columns,
)
from dihedral_doubles.weights import QDModule, group_module, group_relation_failures, parse_weight_label


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
    # the lowering letter a+ of pair 0 on the top monomial over the first weight vector
    source = verma.basis_labels.index("v+0∧v-0⊗m+")
    image = verma.a_mats[(0, 1)].sparse_columns()[source]
    named = {verma.basis_labels[ix]: coeff for ix, coeff in image.items()}
    assert set(named) == {"v-0⊗m+"}
    assert named["v-0⊗m+"] == ctx12.field.from_integer(2)


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
        for col, column in enumerate(mat.sparse_columns()):
            for row, _ in column.items():
                assert zdeg[row] == zdeg[col]


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
    space = submodule_generated(verma, hw[-1])
    assert len(space.rows) == 12
    quotient_module = quotient(verma, space)
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
    # one weight per family; the seeds are those of head and socle
    for label_text in ("e:chi2", "e:rho1", "yn:chi3", "yn:rho2", "M2,3", "Mx:0,0", "Mxy:1,0"):
        verma = _verma(ctx12, iset_text, label_text)
        by_degree = highest_weight_vectors(verma)
        lowest = by_degree[min(z for z, vecs in by_degree.items() if vecs)]
        negatives = [vec for z, vecs in by_degree.items() if z < 0 for vec in vecs]
        for seed in (lowest, negatives):
            for row in submodule_generated(verma, seed).rows:
                assert len({(verma.zdeg[i], verma.gdeg[i]) for i in row}) == 1


def test_subspaces_that_are_not_submodules_are_rejected(ctx12):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    one = ctx12.field.one
    span = EchelonBasis(ctx12.field)
    span.insert({0: one})
    with pytest.raises(AssertionError, match="not stable under a generator"):
        subspace_as_module(verma, span)
    layer = verma.layer_indices()[0]
    mixed = next(i for i in layer if verma.gdeg[i] != verma.gdeg[layer[0]])
    with pytest.raises(ValueError, match="not homogeneous"):
        submodule_generated(verma, [{layer[0]: one, mixed: one}])


def test_socle_rejects_part_of_the_lowest_kernel(ctx12, monkeypatch):
    verma = _verma(ctx12, "(2,3)", "Mx:0,0")
    full = qdouble.highest_weight_vectors

    def first_only(module, degree=None):
        return full(module, degree)[:1]

    monkeypatch.setattr(qdouble, "highest_weight_vectors", first_only)
    with pytest.raises(AssertionError, match="not stable under the generators"):
        socle(verma)


def _direct_sum(first, second, zshift, kind):
    """The direct sum on concatenated bases, with the degrees of ``second`` shifted by zshift."""
    n = first.dim

    def block(a, b):
        cols = list(a.sparse_columns()) + [{n + i: x for i, x in col.items()} for col in b.sparse_columns()]
        return CycMatrix(a.field, cols, n + b.nrows)

    return QDModule(
        first.ctx,
        first.index_set,
        first.basis_labels + second.basis_labels,
        first.zdeg + tuple(z + zshift for z in second.zdeg),
        first.gdeg + second.gdeg,
        block(first.x_mat, second.x_mat),
        block(first.y_mat, second.y_mat),
        {key: block(mat, second.v_mats[key]) for key, mat in first.v_mats.items()},
        {key: block(mat, second.a_mats[key]) for key, mat in first.a_mats.items()},
        weight=first.weight,
        kind=kind,
    )


def test_socle_of_a_standard_module_must_reach_its_whole_bottom_layer(ctx12, monkeypatch):
    # the standard module with its one-dimensional head set beside its bottom
    # layer: the lowest joint kernel is then two weights
    verma = _verma(ctx12, "(2,3)", "e:chi1")
    top, bottom = head(verma), min(verma.zdeg)
    padded = _direct_sum(verma, top, bottom, "verma")
    with pytest.raises(AssertionError, match="not a single multiplicity-one weight"):
        socle(padded)
    full = qdouble.highest_weight_vectors

    def standard_part_only(module, degree=None):
        return [vec for vec in full(module, degree) if max(vec) < verma.dim]

    # a kernel that drops the added weight gives a socle that passes every
    # other check but holds only half of the bottom layer
    monkeypatch.setattr(qdouble, "highest_weight_vectors", standard_part_only)
    assert _char_text(graded_character(socle(_direct_sum(verma, top, bottom, "sum")))) == "[-2] e:chi2"
    with pytest.raises(AssertionError, match="misses part of the bottom layer"):
        socle(padded)


def test_cross_term_operators_detect_weight_class(ctx12):
    def weight(text):
        # a weight is the standard module over the empty index set
        return build_verma(ctx12, IndexSet(12, ()), parse_weight_label(text))

    rigid = weight("e:chi1")
    for eps in (1, -1):
        for mu in (1, -1):
            assert phi_action(ctx12, (2, 3), eps, mu, rigid).is_zero()
    projective = weight("e:rho3")
    assert not theta_action(ctx12, (2, 3), projective).is_zero()
    reflection = weight("Mx:0,0")
    assert not phi_action(ctx12, (2, 3), 1, -1, reflection).is_zero()


def test_induction_multiplies_dimension_by_four(ctx12):
    base = head(_verma(ctx12, "(3,6)", "Mx:0,0"))
    assert base.dim == 12
    induced = induce_from_simple(ctx12, base, (1, 6))
    assert induced.dim == 48
    assert check_relations(induced) == []
    assert _char_text(graded_character(head(induced))) == (
        "[0] Mx:0,0 | [-1] 2*Mxy:0,0 | [-2] Mx:0,0"
    )


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
        assert y_power_columns(module, power) == expected, power
        expected = [module.y_mat.apply(col) for col in expected]
    # y^m = 1, and a power is read mod m
    assert expected == y_power_columns(module, 0)
    assert y_power_columns(module, -1) == y_power_columns(module, ctx12.m - 1)


def test_character_json_round_trip(ctx12):
    verma = _verma(ctx12, "(2,3)", "e:rho3")
    char = graded_character(verma)
    assert GradedCharacter.from_json_obj(char.to_json_obj()) == char
    assert char.dimension(ctx12.n) == verma.dim
    shifted = char.shifted(-2)
    assert shifted.degrees() == [-2, -3, -4]
    assert (char + char).dimension(ctx12.n) == 2 * verma.dim


def test_socle_refuses_modules_without_kernel_vectors(ctx12):
    verma = _verma(ctx12, "(2,3)", "M2,3")
    soc = socle(verma)
    assert soc.kind == "socle"
    assert min(soc.zdeg) == -2


# Each mutation below breaks one relation; check_relations must name it.


def _mutated(module, y_mat=None, v_mats=()):
    """A copy of the module with its y matrix or some raising letters replaced."""
    return QDModule(
        module.ctx,
        module.index_set,
        module.basis_labels,
        module.zdeg,
        module.gdeg,
        module.x_mat,
        module.y_mat if y_mat is None else y_mat,
        {**module.v_mats, **dict(v_mats)},
        dict(module.a_mats),
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


def test_relations_catch_a_letter_scaled_wrongly_by_y(ctx12):
    # on reflection degrees, conjugation by y shifts the rotation exponent by
    # two, so w^(rotation exponent) times the letter scales under y by w^2 more
    module = _verma(ctx12, "(2,3)", "Mx:0,0")
    twist = CycMatrix.diagonal(ctx12.field, [ctx12.omega(g.rot) for g in module.gdeg])
    failures = check_relations(_mutated(module, v_mats={(0, 1): module.v_mats[(0, 1)] * twist}))
    assert "y does not scale v(0,+1) as expected" in failures


def test_relations_catch_a_raising_letter_that_does_not_square_to_zero(ctx12):
    # pairs (2,3) and (2,9) have letters of one rotation, so sending v+0 (x) m
    # on to v+0 v+1 (x) m keeps the grading and gives (v+0)^2 != 0
    module = _verma(ctx12, "(2,3),(2,9)", "e:chi1")
    cols = [dict(col) for col in module.v_mats[(0, 1)].sparse_columns()]
    j = module.basis_labels.index("v+0⊗m")
    assert not cols[j]
    cols[j] = dict(module.v_mats[(1, 1)].sparse_columns()[j])
    assert cols[j]
    letter = CycMatrix(ctx12.field, cols, module.dim)
    assert not (letter * letter).is_zero()
    failures = check_relations(_mutated(module, v_mats={(0, 1): letter}))
    assert "raising letters (0, 1) and (0, 1) do not anticommute" in failures


def test_relations_catch_a_y_of_the_wrong_order(ctx12):
    module = _verma(ctx12, "(2,3)", "e:rho1")
    two = CycMatrix.diagonal(ctx12.field, [ctx12.field.from_integer(2)] * module.dim)
    failures = check_relations(_mutated(module, y_mat=two * module.y_mat))
    assert "y^12 != 1" in failures


def _signed_shift(field, dim, m):
    """On each run of m basis vectors, e_t -> e_(t+1) and the last back to -e_0: order 2m."""
    one = field.one
    cols = [{j + 1: one} if (j + 1) % m else {j + 1 - m: -one} for j in range(dim)]
    return CycMatrix(field, cols, dim)


def test_relations_catch_a_y_whose_mth_power_is_minus_one(ctx12):
    # y^m = -1 and y^(2m) = 1: only the exponent m itself tells this y apart
    module = _verma(ctx12, "(2,3)", "Mx:0,0")
    shift = _signed_shift(ctx12.field, module.dim, ctx12.m)
    ident = CycMatrix.identity(ctx12.field, module.dim)
    power = ident
    for _ in range(ctx12.m):
        power = shift * power
    assert power == -ident
    assert power * power == ident
    assert "y^12 != 1" in check_relations(_mutated(module, y_mat=shift))
    layer = module.layer_module(-1)
    assert layer.dim == ctx12.m
    assert group_relation_failures(layer) == []
    twisted = group_module(
        ctx12, layer.gdeg, layer.x_mat, _signed_shift(ctx12.field, layer.dim, ctx12.m), layer.basis_labels
    )
    assert "y^12 != 1" in group_relation_failures(twisted)
