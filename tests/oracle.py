"""The operator oracle: the class of a weight read off the cross-term operators themselves.

``theorems.classify_weight`` classes a weight by a closed-form table in the
arithmetic of the pair.  This is the second side of that claim: it builds
the weight as explicit matrices and evaluates the cross terms on it, as
matrices made from the column readers ``qdouble.check_relations`` and
``qdouble.theta_congruence`` use.  The tests insist the two sides agree.
"""

from __future__ import annotations

from dihedral_doubles.cyclotomic import CycMatrix
from dihedral_doubles.dihedral import DihedralContext
from dihedral_doubles.qdouble import _cross_term, _pair_terms, _theta_column, _y_turns
from dihedral_doubles.theorems import PROJECTIVE, REFLECTION, RIGID
from dihedral_doubles.weights import QDModule, WeightLabel, build_weight
from matrices import is_zero


def phi_action(ctx: DihedralContext, pair: tuple[int, int], eps: int, mu: int, module: QDModule) -> CycMatrix:
    """Matrix of the rank-lowering cross term for one choice of signs, from ``qdouble._cross_term``."""
    column = _cross_term(module, pair, eps, mu, _y_turns(module, pair[0]))
    return CycMatrix(ctx.field, [column(j) for j in range(module.dim)], module.dim)


def theta_action(ctx: DihedralContext, pair: tuple[int, int], module: QDModule) -> CycMatrix:
    """The degree-preserving combination ``pm mp - pp mm`` of the four cross terms of one pair."""
    terms = _pair_terms(module, pair)
    return CycMatrix(ctx.field, [_theta_column(terms, j) for j in range(module.dim)], module.dim)


def classify_weight_by_action(ctx: DihedralContext, label: WeightLabel, pair: tuple[int, int]) -> str:
    """Class of ``label`` relative to ``pair``, read off the cross terms.

    Independent of ``classify_weight``: builds the weight as explicit
    matrices, the module over the empty index set, and evaluates the four
    cross-term operators on it.  Nonzero mixed terms mean reflection type;
    all four vanishing means rigid; a nonvanishing quadratic combination
    with zero mixed terms means projective.
    """
    module = build_weight(ctx, label)
    ops = {(eps, mu): phi_action(ctx, pair, eps, mu, module) for eps in (+1, -1) for mu in (+1, -1)}
    if not is_zero(ops[(+1, -1)]) or not is_zero(ops[(-1, +1)]):
        return REFLECTION
    if all(is_zero(op) for op in ops.values()):
        return RIGID
    if not is_zero(theta_action(ctx, pair, module)):
        return PROJECTIVE
    raise ArithmeticError(
        f"degenerate cross terms for {label} at pair {pair}: "
        "diagonal terms nonzero but their product vanishes"
    )
