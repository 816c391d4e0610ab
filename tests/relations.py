"""The every-relation reference for ``qdouble.check_relations``.

``check_relations`` decides a relation whose first letter has sign -1 on
its x-mirror, when the group part allows, and a bracket on the first column
of each cycle of y's row map, when the group part and both letters'
y-scalings hold.  :func:`every_relation_failures` is the loop it replaced:
it decides every relation directly, each letter's grading and every
bracket on every column, in the same order and with the same failure
lines, so the tests can insist that the two lists are equal.
"""

from __future__ import annotations

from dihedral_doubles.cyclotomic import CycMatrix
from dihedral_doubles.qdouble import _bracket_equals, _cross_term, _letter_view, _products_equal, _y_turns
from dihedral_doubles.weights import QDModule, grading_failure, group_relation_failures


def every_relation_failures(module: QDModule) -> list[str]:
    """The failures of every defining relation, each decided on the module's own matrices."""
    group = module.ctx.group
    failures = group_relation_failures(module)
    pairs = module.index_set.pairs
    letters: dict[tuple[str, tuple[int, int]], CycMatrix] = {}
    # a raising letter lowers the degree by one and multiplies the group
    # degree by y^(+-i); a lowering letter does the opposite
    for kind, mats, zshift in (("v", module.v_mats, -1), ("a", module.a_mats, 1)):
        for (pos, sign), mat in mats.items():
            shift = group.rotation(-zshift * sign * pairs[pos][0])
            name = f"{kind}({pos},{sign:+d})"
            failure = grading_failure(module, name, mat.sparse_columns(), zshift, group.products[shift])
            if failure:
                failures.append(failure)
            letters[(kind, (pos, sign))] = mat

    x, y = module.x_mat, module.y_mat
    for (kind, (pos, sign)), mat in letters.items():
        name = f"{kind}({pos},{sign:+d})"
        partner = letters[(kind, (pos, -sign))]
        k = pairs[pos][1]
        if not _products_equal(x, mat, partner, x, 0):
            failures.append(f"x does not swap the sign of {name}")
        if not _products_equal(y, mat, mat, y, sign * k if kind == "v" else -sign * k):
            failures.append(f"y does not scale {name} as expected")

    views = {key: _letter_view(mat) for key, mat in letters.items()}
    every = range(module.dim)

    def bracket_holds(left, right, cross):
        return _bracket_equals(letters[left], letters[right], cross, views[left], views[right], every)

    # a letter is bracketed with itself, as the same matrix, only to check A^2 = 0
    v_keys = sorted(module.v_mats, key=lambda key: (key[0], -key[1]))
    a_keys = sorted(module.a_mats, key=lambda key: (key[0], -key[1]))
    for idx, ka in enumerate(v_keys):
        for kb in v_keys[idx:]:
            if not bracket_holds(("v", ka), ("v", kb), None):
                failures.append(f"raising letters {ka} and {kb} do not anticommute")
    for idx, ka in enumerate(a_keys):
        for kb in a_keys[idx:]:
            if not bracket_holds(("a", ka), ("a", kb), None):
                failures.append(f"lowering letters {ka} and {kb} do not anticommute")
    for ka in a_keys:
        for kb in v_keys:
            pair = pairs[ka[0]]
            cross = _cross_term(module, pair, ka[1], kb[1], _y_turns(module, pair[0])) if ka[0] == kb[0] else None
            if not bracket_holds(("a", ka), ("v", kb), cross):
                failures.append(f"mixed bracket of a{ka} with v{kb} does not match the cross term")
    return failures
