"""Slow tier: what ``verify_simple`` reports outside the proven regime, pinned per check.

The paper proves its results for m = 4t with t >= 3.  ``get_context`` with
``unsafe=True`` admits any even m >= 4, and the CLI labels a failure there
OUTSIDE REGIME rather than MISMATCH.  These are records, not claims: they
pin how many cases fail each check, so that a change that moves behaviour
outside the regime shows up.  No case may raise.

- m = 8 (t = 2): every singleton and two-pair case passes every check.
- m = 6, 10 and 14 (m = 2 mod 4, n = m/2 odd): only ``qdim_pattern`` fails.
  The pivot is y^n times the sign character that negates the rotation,
  and ``quantum_dimension`` and ``is_spherical`` read the paper's rules
  for 4 | m.  For odd n a simple that is not rigid for its pair can have
  a nonzero quantum dimension, such as ``(1,5)``, ``e:chi3`` at m = 10,
  whose quantum dimension is -4.

Run with ``PYTHONPATH=src python -m pytest -q slow``.
"""

from __future__ import annotations

import pytest

from dihedral_doubles import get_context
from dihedral_doubles.nichols import validate_index_set
from dihedral_doubles.theorems import verify_simple
from dihedral_doubles.weights import all_weight_labels, parse_weight_label
from test_proven_regime import _pair_sets

# (m, pairs per set): the number of cases, of cases whose report is not ok, and of cases that fail each
# check that fails at all
OUTCOMES = {
    (6, 1): (128, 98, {"qdim_pattern": 98}),
    (8, 1): (368, 0, {}),
    (10, 1): (448, 372, {"qdim_pattern": 372}),
    (14, 1): (1120, 978, {"qdim_pattern": 978}),
    (8, 2): (736, 0, {}),
    (10, 2): (1280, 1100, {"qdim_pattern": 1100}),
}


def _failing_checks(report) -> list[str]:
    """The checks of a report's JSON that read false; the recursion fails when one of its steps does."""
    checks = report.to_json_obj()["checks"]
    recursion = checks.pop("recursion")
    failing = [name for name, value in checks.items() if value is False]
    return failing + ["recursion"] * (not all(step["ok"] for step in recursion))


@pytest.mark.parametrize("m, size", list(OUTCOMES), ids=[f"m{m}-{size}pair" for m, size in OUTCOMES])
def test_outcomes_outside_the_proven_regime(m, size):
    ctx = get_context(m, unsafe=True)
    cases, failing, not_ok = 0, {}, 0
    for index_set in _pair_sets(ctx, size):
        for label in all_weight_labels(ctx):
            report = verify_simple(ctx, index_set, label)
            cases += 1
            not_ok += not report.ok
            for name in _failing_checks(report):
                failing[name] = failing.get(name, 0) + 1
    assert (cases, not_ok, failing) == OUTCOMES[(m, size)]


def test_a_non_rigid_simple_at_m_10_has_a_nonzero_quantum_dimension():
    ctx = get_context(10, unsafe=True)
    report = verify_simple(ctx, validate_index_set(ctx, [(1, 5)]), parse_weight_label("e:chi3"))
    assert report.pair_classes == ("P",)
    assert report.to_json_obj()["qdim"] == "-4"
    assert report.qdim_ok is False
