"""Slow tier: the catalog's characters at m = 24, 28 and 32 against their coordinate reference.

Tier-1 (``tests/test_weights.py``) compares every catalog member's weight
rows and trace vector with the reference that builds them in field
coordinates, and checks its Gram matrix by coordinate dot products, at
m = 12, 16 and 20.  This runs the same comparison on the three largest
catalogs of the proven regime.  Run with ``PYTHONPATH=src python -m pytest
-q slow``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_weights import assert_catalog_matches_the_coordinate_reference  # noqa: E402


@pytest.mark.parametrize("m", [24, 28, 32])
def test_catalog_members_match_the_coordinate_reference(m):
    assert_catalog_matches_the_coordinate_reference(m)
