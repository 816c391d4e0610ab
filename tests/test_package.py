"""Guards on the shape of the package rather than on its mathematics.

The runtime must stay standard-library only, and the distribution version
must be the package's.  Outside instrumentation (``benchmarks/tracer.py``)
wraps a few entry points by name, so each must stay bound where it is
looked up and be reached by the verification paths it is meant to time.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import dihedral_doubles
from dihedral_doubles import cyclotomic, theorems, weights
from dihedral_doubles.cyclotomic import CycMatrix, CycNum
from dihedral_doubles.nichols import parse_index_set
from dihedral_doubles.weights import parse_weight_label, weight_catalog

SOURCES = sorted(Path(dihedral_doubles.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative import of the package itself
        for name in names:
            top = name.partition(".")[0]
            assert top in sys.stdlib_module_names or top == "dihedral_doubles", f"{path.name} imports {name}"


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # only ``__init__`` imports names to re-export them
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports {unused} without using them"


# (owner, attribute): a method defined in the class body, or a module global
ENTRY_POINTS = (
    (CycNum, "inverse"),
    (CycNum, "__mul__"),
    (cyclotomic, "_rref"),
    (CycMatrix, "sparse_columns"),
    (weights, "hom_space"),
    (weights, "decomposition_counts"),
    (theorems, "decompose"),
)


def _bindings(owner, attr):
    """Where the package binds an entry point: the class, or every module global that is the function.

    Modules import functions by name (``from .cyclotomic import _rref``), so
    a module global is wrapped wherever it is bound, as the tracer does.
    """
    if isinstance(owner, type):
        return [owner]
    original = vars(owner)[attr]
    package = [module for name, module in sys.modules.items() if name.partition(".")[0] == "dihedral_doubles"]
    return [module for module in package if vars(module).get(attr) is original]


def test_traced_entry_points_are_bound_and_reached(ctx12, monkeypatch):
    weight_catalog(ctx12)
    assert theorems.decompose is weights.decompose
    calls: Counter = Counter()
    for owner, attr in ENTRY_POINTS:
        original = vars(owner)[attr]

        def counting(*args, _original=original, _name=f"{owner.__name__}.{attr}", **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for binding in _bindings(owner, attr):
            monkeypatch.setattr(binding, attr, counting)
    names = {f"{owner.__name__}.{attr}" for owner, attr in ENTRY_POINTS}
    label = parse_weight_label("Mx:0,0")

    theorems.verify_simple(ctx12, parse_index_set(ctx12, "(2,3)"), label)
    assert set(calls) == names
    calls.clear()
    theorems.verify_reflection_split(ctx12, (2, 3), label)
    assert set(calls) == names


def test_reflection_split_decomposes_once_through_the_module_global(ctx12, monkeypatch):
    # the benchmark records the summands by rebinding ``theorems.decompose``
    # and expects exactly one result per case
    results = []

    def recording(ctx, module):
        results.append(weights.decompose(ctx, module))
        return results[-1]

    monkeypatch.setattr(theorems, "decompose", recording)
    for pair, text in (((2, 3), "Mx:0,0"), ((6, 5), "Mxy:1,0")):
        results.clear()
        theorems.verify_reflection_split(ctx12, pair, parse_weight_label(text))
        assert len(results) == 1


def test_distribution_version_matches_the_package():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["name"] == "dihedral-doubles"
    assert pyproject["project"]["version"] == dihedral_doubles.__version__
