"""Spans around the package's layer entry points, recorded from outside it.

The tracer replaces each entry point with a wrapper that records a span:
name, start, end, parent span and case id.  Spans stay in memory until the
run ends.  Modules import many entry points by name (``from .qdouble import
head``), so a wrapper is bound in place of every binding of the original in
every loaded module of the package; ``_rref`` is only reached through the
``cyclotomic`` module globals and is wrapped there.  Field multiplication is
counted without spans: it runs millions of times per run.

A layer's self time is its spans' duration minus the part of each interval
covered by its child spans; its total time sums the outermost spans of that
name only, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Iterable

# Entry points traced with spans: span name -> (module, attribute).  A dotted
# attribute names a method of a class in that module.
SPANNED = {
    "cyclotomic.inverse": ("dihedral_doubles.cyclotomic", "CycNum.inverse"),
    "cyclotomic.rref": ("dihedral_doubles.cyclotomic", "_rref"),
    "cyclotomic.sparse_columns": ("dihedral_doubles.cyclotomic", "CycMatrix.sparse_columns"),
    "weights.hom_space": ("dihedral_doubles.weights", "hom_space"),
    "weights.decomposition_counts": ("dihedral_doubles.weights", "decomposition_counts"),
    "weights.decompose": ("dihedral_doubles.weights", "decompose"),
    "weights.weight_catalog": ("dihedral_doubles.weights", "weight_catalog"),
    "qdouble.build_verma": ("dihedral_doubles.qdouble", "build_verma"),
    "qdouble.induce_from_simple": ("dihedral_doubles.qdouble", "induce_from_simple"),
    "qdouble.head": ("dihedral_doubles.qdouble", "head"),
    "qdouble.socle": ("dihedral_doubles.qdouble", "socle"),
    "qdouble.graded_character": ("dihedral_doubles.qdouble", "graded_character"),
    "qdouble.check_relations": ("dihedral_doubles.qdouble", "check_relations"),
    "qdouble.theta_congruence": ("dihedral_doubles.qdouble", "theta_congruence"),
    "theorems.predicted_character": ("dihedral_doubles.theorems", "predicted_character"),
    "theorems.quantum_dimension": ("dihedral_doubles.theorems", "quantum_dimension"),
    "theorems.verify_simple": ("dihedral_doubles.theorems", "verify_simple"),
    "theorems.verify_reflection_split": ("dihedral_doubles.theorems", "verify_reflection_split"),
}
MUL = ("dihedral_doubles.cyclotomic", "CycNum.__mul__")

CASE = "case"

# Entry points every case of a workload reaches; a traced run that records
# no call to one of them has missed a binding and fails.
_FIELD_AND_WEIGHTS = (
    "cyclotomic.mul",
    "cyclotomic.inverse",
    "cyclotomic.rref",
    "cyclotomic.sparse_columns",
    "weights.hom_space",
    "weights.decompose",
)
_SIMPLE = _FIELD_AND_WEIGHTS + (
    "weights.decomposition_counts",
    "qdouble.build_verma",
    "qdouble.head",
    "qdouble.socle",
    "qdouble.graded_character",
    "qdouble.check_relations",
    "qdouble.theta_congruence",
    "theorems.predicted_character",
    "theorems.verify_simple",
)
EXPECTED = {
    "singleton_sweep": _SIMPLE,
    "two_pair_sweep": _SIMPLE + ("qdouble.induce_from_simple", "theorems.quantum_dimension"),
    "reflection_split": _FIELD_AND_WEIGHTS + ("theorems.verify_reflection_split",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "case")

    def __init__(self, name: str, start: float, end: float, parent: int, case: int) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.case = case


def _module_key(module) -> tuple:
    """Content key of a module: two calls with equal keys compute one character."""
    return (module.ctx.m, module.index_set.pairs, module.weight, module.dim, module.zdeg, module.gdeg)


class Tracer:
    """Records spans and counts; :meth:`close` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.mul_calls = 0
        self.inverse_operands: set = set()
        self.verma_keys: Counter = Counter()
        self.character_keys: Counter = Counter()

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        observers: dict[str, Callable] = {
            "cyclotomic.inverse": lambda num: self.inverse_operands.add((num.coords, num.den)),
            "qdouble.build_verma": lambda ctx, iset, weight: self.verma_keys.update(
                [(ctx.m, iset.pairs, weight)]
            ),
            "qdouble.graded_character": lambda module: self.character_keys.update([_module_key(module)]),
        }
        for name, (module, attr) in SPANNED.items():
            original = _resolve(module, attr)
            self._rebind(original, self._spanning(name, original, observers.get(name)))
        original_mul = _resolve(*MUL)
        self._rebind(original_mul, self._counting(original_mul))

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Bind ``wrapper`` wherever the package binds ``original``."""
        found = False
        for target in _package_namespaces():
            for attr, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, attr, value))
                    setattr(target, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {original.__qualname__} found to wrap")

    def close(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def _spanning(self, name: str, func: Callable, observe: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.case)
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        wrapper.__wrapped__ = func
        return wrapper

    def _counting(self, func: Callable) -> Callable:
        def wrapper(a, b):
            self.mul_calls += 1
            return func(a, b)

        wrapper.__wrapped__ = func
        return wrapper

    # -- cases --------------------------------------------------------------

    def start_cases(self) -> None:
        """Forget counts made during set-up; spans before now keep case -1."""
        self.mul_calls = 0
        self.inverse_operands.clear()
        self.verma_keys.clear()
        self.character_keys.clear()

    def run_case(self, case: int, call: Callable):
        """Run ``call`` inside a root span for case number ``case``."""
        self.case = case
        return self._spanning(CASE, call, None)()

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name == "cyclotomic.mul":
            return self.mul_calls
        return sum(1 for span in self.spans if span.name == name and span.case >= 0)

    def check_reached(self, expected: Iterable[str]) -> None:
        missed = [name for name in expected if self.calls(name) == 0]
        if missed:
            raise RuntimeError(f"traced entry points recorded no calls: {', '.join(missed)}")

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("span\tname\tstart\tend\tparent\tcase\n")
            for index, span in enumerate(self.spans):
                out.write(f"{index}\t{span.name}\t{span.start:.9f}\t{span.end:.9f}\t{span.parent}\t{span.case}\n")


def _resolve(module: str, attr: str):
    target = sys.modules[module]
    for part in attr.split("."):
        target = vars(target)[part] if isinstance(target, type) else getattr(target, part)
    return target


def _package_namespaces():
    """Every module of the package and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name == "dihedral_doubles" or name.startswith("dihedral_doubles."):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: spans[k].start):
            start = max(spans[kid].start, reach)
            end = min(spans[kid].end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_table(spans: list[Span], setup: bool = False) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name, over the cases or the set-up."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if (span.case < 0) != setup:
            continue
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[index]
        if not _has_ancestor_named(spans, index, span.name):
            row["total_s"] += span.end - span.start
    return table


def _has_ancestor_named(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def repeat_ratio(keys: Counter) -> float:
    """Share of calls whose key was already seen earlier in the run."""
    calls = sum(keys.values())
    return (calls - len(keys)) / calls if calls else 0.0
