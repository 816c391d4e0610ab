"""Benchmark workloads: seeded case streams, case execution and output digests.

One case is one verification: a single ``verify_simple`` call or a single
``verify_reflection_split`` call.  Each workload is a list of strata, each
stratum a list of cases, and a round takes one case of each stratum.  Within
a stratum, ordered by the cost each case had when the reference was taken,
round r picks the case at quantile ``(vdc(r) + offset) mod 1``: ``vdc`` is
the van der Corput sequence 0, 1/2, 1/4, 3/4, ... .  The seed draws one
offset u, and the k-th stratum a round visits gets offset ``u + vdc(k)``.
So the first rounds of any seed spread evenly over each stratum's cost
range, the strata of one round take low and high quantiles in equal share,
and throughput and per-case latency stay comparable between seeds.

The engine outputs of a case (dimensions, head and socle graded characters,
quantum dimension, or the summands ``decompose`` finds for a split) are hashed
into a per-case digest and compared with ``reference.json``, taken on the
commit that introduced the benchmark.  The closed-form check flags are kept
out of the digest: fixing a formula changes which cases pass, not what the
engine computes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterator

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Workload name -> orders of the dihedral group it needs a catalog for.
ORDERS = {
    "singleton_sweep": (12, 16),
    "two_pair_sweep": (12,),
    "reflection_split": (12, 16),
}
WORKLOADS = tuple(ORDERS)

TWO_PAIR_SETS = (((1, 6), (3, 6)), ((2, 3), (2, 9)))
REFLECTION_FAMILIES = ("Mx", "Mxy")

# A timed run verifies one case list in this many passes, each in a fresh
# interpreter.  The costly two-pair cases get one pass of about 35 cases,
# since the cost mix of fewer cases differs too much between seeds.
PASSES = {"singleton_sweep": 2, "two_pair_sweep": 1, "reflection_split": 3}
# Share of a timed run's seconds that its passes take together at the
# reference costs; set-up takes the rest.
CASE_SHARE = 0.8

# Cases in the fixed list a traced run replays, per workload.  Sized so that
# the untraced and the traced replay together take about as long as a run.
TRACE_CASES = {
    "singleton_sweep": 100,
    "two_pair_sweep": 28,
    "reflection_split": 528,
}


@dataclass(frozen=True)
class Case:
    """One verification: ``kind`` is ``simple`` or ``split``."""

    kind: str
    m: int
    pairs: tuple[tuple[int, int], ...]
    weight: str

    @property
    def key(self) -> str:
        pairs = ",".join(f"({i},{k})" for i, k in self.pairs)
        return f"{self.kind} m={self.m} {pairs} {self.weight}"


def strata(workload: str) -> list[list[Case]]:
    """The cases of a workload, grouped into strata of similar cost."""
    from dihedral_doubles import get_context, valid_pairs
    from dihedral_doubles.weights import all_weight_labels

    def labels(m: int) -> list:
        return all_weight_labels(get_context(m))

    if workload == "singleton_sweep":
        return [
            [Case("simple", m, (pair,), str(lab)) for pair in valid_pairs(get_context(m)) for lab in labels(m)]
            for m in (12, 16)
        ]
    if workload == "reflection_split":
        return [
            [
                Case("split", m, (pair,), str(lab))
                for pair in valid_pairs(get_context(m))
                for lab in labels(m)
                if lab.family in REFLECTION_FAMILIES
            ]
            for m in (12, 16)
        ]
    if workload == "two_pair_sweep":
        families = sorted({lab.family for lab in labels(12)})
        return [
            [Case("simple", 12, pairs, str(lab)) for lab in labels(12) if lab.family == fam]
            for pairs in TWO_PAIR_SETS
            for fam in families
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def van_der_corput(n: int) -> float:
    """The n-th term of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ..."""
    value, scale = 0.0, 0.5
    while n:
        n, bit = divmod(n, 2)
        value += bit * scale
        scale /= 2
    return value


def case_stream(workload: str, seed: int) -> Iterator[Case]:
    """Endless seeded sequence of cases: one case per stratum per round."""
    cost = load_reference(workload)["seconds"]
    rng = random.Random(f"{workload}:{seed}")
    groups = [sorted(group, key=lambda case: (cost[case.key], case.key)) for group in strata(workload)]
    # Visit the strata in bit-reversed order of their mean cost, which
    # alternates cheap and costly ones: the unfinished last round of a run
    # then has about the mix of a whole round.
    by_cost = sorted(range(len(groups)), key=lambda idx: sum(cost[case.key] for case in groups[idx]) / len(groups[idx]))
    order = [by_cost[rank] for rank in sorted(range(len(groups)), key=van_der_corput)]
    shift = rng.random()
    offsets = [0.0] * len(groups)
    for position, idx in enumerate(order):
        offsets[idx] = shift + van_der_corput(position)
    for rnd in count():
        quantile = van_der_corput(rnd)
        for idx in order:
            group = groups[idx]
            yield group[int((quantile + offsets[idx]) % 1.0 * len(group))]


def run_cases(workload: str, seed: int, seconds: float) -> list[Case]:
    """The case list of a timed run: distinct cases from the head of the
    seeded stream, as many as one pass's share of ``seconds`` holds at the
    reference costs.  It depends on the seed and ``seconds`` only."""
    cost = load_reference(workload)["seconds"]
    budget = CASE_SHARE * seconds / PASSES[workload]
    chosen: dict[str, Case] = {}
    spent = 0.0
    stream = case_stream(workload, seed)
    while spent < budget and len(chosen) < len(cost):
        case = next(stream)
        if case.key not in chosen:
            chosen[case.key] = case
            spent += cost[case.key]
    return list(chosen.values())


def trace_cases(workload: str, seed: int) -> list[Case]:
    """The fixed case list of a traced run: the head of the seeded stream."""
    stream = case_stream(workload, seed)
    return [next(stream) for _ in range(TRACE_CASES[workload])]


def failing_checks(report_json: dict) -> list[str]:
    """Names of the closed-form and structural checks a report failed."""
    failed = []
    for name, value in report_json["checks"].items():
        if name == "recursion":
            if not all(rec["ok"] for rec in value):
                failed.append(name)
        elif value is False:
            failed.append(name)
    return failed


class CaseRunner:
    """Runs cases through the public API and extracts their engine outputs.

    ``verify_reflection_split`` returns nothing, so the summands it found are
    read by wrapping the ``decompose`` it calls; the wrapper only records the
    result.  Call :meth:`close` to restore the binding.
    """

    def __init__(self) -> None:
        import dihedral_doubles as dd
        from dihedral_doubles import theorems

        self._dd = dd
        self._theorems = theorems
        self._decompose = theorems.decompose
        self._found: list = []

        def recording_decompose(ctx, module):
            parts = self._decompose(ctx, module)
            self._found.append(parts)
            return parts

        theorems.decompose = recording_decompose

    def close(self) -> None:
        self._theorems.decompose = self._decompose

    def prepare(self, case: Case) -> Callable[[], tuple[dict, list[str]]]:
        """Parse a case; the returned call runs the verification only."""
        dd = self._dd
        ctx = dd.get_context(case.m)
        label = dd.parse_weight_label(case.weight)
        if case.kind == "split":
            pair = case.pairs[0]

            def run_split() -> tuple[dict, list[str]]:
                self._found.clear()
                dd.verify_reflection_split(ctx, pair, label)
                (parts,) = self._found
                summands = [[str(lab), len(embs)] for lab, embs in parts]
                return {"summands": summands}, []

            return run_split
        iset = dd.validate_index_set(ctx, case.pairs)

        def run_simple() -> tuple[dict, list[str]]:
            report = dd.verify_simple(ctx, iset, label).to_json_obj()
            outputs = {
                "verma_dimension": report["verma_dimension"],
                "simple_dimension": report["simple_dimension"],
                "head": report["head"],
                "socle": report["socle"],
                "qdim": report["qdim"],
            }
            return outputs, failing_checks(report)

        return run_simple


def digest(outputs: dict) -> str:
    """Stable short hash of one case's engine outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(entries: list[tuple[str, str]]) -> str:
    """Hash of (case key, case digest) pairs in run order."""
    text = "\n".join(f"{key} {dig}" for key, dig in entries)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
