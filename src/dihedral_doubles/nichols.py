"""Exterior-algebra model of the Nichols algebra attached to an index set.

An index set is a lexicographically sorted list of pairs (i, k) with
1 <= i <= n, 0 <= k <= m-1, subject to the braiding condition
``w^(i_s * k_t) = -1`` for every ordered choice of two slots (repetitions
allowed, each occupying its own slot).  Each pair contributes two letters
v+ and v-; the Nichols algebra of the resulting braided vector space is an
exterior algebra on the 2r letters.

This layer parses and checks index sets and builds no module: the
exterior algebra on a weight is the standard module of
``qdouble.build_verma``, which lets the four monomials 1, v+, v- and
v+ v- of one pair act at a time, from fixed tables.  For one pair (i, k)
the layers of its exterior algebra are the weight ``e:chi1``, the pair
module with degrees y^(+-i) and the volume v+ ∧ v- (``e:chi2``), and the
algebra of an index set is the tensor product of those of its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dihedral import DihedralContext


@dataclass(frozen=True)
class IndexSet:
    """A validated, sorted tuple of (i, k) pairs for one group order."""

    m: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def without(self, position: int) -> IndexSet:
        pairs = self.pairs[:position] + self.pairs[position + 1 :]
        return IndexSet(self.m, pairs)

    def __str__(self) -> str:
        return ",".join(f"({i},{k})" for i, k in self.pairs)

    def __repr__(self) -> str:
        return f"IndexSet(m={self.m}, {str(self)!r})"


def validate_index_set(ctx: DihedralContext, pairs: Iterable[tuple[int, int]]) -> IndexSet:
    """Sort, range-check and braiding-check the pairs; raise ValueError if bad."""
    m, n = ctx.m, ctx.n
    normalized = []
    for pair in pairs:
        i, k = pair
        if not 1 <= i <= n:
            raise ValueError(f"pair {pair}: rotation degree must satisfy 1 <= i <= {n}")
        if not 0 <= k <= m - 1:
            raise ValueError(f"pair {pair}: exponent must satisfy 0 <= k <= {m - 1}")
        normalized.append((i, k))
    normalized.sort()
    for i_s, _ in normalized:
        for _, k_t in normalized:
            if (i_s * k_t) % m != n:
                raise ValueError(
                    f"pairs violate the braiding condition: "
                    f"w^({i_s}*{k_t}) != -1 for m={m}"
                )
    return IndexSet(m, tuple(normalized))


def valid_pairs(ctx: DihedralContext) -> list[tuple[int, int]]:
    """All (i, k) that are admissible on their own: w^(i*k) = -1."""
    return [
        (i, k)
        for i in range(1, ctx.n + 1)
        for k in range(ctx.m)
        if (i * k) % ctx.m == ctx.n
    ]


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """The pairs of ``(i1,k1),(i2,k2),...`` as written, not yet validated; none for empty text."""
    raw = text.replace(" ", "")
    if not raw:
        return []
    if not (raw.startswith("(") and raw.endswith(")")):
        raise ValueError(f"malformed index set: {text!r}")
    pairs = []
    for chunk in raw[1:-1].split("),("):
        parts = chunk.split(",")
        try:
            i, k = map(int, parts)
        except ValueError:
            raise ValueError(f"malformed index set: {text!r}") from None
        pairs.append((i, k))
    return pairs


def parse_index_set(ctx: DihedralContext, text: str) -> IndexSet:
    """Parse ``(i1,k1),(i2,k2),...`` into a validated index set."""
    return validate_index_set(ctx, parse_pairs(text))
