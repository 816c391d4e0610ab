"""Exterior-algebra model of the Nichols algebra attached to an index set.

An index set is a lexicographically sorted list of pairs (i, k) with
1 <= i <= n, 0 <= k <= m-1, subject to the braiding condition
``w^(i_s * k_t) = -1`` for every ordered choice of two slots (repetitions
allowed, each occupying its own slot).  Each pair contributes two letters
v+ and v-; the Nichols algebra of the resulting braided vector space is an
exterior algebra on the 2r letters.

Monomials are bitmasks over the letters in pair-major order, the + letter
before the - letter of the same pair: bit 2p is v+ of pair p, bit 2p+1 is
v- of pair p.  Products carry the usual alternating sign, one factor -1 per
crossing when merging two sorted letter lists.

This layer is pure combinatorics of masks and pairs and builds no module:
the exterior algebra on a weight is the standard module of
``qdouble.build_verma``.  For one pair (i, k) its layers are the weight
``e:chi1``, the pair module with degrees y^(+-i) and the volume v+ ∧ v-
(``e:chi2``), and the algebra of an index set is the tensor product of
those of its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .dihedral import DihedralContext


@dataclass(frozen=True)
class IndexSet:
    """A validated, sorted tuple of (i, k) pairs for one group order."""

    m: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def nletters(self) -> int:
        return 2 * len(self.pairs)

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


def parse_index_set(ctx: DihedralContext, text: str) -> IndexSet:
    """Parse ``(i1,k1),(i2,k2),...`` into a validated index set."""
    raw = text.replace(" ", "")
    if not raw:
        return IndexSet(ctx.m, ())
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
    return validate_index_set(ctx, pairs)


@dataclass(frozen=True)
class ExtMonomial:
    """A basis monomial of the exterior algebra, as a bitmask over letters."""

    mask: int

    def letters(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "∧".join(letter_name(b) for b in self.letters())


def letter_name(letter: int) -> str:
    sign = "+" if letter % 2 == 0 else "-"
    return f"v{sign}{letter // 2}"


def letter_pair(letter: int) -> int:
    return letter // 2

def letter_sign(letter: int) -> int:
    """+1 for a v+ letter, -1 for a v- letter."""
    return 1 if letter % 2 == 0 else -1


def letter_insert(letter: int, mask: int) -> tuple[int, int]:
    """Left-multiply a mask by one letter: (sign, mask), sign 0 when it vanishes."""
    bit = 1 << letter
    if mask & bit:
        return 0, 0
    below = (mask & (bit - 1)).bit_count()
    return (-1 if below % 2 else 1), mask | bit


def swap_letters(index_set: IndexSet, mask: int) -> tuple[int, int]:
    """Exchange v+ and v- of every pair; sign is -1 per fully present pair."""
    even = sum(1 << (2 * p) for p in range(index_set.size))
    swapped = ((mask & even) << 1) | ((mask & (even << 1)) >> 1)
    full_pairs = (mask & (mask >> 1) & even).bit_count()
    return (-1 if full_pairs % 2 else 1), swapped


def rotation_exponents(index_set: IndexSet, mask: int) -> tuple[int, int]:
    """(sum of +-i_p, sum of +-k_p) over the letters of the mask."""
    isum = ksum = 0
    for letter in ExtMonomial(mask).letters():
        i, k = index_set.pairs[letter_pair(letter)]
        if letter % 2 == 0:
            isum += i
            ksum += k
        else:
            isum -= i
            ksum -= k
    return isum, ksum


def nichols_basis(index_set: IndexSet, degree: int) -> list[int]:
    """Monomial masks spanning the given exterior degree, in letter-lex order."""
    letters = range(index_set.nletters)
    if not 0 <= degree <= index_set.nletters:
        return []
    masks = [sum(1 << b for b in combo) for combo in combinations(letters, degree)]
    return masks
