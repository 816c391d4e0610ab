"""The dihedral group of order 2m and the shared per-m computation context.

Elements are written ``x^a * y^b`` with ``x`` the distinguished reflection
(order 2) and ``y`` the rotation of order m, subject to ``y*x = x*y^(-1)``.
An element is the integer ``g = a * m + b`` with 0 <= g < 2m, so
``divmod(g, m)`` reads off (a, b): the rotations are 0 .. m-1, the
reflections m .. 2m-1, and integers sort as (a, b).  A
:class:`DihedralGroup` builds its tables once: ``products[g][h]`` is g h,
``inverses[g]`` is g^-1 and ``conjugates[t][g]`` is t g t^-1, so a row of
``products`` or ``conjugates`` is the map a generator induces on group
degrees.  ``name`` and ``parse`` translate to and from text such as
``x*y^5``.  The group size m is a runtime parameter; every higher-level
routine receives it through a :class:`DihedralContext`, which bundles the
group with the exact cyclotomic scalar field of the same order.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CyclotomicField, get_field

# the four one-dimensional characters, by index: the signs they send x and y to
CHI_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}


def in_proven_regime(m: int) -> bool:
    """Whether m >= 12 and 4 | m, the regime every closed formula is stated for."""
    return m >= 12 and m % 4 == 0


class DihedralGroup:
    """The dihedral group of order 2m with conjugacy machinery.

    By default m must be in the proven regime (:func:`in_proven_regime`);
    ``unsafe=True`` relaxes this to any even m >= 4 for exploration.
    """

    def __init__(self, m: int, unsafe: bool = False) -> None:
        if unsafe:
            if m < 4 or m % 2:
                raise ValueError(f"m must be an even integer >= 4, got {m}")
        elif not in_proven_regime(m):
            raise ValueError(
                f"m must be >= 12 and divisible by 4 (pass unsafe to relax), got {m}"
            )
        self.m = m
        self.n = m // 2
        self.identity, self.x, self.y = 0, m, 1
        split = [divmod(g, m) for g in range(2 * m)]
        # (x^a y^b)(x^c y^d) = x^(a+c) y^(d + (-1)^c b)
        self.products = tuple(
            tuple(self.element(a + c, d - b if c else d + b) for c, d in split) for a, b in split
        )
        self.inverses = tuple(g if a else -b % m for g, (a, b) in enumerate(split))
        self.conjugates = tuple(
            tuple(self.products[self.products[t][g]][self.inverses[t]] for g in range(2 * m)) for t in range(2 * m)
        )

    def element(self, refl: int, rot: int) -> int:
        return refl % 2 * self.m + rot % self.m

    def rotation(self, rot: int) -> int:
        return rot % self.m

    def reflection(self, rot: int) -> int:
        return self.m + rot % self.m

    def elements(self) -> range:
        return range(2 * self.m)

    def conjugacy_classes(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        classes = []
        for g in self.elements():
            if g not in seen:
                cls = frozenset(row[g] for row in self.conjugates)
                classes.append(cls)
                seen |= cls
        return classes

    def centralizer(self, g: int) -> list[int]:
        return [t for t in self.elements() if self.products[t][g] == self.products[g][t]]

    def name(self, g: int) -> str:
        """The element as text: ``e``, ``y``, ``y^3``, ``x``, ``x*y``, ``x*y^5``."""
        refl, rot = divmod(g, self.m)
        power = "" if rot == 0 else "y" if rot == 1 else f"y^{rot}"
        if not refl:
            return power or "e"
        return f"x*{power}" if power else "x"

    def __repr__(self) -> str:
        return f"DihedralGroup(m={self.m})"


class DihedralContext:
    """Shared context: the dihedral group together with its scalar field.

    All module-building code takes one of these, so the group order is fixed
    in a single place and field elements are drawn from one shared field.
    """

    def __init__(self, m: int, unsafe: bool = False) -> None:
        self.group = DihedralGroup(m, unsafe=unsafe)
        self.field: CyclotomicField = get_field(m)
        self.m = m
        self.n = m // 2
        self._weight_cache: dict = {}

    def character_value(self, sign_x: int, sign_y: int, g: int) -> int:
        """Value at g of the 1-dimensional character sending x, y to +-1."""
        refl, rot = divmod(g, self.m)
        value = 1
        if sign_x < 0 and refl:
            value = -value
        if sign_y < 0 and rot % 2:
            value = -value
        return value

    def __repr__(self) -> str:
        return f"DihedralContext(m={self.m})"


def get_context(m: int, unsafe: bool = False) -> DihedralContext:
    """The shared context of order m: one per ``(m, unsafe)``, however the call spells it."""
    return _shared_context(m, bool(unsafe))


@lru_cache(maxsize=None)
def _shared_context(m: int, unsafe: bool) -> DihedralContext:
    return DihedralContext(m, unsafe=unsafe)
