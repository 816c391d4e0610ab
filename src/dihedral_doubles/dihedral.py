"""The dihedral group of order 2m and the shared per-m computation context.

Elements are written ``x^a * y^b`` with ``x`` the distinguished reflection
(order 2) and ``y`` the rotation of order m, subject to ``y*x = x*y^(-1)``.
The group size m is a runtime parameter; every higher-level routine receives
it through a :class:`DihedralContext`, which bundles the group with the exact
cyclotomic scalar field of the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CyclotomicField, CycNum, get_field

# the four one-dimensional characters, by index: the signs they send x and y to
CHI_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}


@dataclass(frozen=True)
class GroupElement:
    """The element ``x^refl * y^rot`` of the dihedral group of order 2m."""

    refl: int
    rot: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "refl", self.refl % 2)
        object.__setattr__(self, "rot", self.rot % self.m)

    def __mul__(self, other: GroupElement) -> GroupElement:
        if other.m != self.m:
            raise ValueError("elements belong to dihedral groups of different orders")
        # (x^a y^b)(x^c y^d) = x^(a+c) y^(d + (-1)^c b)
        rot = other.rot + (self.rot if other.refl == 0 else -self.rot)
        return GroupElement(self.refl + other.refl, rot, self.m)

    def inverse(self) -> GroupElement:
        if self.refl:
            return self  # reflections are involutions
        return GroupElement(0, -self.rot, self.m)

    def conjugated_by(self, t: GroupElement) -> GroupElement:
        return t * self * t.inverse()

    def __str__(self) -> str:
        if self.refl == 0:
            if self.rot == 0:
                return "e"
            return "y" if self.rot == 1 else f"y^{self.rot}"
        if self.rot == 0:
            return "x"
        return "x*y" if self.rot == 1 else f"x*y^{self.rot}"

    def __repr__(self) -> str:
        return f"GroupElement({str(self)!r}, m={self.m})"


def parse_element(text: str, m: int) -> GroupElement:
    """Parse ``e``, ``x``, ``y``, ``y^3``, ``x*y^5`` style element names."""
    raw = text.replace(" ", "")
    if raw == "e":
        return GroupElement(0, 0, m)
    refl = 0
    if raw.startswith("x"):
        refl = 1
        raw = raw[1:]
        if raw.startswith("*"):
            raw = raw[1:]
    if not raw:
        return GroupElement(refl, 0, m)
    if not raw.startswith("y"):
        raise ValueError(f"malformed group element: {text!r}")
    raw = raw[1:]
    if not raw:
        rot = 1
    elif raw.startswith("^"):
        rot = int(raw[1:])
    else:
        raise ValueError(f"malformed group element: {text!r}")
    return GroupElement(refl, rot, m)


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
        self.identity = GroupElement(0, 0, m)
        self.x = GroupElement(1, 0, m)
        self.y = GroupElement(0, 1, m)

    def element(self, refl: int, rot: int) -> GroupElement:
        return GroupElement(refl, rot, self.m)

    def rotation(self, rot: int) -> GroupElement:
        return GroupElement(0, rot, self.m)

    def reflection(self, rot: int) -> GroupElement:
        return GroupElement(1, rot, self.m)

    def elements(self) -> list[GroupElement]:
        rots = [GroupElement(0, b, self.m) for b in range(self.m)]
        refls = [GroupElement(1, b, self.m) for b in range(self.m)]
        return rots + refls

    def conjugacy_class(self, g: GroupElement) -> frozenset[GroupElement]:
        return frozenset(g.conjugated_by(t) for t in self.elements())

    def conjugacy_classes(self) -> list[frozenset[GroupElement]]:
        seen: set[GroupElement] = set()
        classes = []
        for g in self.elements():
            if g not in seen:
                cls = self.conjugacy_class(g)
                classes.append(cls)
                seen |= cls
        return classes

    def centralizer(self, g: GroupElement) -> list[GroupElement]:
        return [t for t in self.elements() if t * g == g * t]

    def parse(self, text: str) -> GroupElement:
        return parse_element(text, self.m)

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

    def omega(self, exponent: int = 1) -> CycNum:
        """The primitive m-th root of unity attached to rotations, to a power."""
        return self.field.zeta(exponent)

    def character_value(self, sign_x: int, sign_y: int, g: GroupElement) -> int:
        """Value at g of the 1-dimensional character sending x, y to +-1."""
        value = 1
        if sign_x < 0 and g.refl:
            value = -value
        if sign_y < 0 and g.rot % 2:
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
