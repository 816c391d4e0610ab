"""Classification of weights and mechanical verification of the simple modules.

Every weight of the double falls, relative to one index pair, into one of
three classes: rigid (every cross term vanishes on it), projective (the
standard module it induces is already simple), or reflection type (the mixed
cross terms act nontrivially).  The class is a closed-form table in the
arithmetic of the pair (:func:`classify_weight`).  Its second side, the
operator oracle that evaluates the cross-term operators themselves, lives
with the tests (``tests/oracle.py``), which insist the two agree everywhere.

On top of the classification sit the predicted graded characters of the
simple quotients, the top weight and degree of the socle of every standard
module, the tensor splitting rule for reflection weights, the
spherical/pivot structure, and :func:`verify_simple`, which replays every
claim about one simple module against from-scratch linear algebra and
reports the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum, UnitMonomial, _rref
from .dihedral import CHI_SIGNS, DihedralContext
from .nichols import IndexSet
from .qdouble import (
    GradedCharacter,
    _head_span,
    _induce,
    _products_equal,
    basis_change,
    build_verma,
    check_relations,
    graded_character,
    head,
    induce_from_simple,
    socle,
    tensor_qd,
    theta_congruence,
    y_power,
)
from .weights import (
    QDModule,
    WeightLabel,
    build_weight,
    decompose,
    decomposition_counts,
    pair_module,
    tensor_dd,
    weight_catalog,
)

RIGID = "R"
PROJECTIVE = "P"
REFLECTION = "O"

_CLASS_NAMES = {RIGID: "rigid", PROJECTIVE: "projective", REFLECTION: "reflection"}


# ---------------------------------------------------------------------------
# classification of a weight relative to one index pair
# ---------------------------------------------------------------------------


def classify_weight(ctx: DihedralContext, label: WeightLabel, pair: tuple[int, int]) -> str:
    """Class of ``label`` relative to ``pair``, by the closed-form rules.

    Returns one of ``"R"`` (rigid), ``"P"`` (projective), ``"O"``
    (reflection type).  The rules depend only on parities and residues of
    the pair ``(i, k)`` against the weight parameters.
    """
    m, n = ctx.m, ctx.n
    i, k = pair
    fam = label.family
    if fam in ("Mx", "Mxy"):
        return REFLECTION
    if fam == "e:chi":
        (j,) = label.params
        if j in (1, 2):
            return RIGID
        return RIGID if i % 2 == 0 else PROJECTIVE
    if fam == "yn:chi":
        (j,) = label.params
        if j in (1, 2):
            return RIGID if k % 2 == 0 else PROJECTIVE
        return RIGID if (i + k) % 2 == 0 else PROJECTIVE
    if fam == "e:rho":
        (ell,) = label.params
        return RIGID if (i * ell) % m == 0 else PROJECTIVE
    if fam == "yn:rho":
        # two-dimensional weight concentrated on y^n, same rule as M(n, ell)
        (ell,) = label.params
        return RIGID if (i * ell + n * k) % m == 0 else PROJECTIVE
    if fam == "M":
        p, q = label.params
        return RIGID if (i * q + p * k) % m == 0 else PROJECTIVE
    raise ValueError(f"unknown weight family {fam!r}")


@dataclass(frozen=True)
class IndexSplit:
    """Positions of an index set split by the class of a rotation weight."""

    rigid: tuple[int, ...]
    projective: tuple[int, ...]


def split_index(ctx: DihedralContext, index_set: IndexSet, label: WeightLabel) -> IndexSplit:
    """Split positions of ``index_set`` into rigid and projective for ``label``.

    Only meaningful for weights that are not reflection type; raises
    ``ValueError`` on ``Mx``/``Mxy`` weights, whose standard modules follow
    the subset rule instead of a split.
    """
    if label.is_reflection_type:
        raise ValueError(f"{label} is reflection type; no rigid/projective split exists")
    rigid: list[int] = []
    projective: list[int] = []
    for pos, pair in enumerate(index_set.pairs):
        cls = classify_weight(ctx, label, pair)
        if cls == RIGID:
            rigid.append(pos)
        else:
            projective.append(pos)
    return IndexSplit(rigid=tuple(rigid), projective=tuple(projective))


# ---------------------------------------------------------------------------
# predicted graded characters of the simple quotients
# ---------------------------------------------------------------------------


def predicted_character(
    ctx: DihedralContext, index_set: IndexSet, label: WeightLabel
) -> GradedCharacter:
    """Graded character the simple head of the standard module should have.

    For a rotation weight the simple restricts to the exterior algebra on
    the projective pairs tensored with the weight, graded by letter count.
    That algebra is the tensor product over the pairs of the exterior
    algebra of one pair (i, k), whose pieces are:

    * ``e:chi1`` in degree 0;
    * :func:`pair_module` ``(i, k)``, spanned by v+ and v-, in degree -1;
    * ``e:chi2`` in degree -2: v+ ∧ v- has group degree e, x negates it
      and y fixes it.

    So the character is a fold over the projective pairs in index order,
    from the weight alone in degree 0.  Each pair keeps every weight of the
    running character, and adds its tensor product with the degree -1 piece
    one degree lower and with the degree -2 piece two degrees lower.

    For a reflection weight it is a sum of two-dimensional weights indexed
    by subsets of the positions, a subset of size d sitting in degree
    ``-d`` with its parameters shifted by the subset sums of the pair
    indices.
    """
    if label.is_reflection_type:
        return _predicted_reflection_character(ctx, index_set, label)
    split = split_index(ctx, index_set, label)
    counts: dict[int, dict[WeightLabel, int]] = {0: {label: 1}}
    for pos in split.projective:
        pieces = ((-1, pair_module(ctx, *index_set.pairs[pos])), (-2, _volume(ctx)))
        grown = {z: dict(layer) for z, layer in counts.items()}
        for z, layer in counts.items():
            for weight, mult in layer.items():
                lam = build_weight(ctx, weight)
                for shift, piece in pieces:
                    bucket = grown.setdefault(z + shift, {})
                    for part, part_mult in decomposition_counts(ctx, tensor_dd(piece, lam)):
                        bucket[part] = bucket.get(part, 0) + mult * part_mult
        counts = grown
    return GradedCharacter.from_counts({z: list(layer.items()) for z, layer in counts.items()})


def _volume(ctx: DihedralContext) -> QDModule:
    """The top exterior power v+ ∧ v- of one pair: the weight ``e:chi2``."""
    return build_weight(ctx, WeightLabel("e:chi", (2,)))


def _reflection_parity(label: WeightLabel) -> int:
    """0 for ``Mx``, on the even reflections, and 1 for ``Mxy``, on the odd ones."""
    return 0 if label.family == "Mx" else 1


def _reflection_label(fam: int, s: int, t: int) -> WeightLabel:
    """``Mx:s,t`` for an even ``fam`` and ``Mxy:s,t`` for an odd one, s and t mod 2."""
    return WeightLabel("Mxy" if fam % 2 else "Mx", (s % 2, t % 2))


def _predicted_reflection_character(
    ctx: DihedralContext, index_set: IndexSet, label: WeightLabel
) -> GradedCharacter:
    fam = _reflection_parity(label)
    s, t = label.params
    pairs = index_set.pairs
    counts: dict[int, dict[WeightLabel, int]] = {}
    for bits in range(1 << len(pairs)):
        i_sum = sum(pairs[pos][0] for pos in range(len(pairs)) if bits >> pos & 1)
        k_sum = sum(pairs[pos][1] for pos in range(len(pairs)) if bits >> pos & 1)
        deg = -bin(bits).count("1")
        shifted = _reflection_label(fam + i_sum, s, t + k_sum)
        layer = counts.setdefault(deg, {})
        layer[shifted] = layer.get(shifted, 0) + 1
    return GradedCharacter.from_counts(
        {deg: list(layer.items()) for deg, layer in counts.items()}
    )


def predicted_simple_dimension(
    ctx: DihedralContext, index_set: IndexSet, label: WeightLabel
) -> int:
    """Dimension of the simple head, from the classification alone."""
    if label.is_reflection_type:
        return (1 << index_set.size) * ctx.n
    split = split_index(ctx, index_set, label)
    return 4 ** len(split.projective) * label.dimension(ctx.n)


# ---------------------------------------------------------------------------
# tensor splitting at a reflection weight
# ---------------------------------------------------------------------------


def predicted_reflection_split(
    ctx: DihedralContext, pair: tuple[int, int], label: WeightLabel
) -> tuple[WeightLabel, WeightLabel]:
    """The two summands of (pair weight) tensor (reflection weight).

    Returns ``(plus, minus)``: the tensor square of a pair weight with
    ``M(fam, s, t)`` splits as ``plus + minus`` where the first parameter
    moves by the pair index i, the last by k, and the middle parameter of
    the plus summand picks up an extra flip (plus a ``t``-dependent one when
    i is the half-turn exponent).  The distinguished vectors of
    :func:`reflection_split_vectors` lie in the plus and minus summand
    respectively.
    """
    if not label.is_reflection_type:
        raise ValueError(f"{label} is not a reflection-type weight")
    i, k = pair
    fam = _reflection_parity(label)
    s, t = label.params
    delta = t if i == ctx.n else 0
    plus = _reflection_label(fam + i, s + 1 + delta, t + k)
    minus = _reflection_label(fam + i, s + delta, t + k)
    return plus, minus


def reflection_split_vectors(
    ctx: DihedralContext, pair: tuple[int, int], label: WeightLabel
) -> tuple[dict[int, CycNum], dict[int, CycNum]]:
    """Distinguished vectors inside (pair weight) tensor (reflection weight).

    In the product basis ``e[a*n + b]`` (a indexing the pair weight, b the
    reflection weight) the vectors are ``w^(fam*k) * e[n + 0] +/- e[i mod n]``.
    The plus vector generates the plus summand of
    :func:`predicted_reflection_split`, the minus vector the minus summand.
    """
    i, k = pair
    n = ctx.n
    coeff = ctx.field.zeta(_reflection_parity(label) * k)
    one = ctx.field.one
    plus = {n + 0: coeff, (i % n): one}
    minus = {n + 0: coeff, (i % n): -one}
    return plus, minus


def verify_reflection_split(
    ctx: DihedralContext, pair: tuple[int, int], label: WeightLabel
) -> None:
    """Check the splitting rule for one pair and one reflection weight.

    Tensors the pair module with the catalog member of ``label``, the
    verified module that :func:`decompose`'s hom spaces read as well.
    Decomposes the product with explicit embeddings, compares the
    summand labels with :func:`predicted_reflection_split`, and verifies that
    each distinguished vector lies in the image of the homomorphisms from its
    predicted summand.  Raises ``AssertionError`` on any mismatch.
    """
    plus_label, minus_label = predicted_reflection_split(ctx, pair, label)
    product = tensor_dd(pair_module(ctx, *pair), weight_catalog(ctx).module(label))
    parts = decompose(ctx, product)
    found = {part_label: embeddings for part_label, embeddings in parts}
    expected = {plus_label, minus_label}
    if set(found) != expected:
        raise AssertionError(
            f"tensor at pair {pair} with {label}: found {sorted(map(str, found))}, "
            f"expected {sorted(map(str, expected))}"
        )
    plus_vec, minus_vec = reflection_split_vectors(ctx, pair, label)
    for vec, part_label in ((plus_vec, plus_label), (minus_vec, minus_label)):
        # the summand's span is thrown away after one membership test, so insert may grow it
        image = _rref(ctx.field, [col for emb in found[part_label] for col in emb.sparse_columns()])
        if image.insert(vec):
            raise AssertionError(
                f"distinguished vector for {part_label} at pair {pair}, weight {label} "
                "does not lie in its summand"
            )


# ---------------------------------------------------------------------------
# closed-form socle of a standard module
# ---------------------------------------------------------------------------


def predicted_socle_top(
    ctx: DihedralContext, index_set: IndexSet, label: WeightLabel
) -> tuple[WeightLabel, int]:
    """Top weight and degree ``(mu, z0)`` of the socle of the standard module.

    The socle is the simple L(mu) with its top in degree ``z0``, so its
    character is ``predicted_character(ctx, index_set, mu).shifted(z0)``:
    the weight of minimum degree determines it.  Rotation weight, with R the
    pairs rigid for ``label``: each rigid pair contributes its volume
    v+ ∧ v- (``e:chi2``, which squares to ``e:chi1``) two degrees lower, so
    mu is ``label`` twisted by ``e:chi2`` when |R| is odd and ``label``
    itself otherwise, and ``z0 = -2|R|``.  Reflection weight
    ``M(fam, s, t)``: ``mu = M(fam + Σi, s + |I|, t + Σk)`` and
    ``z0 = -|I|``, with no ``t``-dependent flip at the half-turn i = n,
    unlike the plus summand of :func:`predicted_reflection_split`.
    """
    pairs = index_set.pairs
    if label.is_reflection_type:
        s, t = label.params
        i_sum, k_sum = sum(i for i, _ in pairs), sum(k for _, k in pairs)
        return _reflection_label(_reflection_parity(label) + i_sum, s + len(pairs), t + k_sum), -len(pairs)
    rigid = len(split_index(ctx, index_set, label).rigid)
    if rigid % 2 == 0:
        return label, -2 * rigid
    twisted = decomposition_counts(ctx, tensor_dd(_volume(ctx), build_weight(ctx, label)))
    if len(twisted) != 1 or twisted[0][1] != 1:
        raise ArithmeticError(f"volume twist of {label} is not a single weight")
    return twisted[0][0], -2 * rigid


# ---------------------------------------------------------------------------
# tensor products of simples with a rigid factor
# ---------------------------------------------------------------------------


def verify_rigid_tensor(
    ctx: DihedralContext, index_set: IndexSet, mu: WeightLabel, lam: WeightLabel
) -> None:
    """Check semisimplicity of (rigid simple) tensor (any simple).

    Requires ``mu`` to be rigid for every pair of the index set.  Builds
    both simples, forms their tensor product over the double, and checks
    that every joint kernel vector of the lowering letters sits in degree
    zero and that the graded character equals the sum of predicted simple
    characters over the decomposition of the weight product.  Raises
    ``AssertionError`` on any failure.

    The joint kernel is not solved: the product's span W of the degree-0
    unit functionals under the transposed lowering letters, the span that
    :func:`head` reads (``qdouble._head_span``), decides it.  Let K be the
    vectors v with f(u v) = 0 for every degree-0 functional f and every
    word u in the lowering letters, the vectors on which W vanishes.

    * K is graded, as W is spanned by homogeneous rows, and stable under
      the lowering letters, since a letter times a word is a word.
    * K_0 = 0, as the degree-0 unit functionals lie in W.  So a lowering
      letter, which raises the degree by one, takes K's top layer into
      K_0 = 0: that layer lies in the joint kernel.
    * A joint-kernel vector v in degree z < 0 lies in K: u v = 0 for every
      nonempty word u, and f(v) = 0 as f reads degree 0 alone.

    So K = 0 exactly when W has a pivot at every position, and then no
    joint-kernel vector lies outside degree 0.  Otherwise K's top degree is
    the highest degree z != 0 whose joint kernel is nonzero: above it the
    joint kernel lies in K and is zero.  W's rows are homogeneous, so that
    is the highest degree of a position that is not a pivot.
    """
    for pair in index_set.pairs:
        if classify_weight(ctx, mu, pair) != RIGID:
            raise ValueError(f"{mu} is not rigid at pair {pair}")
    left = head(build_verma(ctx, index_set, mu))
    right = head(build_verma(ctx, index_set, lam))
    product = tensor_qd(ctx, left, right)
    span = _head_span(product)
    if len(span.pivots) < product.dim:
        pivots = set(span.pivots)
        top = max(z for i, z in enumerate(product.zdeg) if i not in pivots)
        raise AssertionError(f"L({mu}) x L({lam}): joint kernel vectors in degree {top}")
    expected = GradedCharacter.from_counts({})
    weight_product = tensor_dd(build_weight(ctx, mu), build_weight(ctx, lam))
    for part_label, mult in decomposition_counts(ctx, weight_product):
        part = predicted_character(ctx, index_set, part_label)
        for _ in range(mult):
            expected = expected + part
    actual = graded_character(product)
    if actual != expected:
        raise AssertionError(
            f"L({mu}) x L({lam}): character {actual} differs from predicted {expected}"
        )


# ---------------------------------------------------------------------------
# spherical structure, pivots, quantum dimensions
# ---------------------------------------------------------------------------

def is_spherical(ctx: DihedralContext, index_set: IndexSet) -> bool:
    """Whether the double of this index set admits a spherical pivot.

    Fails exactly when some pair has both entries even.  This is the
    paper's rule for 4 | m; for m = 2 mod 4 it is applied as it stands, and
    README's table of outcomes outside the proven regime records the result.
    A letter of the pair (i, k) lies in degree y^(+-i), and the candidate
    pivot y^n times a sign character scales it by (-1)^k, from y^n, times
    the character's sign on y^i.  For 4 | m, i k = n mod m is even, so a pair
    that passes the rule has exactly one odd entry, and the character that
    negates the rotation (:func:`pivot_candidate` 3) negates every letter.
    For m = 2 mod 4, n is odd, so every admissible pair has i and k odd: the
    rule always passes, and the pivots are y^n times characters 1 and 2,
    which keep the rotation, never character 3 (``spherical_report`` reads
    ``{1: True, 2: True, 3: False, 4: False}`` on every single pair at
    m = 6, 10 and 14).
    """
    return all(i % 2 != 0 or k % 2 != 0 for i, k in index_set.pairs)


def pivot_candidate(ctx: DihedralContext, module: QDModule, character: int) -> UnitMonomial:
    """Candidate pivot on ``module``: y^n times the given sign character.

    ``character`` indexes the four sign characters of the group (1 trivial,
    2 negating the reflection, 3 negating the rotation, 4 negating both).
    The character scales e_j by +-1 = w^0 or w^n, read off its group degree.
    """
    sx, sy = CHI_SIGNS[character]
    turn = y_power(module, ctx.n)
    signs = [0 if ctx.character_value(sx, sy, g) > 0 else ctx.n for g in module.gdeg]
    return UnitMonomial(ctx.field, turn.rows, map(sum, zip(turn.exps, signs)))


def pivot_check(ctx: DihedralContext, module: QDModule, character: int) -> bool:
    """Whether the candidate pivot squares to one and negates every letter.

    The pivot must be an involution, read off its cycles
    (``UnitMonomial.order_divides``), and must conjugate each raising and
    lowering generator A to its negative, ``pivot A = w^(m/2) A pivot``,
    decided column by column (``qdouble._products_equal``).
    """
    pivot = pivot_candidate(ctx, module, character)
    if not pivot.order_divides(2):
        return False
    letters = [*module.v_mats.values(), *module.a_mats.values()]
    return all(_products_equal(pivot, mat, mat, pivot, ctx.m // 2) for mat in letters)


def spherical_report(ctx: DihedralContext, index_set: IndexSet) -> dict[int, bool]:
    """Outcome of :func:`pivot_check` for all four candidate characters.

    Runs on the standard module of the top weight, whose letter matrices
    exercise every generator.
    """
    probe = build_verma(ctx, index_set, WeightLabel("e:chi", (1,)))
    return {j: pivot_check(ctx, probe, j) for j in (1, 2, 3, 4)}


def quantum_dimension(ctx: DihedralContext, module: QDModule) -> CycNum:
    """Quantum dimension of ``module`` for the spherical pivot.

    The trace of :func:`pivot_candidate` for the rotation-negating sign
    character: the sum of w^e over its columns that keep their row.  Only
    meaningful when the index set is spherical; raises otherwise.  That it
    vanishes exactly off the rigid simples is the paper's rule for 4 | m.
    For m = 2 mod 4, n is odd, and candidate 3 is no pivot: the letters of
    a pair (i, k) with i and k odd commute with it (see :func:`is_spherical`),
    and the pivots are y^n times characters 1 and 2.  Its trace then need
    not vanish off the rigid simples, and that is the only check that fails
    there: ``(1,5)``, ``e:chi3`` at m = 10 is not rigid and reads -4, where
    the trace of candidate 1 is 0.  Over every single pair at m = 6, 10 and
    14, candidate 3 breaks the rule on 98, 372 and 978 cases, the counts
    README's table of outcomes outside the proven regime pins, and
    candidate 1 on none.
    """
    if not is_spherical(ctx, module.index_set):
        raise ValueError(f"index set {module.index_set} is not spherical")
    pivot = pivot_candidate(ctx, module, 3)
    fixed = (ctx.field.zeta(e) for j, (r, e) in enumerate(zip(pivot.rows, pivot.exps)) if r == j)
    return sum(fixed, ctx.field.zero)


# ---------------------------------------------------------------------------
# full verification of one simple module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionCheck:
    """One-pair recursion: heads and socles rebuilt through induction.

    Removing the pair, the head of the standard module is reproduced as the
    head of the module induced from the smaller head, and the socle as the
    socle of the module induced from the smaller socle.  Inducing the head
    does not reproduce the socle: the induced module is a proper quotient of
    the standard module and its socle is a different simple in general.

    Induction is transitive, so when the smaller standard module is simple
    the module induced from it is the standard module.  For the last pair it
    is the standard module that was checked, matrix for matrix, so that step
    is the standard module's own: its relations flag is the standard
    module's and its head and socle match by construction.  For any other
    pair it is the standard module in another basis order, and
    :func:`~.qdouble.basis_change` finds the unit monomial that carries it
    onto the standard module, generator for generator and degree for
    degree.  Each relation, the head and the socle then agree with the
    standard module's, so that step has the same outcome as the last
    pair's.  A step with no such basis change, or whose smaller module is
    not simple, is checked in full: the relations of both induced modules,
    the character of the head induced from the head and of the socle
    induced from the socle.
    """

    pair: tuple[int, int]
    relations_ok: bool
    head_matches: bool
    socle_matches: bool

    @property
    def ok(self) -> bool:
        return self.relations_ok and self.head_matches and self.socle_matches


@dataclass(frozen=True)
class SimpleReport:
    """Everything verified about one simple module, with pass/fail flags."""

    m: int
    index_set: IndexSet
    weight: WeightLabel
    pair_classes: tuple[str, ...]
    verma_dimension: int
    simple_dimension: int
    predicted_dimension: int
    relations_ok: bool
    theta_ok: bool
    head_character: GradedCharacter
    head_matches: bool
    socle_character: GradedCharacter
    socle_matches: bool
    socle_simple: bool
    recursion: tuple[RecursionCheck, ...]
    qdim: CycNum | None
    qdim_ok: bool | None

    @property
    def checks(self) -> dict:
        """Every check's outcome by its JSON name; ``qdim_pattern`` is None off a spherical index set."""
        return {
            "relations": self.relations_ok,
            "theta": self.theta_ok,
            "head_formula": self.head_matches,
            "dimension_formula": self.simple_dimension == self.predicted_dimension,
            "socle_simple": self.socle_simple,
            "socle_formula": self.socle_matches,
            "recursion": [{"pair": list(rec.pair), "ok": rec.ok} for rec in self.recursion],
            "qdim_pattern": self.qdim_ok,
        }

    @property
    def ok(self) -> bool:
        """Whether no check is False: a check that is None did not apply."""
        checks = self.checks
        recursion = checks.pop("recursion")
        return False not in checks.values() and all(rec["ok"] for rec in recursion)

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "index_set": [list(pair) for pair in self.index_set.pairs],
            "weight": str(self.weight),
            "pair_classes": list(self.pair_classes),
            "verma_dimension": self.verma_dimension,
            "simple_dimension": self.simple_dimension,
            "head": self.head_character.to_json_obj(),
            "socle": self.socle_character.to_json_obj(),
            "checks": self.checks,
            "qdim": str(self.qdim) if self.qdim is not None else None,
            "ok": self.ok,
        }


def _socle_is_simple(ctx: DihedralContext, soc: QDModule) -> bool:
    """Whether the socle's bottom layer is one weight of multiplicity one.

    :func:`socle` refuses a module whose bottom layer is not, by its
    character, and spans the socle from that whole layer, so this holds on
    every socle it returns; a simple standard module, its own socle, holds
    Λ (x) λ as its bottom layer.  The layer is decided again here, with
    :func:`decompose`'s embeddings: the characters name the members, and a
    hom space per member plus a span check certify them.
    """
    bottom = min(soc.zdeg)
    parts = decompose(ctx, soc.layer_module(bottom))
    return len(parts) == 1 and len(parts[0][1]) == 1


def _head_and_socle(verma: QDModule) -> tuple[QDModule, GradedCharacter, QDModule, GradedCharacter]:
    """The head of a standard module and its character, then its socle and the socle's character.

    :func:`head` returns its argument exactly when the module is simple, and
    a simple module is its own socle, so :func:`socle` spans only a module
    that is not simple, and a simple one's socle character is its head's.
    """
    simple = head(verma)
    head_char = graded_character(simple)
    if simple is verma:
        return simple, head_char, verma, head_char
    soc = socle(verma)
    return simple, head_char, soc, graded_character(soc)


def verify_simple(ctx: DihedralContext, index_set: IndexSet, label: WeightLabel) -> SimpleReport:
    """Build the standard module of ``label``, verify every claim about it.

    Checks performed:

    * generator relations and the quadratic congruence on the standard module;
    * the graded character of the simple head against
      :func:`predicted_character` and the dimension formula;
    * simplicity of the socle (single weight, multiplicity one), and its
      graded character against the predicted character of the weight
      :func:`predicted_socle_top` names, shifted to its degree; when that
      weight is ``label`` the head prediction is reused.  The head, the
      socle and their characters come from :func:`_head_and_socle`, which
      the ``simple`` command shares: a simple standard module is its own
      socle, so :func:`socle` spans only one that is not simple;
    * when the index set has more than one pair: for each distinct
      removable pair, the modules induced from the head and from the socle
      of the smaller standard module satisfy the relations and reproduce
      the head and socle respectively.  A simple smaller module is its own
      head and socle, so one induced module serves both sides, and it is
      the standard module in another basis order: when
      :func:`~.qdouble.basis_change` carries it onto the standard module,
      the step takes the standard module's outcome and is not checked
      again (:class:`RecursionCheck`);
    * when the index set is spherical: the quantum dimension of the simple
      is nonzero exactly when every pair is rigid for the weight.

    Over more than one pair the smaller standard modules are built first,
    one per distinct pair, and the standard module is induced from the one
    without the last pair.  Induction is transitive, so that is the last
    step of :func:`build_verma`'s own fold, a repeated last pair included,
    and when that smaller module is simple it is also the last pair's
    recursion step, which is then not induced or checked again.
    """
    pairs = index_set.pairs
    classes = tuple(classify_weight(ctx, label, pair) for pair in pairs)

    subs: dict[tuple[int, int], QDModule] = {}
    if index_set.size > 1:
        subs = {pair: build_verma(ctx, index_set.without(pairs.index(pair)), label) for pair in sorted(set(pairs))}
        # the last step of build_verma's own fold, a repeated last pair too: _induce inserts at bisect_left
        verma = _induce(ctx, subs[pairs[-1]], pairs[-1], label, "verma")
    else:
        verma = build_verma(ctx, index_set, label)
    relations_ok = not check_relations(verma)
    theta_ok = not theta_congruence(verma)

    simple, head_char, soc, socle_char = _head_and_socle(verma)
    predicted = predicted_character(ctx, index_set, label)
    predicted_dim = predicted_simple_dimension(ctx, index_set, label)
    socle_simple = _socle_is_simple(ctx, soc)
    top, z0 = predicted_socle_top(ctx, index_set, label)
    socle_top = predicted if top == label else predicted_character(ctx, index_set, top)
    socle_matches = socle_char == socle_top.shifted(z0)

    recursion: list[RecursionCheck] = []
    for pair, sub_verma in subs.items():
        sub_head = head(sub_verma)
        # head returns its argument exactly when the module is simple, and a simple module is its own socle
        same = sub_head is sub_verma
        if same and pair == pairs[-1]:
            # the module induced from the simple smaller module is verma itself, checked above
            recursion.append(RecursionCheck(pair, relations_ok, True, True))
            continue
        from_head = induce_from_simple(ctx, sub_head, pair)
        if same and basis_change(from_head, verma) is not None:
            # the induced module is verma in another basis order, carried onto it generator for generator
            recursion.append(RecursionCheck(pair, relations_ok, True, True))
            continue
        from_socle = from_head if same else induce_from_simple(ctx, socle(sub_verma), pair)
        rec_relations = not check_relations(from_head) and (same or not check_relations(from_socle))
        rec_head = graded_character(head(from_head)) == head_char
        rec_socle = graded_character(socle(from_socle)) == socle_char
        recursion.append(RecursionCheck(pair, rec_relations, rec_head, rec_socle))

    qdim: CycNum | None = None
    qdim_ok: bool | None = None
    if is_spherical(ctx, index_set):
        qdim = quantum_dimension(ctx, simple)
        qdim_ok = bool(qdim) == all(cls == RIGID for cls in classes)

    return SimpleReport(
        m=ctx.m,
        index_set=index_set,
        weight=label,
        pair_classes=classes,
        verma_dimension=verma.dim,
        simple_dimension=simple.dim,
        predicted_dimension=predicted_dim,
        relations_ok=relations_ok,
        theta_ok=theta_ok,
        head_character=head_char,
        head_matches=head_char == predicted,
        socle_character=socle_char,
        socle_matches=socle_matches,
        socle_simple=socle_simple,
        recursion=tuple(recursion),
        qdim=qdim,
        qdim_ok=qdim_ok,
    )
