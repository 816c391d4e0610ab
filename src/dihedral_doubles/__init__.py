"""Exact simple modules of Drinfeld doubles over dihedral groups.

Everything is computed over the cyclotomic field of order m with integer
arithmetic: weights of the double of a dihedral group, Nichols algebras of
index sets of rotation pairs, standard (Verma) modules of the doubled
bosonization as explicit matrices, their socles, heads and graded
characters, and the closed-form classification these computations verify.
"""

from .cyclotomic import CycMatrix, CycNum, CyclotomicField, UnitMonomial, get_field
from .dihedral import DihedralContext, DihedralGroup, get_context
from .nichols import IndexSet, parse_index_set, valid_pairs, validate_index_set
from .qdouble import (
    GradedCharacter,
    build_verma,
    check_relations,
    graded_character,
    head,
    induce_from_simple,
    socle,
    tensor_qd,
)
from .theorems import (
    SimpleReport,
    classify_weight,
    is_spherical,
    pivot_check,
    predicted_character,
    quantum_dimension,
    split_index,
    verify_reflection_split,
    verify_rigid_tensor,
    verify_simple,
)
from .weights import (
    QDModule,
    WeightLabel,
    build_weight,
    decompose,
    decomposition_counts,
    parse_weight_label,
    tensor_dd,
    weight_catalog,
)

__all__ = [
    "CycMatrix",
    "CycNum",
    "CyclotomicField",
    "DihedralContext",
    "DihedralGroup",
    "GradedCharacter",
    "IndexSet",
    "QDModule",
    "SimpleReport",
    "UnitMonomial",
    "WeightLabel",
    "build_verma",
    "build_weight",
    "check_relations",
    "classify_weight",
    "decompose",
    "decomposition_counts",
    "get_context",
    "get_field",
    "graded_character",
    "head",
    "induce_from_simple",
    "is_spherical",
    "parse_index_set",
    "parse_weight_label",
    "pivot_check",
    "predicted_character",
    "quantum_dimension",
    "socle",
    "split_index",
    "tensor_dd",
    "tensor_qd",
    "valid_pairs",
    "validate_index_set",
    "verify_reflection_split",
    "verify_rigid_tensor",
    "verify_simple",
    "weight_catalog",
]

__version__ = "1.0.0"
