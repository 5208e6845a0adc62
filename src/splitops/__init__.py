"""Exact computer algebra for operad presentations with a splitting star."""

from .exactalg import (
    Matrix,
    Subspace,
    format_scalar,
    rref,
)
from .typecore import (
    GeneratorSpace,
    InvalidPresentation,
    RelationElement,
    TypePresentation,
    ValidationReport,
    arity3_dimension,
    relabel,
    splitting_basis,
    validate,
)
from .products import (
    maltese,
    power,
    reassociation_isomorphism,
    square,
    transpose_swap,
    verify_tensor_model,
)
from .duality import (
    double_dual_check,
    dual,
    find_star,
    non_duality_witness,
    pair2,
)
from .morphisms import (
    TypeMorphism,
    check_isomorphism,
    check_morphism,
    compose,
    invert,
    monomial_automorphisms,
)
from . import catalog
from .dsl import parse_type, serialize
from .operatorver import (
    OperatorLaw,
    left_rb,
    nijenhuis,
    rb,
    right_rb,
    verify_commuting_family,
    verify_operator_lemmas,
    verify_operator_theorem,
)

__all__ = [
    "Matrix",
    "Subspace",
    "format_scalar",
    "rref",
    "GeneratorSpace",
    "InvalidPresentation",
    "RelationElement",
    "TypePresentation",
    "ValidationReport",
    "arity3_dimension",
    "relabel",
    "splitting_basis",
    "validate",
    "maltese",
    "power",
    "reassociation_isomorphism",
    "square",
    "transpose_swap",
    "verify_tensor_model",
    "double_dual_check",
    "dual",
    "find_star",
    "non_duality_witness",
    "pair2",
    "TypeMorphism",
    "check_isomorphism",
    "check_morphism",
    "compose",
    "invert",
    "monomial_automorphisms",
    "catalog",
    "parse_type",
    "serialize",
    "OperatorLaw",
    "left_rb",
    "nijenhuis",
    "rb",
    "right_rb",
    "verify_commuting_family",
    "verify_operator_lemmas",
    "verify_operator_theorem",
]
