"""Square and maltese products of presentations, powers and transposes.

The square product of two types pairs generators as ``(a|b)`` and pairs
relation bases bilinearly: the L block of a product relation is the
Kronecker product of the factor L blocks (likewise R), which is exactly
the "exchange factors 2 and 3" construction on relation tensors.  The
maltese product instead spans relations where at least one factor is a
relation of its type, so its relation space is extracted by row
reduction rather than taken on trust.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactalg import ExactAlgebraError, Matrix, Subspace
from .morphisms import TypeMorphism
from .typecore import (
    GeneratorSpace,
    InvalidPresentation,
    RelationElement,
    TypePresentation,
    require_valid,
    validate,
)

# ---------------------------------------------------------------------------
# product generator labels


def pair_label(a: str, b: str) -> str:
    return f"({a}|{b})"


def split_pair_label(label: str) -> tuple[str, str]:
    if not (label.startswith("(") and label.endswith(")")):
        raise ValueError(f"not a product label: {label!r}")
    depth = 0
    for k, ch in enumerate(label):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 1:
            return label[1:k], label[k + 1 : -1]
    raise ValueError(f"not a product label: {label!r}")


def flatten_label(label: str) -> tuple[str, ...]:
    """Atomic factor labels of an iterated product label, left to right."""
    if not (label.startswith("(") and label.endswith(")")):
        return (label,)
    parts = []
    depth = 0
    start = 1
    for k, ch in enumerate(label):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 1:
            parts.append(label[start:k])
            start = k + 1
    parts.append(label[start:-1])
    out: tuple[str, ...] = ()
    for part in parts:
        out += flatten_label(part)
    return out


def _flat_label(label: str) -> str:
    parts = flatten_label(label)
    return "(" + "|".join(parts) + ")" if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# the bilinear pairing of relation elements


def box_relation(f1: RelationElement, f2: RelationElement) -> RelationElement:
    """The product relation: Kronecker on the L blocks and on the R blocks.

    A sparse Kronecker product: every pair of nonzero coefficients in the
    same block gives one coefficient, at ((i1,i2), (j1,j2)).
    """
    m1, m2 = f1.size, f2.size
    m = m1 * m2
    second: tuple[list, list] = ([], [])
    for block, i2, j2, c2 in f2.nonzero():
        second[block].append((i2, j2, c2))
    coeffs = {}
    for block, i1, j1, c1 in f1.nonzero():
        base = block * m * m + i1 * m2 * m + j1 * m2
        for i2, j2, c2 in second[block]:
            coeffs[base + i2 * m + j2] = c1 * c2
    return RelationElement.from_coeffs(m, coeffs)


def _product_generators(t1: TypePresentation, t2: TypePresentation, name: str) -> GeneratorSpace:
    labels = tuple(
        pair_label(a, b) for a in t1.generators.labels for b in t2.generators.labels
    )
    return GeneratorSpace(name, labels)


def _kron_vector(u, v):
    return tuple(a * b for a in u for b in v)


def square(t1: TypePresentation, t2: TypePresentation, name: str | None = None) -> TypePresentation:
    """The square (type) product of two valid presentations."""
    require_valid(t1)
    require_valid(t2)
    name = name or f"({t1.name} sq {t2.name})"
    gens = _product_generators(t1, t2, name)
    star = _kron_vector(t1.star, t2.star)
    relations = [box_relation(f1, f2) for f1 in t1.relations for f2 in t2.relations]
    result = TypePresentation(
        gens, star, relations, provenance=f"square product of {t1.name} and {t2.name}"
    )
    report = validate(result)
    if not report.valid:
        raise ExactAlgebraError(
            f"internal inconsistency: square({t1.name}, {t2.name}) failed validation:\n"
            + report.describe()
        )
    return result


def maltese(t1: TypePresentation, t2: TypePresentation, name: str | None = None) -> TypePresentation:
    """The maltese product; relations span pairs with one factor a relation.

    The spanning set (R1 box full2) union (full1 box R2) is not linearly
    independent, so the canonical row-reduced basis is taken.
    """
    require_valid(t1)
    require_valid(t2)
    name = name or f"({t1.name} mx {t2.name})"
    m1, m2 = t1.dim, t2.dim
    gens = _product_generators(t1, t2, name)
    star = _kron_vector(t1.star, t2.star)

    full1 = _full_space_basis(m1)
    full2 = _full_space_basis(m2)
    span = [box_relation(f1, g2) for f1 in t1.relations for g2 in full2]
    span += [box_relation(g1, f2) for g1 in full1 for f2 in t2.relations]

    m = m1 * m2
    sub = Subspace.from_rows(2 * m * m, [r.coeffs for r in span])
    relations = [RelationElement.from_coeffs(m, row) for row in sub.sparse_basis()]
    return TypePresentation(
        gens, star, relations, provenance=f"maltese product of {t1.name} and {t2.name}"
    )


def _full_space_basis(m: int) -> list[RelationElement]:
    """Standard basis of the double tensor square for an m-dim generator space."""
    mm = m * m
    out = []
    for k in range(mm):
        out.append(RelationElement.from_coeffs(m, {k: Fraction(1)}))
        out.append(RelationElement.from_coeffs(m, {mm + k: Fraction(1)}))
    return out


def power(t: TypePresentation, n: int, name: str | None = None) -> TypePresentation:
    """Left-associated n-th square power with flattened tuple labels."""
    if n < 1:
        raise ValueError("power wants n >= 1")
    require_valid(t)
    if n == 1:
        return t
    acc = t
    for _ in range(n - 1):
        acc = _flatten_labels(square(acc, t))
    return acc.with_name(name or f"({t.name}^{n})")


def _flatten_labels(t: TypePresentation) -> TypePresentation:
    gens = GeneratorSpace(t.name, tuple(_flat_label(l) for l in t.generators.labels))
    return TypePresentation(
        gens, t.star, t.relations, aux=t.aux,
        star_unresolved=t.star is None, provenance=t.provenance,
    )


def reassociation_isomorphism(src: TypePresentation, dst: TypePresentation) -> TypeMorphism:
    """Label-flattening bijection between two bracketings of one product.

    Matches generators by their flattened atomic label tuples; raises if
    the flattened label sets differ.
    """
    flat_dst = {flatten_label(l): i for i, l in enumerate(dst.generators.labels)}
    if len(flat_dst) != dst.dim:
        raise InvalidPresentation("flattened target labels collide")
    m = src.dim
    if dst.dim != m:
        raise InvalidPresentation("bracketings of different products")
    rows = [[Fraction(0)] * m for _ in range(m)]
    for j, label in enumerate(src.generators.labels):
        key = flatten_label(label)
        if key not in flat_dst:
            raise InvalidPresentation(f"label {label!r} has no counterpart")
        rows[flat_dst[key]][j] = Fraction(1)
    return TypeMorphism(src, dst, Matrix(rows, ncols=m))


def transpose_swap(t1: TypePresentation, t2: TypePresentation) -> TypeMorphism:
    """The factor swap square(t1,t2) -> square(t2,t1), always an isomorphism."""
    src = square(t1, t2)
    dst = square(t2, t1)
    m1, m2 = t1.dim, t2.dim
    m = m1 * m2
    rows = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m1):
        for b in range(m2):
            rows[b * m1 + a][a * m2 + b] = Fraction(1)
    return TypeMorphism(src, dst, Matrix(rows, ncols=m))


def verify_tensor_model(t1: TypePresentation, t2: TypePresentation) -> bool:
    """Mechanical check that factor-wise products on a tensor product of
    carriers satisfy every square-product relation.

    For each basis relation f1 box f2, the relation applied to elementary
    tensors expands with coefficient (f1 box f2).L[(i1,i2),(j1,j2)] on the
    pair of factor-wise bracketings; the identity holds iff that
    coefficient factorizes as f1.L[i1,j1] * f2.L[i2,j2] throughout (then
    each tensor leg is exactly the corresponding side of f1 or f2, which
    holds in its factor).  Same for the R blocks.
    """
    require_valid(t1)
    require_valid(t2)
    m1, m2 = t1.dim, t2.dim
    for f1 in t1.relations:
        for f2 in t2.relations:
            prod = box_relation(f1, f2)
            for block in (0, 1):
                indices = itertools.product(range(m1), range(m1), range(m2), range(m2))
                for i1, j1, i2, j2 in indices:
                    got = prod.coeff(block, i1 * m2 + i2, j1 * m2 + j2)
                    if got != f1.coeff(block, i1, j1) * f2.coeff(block, i2, j2):
                        return False
    return True
