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

from .exactalg import Matrix, Subspace
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


def label_factors(label: str) -> tuple[str, ...]:
    """Top-level factor labels of a product label, left to right: (a|b|c)
    gives (a, b, c) and ((a|b)|c) gives ((a|b), c); an atom is its own factor."""
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
    return tuple(parts)


def flatten_label(label: str) -> tuple[str, ...]:
    """Atomic factor labels of an iterated product label, left to right."""
    parts = label_factors(label)
    if parts == (label,):
        return parts
    return tuple(atom for part in parts for atom in flatten_label(part))


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
    return RelationElement(m, coeffs)


def square_generators(g1: GeneratorSpace, g2: GeneratorSpace, name: str | None = None):
    """The generators of the square product: ``(a|b)`` for a in g1, b in
    g2, in that order, named ``(A sq B)`` unless ``name`` is given."""
    labels = tuple(pair_label(a, b) for a in g1.labels for b in g2.labels)
    return GeneratorSpace(name or f"({g1.name} sq {g2.name})", labels)


def _product_star(t1: TypePresentation, t2: TypePresentation):
    """The Kronecker product of the factor stars; None when a factor has none."""
    if t1.star is None or t2.star is None:
        return None
    return tuple(a * b for a in t1.star for b in t2.star)


def square(t1: TypePresentation, t2: TypePresentation, name: str | None = None) -> TypePresentation:
    """The square (type) product of two valid presentations.

    A factor without a resolved star (a dual) gives a product without one,
    flagged and validated like a dual.
    """
    require_valid(t1)
    require_valid(t2)
    gens = square_generators(t1.generators, t2.generators, name)
    star = _product_star(t1, t2)
    relations = [box_relation(f1, f2) for f1 in t1.relations for f2 in t2.relations]
    result = TypePresentation(
        gens, star, relations, star_unresolved=star is None,
        provenance=f"square product of {t1.name} and {t2.name}",
    )
    report = validate(result)
    if not report.valid:
        # valid factors give a nonzero, associative star (or none), so only
        # the rank can fail: pairs of factor relations that share whole sides
        raise InvalidPresentation(
            f"square({t1.name}, {t2.name}): the box relations are dependent, "
            "so the product is not a valid presentation",
            report,
        )
    return result


def maltese(t1: TypePresentation, t2: TypePresentation, name: str | None = None) -> TypePresentation:
    """The maltese product; relations span pairs with one factor a relation.

    The spanning set (R1 box full2) union (full1 box R2) is not linearly
    independent, so the canonical row-reduced basis is taken.  As for
    :func:`square`, a starless factor gives a starless product.
    """
    require_valid(t1)
    require_valid(t2)
    m1, m2 = t1.dim, t2.dim
    gens = square_generators(t1.generators, t2.generators, name or f"({t1.name} mx {t2.name})")
    star = _product_star(t1, t2)

    full1 = _full_space_basis(m1)
    full2 = _full_space_basis(m2)
    span = [box_relation(f1, g2) for f1 in t1.relations for g2 in full2]
    span += [box_relation(g1, f2) for g1 in full1 for f2 in t2.relations]

    m = m1 * m2
    sub = Subspace.from_rows(2 * m * m, [r.coeffs for r in span])
    relations = [RelationElement(m, row) for row in sub.sparse_basis()]
    return TypePresentation(
        gens, star, relations, star_unresolved=star is None,
        provenance=f"maltese product of {t1.name} and {t2.name}",
    )


def _full_space_basis(m: int) -> list[RelationElement]:
    """Standard basis of the double tensor square for an m-dim generator space."""
    mm = m * m
    out = []
    for k in range(mm):
        out.append(RelationElement(m, {k: 1}))
        out.append(RelationElement(m, {mm + k: 1}))
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
    if dst.dim != src.dim:
        raise InvalidPresentation("bracketings of different products")
    images = []
    for label in src.generators.labels:
        key = flatten_label(label)
        if key not in flat_dst:
            raise InvalidPresentation(f"label {label!r} has no counterpart")
        images.append(flat_dst[key])
    return TypeMorphism(src, dst, Matrix.monomial(images))


def transpose_swap(t1: TypePresentation, t2: TypePresentation) -> TypeMorphism:
    """The factor swap square(t1,t2) -> square(t2,t1), always an isomorphism."""
    src = square(t1, t2)
    dst = square(t2, t1)
    m1, m2 = t1.dim, t2.dim
    images = [b * m1 + a for a in range(m1) for b in range(m2)]
    return TypeMorphism(src, dst, Matrix.monomial(images))


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
