"""Square and maltese products of presentations, powers and transposes.

The square product of two types pairs generators as ``(a|b)`` and pairs
relation bases bilinearly: the L block of a product relation is the
Kronecker product of the factor L blocks (likewise R), which is exactly
the "exchange factors 2 and 3" construction on relation tensors.  The
maltese product instead spans relations where at least one factor is a
relation of its type, so its relation space is extracted by row
reduction rather than taken on trust.

Two lemmas let :func:`square` skip the elimination of its r1*r2 box
relations.  Write the factor relation spaces R1, R2 by their canonical
echelons (see :class:`~splitops.exactalg.Echelon`: primitive integer
rows, each with a positive pivot at its first nonzero column and zero at
every other row's pivot).

Kronecker echelon.  Suppose every pivot of both echelons lies in the L
block.  This holds exactly when no nonzero relation has a zero L side
(the relations with L = 0 form a subspace whose dimension is the number
of R-block pivots), so a generator change of basis keeps it; every
catalog type that is not dual-derived has it.  Then the box products
f1 box f2 of the echelon rows, each divided by the gcd of its entries,
are exactly the canonical rows of the product.  Proof: a flat L index of
the product orders its coordinates as (i1, i2, j1, j2), so the first
nonzero column of f1 box f2 pairs the first nonzero (i1, j1) of f1 with
the first nonzero (i2, j2) of f2: the pivot of row (f1, f2) is the pair
of pivots (p1, p2), with the positive entry f1[p1]*f2[p2].  Another row
(g1, g2) has g1[p1]*g2[p2] there, and g1[p1] = 0 or g2[p2] = 0 as
g1 != f1 or g2 != f2, so each row is zero at every other row's pivot;
the pivots are distinct, so the r1*r2 rows are independent.  Box
products are bilinear, so these rows span the box relations of any
bases of R1 and R2, and the rank is r1*r2.  By Gauss's lemma the gcd of
the entries of a row is gcd(cL1*cL2, cR1*cR2), where cL and cR are the
gcds of a factor row's L and R sides.  It is 1 on every catalog row,
but rows (1 | 2) and (2 | 1) of one-generator factors give (2 | 2),
hence the division.  When a factor has an R-block pivot (the
dual-derived types), a row with zero L side can meet a row with zero R
side in a zero product, so :func:`square` eliminates as before.

Product star.  ``box(assoc(s1), assoc(s2)) = assoc(s1 (x) s2)``: both
blocks of assoc(s) are s s^T, and a Kronecker product of s1 s1^T and
s2 s2^T is (s1 (x) s2)(s1 (x) s2)^T.  With box bilinear and assoc(s1),
assoc(s2) in R1, R2 for valid factors, the product star's associativity
lies in the product's relation space, and a Kronecker product of
nonzero stars is nonzero.  So :func:`square` checks only the rank.
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
    """The product relation: Kronecker on the L blocks and on the R blocks."""
    (coeffs,) = _kronecker([f1.coeffs], f1.size, [f2.coeffs], f2.size)
    return RelationElement(f1.size * f2.size, coeffs)


def _kronecker(rows1, m1: int, rows2, m2: int) -> list[dict]:
    """The box products of every flat ``{index: coefficient}`` vector of
    ``rows1`` with every one of ``rows2``, first-factor major.

    A sparse Kronecker product: every pair of nonzero coefficients in the
    same block gives one coefficient, at ((i1,i2), (j1,j2)), whose flat
    index is the sum of an offset from each factor.
    """
    m = m1 * m2

    def split(row, n, i_step, j_step):
        blocks: tuple[list, list] = ([], [])
        for k, c in row.items():
            block, rest = divmod(k, n * n)
            i, j = divmod(rest, n)
            blocks[block].append((i * i_step + j * j_step, c))
        return blocks

    firsts = [split(row, m1, m2 * m, m2) for row in rows1]
    seconds = [split(row, m2, m, 1) for row in rows2]
    out = []
    for left1, right1 in firsts:
        right1 = [(m * m + k1, c1) for k1, c1 in right1]
        for left2, right2 in seconds:
            coeffs = {}
            for k1, c1 in left1:
                for k2, c2 in left2:
                    coeffs[k1 + k2] = c1 * c2
            for k1, c1 in right1:
                for k2, c2 in right2:
                    coeffs[k1 + k2] = c1 * c2
            out.append(coeffs)
    return out


def _kronecker_echelon(t1: TypePresentation, t2: TypePresentation) -> Subspace | None:
    """The canonical echelon of the box products of two relation spaces,
    built row by row without elimination (the Kronecker echelon lemma of
    the module docstring); None when a factor has a pivot in the R block."""
    s1, s2 = t1.relation_subspace, t2.relation_subspace
    m1, m2 = t1.dim, t2.dim
    if any(s.pivots and s.pivots[-1] >= m * m for s, m in ((s1, m1), (s2, m2))):
        return None
    m = m1 * m2
    pivots = [
        (i1 * m2 + i2) * m + j1 * m2 + j2
        for i1, j1 in (divmod(p1, m1) for p1 in s1.pivots)
        for i2, j2 in (divmod(p2, m2) for p2 in s2.pivots)
    ]
    rows = _kronecker(s1.int_rows, m1, s2.int_rows, m2)
    return Subspace.from_echelon(2 * m * m, dict(zip(pivots, rows)))


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
    flagged and validated like a dual.  The relation space is the
    Kronecker echelon of the factors when it applies, else eliminated.
    """
    require_valid(t1)
    require_valid(t2)
    gens = square_generators(t1.generators, t2.generators, name)
    star = _product_star(t1, t2)
    m = gens.dim
    relations = [
        RelationElement(m, coeffs)
        for coeffs in _kronecker(
            [f.coeffs for f in t1.relations], t1.dim, [f.coeffs for f in t2.relations], t2.dim
        )
    ]
    result = TypePresentation(
        gens, star, relations, star_unresolved=star is None,
        provenance=f"square product of {t1.name} and {t2.name}",
        subspace=_kronecker_echelon(t1, t2),
    )
    if result.relation_subspace.dim != len(relations):
        # by the product star lemma only the rank can fail, and only on the
        # elimination path: pairs of factor relations that share whole sides
        raise InvalidPresentation(
            f"square({t1.name}, {t2.name}): the box relations are dependent, "
            "so the product is not a valid presentation",
            validate(result),
        )
    return result


def maltese(t1: TypePresentation, t2: TypePresentation) -> TypePresentation:
    """The maltese product; relations span pairs with one factor a relation.

    The spanning set (R1 box full2) union (full1 box R2) is not linearly
    independent, so the canonical row-reduced basis is taken.  As for
    :func:`square`, a starless factor gives a starless product.
    """
    require_valid(t1)
    require_valid(t2)
    m1, m2 = t1.dim, t2.dim
    gens = square_generators(t1.generators, t2.generators, f"({t1.name} mx {t2.name})")
    star = _product_star(t1, t2)

    rows1 = [f.coeffs for f in t1.relations]
    rows2 = [f.coeffs for f in t2.relations]
    span = _kronecker(rows1, m1, _full_space_basis(m2), m2)
    span += _kronecker(_full_space_basis(m1), m1, rows2, m2)

    m = m1 * m2
    sub = Subspace.from_rows(2 * m * m, span)
    relations = [RelationElement(m, row) for row in sub.sparse_basis()]
    return TypePresentation(
        gens, star, relations, star_unresolved=star is None,
        provenance=f"maltese product of {t1.name} and {t2.name}",
        subspace=sub,
    )


def _full_space_basis(m: int) -> list[dict]:
    """Standard basis of the double tensor square for an m-dim generator
    space, as flat coefficient dicts."""
    return [{k: 1} for k in range(2 * m * m)]


def power(t: TypePresentation, n: int) -> TypePresentation:
    """Left-associated n-th square power with flattened tuple labels."""
    if n < 1:
        raise ValueError("power wants n >= 1")
    require_valid(t)
    if n == 1:
        return t
    acc = t
    for _ in range(n - 1):
        acc = _flatten_labels(square(acc, t))
    return acc.with_name(f"({t.name}^{n})")


def _flatten_labels(t: TypePresentation) -> TypePresentation:
    gens = GeneratorSpace(t.name, tuple(_flat_label(l) for l in t.generators.labels))
    return TypePresentation(
        gens, t.star, t.relations, aux=t.aux,
        star_unresolved=t.star is None, provenance=t.provenance,
        subspace=t.relation_subspace,
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
