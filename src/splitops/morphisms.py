"""Morphisms between type presentations and monomial automorphism search.

A morphism is a linear map on generator coordinates that sends star to
star and carries every relation into the target's relation subspace.  An
isomorphism is an invertible morphism whose push-forward hits the target
relation subspace exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactalg import (
    DimensionMismatch,
    ExactAlgebraError,
    Matrix,
    Subspace,
    format_scalar,
    parse_scalar,
)
from .typecore import TypePresentation, push_relation


class TypeMorphism:
    """A generator-coordinate map between two presentations.

    The star condition (F star = star') is evaluated at construction and
    recorded; morphism checks consult it.  Presentations without a
    resolved star skip the condition.
    """

    __slots__ = ("source", "target", "matrix", "star_ok")

    def __init__(self, source: TypePresentation, target: TypePresentation, matrix: Matrix):
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise DimensionMismatch("morphism matrix shape does not match its types")
        self.source = source
        self.target = target
        self.matrix = matrix
        if source.star is None or target.star is None:
            self.star_ok = True
        else:
            self.star_ok = matrix.apply(source.star) == tuple(target.star)

    def __repr__(self):
        return f"TypeMorphism({self.source.name} -> {self.target.name})"

    def __eq__(self, other):
        return (
            isinstance(other, TypeMorphism)
            and self.matrix == other.matrix
            and self.source is other.source
            and self.target is other.target
        )

    def __hash__(self):
        return hash(self.matrix)

    def apply_generator(self, index: int) -> tuple:
        return tuple(row[index] for row in self.matrix.rows)


def check_morphism(f: TypeMorphism) -> bool:
    """Star preservation plus push-forward of every relation into the target."""
    if not f.star_ok:
        return False
    target_space = f.target.relation_subspace
    for rel in f.source.relations:
        image = push_relation(rel, f.matrix)
        if not target_space.contains_vector(image.coeffs):
            return False
    return True


def check_isomorphism(f: TypeMorphism) -> bool:
    """Invertible, a morphism, and push-forward of R equals R' exactly."""
    try:
        f.matrix.inverse()
    except ExactAlgebraError:
        return False
    if not check_morphism(f):
        return False
    pushed = Subspace.from_rows(
        2 * f.target.dim ** 2,
        [push_relation(r, f.matrix).coeffs for r in f.source.relations],
    )
    return pushed == f.target.relation_subspace


def compose(f: TypeMorphism, g: TypeMorphism) -> TypeMorphism:
    """The composite f after g."""
    if g.target is not f.source and g.target.generators.labels != f.source.generators.labels:
        raise DimensionMismatch("morphisms do not compose")
    return TypeMorphism(g.source, f.target, f.matrix @ g.matrix)


def invert(f: TypeMorphism) -> TypeMorphism:
    return TypeMorphism(f.target, f.source, f.matrix.inverse())


def identity_morphism(t: TypePresentation) -> TypeMorphism:
    return TypeMorphism(t, t, Matrix.identity(t.dim))


def tensor_morphism(f: TypeMorphism, g: TypeMorphism) -> TypeMorphism:
    """The induced map between square products (Kronecker of the matrices)."""
    from .products import square

    return TypeMorphism(
        square(f.source, g.source),
        square(f.target, g.target),
        f.matrix.kron(g.matrix),
    )


# ---------------------------------------------------------------------------
# monomial automorphism search

DEFAULT_MONOMIAL_GUARD = 9


def monomial_automorphisms(
    t: TypePresentation,
    entries: tuple[int, ...] = (1, -1),
    guard: int = DEFAULT_MONOMIAL_GUARD,
    allow_large: bool = False,
) -> list[TypeMorphism]:
    """All monomial-matrix automorphisms with nonzero entries from ``entries``.

    The search is exhaustive over permutations combined with entry
    choices that already satisfy the star condition (for an all-ones
    star that forces a plain permutation matrix).  Candidates are
    prefiltered against the annihilator of the relation subspace, which
    rejects a non-automorphism after a handful of integer dot products;
    survivors get the full isomorphism check.  The result is sorted
    canonically and verified to be closed under composition.
    """
    m = t.dim
    if m > guard and not allow_large:
        raise ExactAlgebraError(
            f"monomial search over {m} generators exceeds the guard ({guard}); "
            "pass allow_large=True to override"
        )
    entries = tuple(Fraction(e) for e in entries)
    if any(not e for e in entries):
        raise ValueError("monomial entries must be nonzero")

    # Annihilator rows of R under the plain dot product, as integer rows.
    ann_rows = t.relation_subspace.annihilator().int_rows
    sparse_rels = [list(r.nonzero()) for r in t.relations]

    found = []
    star = t.star
    for perm in itertools.permutations(range(m)):
        # perm maps source generator j to target generator perm[j]
        for signs in _star_consistent_signs(star, perm, entries, m):
            if not _relations_preserved(sparse_rels, ann_rows, perm, signs, m):
                continue
            f = TypeMorphism(t, t, _monomial_matrix(perm, signs, m))
            if check_isomorphism(f):
                found.append(f)
    found.sort(key=lambda f: f.matrix.rows)

    mats = {f.matrix for f in found}
    for a in found:
        for b in found:
            if (a.matrix @ b.matrix) not in mats:
                raise ExactAlgebraError("automorphism set is not closed under composition")
    return found


def _monomial_matrix(perm, signs, m) -> Matrix:
    rows = [[Fraction(0)] * m for _ in range(m)]
    for j in range(m):
        rows[perm[j]][j] = signs[j]
    return Matrix(rows, ncols=m)


def _star_consistent_signs(star, perm, entries, m):
    """Sign vectors e with (monomial matrix) star = star, generator-wise."""
    if star is None:
        yield from itertools.product(entries, repeat=m)
        return
    options = []
    for j in range(m):
        want = star[perm[j]]
        have = star[j]
        if have == 0:
            if want != 0:
                return
            options.append(entries)
        else:
            ratio = want / have
            if ratio not in entries:
                return
            options.append((ratio,))
    yield from itertools.product(*options)


def _relations_preserved(sparse_rels, ann_rows, perm, signs, m) -> bool:
    mm = m * m
    for rel in sparse_rels:
        image = {}
        for block, i, j, c in rel:
            idx = block * mm + perm[i] * m + perm[j]
            image[idx] = image.get(idx, 0) + c * signs[i] * signs[j]
        for ann in ann_rows:
            acc = 0
            for idx, c in image.items():
                a = ann.get(idx)
                if a:
                    acc += a * c
            if acc:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON form: {source, target, matrix: [["p/q", ...], ...]}


def morphism_to_json(f: TypeMorphism) -> dict:
    return {
        "source": f.source.name,
        "target": f.target.name,
        "matrix": [[format_scalar(x) for x in row] for row in f.matrix.rows],
    }


def morphism_from_json(
    data: dict, source: TypePresentation, target: TypePresentation
) -> TypeMorphism:
    matrix = Matrix([[parse_scalar(x) for x in row] for row in data["matrix"]])
    return TypeMorphism(source, target, matrix)
