"""Morphisms between type presentations and monomial automorphism search.

A morphism is a linear map on generator coordinates that sends star to
star and carries every relation into the target's relation subspace.  An
isomorphism is an invertible morphism whose push-forward hits the target
relation subspace exactly.
"""

from __future__ import annotations

from .exactalg import (
    DimensionMismatch,
    ExactAlgebraError,
    Matrix,
    format_scalar,
)
from .dsl import DslError, _json_vector
from .typecore import TypePresentation, push_relation, remap_relation


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


def check_morphism(f: TypeMorphism) -> bool:
    """Star preservation plus push-forward of every relation into the target.

    A monomial matrix (``Matrix.monomial_form``: square, one nonzero per
    column, in pairwise distinct rows, read row by row once per matrix)
    pushes each relation by index with ``remap_relation``, its column
    entries as the signs.  The map on both slots then sends distinct
    coefficients to distinct places, each scaled by a product of two
    entries, which is exactly what ``push_relation`` computes, up to key
    order.  Every other matrix, non-square or with two columns in one
    row (whose coefficients must add up), goes through ``push_relation``,
    and only such a matrix builds its ``nonzero_columns``.
    """
    if not f.star_ok:
        return False
    contains = f.target.relation_subspace.contains_vector
    monomial = f.matrix.monomial_form
    for rel in f.source.relations:
        if monomial is None:
            image = push_relation(rel, f.matrix).coeffs
        else:
            image = remap_relation(rel, *monomial)
        if not contains(image):
            return False
    return True


def check_isomorphism(f: TypeMorphism) -> bool:
    """Invertible, a morphism, and push-forward of R equals R' exactly.

    Lemma: an invertible F acts injectively on the double tensor square
    (it acts there as F (x) F on each block, whose inverse is F^-1 (x)
    F^-1), so the pushed relations span a space of dimension dim R.  Once
    every pushed relation lies in R', the pushed span is a subspace of R'
    of dimension dim R, and it equals R' exactly when dim R = dim R'.  So
    the check is a rank test on F, the star condition, one push and one
    membership query per relation (stopping at the first miss), and a
    comparison of two dimensions; no inverse is built and no pushed span
    is eliminated.
    """
    return (
        f.matrix.is_invertible()
        and check_morphism(f)
        and f.source.relation_subspace.dim == f.target.relation_subspace.dim
    )


def compose(f: TypeMorphism, g: TypeMorphism) -> TypeMorphism:
    """The composite f after g."""
    if g.target is not f.source and g.target.generators.labels != f.source.generators.labels:
        raise DimensionMismatch("morphisms do not compose")
    return TypeMorphism(g.source, f.target, f.matrix @ g.matrix)


def invert(f: TypeMorphism) -> TypeMorphism:
    return TypeMorphism(f.target, f.source, f.matrix.inverse())


def identity_morphism(t: TypePresentation) -> TypeMorphism:
    return TypeMorphism(t, t, Matrix.identity(t.dim))


# ---------------------------------------------------------------------------
# monomial automorphism search

DEFAULT_MONOMIAL_GUARD = 9


def monomial_automorphisms(t: TypePresentation, allow_large: bool = False) -> list[TypeMorphism]:
    """All monomial-matrix automorphisms with nonzero entries 1 and -1.

    The permutation automorphisms are those whose entries are all 1.

    The search backtracks over partial index maps.  Generators are placed
    one at a time, in a fixed order that at each step places the generator
    completing the most relations (ties to the lowest index), each on an
    unused image with a sign that keeps the star condition.  A relation
    is tested, by an index remap and a membership query in the relation
    subspace, at the depth where the last generator of its support is
    placed, and a branch is cut at the first image outside the span.  The
    image of a relation depends only on the map on its support, so no
    automorphism is cut.  The worst case is still m! maps, for a type with
    few relations.  Every complete map gets the full isomorphism check; the
    result is sorted canonically and verified to be closed under
    composition.

    A type with more than ``DEFAULT_MONOMIAL_GUARD`` generators raises
    ValueError unless ``allow_large`` is set.
    """
    m = t.dim
    if m > DEFAULT_MONOMIAL_GUARD and not allow_large:
        raise ValueError(
            f"{t.name} has {m} generators, more than the monomial search guard "
            f"({DEFAULT_MONOMIAL_GUARD}); pass --allow-large (allow_large=True) to search anyway"
        )

    order, due = _placement_order(t)
    choices = _star_consistent_choices(t.star, m)
    images, signs = [None] * m, [None] * m
    used = [False] * m
    found = []

    def place(depth):
        if depth == m:
            f = TypeMorphism(t, t, Matrix.monomial(images, signs))
            if check_isomorphism(f):
                found.append((f, tuple(images), tuple(signs)))
            return
        j = order[depth]
        for i, e in choices[j]:
            if used[i]:
                continue
            images[j], signs[j] = i, e
            if _relations_preserved(t, images, signs, due[depth]):
                used[i] = True
                place(depth + 1)
                used[i] = False
        images[j] = signs[j] = None

    place(0)
    found.sort(key=lambda hit: hit[0].matrix.rows)
    _check_closed([hit[1:] for hit in found])
    return [hit[0] for hit in found]


def _placement_order(t):
    """Generators in greedy placement order, and the relations due at each depth.

    A relation is due where the last generator of its support (the
    generators with a nonzero coefficient in it) is placed.
    """
    supports = [set().union(*((i, j) for _, i, j, _ in rel.nonzero())) for rel in t.relations]
    pending = set(range(len(t.relations)))
    placed: set[int] = set()
    order, due = [], []
    for _ in range(t.dim):
        complete = {
            g: [k for k in sorted(pending) if supports[k] <= placed | {g}]
            for g in range(t.dim)
            if g not in placed
        }
        g = max(complete, key=lambda g: (len(complete[g]), -g))
        order.append(g)
        due.append([t.relations[k] for k in complete[g]])
        placed.add(g)
        pending.difference_update(complete[g])
    return order, due


def _star_consistent_choices(star, m):
    """For each generator j, the (image i, sign e) pairs with e star[j] = star[i]."""
    if star is None:
        pairs = [(i, e) for i in range(m) for e in (1, -1)]
        return [pairs] * m
    return [
        [(i, e) for i in range(m) for e in (1, -1) if e * star[j] == star[i]]
        for j in range(m)
    ]


def _relations_preserved(t, images, signs, relations) -> bool:
    """Whether the signed index map carries each of ``relations`` into the span of t's.

    The map may be partial: it needs to be defined on the support of
    every relation given.
    """
    space = t.relation_subspace
    return all(
        space.contains_vector(remap_relation(rel, images, signs)) for rel in relations
    )


def _compose_index_maps(a, b):
    """The signed index map a after b, each an ``(images, signs)`` pair."""
    (ia, sa), (ib, sb) = a, b
    return tuple(ia[k] for k in ib), tuple(sa[k] * s for k, s in zip(ib, sb))


def _check_closed(maps):
    """Raise unless the signed index maps are closed under composition."""
    members = set(maps)
    for a in maps:
        for b in maps:
            if _compose_index_maps(a, b) not in members:
                raise ExactAlgebraError("automorphism set is not closed under composition")


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
    """Inverse of :func:`morphism_to_json`.

    The matrix must have ``target.dim`` rows of ``source.dim`` rationals,
    and the ``source`` and ``target`` names, where present, must be those
    of the given types; anything else raises DslError naming the JSON
    path of the bad field.
    """
    if not isinstance(data, dict):
        raise DslError("expected a JSON object at the top level")
    for field, t in (("source", source), ("target", target)):
        if field in data and data[field] != t.name:
            raise DslError(
                f"the map was written for {data[field]!r}, not for {t.name!r}",
                path=field,
            )
    if "matrix" not in data:
        raise DslError("missing field", path="matrix")
    rows = data["matrix"]
    if not isinstance(rows, list) or len(rows) != target.dim:
        raise DslError(f"expected a list of {target.dim} rows", path="matrix")
    matrix = Matrix(
        [_json_vector(row, source.dim, f"matrix[{i}]") for i, row in enumerate(rows)],
        ncols=source.dim,
    )
    return TypeMorphism(source, target, matrix)
