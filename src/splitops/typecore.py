"""Presentations of binary quadratic regular operads with a splitting star.

The central object is :class:`TypePresentation`: an ordered generator
basis, a distinguished "star" vector whose associativity splits into the
relations, and a basis of relation elements.  A relation element is a
pair of m x m rational matrices (L, R) encoding the arity-3 identity

    sum_ij L[i][j] (x g_i y) g_j z  =  sum_ij R[i][j] x g_i (y g_j z).

Relation elements flatten to vectors of length 2*m^2 - the L block
row-major, then the R block row-major.  Every subspace comparison in the
package goes through this one flattening convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .exactalg import (
    DimensionMismatch,
    Echelon,
    ExactAlgebraError,
    Matrix,
    Subspace,
    format_scalar,
    rational,
)

_ZERO = Fraction(0)


class InvalidPresentation(ExactAlgebraError):
    """Raised when an operation requires a valid presentation and gets none."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class GeneratorSpace:
    """Named, ordered basis of binary operations."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise InvalidPresentation("a type needs at least one generator")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidPresentation(f"duplicate generator labels in {self.name!r}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


class RelationElement:
    """One element of the double tensor square, an (L, R) pair of m x m blocks.

    Stored sparsely: ``coeffs`` maps the flat index of every nonzero
    coefficient to a Fraction, in increasing index order (L[i][j] sits at
    i*m + j, R[i][j] at m*m + i*m + j; see the module docstring).  The
    dense ``left`` and ``right`` matrices are built on access, for display.
    """

    __slots__ = ("size", "coeffs")

    def __init__(self, left: Matrix, right: Matrix):
        if left.nrows != left.ncols or right.nrows != right.ncols:
            raise DimensionMismatch("relation matrices must be square")
        if left.nrows != right.nrows:
            raise DimensionMismatch("relation matrices must share one size")
        m = left.nrows
        self.size = m
        self.coeffs = {
            block * m * m + i * m + j: c
            for block, mat in enumerate((left, right))
            for i, row in enumerate(mat.rows)
            for j, c in enumerate(row)
            if c
        }

    @classmethod
    def from_coeffs(cls, m: int, coeffs: Mapping[int, Fraction]) -> "RelationElement":
        """The element with the given {flat index: coefficient}; zeros are dropped."""
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= 2 * m * m):
            raise DimensionMismatch("flat index outside 2*m^2")
        out = object.__new__(cls)
        out.size = m
        out.coeffs = {k: rational(c) for k, c in sorted(coeffs.items()) if c}
        return out

    def nonzero(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """(block, i, j, c) for each nonzero coefficient, in flat index order.

        Block 0 is L, where c weighs (x g_i y) g_j z; block 1 is R, where
        c weighs x g_i (y g_j z).
        """
        m = self.size
        mm = m * m
        for k, c in self.coeffs.items():
            block, rest = divmod(k, mm)
            i, j = divmod(rest, m)
            yield block, i, j, c

    def coeff(self, block: int, i: int, j: int) -> Fraction:
        m = self.size
        return self.coeffs.get(block * m * m + i * m + j, _ZERO)

    def _block(self, block: int) -> Matrix:
        m = self.size
        rows = [[_ZERO] * m for _ in range(m)]
        for b, i, j, c in self.nonzero():
            if b == block:
                rows[i][j] = c
        return Matrix(rows, ncols=m)

    @property
    def left(self) -> Matrix:
        return self._block(0)

    @property
    def right(self) -> Matrix:
        return self._block(1)

    def flatten(self) -> tuple[Fraction, ...]:
        vec = [_ZERO] * (2 * self.size * self.size)
        for k, c in self.coeffs.items():
            vec[k] = c
        return tuple(vec)

    @classmethod
    def unflatten(cls, vec: Sequence, m: int) -> "RelationElement":
        if len(vec) != 2 * m * m:
            raise DimensionMismatch("flattened relation has length 2*m^2")
        return cls.from_coeffs(m, {k: x for k, x in enumerate(vec) if x})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, RelationElement)
            and self.size == other.size
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.size, tuple(self.coeffs.items())))

    def __repr__(self):
        return f"RelationElement(m={self.size})"


def star_associativity(star: Sequence[Fraction]) -> RelationElement:
    """(x * y) * z = x * (y * z) for the star * = sum star_i g_i."""
    m = len(star)
    coeffs = {}
    for i, a in enumerate(star):
        for j, b in enumerate(star):
            if a and b:
                coeffs[i * m + j] = coeffs[m * m + i * m + j] = a * b
    return RelationElement.from_coeffs(m, coeffs)


class TypePresentation:
    """A generator space, a star vector and a relation basis.

    ``star`` may be ``None`` for dual-derived presentations whose
    associative element has not been resolved; validation is then relaxed
    and the presentation is flagged accordingly.
    """

    __slots__ = (
        "generators",
        "star",
        "relations",
        "aux",
        "star_unresolved",
        "provenance",
        "_subspace",
    )

    def __init__(
        self,
        generators: GeneratorSpace,
        star: Sequence[Fraction] | None,
        relations: Sequence[RelationElement],
        aux: Mapping[str, Sequence[Fraction]] | None = None,
        star_unresolved: bool = False,
        provenance: str = "",
    ):
        m = generators.dim
        if star is not None:
            star = tuple(Fraction(x) for x in star)
            if len(star) != m:
                raise DimensionMismatch("star length differs from generator count")
        elif not star_unresolved:
            raise InvalidPresentation("a presentation without a star must be flagged")
        for rel in relations:
            if rel.size != m:
                raise DimensionMismatch("relation size differs from generator count")
        self.generators = generators
        self.star = star
        self.relations = tuple(relations)
        self.aux = {k: tuple(Fraction(x) for x in v) for k, v in (aux or {}).items()}
        self.star_unresolved = star_unresolved
        self.provenance = provenance
        self._subspace = None

    @property
    def name(self) -> str:
        return self.generators.name

    @property
    def dim(self) -> int:
        return self.generators.dim

    @property
    def relation_subspace(self) -> Subspace:
        if self._subspace is None:
            self._subspace = Subspace.from_rows(
                2 * self.dim * self.dim, [r.coeffs for r in self.relations]
            )
        return self._subspace

    def star_relation(self) -> RelationElement:
        if self.star is None:
            raise InvalidPresentation(f"{self.name}: star unresolved")
        return star_associativity(self.star)

    def with_name(self, name: str) -> "TypePresentation":
        return TypePresentation(
            GeneratorSpace(name, self.generators.labels),
            self.star,
            self.relations,
            aux=self.aux,
            star_unresolved=self.star_unresolved,
            provenance=self.provenance,
        )

    def __repr__(self):
        star = "star unresolved" if self.star is None else "star set"
        return (
            f"TypePresentation({self.name!r}, {self.dim} generators, "
            f"{len(self.relations)} relations, {star})"
        )


@dataclass(frozen=True)
class ValidationReport:
    name: str
    relation_count: int
    relation_rank: int
    star_nonzero: bool
    star_associative: bool
    star_unresolved: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def relations_independent(self) -> bool:
        return self.relation_rank == self.relation_count

    @property
    def valid(self) -> bool:
        if self.star_unresolved:
            return self.relations_independent
        return self.relations_independent and self.star_nonzero and self.star_associative

    def describe(self) -> str:
        lines = [
            f"type {self.name}: {'valid' if self.valid else 'INVALID'}",
            f"  relations: {self.relation_count} given, rank {self.relation_rank}",
        ]
        if self.star_unresolved:
            lines.append("  star: dual presentation, star unresolved")
        else:
            lines.append(f"  star nonzero: {self.star_nonzero}")
            lines.append(f"  star associativity in relation span: {self.star_associative}")
        lines.extend("  note: " + n for n in self.notes)
        return "\n".join(lines)


def validate(t: TypePresentation) -> ValidationReport:
    """Check independence of the relation basis and splitting associativity.

    Failures are reported, never raised.
    """
    count = len(t.relations)
    rank = t.relation_subspace.dim
    notes = []
    if t.star is None:
        return ValidationReport(
            t.name, count, rank, False, False, star_unresolved=True,
            notes=("dual presentation, star unresolved",),
        )
    star_nonzero = any(t.star)
    star_assoc = False
    if star_nonzero:
        star_assoc = t.relation_subspace.contains_vector(t.star_relation().coeffs)
    if count == 0:
        notes.append("empty relation list: splitting associativity cannot hold")
    return ValidationReport(t.name, count, rank, star_nonzero, star_assoc, notes=tuple(notes))


def require_valid(t: TypePresentation) -> None:
    report = validate(t)
    if not report.valid:
        raise InvalidPresentation(f"{t.name}: invalid presentation", report)


def splitting_basis(
    t: TypePresentation,
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[RelationElement, ...]]:
    """Bases exhibiting the splitting explicitly.

    Returns a generator basis (w_1 .. w_m) with star = sum w_i and a
    relation basis (r_1 .. r_s) summing to the star associativity
    element.  Construction: complete star (resp. the associativity
    vector) to a basis, scanning candidates last-to-first, then replace
    the completed element by star minus the sum of the others.
    """
    report = validate(t)
    if not report.valid or t.star is None:
        raise InvalidPresentation("no splitting associativity", report)
    m = t.dim

    unit = [tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)]
    chosen = [unit[k] for k in _complete_descending(m, [t.star], unit, m)]
    first = list(t.star)
    for v in chosen:
        first = [a - b for a, b in zip(first, v)]
    gen_basis = (tuple(first),) + tuple(chosen)

    assoc = t.star_relation()
    rel_vecs = [r.coeffs for r in t.relations]
    chosen_rel = [
        t.relations[k]
        for k in _complete_descending(2 * m * m, [assoc.coeffs], rel_vecs, len(t.relations))
    ]
    first_rel = dict(assoc.coeffs)
    for r in chosen_rel:
        for k, c in r.coeffs.items():
            first_rel[k] = first_rel.get(k, _ZERO) - c
    rel_basis = (RelationElement.from_coeffs(m, first_rel),) + tuple(chosen_rel)
    return gen_basis, rel_basis


def _complete_descending(ambient, seed, candidates, target_rank) -> list[int]:
    """Greedy completion of ``seed`` to rank ``target_rank``.

    Scans ``candidates`` from the last to the first (so catalog bases
    that already sum to the seed come back unchanged), adding each one
    that raises the rank to one echelon, and returns the positions of the
    chosen candidates in increasing order.
    """
    span = Echelon(ambient)
    for v in seed:
        span.add(v)
    picked = []
    for k in reversed(range(len(candidates))):
        if len(span.rows) >= target_rank:
            break
        if span.add(candidates[k]):
            picked.append(k)
    if len(span.rows) < target_rank:
        raise InvalidPresentation("candidates do not span the space")
    picked.reverse()
    return picked


def arity3_dimension(t: TypePresentation) -> int:
    """Dimension of the regular arity-3 component: 2*m^2 - dim R."""
    require_valid(t)
    m = t.dim
    dim = 2 * m * m - t.relation_subspace.dim
    if dim < 0:
        raise InvalidPresentation("relation space exceeds the free arity-3 space")
    return dim


def relabel(t: TypePresentation, mapping) -> TypePresentation:
    """Push a presentation through a generator relabelling.

    ``mapping`` is either a label bijection (dict) or an invertible
    m x m rational matrix acting on generator coordinates; relations are
    transformed on both tensor slots of both blocks and the star is
    mapped along.
    """
    m = t.dim
    if isinstance(mapping, Mapping):
        labels = t.generators.labels
        if set(mapping) != set(labels) or set(mapping.values()) != set(labels):
            raise InvalidPresentation("label map must be a bijection on the labels")
        f = Matrix(
            [
                [Fraction(int(mapping[labels[j]] == labels[i])) for j in range(m)]
                for i in range(m)
            ],
            ncols=m,
        )
    else:
        f = mapping if isinstance(mapping, Matrix) else Matrix(mapping)
        if f.nrows != m or f.ncols != m:
            raise DimensionMismatch("relabel matrix must be m x m")
    try:
        f.inverse()
    except ExactAlgebraError:
        raise InvalidPresentation("relabel map must be invertible") from None
    new_rels = [push_relation(r, f) for r in t.relations]
    new_star = f.apply(t.star) if t.star is not None else None
    new_aux = {k: f.apply(v) for k, v in t.aux.items()}
    return TypePresentation(
        t.generators,
        new_star,
        new_rels,
        aux=new_aux,
        star_unresolved=t.star is None,
        provenance=t.provenance,
    )


def push_relation(rel: RelationElement, f: Matrix) -> RelationElement:
    """Image of a relation element under a generator map on both slots.

    The coefficient at (i, j) of a block lands at every (a, b) with weight
    f[a][i] * f[b][j]; the sum runs over the nonzero entries of columns i
    and j of f only, so a permutation or monomial matrix moves each
    coefficient to exactly one place.
    """
    if f.ncols != rel.size:
        raise DimensionMismatch("generator map does not match the relation size")
    n = f.nrows
    nn = n * n
    columns = [
        [(a, f.rows[a][i]) for a in range(n) if f.rows[a][i]] for i in range(f.ncols)
    ]
    image: dict[int, Fraction] = {}
    for block, i, j, c in rel.nonzero():
        for a, x in columns[i]:
            cx = c * x
            base = block * nn + a * n
            for b, y in columns[j]:
                k = base + b
                image[k] = image.get(k, _ZERO) + cx * y
    return RelationElement.from_coeffs(n, image)


def format_sides(rel: RelationElement, term, scale: str = "*") -> tuple[str, str]:
    """The L and R sides as signed sums of ``term(block, i, j)``.

    Coefficients other than 1 and -1 are written as ``|c|`` followed by
    ``scale`` and the term; an empty side is ``0``.
    """
    parts: tuple[list, list] = ([], [])
    for block, i, j, c in rel.nonzero():
        body = term(block, i, j)
        if abs(c) != 1:
            body = f"{format_scalar(abs(c))}{scale}{body}"
        parts[block].append(("-" if c < 0 else "+", body))
    return _signed_sum(parts[0]), _signed_sum(parts[1])


def _signed_sum(parts) -> str:
    if not parts:
        return "0"
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def format_relation(rel: RelationElement, labels: Sequence[str]) -> str:
    """Human-readable identity, e.g. ``(x lt y) lt z = x lt (y lt z) + ...``."""

    def term(block, i, j):
        if block == 0:
            return f"(x {labels[i]} y) {labels[j]} z"
        return f"x {labels[i]} (y {labels[j]} z)"

    left, right = format_sides(rel, term)
    return f"{left} = {right}"
