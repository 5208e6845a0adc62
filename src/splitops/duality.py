"""Signed pairing on relation spaces, dual types and the non-duality witness.

The pairing of (alpha, beta) against a dual-coordinate pair (gamma, delta)
is <alpha, gamma> - <beta, delta>, entrywise on the fixed flattening, so
the dual of a type is the nullspace of its relation matrix with the
right-association block negated.  Under this convention the double dual
is the identity on coordinates.

Dual by sign flip.  Let D negate the R block.  D is diagonal with
entries +-1, so v . Dr = Dv . r, and the signed annihilator of R is
D ann(R): v pairs to zero with all of R exactly when Dv is orthogonal to
it.  D keeps the support of a vector, so it maps the canonical echelon
rows of ann(R) (see :class:`~splitops.exactalg.Echelon`) to rows with
the same pivots, still zero at every other pivot and primitive; only a
pivot in the R block turns negative, and negating that whole row makes
it positive again.  So :func:`dual` reads the dual's canonical echelon
off ``t.relation_subspace.annihilator()``, and the only elimination a
dual makes is that of R's rows with the columns reversed (see
:meth:`~splitops.exactalg.Subspace.annihilator`).

Stars by quadratic forms.  Both blocks of the associativity element of s
are s s^T, so its plain dot product with a vector y is s^T (y_L + y_R) s,
and its pairing with a relation r is s^T (L_r - R_r) s.  Hence s is a
star of a type t exactly when s^T (y_L + y_R) s = 0 for every row y of
ann(R), and a star of dual(t) exactly when s^T (L_r - R_r) s = 0 for
every relation r of t.  :func:`find_star` and :func:`dual` run one 3^m
sweep on these forms; :func:`dual` stops at its first hit.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    DimensionMismatch,
    ExactAlgebraError,
    Subspace,
    canonical,
)
from .typecore import (
    GeneratorSpace,
    RelationElement,
    TypePresentation,
    require_valid,
)

STAR_SEARCH_DIM_GUARD = 6
_STAR_ENTRIES = (0, 1, -1)


def pair2(u: RelationElement, v: RelationElement):
    """The signed perfect pairing: sum(L*L') - sum(R*R'), coordinatewise."""
    if u.size != v.size:
        raise DimensionMismatch("pairing needs equal generator dimensions")
    total = 0
    for block, i, j, a in u.nonzero():
        b = v.coeff(block, i, j)
        if b:
            total += -a * b if block else a * b
    return canonical(total)


DUAL_SUFFIX = "^"


def dual(t: TypePresentation, labels: tuple[str, ...] | None = None) -> TypePresentation:
    """The dual type: dual generators with the annihilator of R as relations.

    The annihilator is the nullspace of the matrix whose rows are the
    flattened basis relations with the R block negated; its dimension is
    2*m^2 - dim R, and its echelon is that of ann(R) with the R block
    negated (see the module docstring).  Dual labels default to the
    primal ones suffixed with "^".  A star is searched among small
    integer combinations only for small generator spaces (the search is a
    3^m sweep that stops at its first hit); otherwise the result is flagged
    star-unresolved.
    """
    require_valid(t)
    m = t.dim
    space = _signed_annihilator(t.relation_subspace, m * m)
    relations = [RelationElement(m, row) for row in space.sparse_basis()]
    gens = GeneratorSpace(
        f"{t.name}!", labels or tuple(l + DUAL_SUFFIX for l in t.generators.labels)
    )
    star = None
    if m <= STAR_SEARCH_DIM_GUARD:
        star = next(_star_sweep(m, [_form(r.coeffs, m, -1) for r in t.relations]), None)
    return TypePresentation(
        gens,
        star,
        relations,
        star_unresolved=star is None,
        provenance=f"dual of {t.name}",
        subspace=space,
    )


def _signed_annihilator(space: Subspace, half: int) -> Subspace:
    """D ann(space) in canonical form, D negating the columns from ``half`` on."""
    ann = space.annihilator()
    rows = {}
    for p, row in zip(ann.pivots, ann.int_rows):
        sign = -1 if p >= half else 1
        rows[p] = {k: -sign * x if k >= half else sign * x for k, x in row.items()}
    return Subspace.from_echelon(space.ambient, rows)


def double_dual_check(t: TypePresentation) -> bool:
    """dual(dual(t)).R equals t.R: the signed annihilator taken twice is t.R."""
    require_valid(t)
    space, half = t.relation_subspace, t.dim * t.dim
    return _signed_annihilator(_signed_annihilator(space, half), half) == space


def find_star(t: TypePresentation) -> list[tuple[int, ...]]:
    """All nonzero vectors with entries in {-1, 0, 1} whose associativity
    element lies in the relation subspace, in the order 0, 1, -1 per entry."""
    m = t.dim
    forms = [_form(y, m, 1) for y in t.relation_subspace.annihilator().int_rows]
    return list(_star_sweep(m, forms))


def _form(coeffs: dict, m: int, sign: int) -> tuple:
    """The quadratic form s -> s^T (L + sign*R) s of a flat coefficient
    vector, as ((i, j), c) terms with i <= j and c nonzero."""
    mm = m * m
    form: dict = {}
    for k, c in coeffs.items():
        block, rest = divmod(k, mm)
        i, j = divmod(rest, m)
        key = (i, j) if i <= j else (j, i)
        form[key] = form.get(key, 0) + (sign * c if block else c)
    return tuple((key, c) for key, c in form.items() if c)


def _star_sweep(m: int, forms: list) -> Iterator[tuple[int, ...]]:
    """The nonzero vectors in {-1, 0, 1}^m, in the order 0, 1, -1 per
    entry, on which every form vanishes, generated as the sweep finds them."""
    forms = [f for f in forms if f]
    for cand in itertools.product(_STAR_ENTRIES, repeat=m):
        if any(cand) and not any(
            sum(c * cand[i] * cand[j] for (i, j), c in form) for form in forms
        ):
            yield cand


@dataclass(frozen=True)
class NonDualityReport:
    """Outcome of the maltese-vs-dual-square comparison on dendriform."""

    inclusion_holds: bool
    maltese_dim: int
    dual_square_dim: int
    witness: RelationElement
    witness_display: str
    witness_in_maltese: bool
    pairing_value: int | Fraction
    paired_relation: RelationElement
    paired_display: str
    paired_relation_in_square: bool
    witness_annihilates_square: bool

    def describe(self) -> str:
        return "\n".join(
            [
                "maltese(dual(D), dual(D)).R contained in dual(square(D, D)).R: "
                + str(self.inclusion_holds),
                f"  dim maltese relation space: {self.maltese_dim}",
                f"  dim dual-square relation space: {self.dual_square_dim}",
                f"  witness: {self.witness_display}",
                f"  witness lies in the maltese relation space: {self.witness_in_maltese}",
                f"  square relation paired against it: {self.paired_display}",
                f"  pairing value: {self.pairing_value}",
                "  paired element lies in square(D, D).R: "
                + str(self.paired_relation_in_square),
                "  witness annihilates every square basis relation: "
                + str(self.witness_annihilates_square),
            ]
        )


def non_duality_witness() -> NonDualityReport:
    """The square and maltese products are not exchanged by duality.

    Builds AQ := dual(square(D, D)) and M := maltese(dual(D), dual(D))
    for the dendriform type D, checks that M.R is not contained in AQ.R,
    and exhibits the explicit witness pair whose pairing value is -1.
    """
    from .catalog import get
    from .products import box_relation, maltese, square

    dend = get("dendriform")
    ad = get("assoc_dialgebra")
    quadri = square(dend, dend)
    aq = dual(quadri)
    m = maltese(ad, ad)

    inclusion = m.relation_subspace.leq(aq.relation_subspace)

    # witness: (rv x lv, rv x lv) box (rv x rv, rv x lv); the first factor is
    # relation 4 of the associative dialgebra, so the pair is in the maltese span.
    i_lv, i_rv = ad.generators.index("lv"), ad.generators.index("rv")
    f1 = ad.relations[3]
    f2 = RelationElement(2, {i_rv * 2 + i_rv: 1, 4 + i_rv * 2 + i_lv: 1})
    witness = box_relation(f1, f2)

    # the square relation it fails against: r2 box r2 for dendriform
    r2 = dend.relations[1]
    paired = box_relation(r2, r2)

    value = pair2(paired, witness)
    annihilates = all(pair2(rel, witness) == 0 for rel in quadri.relations)
    from .typecore import format_relation

    report = NonDualityReport(
        inclusion_holds=inclusion,
        maltese_dim=m.relation_subspace.dim,
        dual_square_dim=aq.relation_subspace.dim,
        witness=witness,
        witness_display=format_relation(witness, m.generators.labels),
        witness_in_maltese=m.relation_subspace.contains_vector(witness.coeffs),
        pairing_value=value,
        paired_relation=paired,
        paired_display=format_relation(paired, quadri.generators.labels),
        paired_relation_in_square=quadri.relation_subspace.contains_vector(paired.coeffs),
        witness_annihilates_square=annihilates,
    )
    if report.inclusion_holds:
        raise ExactAlgebraError(
            "internal inconsistency: maltese(dual D, dual D) unexpectedly "
            "contained in dual(square(D, D))"
        )
    return report
