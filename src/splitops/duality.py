"""Signed pairing on relation spaces, dual types and the non-duality witness.

The pairing of (alpha, beta) against a dual-coordinate pair (gamma, delta)
is <alpha, gamma> - <beta, delta>, entrywise on the fixed flattening, so
the dual of a type is the nullspace of its relation matrix with the
right-association block negated.  Under this convention the double dual
is the identity on coordinates.
"""

from __future__ import annotations

import itertools
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
    star_associativity,
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


def _signed_coeffs(rel: RelationElement) -> dict:
    half = rel.size * rel.size
    return {k: -c if k >= half else c for k, c in rel.coeffs.items()}


DUAL_SUFFIX = "^"


def dual(
    t: TypePresentation,
    labels: tuple[str, ...] | None = None,
    name: str | None = None,
    search_star: bool | None = None,
) -> TypePresentation:
    """The dual type: dual generators with the annihilator of R as relations.

    The annihilator is the nullspace of the matrix whose rows are the
    flattened basis relations with the R block negated; its dimension is
    2*m^2 - dim R.  Dual labels default to the primal ones suffixed with
    "^".  A star is searched among small integer combinations only for
    small generator spaces (the search is a 3^m sweep); otherwise the
    result is flagged star-unresolved.
    """
    require_valid(t)
    m = t.dim
    rows = [_signed_coeffs(r) for r in t.relations]
    ann = Subspace.from_rows(2 * m * m, rows).annihilator()
    relations = [RelationElement(m, row) for row in ann.sparse_basis()]
    gens = GeneratorSpace(
        name or f"{t.name}!",
        labels or tuple(l + DUAL_SUFFIX for l in t.generators.labels),
    )
    out = TypePresentation(
        gens,
        None,
        relations,
        star_unresolved=True,
        provenance=f"dual of {t.name}",
    )
    if search_star is None:
        search_star = m <= STAR_SEARCH_DIM_GUARD
    if search_star:
        stars = find_star(out)
        if stars:
            out = TypePresentation(
                gens, stars[0], relations, provenance=out.provenance
            )
    return out


def double_dual_check(t: TypePresentation) -> bool:
    """dual(dual(t)).R equals t.R under the coordinate identification."""
    dd = dual(dual(t, search_star=False), search_star=False)
    return dd.relation_subspace == t.relation_subspace


def find_star(t: TypePresentation) -> list[tuple[int, ...]]:
    """All nonzero vectors with entries in {-1, 0, 1} whose associativity
    element lies in the relation subspace, in the order 0, 1, -1 per entry."""
    space = t.relation_subspace
    hits = []
    for cand in itertools.product(_STAR_ENTRIES, repeat=t.dim):
        if not any(cand):
            continue
        if space.contains_vector(star_associativity(cand).coeffs):
            hits.append(cand)
    return hits


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
    aq = dual(quadri, search_star=False)
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
