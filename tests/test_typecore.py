"""Presentations, validation, splitting bases and relabelling."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitops import catalog
from splitops.dsl import parse_type, parse_type_json, parse_type_report, serialize
from splitops.duality import dual
from splitops.exactalg import DimensionMismatch, Matrix, ScalarKindMismatch, canonical
from splitops.morphisms import monomial_automorphisms
from splitops.products import square
from splitops.typecore import (
    GeneratorSpace,
    InvalidPresentation,
    RelationElement,
    TypePresentation,
    arity3_dimension,
    push_relation,
    relabel,
    remap_relation,
    splitting_basis,
    validate,
)

F = Fraction


# -- oracles: explicit tree enumerations -------------------------------------


def planar_binary_trees(internal):
    """All planar binary trees with the given number of internal nodes."""
    if internal == 0:
        return ["leaf"]
    out = []
    for left in range(internal):
        for l in planar_binary_trees(left):
            for r in planar_binary_trees(internal - 1 - left):
                out.append((l, r))
    return out


def planar_trees(leaves):
    """All planar rooted trees with every internal node of arity >= 2."""
    if leaves == 1:
        return ["leaf"]
    out = []
    for arity in range(2, leaves + 1):
        for split in _compositions(leaves, arity):
            for kids in itertools.product(*[planar_trees(p) for p in split]):
                out.append(kids)
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_tree_oracles_are_sane():
    assert [len(planar_binary_trees(n)) for n in range(4)] == [1, 1, 2, 5]
    assert [len(planar_trees(n)) for n in range(1, 5)] == [1, 1, 3, 11]


# -- validation ---------------------------------------------------------------


def test_validate_dendriform():
    report = validate(catalog.get("dendriform"))
    assert report.valid
    assert report.relation_count == report.relation_rank == 3


def test_validate_associative():
    assert validate(catalog.get("associative")).valid


def test_validate_star_must_be_associative():
    dend = catalog.get("dendriform")
    skewed = TypePresentation(
        dend.generators, (F(1), F(0)), dend.relations
    )
    report = validate(skewed)
    assert not report.valid
    assert report.star_nonzero and not report.star_associative


def test_validate_reports_dependent_relations():
    dend = catalog.get("dendriform")
    doubled = TypePresentation(
        dend.generators, dend.star, dend.relations + dend.relations[:1]
    )
    report = validate(doubled)
    assert not report.valid
    assert report.relation_count == 4 and report.relation_rank == 3


def test_empty_relation_list_is_invalid():
    with pytest.raises(Exception):
        # the definition language refuses it outright
        from splitops.dsl import parse_type

        parse_type("type t { generators: a; star: a; relations: }")


# -- splitting bases ----------------------------------------------------------


def test_splitting_basis_dendriform_unchanged():
    dend = catalog.get("dendriform")
    gens, rels = splitting_basis(dend)
    assert gens == ((F(1), F(0)), (F(0), F(1)))
    assert list(rels) == list(dend.relations)
    assert [sum(col) for col in zip(*gens)] == list(dend.star)


def test_splitting_basis_associative():
    assoc = catalog.get("associative")
    gens, rels = splitting_basis(assoc)
    assert gens == ((F(1),),)
    assert list(rels) == list(assoc.relations)


def test_splitting_basis_star_first_presentation():
    # dendriform re-expressed in the basis {star, gt}: lt = star - gt
    dend = catalog.get("dendriform")
    change = Matrix([[F(1), F(0)], [F(-1), F(1)]])
    skew = relabel(dend, change)
    skew = TypePresentation(
        GeneratorSpace("dend_star_basis", ("st", "gt")), skew.star, skew.relations
    )
    assert skew.star == (F(1), F(0))
    gens, rels = splitting_basis(skew)
    assert gens == ((F(1), F(-1)), (F(0), F(1)))  # star - gt, then gt
    total = [F(0), F(0)]
    for g in gens:
        total = [a + b for a, b in zip(total, g)]
    assert tuple(total) == skew.star


def test_splitting_relation_basis_sums_to_associativity():
    for name in ("dendriform", "trialgebra", "ns", "dipterous"):
        t = catalog.get(name)
        gens, rels = splitting_basis(t)
        total = None
        for r in rels:
            v = r.flatten()
            total = v if total is None else tuple(a + b for a, b in zip(total, v))
        assert total == t.star_relation().flatten()


def test_splitting_basis_reexpressed_presentation_is_valid():
    # rewrite each catalog type in the splitting basis: the star becomes
    # the all-ones vector and the presentation stays valid
    for name in ("dendriform", "trialgebra", "ns", "dipterous", "anti_dipterous"):
        t = catalog.get(name)
        gens, _rels = splitting_basis(t)
        m = t.dim
        change = Matrix([[gens[j][i] for j in range(m)] for i in range(m)])
        reexpressed = relabel(t, change.inverse())
        assert reexpressed.star == tuple([F(1)] * m)
        assert validate(reexpressed).valid


def test_splitting_basis_requires_validity():
    dend = catalog.get("dendriform")
    bad = TypePresentation(dend.generators, (F(1), F(0)), dend.relations)
    with pytest.raises(InvalidPresentation, match="no splitting associativity"):
        splitting_basis(bad)


# -- arity-3 dimension ---------------------------------------------------------


def test_arity3_associative():
    assert arity3_dimension(catalog.get("associative")) == 1


def test_arity3_dendriform_matches_binary_trees():
    assert arity3_dimension(catalog.get("dendriform")) == len(planar_binary_trees(3))


def test_arity3_trialgebra_matches_planar_trees():
    assert arity3_dimension(catalog.get("trialgebra")) == len(planar_trees(4))


# -- relabelling ----------------------------------------------------------------


def test_relabel_dendriform_opposite():
    dend = catalog.get("dendriform")
    opposite = relabel(dend, {"lt": "gt", "gt": "lt"})
    assert validate(opposite).valid
    # the opposite is a different presentation of an isomorphic type
    assert opposite.relation_subspace != dend.relation_subspace


def test_relabel_identity():
    dend = catalog.get("dendriform")
    same = relabel(dend, {"lt": "lt", "gt": "gt"})
    assert same.relation_subspace == dend.relation_subspace
    assert same.star == dend.star


def test_relabel_trialgebra_opposite_valid():
    tri = catalog.get("trialgebra")
    opposite = relabel(tri, {"lt": "gt", "gt": "lt", "cir": "cir"})
    assert validate(opposite).valid


def test_relabel_round_trip_restores_subspace():
    tri = catalog.get("trialgebra")
    swap = {"lt": "gt", "gt": "lt", "cir": "cir"}
    back = relabel(relabel(tri, swap), swap)
    assert back.relation_subspace == tri.relation_subspace


def test_relabel_requires_invertibility():
    dend = catalog.get("dendriform")
    with pytest.raises(InvalidPresentation, match="invertible"):
        relabel(dend, Matrix([[F(1), F(1)], [F(1), F(1)]]))


def test_arity3_invariant_under_relabel():
    tri = catalog.get("trialgebra")
    opposite = relabel(tri, {"lt": "gt", "gt": "lt", "cir": "cir"})
    assert arity3_dimension(opposite) == arity3_dimension(tri)
    mixed = relabel(tri, Matrix([[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]))
    assert arity3_dimension(mixed) == arity3_dimension(tri)


@pytest.mark.parametrize("name", ["dendriform", "trialgebra", "quadri_lit", "m1"])
def test_remap_relation_is_the_monomial_push(name):
    t = catalog.get(name)
    for images in itertools.permutations(range(t.dim)):
        for signs in (
            None,
            [F(-1) if (j + images[0]) % 2 else F(1) for j in range(t.dim)],
            [F(2) if (j + images[0]) % 2 else F(-1, 2) for j in range(t.dim)],
        ):
            f = Matrix.monomial(images, signs)
            for rel in t.relations:
                assert remap_relation(rel, images, signs) == push_relation(rel, f).coeffs


def test_relation_subspace_ignores_basis_order():
    for name in ("dendriform", "trialgebra", "ns"):
        t = catalog.get(name)
        shuffled = TypePresentation(
            t.generators, t.star, tuple(reversed(t.relations))
        )
        assert shuffled.relation_subspace == t.relation_subspace


def test_a_given_subspace_is_kept_by_with_name_and_checked_for_size():
    dend = catalog.get("dendriform")
    space = dend.relation_subspace
    t = TypePresentation(dend.generators, dend.star, dend.relations, subspace=space)
    assert t.relation_subspace is space
    assert t.with_name("renamed").relation_subspace is space
    tri = catalog.get("trialgebra")
    with pytest.raises(DimensionMismatch):
        TypePresentation(tri.generators, tri.star, tri.relations, subspace=space)


def test_relation_element_flatten_layout():
    # L = [[1, 2], [0, 0]] and R = [[0, 0], [3, 4]], zeros given or not
    rel = RelationElement(2, {0: F(1), 1: F(2), 2: F(0), 6: 3, 7: F(4)})
    assert (rel.coeff(0, 0, 1), rel.coeff(1, 1, 0), rel.coeff(1, 0, 0)) == (2, 3, 0)
    # L block row-major first, then R block row-major
    assert rel.flatten() == (F(1), F(2), F(0), F(0), F(0), F(0), F(3), F(4))
    back = RelationElement(2, dict(enumerate(rel.flatten())))
    assert back == rel and list(back.coeffs) == [0, 1, 6, 7]


def _canonical_coeffs(coeffs):
    """The coefficients as every coefficient went through ``canonical``."""
    return {k: x for k, c in sorted(coeffs.items()) if (x := canonical(c))}


_coefficients = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-1, 8), _coefficients, max_size=8))
def test_relation_element_canonicalises_as_every_coefficient_did(coeffs):
    if not all(0 <= k < 8 for k in coeffs):
        with pytest.raises(DimensionMismatch):
            RelationElement(2, coeffs)
        return
    want = _canonical_coeffs(coeffs)
    got = RelationElement(2, coeffs).coeffs
    assert got == want
    assert list(got) == list(want)
    assert [type(x) for x in got.values()] == [type(x) for x in want.values()]


# -- one scalar form: an int when integral, else a Fraction ------------------


def _canonical(x):
    return type(x) is int or (type(x) is F and x.denominator != 1)


def _stored_scalars(t):
    for rel in t.relations:
        yield from rel.coeffs.values()
    yield from t.star or ()
    for vec in t.aux.values():
        yield from vec


def test_every_stored_scalar_is_an_int_or_a_non_integral_fraction():
    catalog_types = [catalog.get(name) for name in catalog.list_names()]
    assert len(catalog_types) == 17
    types = list(catalog_types)
    types += [dual(t) for t in catalog_types]
    for a, b in itertools.product(catalog_types, repeat=2):
        if a.dim * b.dim <= 9:
            try:
                types.append(square(a, b))
            except InvalidPresentation:  # dependent box relations
                pass
    types += [parse_type(serialize(t, "dsl")) for t in catalog_types]
    types += [parse_type_json(serialize(t, "json")) for t in catalog_types]
    types.append(parse_type_report(
        "type halves { generators: a, b; star: 2/2*a + 4/2*b; aux: h = 1/2*a - 3/3*b;"
        " relations: (a.a | 2/4*a.a + 6/3*h.b) (b.b | b.b) }"
    )[0])
    data = json.loads(serialize(catalog.get("dendriform"), "json"))
    data["aux"] = {"h": ["2/2", "-3/6"]}
    data["relations"][0]["L"][0][0] = 1
    data["relations"][0]["R"][0][1] = "4/2"
    types.append(parse_type_json(json.dumps(data)))
    for t in types:
        bad = [x for x in _stored_scalars(t) if not _canonical(x)]
        assert not bad, (t.name, bad[:3])

    matrices = [catalog.table_isomorphism(name).matrix for name in catalog.TABLE_NAMES]
    for t in catalog_types:
        if t.dim <= 9:
            matrices += [f.matrix for f in monomial_automorphisms(t)]
    for f in matrices:
        assert all(_canonical(x) for row in f.rows for x in row)


@pytest.mark.parametrize(
    "build",
    [
        lambda g, rels: TypePresentation(g, (1.0, 1), rels),
        lambda g, rels: TypePresentation(g, (1, 1), rels, aux={"h": (0.5, 0)}),
        lambda g, rels: RelationElement(2, {0: 0.5}),
        lambda g, rels: Matrix([[1, 0], [0, 2.0]]),
    ],
    ids=["star", "aux", "coefficient", "matrix"],
)
def test_a_float_scalar_is_refused(build):
    dend = catalog.get("dendriform")
    with pytest.raises(ScalarKindMismatch):
        build(dend.generators, dend.relations)
