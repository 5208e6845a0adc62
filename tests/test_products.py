"""Square and maltese products, powers, transposes, tensor models."""

import random
from fractions import Fraction

import pytest

from splitops import catalog
from splitops.exactalg import ExactAlgebraError, Subspace
from splitops.morphisms import check_isomorphism, identity_morphism
from splitops.products import (
    flatten_label,
    label_factors,
    maltese,
    pair_label,
    power,
    reassociation_isomorphism,
    square,
    transpose_swap,
    verify_tensor_model,
)
from splitops.typecore import (
    GeneratorSpace,
    InvalidPresentation,
    RelationElement,
    TypePresentation,
    relabel,
    validate,
)

F = Fraction


def test_square_dendriform_counts():
    q = square(catalog.get("dendriform"), catalog.get("dendriform"))
    assert q.dim == 4
    assert len(q.relations) == 9
    assert validate(q).valid


def test_square_trialgebra_counts():
    e = square(catalog.get("trialgebra"), catalog.get("trialgebra"))
    assert e.dim == 9
    assert len(e.relations) == 49


def test_square_with_one_dimensional_factor():
    tri = catalog.get("trialgebra")
    prod = square(catalog.get("associative"), tri)
    assert prod.dim == 3
    assert len(prod.relations) == 7
    # coordinates agree after stripping the trivial first factor
    assert prod.relation_subspace == Subspace.from_rows(
        18, [r.flatten() for r in tri.relations]
    )


def test_maltese_contains_square():
    dend = catalog.get("dendriform")
    sq = square(dend, dend)
    mx = maltese(dend, dend)
    assert sq.relation_subspace.leq(mx.relation_subspace)


def test_maltese_associative_spans_both_blocks():
    # with f1 the associativity pair, f1 box (dot.dot | 0) = (dot.dot | 0)
    # already lies in the maltese span, so the span is the full
    # two-dimensional space, strictly larger than the square's line
    a = catalog.get("associative")
    mx = maltese(a, a)
    sq = square(a, a)
    assert mx.relation_subspace.dim == 2
    assert sq.relation_subspace.dim == 1
    assert sq.relation_subspace.leq(mx.relation_subspace)


def test_maltese_of_duals_is_not_dual_of_square():
    from splitops.duality import dual

    ad = catalog.get("assoc_dialgebra")
    mx = maltese(ad, ad)
    aq = dual(square(catalog.get("dendriform"), catalog.get("dendriform")))
    assert not mx.relation_subspace.leq(aq.relation_subspace)


def test_power_two_is_square():
    dend = catalog.get("dendriform")
    assert power(dend, 2).relation_subspace == square(dend, dend).relation_subspace
    assert len(power(dend, 2).relations) == 9


def test_power_three_counts():
    cube = power(catalog.get("dendriform"), 3)
    assert cube.dim == 8
    assert len(cube.relations) == 27
    assert cube.generators.labels[0] == "(lt|lt|lt)"


def test_power_one_is_identity():
    tri = catalog.get("trialgebra")
    assert power(tri, 1) is tri


@pytest.mark.parametrize("n", [1, 2])
def test_power_takes_its_name(n):
    dend = catalog.get("dendriform")
    # the first power is the type itself: naming it leaves the catalog's alone
    named = power(dend, n).with_name("d1")
    assert named.name == "d1"
    assert named.relation_subspace == power(dend, n).relation_subspace
    assert dend.name == "dendriform"


def test_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        power(catalog.get("dendriform"), 0)


def test_power_equals_nested_square_under_flattening():
    dend = catalog.get("dendriform")
    cube = power(dend, 3)
    nested = square(square(dend, dend), dend)
    iso = reassociation_isomorphism(nested, cube)
    assert check_isomorphism(iso)
    # the bracketings list generators in the same order, so the relation
    # subspaces agree on the nose
    assert cube.relation_subspace == nested.relation_subspace


def test_transpose_swap_is_isomorphism():
    dend = catalog.get("dendriform")
    tri = catalog.get("trialgebra")
    ns = catalog.get("ns")
    assert check_isomorphism(transpose_swap(dend, dend))
    assert check_isomorphism(transpose_swap(tri, ns))


def test_transpose_swap_squares_to_identity():
    dend = catalog.get("dendriform")
    tri = catalog.get("trialgebra")
    there = transpose_swap(dend, tri)
    back = transpose_swap(tri, dend)
    assert (back.matrix @ there.matrix) == identity_morphism(square(dend, tri)).matrix


def test_tensor_model_examples():
    dend = catalog.get("dendriform")
    tri = catalog.get("trialgebra")
    ns = catalog.get("ns")
    assert verify_tensor_model(dend, dend)
    assert verify_tensor_model(tri, tri)
    assert verify_tensor_model(tri, ns)


def test_tensor_of_isomorphisms_is_isomorphism():
    # factor swap: dendriform onto its opposite, tensored with the identity
    from splitops.morphisms import TypeMorphism
    from splitops.exactalg import Matrix

    dend = catalog.get("dendriform")
    opposite = relabel(dend, {"lt": "gt", "gt": "lt"}).with_name("dendriform_op")
    swap = TypeMorphism(dend, opposite, Matrix([[F(0), F(1)], [F(1), F(0)]]))
    assert check_isomorphism(swap)
    # the induced map on square products is the Kronecker product of the matrices
    ident = identity_morphism(dend).matrix.rows
    kron = Matrix([[x * y for x in ra for y in rb] for ra in swap.matrix.rows for rb in ident])
    induced = TypeMorphism(square(dend, dend), square(opposite, dend), kron)
    assert check_isomorphism(induced)


def test_square_dimension_multiplies_on_base_pairs():
    names = ("associative", "dendriform", "trialgebra", "ns", "dipterous", "anti_dipterous")
    for n1 in names:
        for n2 in names:
            t1, t2 = catalog.get(n1), catalog.get(n2)
            sq = square(t1, t2)
            assert sq.relation_subspace.dim == (
                t1.relation_subspace.dim * t2.relation_subspace.dim
            ), (n1, n2)


def test_square_star_is_associative():
    dend = catalog.get("dendriform")
    ns = catalog.get("ns")
    sq = square(dend, ns)
    assert sq.relation_subspace.contains_vector(sq.star_relation().flatten())
    mx = maltese(dend, ns)
    assert mx.relation_subspace.contains_vector(mx.star_relation().flatten())


def test_square_of_dual_types_degenerates():
    # relations of the associative dialgebra share whole sides, so the
    # pairwise products drop rank; the construction reports it as an
    # invalid presentation (an ExactAlgebraError) carrying the report
    ad = catalog.get("assoc_dialgebra")
    with pytest.raises(ExactAlgebraError, match="box relations are dependent") as info:
        square(ad, ad)
    assert isinstance(info.value, InvalidPresentation)
    report = info.value.report
    assert not report.valid and (report.relation_count, report.relation_rank) == (25, 23)


def test_label_helpers():
    assert pair_label("lt", "gt") == "(lt|gt)"
    assert flatten_label("((a|b)|c)") == ("a", "b", "c")
    assert flatten_label("(a|b|c)") == ("a", "b", "c")
    assert flatten_label("plain") == ("plain",)
    assert label_factors("((a|b)|c)") == ("(a|b)", "c")
    assert label_factors("(a|b|c)") == ("a", "b", "c")
    assert label_factors("plain") == ("plain",)


# ---------------------------------------------------------------------------
# the Kronecker echelon against elimination

NAMES = catalog.list_names()
# the catalog types whose relation echelon has a pivot in the R block
R_PIVOT_TYPES = {"assoc_dialgebra", "assoc_trialgebra", "assoc_nijenhuis_tri"}
PAIRS = [
    (a, b) for a in NAMES for b in NAMES if catalog.get(a).dim * catalog.get(b).dim <= 16
] + [("ennea", "trialgebra")]


def _eliminated(t):
    return Subspace.from_rows(2 * t.dim * t.dim, [r.coeffs for r in t.relations])


def _assert_same_echelon(got, want):
    assert got.pivots == want.pivots
    assert got.int_rows == want.int_rows


def _count_eliminations(monkeypatch) -> list:
    """Patch ``Subspace.from_rows`` to record the ambient dimension of each call."""
    calls = []
    from_rows = Subspace.from_rows.__func__

    def counting(cls, ambient, rows):
        calls.append(ambient)
        return from_rows(cls, ambient, rows)

    monkeypatch.setattr(Subspace, "from_rows", classmethod(counting))
    return calls


def _random_relabel(name, rng):
    """A catalog type relabelled by a random shear, when it has two
    generators or more, and a random permutation."""
    t = catalog.get(name)
    m = t.dim
    shear = [[int(i == j) for j in range(m)] for i in range(m)]
    if m > 1:
        i, j = rng.sample(range(m), 2)
        shear[i][j] = rng.choice((-1, 1, 2))
    order = list(range(m))
    rng.shuffle(order)
    return relabel(t, [shear[i] for i in order])


def _has_r_pivot(t):
    return t.relation_subspace.pivots[-1] >= t.dim * t.dim


def test_exactly_the_dual_derived_catalog_types_have_an_r_block_pivot():
    assert {n for n in NAMES if _has_r_pivot(catalog.get(n))} == R_PIVOT_TYPES


def test_the_square_echelon_is_the_eliminated_one_on_catalog_pairs():
    for a, b in PAIRS:
        try:
            sq = square(catalog.get(a), catalog.get(b))
        except InvalidPresentation:
            assert a in R_PIVOT_TYPES and b in R_PIVOT_TYPES, (a, b)
            continue
        _assert_same_echelon(sq.relation_subspace, _eliminated(sq))


@pytest.mark.parametrize("seed", range(12))
def test_the_square_echelon_is_the_eliminated_one_on_random_relabellings(seed, monkeypatch):
    rng = random.Random(seed)
    a, b = rng.choice(PAIRS[:-1])
    t1, t2 = _random_relabel(a, rng), _random_relabel(b, rng)
    t1.relation_subspace, t2.relation_subspace  # the factors are eliminated before counting
    calls = _count_eliminations(monkeypatch)
    try:
        sq = square(t1, t2)
    except InvalidPresentation:
        assert a in R_PIVOT_TYPES and b in R_PIVOT_TYPES, (a, b)
        return
    fallback = a in R_PIVOT_TYPES or b in R_PIVOT_TYPES
    # a generator change of basis keeps the side of every pivot
    assert (_has_r_pivot(t1) or _has_r_pivot(t2)) == fallback
    assert len(calls) == fallback
    monkeypatch.undo()
    _assert_same_echelon(sq.relation_subspace, _eliminated(sq))


def test_square_eliminates_exactly_when_a_factor_has_an_r_block_pivot(monkeypatch):
    for a, b in PAIRS:
        t1, t2 = catalog.get(a), catalog.get(b)
        t1.relation_subspace, t2.relation_subspace  # the factors are eliminated before counting
        calls = _count_eliminations(monkeypatch)
        try:
            square(t1, t2)
        except InvalidPresentation:
            pass
        assert len(calls) == (a in R_PIVOT_TYPES or b in R_PIVOT_TYPES), (a, b)
        monkeypatch.undo()


def test_the_star_of_every_catalog_product_lies_in_its_relation_space():
    for a, b in PAIRS:
        if a in R_PIVOT_TYPES and b in R_PIVOT_TYPES:
            continue
        sq = square(catalog.get(a), catalog.get(b))
        assert sq.relation_subspace.contains_vector(sq.star_relation().coeffs), (a, b)


def test_a_kronecker_row_is_divided_by_the_gcd_of_its_entries():
    # (1 | 2) box (2 | 1) = (2 | 2): primitive factor rows, a product row that is not
    def one_relation(name, left, right):
        gens = GeneratorSpace(name, ("x",))
        rel = RelationElement(1, {0: left, 1: right})
        return TypePresentation(gens, None, [rel], star_unresolved=True)

    sq = square(one_relation("a", 1, 2), one_relation("b", 2, 1))
    assert sq.relation_subspace.int_rows == ({0: 1, 1: 1},)
    _assert_same_echelon(sq.relation_subspace, _eliminated(sq))


def test_power_eliminates_only_the_factor(monkeypatch):
    dend = catalog.get("dendriform")
    fresh = TypePresentation(dend.generators, dend.star, dend.relations)
    calls = _count_eliminations(monkeypatch)
    cube = power(fresh, 3)
    cube.relation_subspace
    assert calls == [8]
    monkeypatch.undo()
    _assert_same_echelon(cube.relation_subspace, _eliminated(cube))
    assert cube.relation_subspace == catalog.get("octo").relation_subspace
