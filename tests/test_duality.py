"""The signed pairing, dual types and the non-duality counterexample."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitops import catalog, duality
from splitops.duality import (
    _signed_annihilator,
    double_dual_check,
    dual,
    find_star,
    non_duality_witness,
    pair2,
)
from splitops.exactalg import DimensionMismatch, Echelon, ExactAlgebraError, Matrix, Subspace
from splitops.products import square
from splitops.typecore import RelationElement, TypePresentation, relabel, star_associativity

F = Fraction


def unit(m, i, j):
    return Matrix(
        [[F(int(r == i and c == j)) for c in range(m)] for r in range(m)], ncols=m
    )


def dense(left, right):
    """The relation with dense m x m blocks ``left`` and ``right``."""
    m = left.nrows
    flat = [x for mat in (left, right) for row in mat.rows for x in row]
    return RelationElement(m, dict(enumerate(flat)))


def test_pairing_delta_formula():
    # <(e_ij, e_kl), (dual e_ij, dual e_uv)> = 1 when (u,v) != (k,l)
    u = dense(unit(2, 0, 1), unit(2, 1, 0))
    v = dense(unit(2, 0, 1), unit(2, 1, 1))
    assert pair2(u, v) == 1
    # and 0 minus 1 when only the right blocks meet
    w = dense(unit(2, 1, 1), unit(2, 1, 0))
    assert pair2(u, w) == -1


def test_pairing_symmetric_cancellation():
    a = Matrix([[F(1), F(2)], [F(0), F(1)]])
    c = Matrix([[F(3), F(0)], [F(1), F(1)]])
    assert pair2(dense(a, a), dense(c, c)) == 0


def test_pairing_dimension_mismatch():
    u = dense(unit(2, 0, 0), unit(2, 0, 0))
    v = dense(unit(3, 0, 0), unit(3, 0, 0))
    with pytest.raises(DimensionMismatch):
        pair2(u, v)


def test_pairing_gram_matrix_is_diagonal_pm_one():
    m = 2
    basis = []
    zero = Matrix([[F(0)] * m for _ in range(m)])
    for i in range(m):
        for j in range(m):
            basis.append(dense(unit(m, i, j), zero))
    for i in range(m):
        for j in range(m):
            basis.append(dense(zero, unit(m, i, j)))
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            expected = 0
            if a == b:
                expected = 1 if a < m * m else -1
            assert pair2(u, v) == expected


def test_dual_dendriform_is_associative_dialgebra():
    ad = dual(catalog.get("dendriform"), labels=("lv", "rv"))
    lit = catalog.get("assoc_dialgebra")
    assert len(ad.relations) == 5
    assert ad.relation_subspace == lit.relation_subspace


def test_dual_trialgebra_has_eleven_relations():
    at = dual(catalog.get("trialgebra"))
    assert len(at.relations) == 11
    assert at.generators.labels == ("lt^", "gt^", "cir^")


def test_dual_ns_matches_the_fourteen_relations():
    ans = dual(catalog.get("ns"), labels=("lv", "rv", "cir"))
    lit = catalog.get("assoc_nijenhuis_tri")
    assert len(ans.relations) == 14
    assert ans.relation_subspace == lit.relation_subspace
    circle = dense(unit(3, 2, 2), unit(3, 2, 2))
    assert ans.relation_subspace.contains_vector(circle.flatten())


def test_dual_dimension_formula():
    for name in ("associative", "dendriform", "trialgebra", "ns", "quadri", "m2"):
        t = catalog.get(name)
        m = t.dim
        d = dual(t)
        assert d.relation_subspace.dim == 2 * m * m - t.relation_subspace.dim


def test_annihilator_pairs_to_zero():
    for name in ("dendriform", "trialgebra", "ns"):
        t = catalog.get(name)
        d = dual(t)
        for rel in t.relations:
            for co in d.relations:
                assert pair2(rel, co) == 0


def test_double_dual_examples():
    assert double_dual_check(catalog.get("dendriform"))
    assert double_dual_check(catalog.get("associative"))
    assert double_dual_check(catalog.get("quadri"))


def test_dual_commutes_with_permutation_relabel():
    tri = catalog.get("trialgebra")
    swap = {"lt": "gt", "gt": "lt", "cir": "cir"}
    left = dual(relabel(tri, swap))
    right = relabel(
        TypePresentation(
            dual(tri).generators,
            None,
            dual(tri).relations,
            star_unresolved=True,
        ),
        {"lt^": "gt^", "gt^": "lt^", "cir^": "cir^"},
    )
    assert left.relation_subspace == right.relation_subspace


def test_find_star_dual_dendriform():
    ad = catalog.get("assoc_dialgebra")
    stars = find_star(ad)
    assert (F(1), F(0)) in stars  # left turnstile
    assert (F(0), F(1)) in stars  # right turnstile


def test_find_star_dendriform():
    dend = catalog.get("dendriform")
    stars = find_star(dend)
    assert (F(1), F(1)) in stars
    assert (F(1), F(0)) not in stars


def test_find_star_associative():
    stars = find_star(catalog.get("associative"))
    assert (F(1),) in stars
    assert set(stars) <= {(F(1),), (F(-1),)}


def test_dual_star_search_respects_guard():
    octo = catalog.get("octo")
    d = dual(octo)  # m = 8 exceeds the search guard
    assert d.star is None and d.star_unresolved


def test_non_duality_report():
    report = non_duality_witness()
    assert not report.inclusion_holds
    assert report.pairing_value == F(-1)
    assert report.witness_in_maltese
    assert report.paired_relation_in_square
    assert report.dual_square_dim == 23
    # recorded, not asserted by the construction: the witness fails to
    # annihilate at least one square relation, which is the whole point
    assert report.witness_annihilates_square is False


def test_dual_of_square_loses_maltese_span_structure():
    dend = catalog.get("dendriform")
    aq = dual(square(dend, dend))
    assert aq.relation_subspace.dim == 2 * 16 - 9


# ---------------------------------------------------------------------------
# the sign-flip dual and the quadratic-form star sweep against the old routes

NAMES = catalog.list_names()
SMALL = [n for n in NAMES if catalog.get(n).dim <= 6]


def _eliminated_annihilator(space):
    """The annihilator as Subspace.annihilator built it before: one spanning
    vector per free column f, e_f minus, for each basis row with a nonzero
    entry in column f, that entry over the row's pivot entry at the row's
    pivot column, all eliminated afresh."""
    entries = {}
    for p, row in zip(space.pivots, space.int_rows):
        lead = row[p]
        for c, x in row.items():
            if c != p:
                entries.setdefault(c, []).append((p, lead, x))
    ech = Echelon(space.ambient)
    for f in range(space.ambient):
        if f in space.pivots:
            continue
        hits = entries.get(f, ())
        scale = lcm(*(lead for _, lead, _ in hits))
        vec = {f: scale}
        for p, lead, x in hits:
            vec[p] = -x * (scale // lead)
        ech.add(vec)
    return Subspace(ech)


def _signed_row_dual(t):
    """The dual's relation space as it was built before: the annihilator of
    the relations with their R block negated, eliminated afresh."""
    half = t.dim * t.dim
    rows = [{k: -c if k >= half else c for k, c in r.coeffs.items()} for r in t.relations]
    return _eliminated_annihilator(Subspace.from_rows(2 * half, rows))


def _membership_stars(t):
    """The star sweep as it was: one membership test per candidate."""
    space = t.relation_subspace
    return [
        cand
        for cand in itertools.product((0, 1, -1), repeat=t.dim)
        if any(cand) and space.contains_vector(star_associativity(cand).coeffs)
    ]


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


def _assert_dual_echelon(t):
    d = dual(t)
    got = d.relation_subspace
    for want in (_signed_row_dual(t), Subspace.from_rows(got.ambient, [r.coeffs for r in d.relations])):
        assert got.pivots == want.pivots
        assert got.int_rows == want.int_rows


@pytest.mark.parametrize("name", NAMES)
def test_the_dual_echelon_is_the_signed_row_elimination(name):
    _assert_dual_echelon(catalog.get(name))


@pytest.mark.parametrize("seed", range(8))
def test_the_dual_echelon_is_the_signed_row_elimination_on_random_relabellings(seed):
    rng = random.Random(seed)
    _assert_dual_echelon(_random_relabel(rng.choice(SMALL), rng))


def _assert_stars_match(t):
    d = dual(t)
    for u in (t, d):
        assert find_star(u) == _membership_stars(u)
    stars = _membership_stars(d)
    assert dual(t).star == (stars[0] if stars else None)


@pytest.mark.parametrize("name", SMALL)
def test_the_dual_takes_the_first_star_of_the_sweep(name):
    # dual stops its sweep at the first hit: find_star's first star of the
    # dual, read off the dual's own annihilator
    d = dual(catalog.get(name))
    stars = find_star(d)
    assert d.star == (stars[0] if stars else None)
    assert d.star_unresolved == (d.star is None)


@pytest.mark.parametrize("name", SMALL)
def test_find_star_matches_the_membership_sweep(name):
    _assert_stars_match(catalog.get(name))


@pytest.mark.parametrize("seed", range(8))
def test_find_star_matches_the_membership_sweep_on_random_relabellings(seed):
    rng = random.Random(seed)
    _assert_stars_match(_random_relabel(rng.choice(SMALL), rng))


# ---------------------------------------------------------------------------
# the annihilator read off the reversed echelon against the eliminated one


def _assert_annihilator(space):
    got, want = space.annihilator(), _eliminated_annihilator(space)
    assert got.pivots == want.pivots
    assert got.int_rows == want.int_rows


@pytest.mark.parametrize("name", NAMES)
def test_the_annihilator_matches_the_eliminated_one_on_catalog_types(name):
    t = catalog.get(name)
    _assert_annihilator(t.relation_subspace)
    rng = random.Random(name)
    for _ in range(3):
        _assert_annihilator(_random_relabel(name, rng).relation_subspace)


def _small_squares():
    return [(a, b) for a in NAMES for b in NAMES if catalog.get(a).dim * catalog.get(b).dim <= 9]


@pytest.mark.parametrize("a,b", _small_squares())
def test_the_annihilator_matches_the_eliminated_one_on_squares_and_duals(a, b):
    try:
        sq = square(catalog.get(a), catalog.get(b))
    except ExactAlgebraError:
        return  # both factors dual-derived: the square is refused
    _assert_annihilator(sq.relation_subspace)
    _assert_annihilator(dual(sq).relation_subspace)


@pytest.mark.parametrize("name", NAMES)
def test_the_annihilator_matches_the_eliminated_one_on_catalog_duals(name):
    _assert_annihilator(dual(catalog.get(name)).relation_subspace)


@st.composite
def sparse_subspaces(draw):
    ambient = draw(st.integers(1, 14))
    row = st.dictionaries(st.integers(0, ambient - 1), st.integers(-4, 4), max_size=4)
    return Subspace.from_rows(ambient, draw(st.lists(row, max_size=ambient + 2)))


@settings(max_examples=300, deadline=None)
@given(sparse_subspaces())
@example(Subspace.from_rows(6, []))  # {0}: the annihilator is everything
@example(Subspace.from_rows(6, [{k: 1} for k in range(6)]))  # the full space
@example(Subspace.from_rows(1, [{0: -3}]))
def test_the_annihilator_matches_the_eliminated_one_on_sparse_subspaces(space):
    _assert_annihilator(space)


# ---------------------------------------------------------------------------
# the double dual on relation spaces against the route through dual types


def _starless_dual(t):
    """dual(t) with its star left unresolved, as the double dual once built it."""
    d = dual(t)
    return TypePresentation(d.generators, None, d.relations, star_unresolved=True)


def _assert_double_dual_matches(t):
    twice = dual(_starless_dual(t)).relation_subspace
    half = t.dim * t.dim
    assert _signed_annihilator(_signed_annihilator(t.relation_subspace, half), half) == twice
    assert double_dual_check(t) == (twice == t.relation_subspace)
    assert double_dual_check(t)


@pytest.mark.parametrize("name", NAMES)
def test_the_double_dual_matches_the_route_through_dual_types(name):
    _assert_double_dual_matches(catalog.get(name))


@pytest.mark.parametrize("a,b", _small_squares())
def test_the_double_dual_matches_the_route_through_dual_types_on_squares(a, b):
    try:
        sq = square(catalog.get(a), catalog.get(b))
    except ExactAlgebraError:
        return  # both factors dual-derived: the square is refused
    _assert_double_dual_matches(sq)


def test_the_double_dual_matches_the_route_through_dual_types_on_a_starless_dual():
    d = dual(catalog.get("octo"))
    assert d.star is None
    _assert_double_dual_matches(d)


def test_the_double_dual_builds_no_dual_type(monkeypatch):
    types = [catalog.get(name) for name in NAMES] + [dual(catalog.get("octo"))]

    def refuse(*args, **kwargs):
        raise AssertionError("the double dual built a dual presentation")

    monkeypatch.setattr(duality, "dual", refuse)
    monkeypatch.setattr(Subspace, "sparse_basis", refuse)
    for t in types:
        assert double_dual_check(t)


@pytest.mark.parametrize("name", ["assoc_dialgebra", "assoc_nijenhuis_tri"])
def test_the_double_dual_keeps_pivots_in_the_right_block(name):
    # the duals of dendriform and ns have relations with a zero L side, so
    # their echelons have pivots in the R block: the second sign flip must
    # negate those rows back to a positive pivot for the spaces to compare
    t = catalog.get(name)
    space, half = t.relation_subspace, t.dim * t.dim
    assert space.pivots[-1] >= half
    twice = _signed_annihilator(_signed_annihilator(space, half), half)
    assert twice.pivots == space.pivots
    assert twice.int_rows == space.int_rows
    assert double_dual_check(t)
