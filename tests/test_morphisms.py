"""Morphism checks, published tables, monomial automorphism search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitops import catalog, duality, morphisms
from splitops.exactalg import ExactAlgebraError, Matrix, Subspace
from splitops.morphisms import (
    TypeMorphism,
    _check_closed,
    _compose_index_maps,
    check_isomorphism,
    check_morphism,
    compose,
    identity_morphism,
    invert,
    monomial_automorphisms,
    morphism_from_json,
    morphism_to_json,
)
from splitops.products import flatten_label
from splitops.typecore import RelationElement, TypePresentation, push_relation, relabel

F = Fraction


def test_identity_is_morphism():
    dend = catalog.get("dendriform")
    assert check_morphism(identity_morphism(dend))


def test_swap_onto_opposite_is_isomorphism():
    dend = catalog.get("dendriform")
    opposite = relabel(dend, {"lt": "gt", "gt": "lt"}).with_name("dendriform_op")
    swap = TypeMorphism(dend, opposite, Matrix([[F(0), F(1)], [F(1), F(0)]]))
    assert check_morphism(swap)
    assert check_isomorphism(swap)


def test_collapsing_map_is_not_morphism():
    dend = catalog.get("dendriform")
    collapse = TypeMorphism(dend, dend, Matrix([[F(1), F(1)], [F(0), F(0)]]))
    assert not collapse.star_ok
    assert not check_morphism(collapse)


def test_inclusion_without_equality_is_not_isomorphism():
    # doubling one generator keeps star but shears the relation space
    dend = catalog.get("dendriform")
    shear = TypeMorphism(dend, dend, Matrix([[F(1), F(1)], [F(0), F(1)]]))
    # star (1,1) maps to (2,1) != (1,1)
    assert not shear.star_ok
    # the identity from dendriform with its last relation dropped: every
    # relation lands in the target span, which is one dimension larger
    dropped = TypePresentation(dend.generators, dend.star, dend.relations[:-1])
    inclusion = TypeMorphism(dropped, dend, Matrix.identity(2))
    assert check_morphism(inclusion)
    assert not check_isomorphism(inclusion)
    assert not _check_isomorphism_by_inverse(inclusion)


def test_table_isomorphisms_pass():
    for name in catalog.TABLE_NAMES:
        f = catalog.table_isomorphism(name)
        assert check_isomorphism(f), name


def test_quadri_table_round_trip():
    f = catalog.table_isomorphism("quadri")
    back = invert(f)
    assert compose(back, f).matrix == Matrix.identity(4)
    assert compose(f, back).matrix == Matrix.identity(4)


def test_compose_checks_shapes():
    dend = catalog.get("dendriform")
    tri = catalog.get("trialgebra")
    with pytest.raises(ExactAlgebraError):
        compose(identity_morphism(dend), identity_morphism(tri))


def test_double_swap_is_composition_of_factor_swaps():
    q = catalog.get("quadri")
    labels = q.generators.labels

    def perm(images):
        rows = [[F(0)] * 4 for _ in range(4)]
        for j, lbl in enumerate(labels):
            rows[labels.index(images[lbl])][j] = F(1)
        return Matrix(rows, ncols=4)

    swap1 = perm({"(lt|lt)": "(gt|lt)", "(lt|gt)": "(gt|gt)",
                  "(gt|lt)": "(lt|lt)", "(gt|gt)": "(lt|gt)"})
    swap2 = perm({"(lt|lt)": "(lt|gt)", "(lt|gt)": "(lt|lt)",
                  "(gt|lt)": "(gt|gt)", "(gt|gt)": "(gt|lt)"})
    both = perm({"(lt|lt)": "(gt|gt)", "(lt|gt)": "(gt|lt)",
                 "(gt|lt)": "(lt|gt)", "(gt|gt)": "(lt|lt)"})
    assert swap1 @ swap2 == both


def _unsigned(autos):
    """The maps whose signs are all +1: the permutation automorphisms."""
    return [f for f in autos if all(x >= 0 for row in f.matrix.rows for x in row)]


def test_monomial_automorphisms_associative():
    signed = monomial_automorphisms(catalog.get("associative"))
    assert [f.matrix for f in signed] == [Matrix.identity(1)]
    assert [f.matrix for f in _unsigned(signed)] == [Matrix.identity(1)]


def test_monomial_automorphisms_quadri():
    q = catalog.get("quadri")
    autos = monomial_automorphisms(q)
    mats = [f.matrix for f in autos]
    assert Matrix.identity(4) in mats
    transpose = Matrix(
        [
            [F(1), F(0), F(0), F(0)],
            [F(0), F(0), F(1), F(0)],
            [F(0), F(1), F(0), F(0)],
            [F(0), F(0), F(0), F(1)],
        ]
    )
    assert transpose in mats
    assert len(autos) == 2  # the factor swaps are not automorphisms
    # closed under composition and inverse, sorted canonically
    for a in autos:
        for b in autos:
            assert (a.matrix @ b.matrix) in mats
        assert a.matrix.inverse() in mats
    assert mats == sorted(mats, key=lambda m: m.rows)


def test_per_factor_swap_is_not_an_automorphism():
    # pushing the relations through the swap lands in the opposite
    # square, which is a different subspace
    q = catalog.get("quadri")
    swap1 = Matrix(
        [
            [F(0), F(0), F(1), F(0)],
            [F(0), F(0), F(0), F(1)],
            [F(1), F(0), F(0), F(0)],
            [F(0), F(1), F(0), F(0)],
        ]
    )
    f = TypeMorphism(q, q, swap1)
    assert f.star_ok
    assert not check_morphism(f)


def test_monomial_guard(monkeypatch):
    # the guard is the module constant, read at each call
    q = catalog.get("quadri")
    monkeypatch.setattr(morphisms, "DEFAULT_MONOMIAL_GUARD", 3)
    with pytest.raises(ValueError) as err:
        monomial_automorphisms(q)
    assert str(err.value) == (
        "quadri has 4 generators, more than the monomial search guard (3); "
        "pass --allow-large (allow_large=True) to search anyway"
    )
    assert len(monomial_automorphisms(q, allow_large=True)) == 2


@pytest.mark.parametrize(
    "name", [n for n in catalog.list_names() if catalog.get(n).dim <= 4]
)
def test_monomial_search_matches_brute_force(name):
    # every signed permutation matrix, checked as an isomorphism
    t = catalog.get(name)
    m = t.dim
    brute = []
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((F(1), F(-1)), repeat=m):
            f = TypeMorphism(t, t, Matrix.monomial(perm, signs))
            if check_isomorphism(f):
                brute.append(f.matrix)
    brute.sort(key=lambda mat: mat.rows)
    assert [f.matrix for f in monomial_automorphisms(t)] == brute


# ---------------------------------------------------------------------------
# the isomorphism check against the check it replaced
#
# The oracle builds the inverse, runs the morphism check and compares the
# span of the pushed relations with the target's; check_isomorphism
# replaces the inverse by a rank test and the span by its dimension.


def _check_isomorphism_by_inverse(f):
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


def _agree(f):
    verdict = check_isomorphism(f)
    assert verdict == _check_isomorphism_by_inverse(f), f
    return verdict


def test_rank_tests_build_no_inverse(monkeypatch):
    def refuse(matrix):
        raise AssertionError("an inverse was built")

    monkeypatch.setattr(Matrix, "inverse", refuse)
    tri = catalog.get("trialgebra")
    shear = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert check_isomorphism(TypeMorphism(tri, relabel(tri, shear), shear))
    assert check_isomorphism(catalog.table_isomorphism("quadri"))


def test_isomorphism_check_agrees_on_the_tables():
    for name in catalog.TABLE_NAMES:
        assert _agree(catalog.table_isomorphism(name)), name


@pytest.mark.parametrize(
    "name", [n for n in catalog.list_names() if catalog.get(n).dim <= 4]
)
def test_isomorphism_check_agrees_on_signed_permutations(name):
    t = catalog.get(name)
    m = t.dim
    verdicts = []
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1, -1), repeat=m):
            f = Matrix.monomial(perm, signs)
            for source, target in ((t, t), (_starless(t), t), (t, relabel(t, f))):
                verdicts.append(_agree(TypeMorphism(source, target, f)))
    assert any(verdicts) and not all(verdicts)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["dendriform", "dipterous", "trialgebra"]), st.data())
def test_isomorphism_check_agrees_on_integer_matrices(name, data):
    t = catalog.get(name)
    m = t.dim
    entry = st.integers(-2, 2)
    row = st.lists(entry, min_size=m, max_size=m)
    f = Matrix(data.draw(st.lists(row, min_size=m, max_size=m)))
    try:
        f.inverse()
        invertible = True
    except ExactAlgebraError:
        invertible = False
    assert f.is_invertible() == invertible
    targets = [t, _starless(t)] + ([relabel(t, f)] if invertible else [])
    for source in (t, _starless(t)):
        for target in targets:
            _agree(TypeMorphism(source, target, f))
    if invertible:
        assert check_isomorphism(TypeMorphism(t, relabel(t, f), f))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0], [0, 0]],
        [[1, 1], [1, 1]],
        [[1, 2], [-1, -2]],
        # monomial in shape, so they reach the shortcut's test and fail it
        [[0, 0], [0, 3]],  # a zero column
        [[1, 1], [0, 0]],  # the two columns' nonzeros share a row
        [[0, 0], [F(1, 2), -1]],
        Matrix.monomial([1, 0], [-1, 0]).rows,  # a zero sign
    ],
)
def test_isomorphism_check_refuses_singular_maps(rows):
    dend = catalog.get("dendriform")
    f = Matrix(rows)
    assert not f.is_invertible()
    with pytest.raises(ExactAlgebraError, match="singular"):
        f.inverse()
    for source in (dend, _starless(dend)):
        for target in (dend, _starless(dend)):
            assert not _agree(TypeMorphism(source, target, f))


def _signed_permutations(n):
    for images in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield Matrix.monomial(images, signs)


def test_monomial_maps_are_invertible_with_nothing_eliminated(monkeypatch):
    maps = [f for n in range(1, 5) for f in _signed_permutations(n)]
    maps += [Matrix.monomial([2, 0, 1], [F(-1, 3), 2, 5]), Matrix.monomial([0], [F(7, 2)])]
    assert len(maps) == 2 + 8 + 48 + 384 + 2

    def no_elimination(*args):
        raise AssertionError("a monomial map took the rank test")

    monkeypatch.setattr(Subspace, "from_rows", no_elimination)
    assert all(f.is_invertible() for f in maps)
    monkeypatch.undo()
    # the shortcut agrees with an inverse built by elimination
    for f in maps:
        assert f @ f.inverse() == Matrix.identity(f.nrows)


def test_isomorphism_check_refuses_non_square_maps():
    dend, tri = catalog.get("dendriform"), catalog.get("trialgebra")
    into = Matrix([[1, 0], [0, 1], [0, 0]])
    onto = Matrix([[1, 0, 0], [0, 1, 1]])
    assert not into.is_invertible() and not onto.is_invertible()
    for f in (TypeMorphism(dend, tri, into), TypeMorphism(tri, dend, onto)):
        assert not _agree(f)
        assert not _agree(TypeMorphism(_starless(f.source), _starless(f.target), f.matrix))


def test_isomorphism_check_counts_rank_not_relations():
    dend = catalog.get("dendriform")
    r0, r1, r2 = dend.relations
    both = RelationElement(
        2, {k: r0.coeffs.get(k, 0) + r1.coeffs.get(k, 0) for k in {*r0.coeffs, *r1.coeffs}}
    )
    identity = Matrix.identity(2)
    # four relations of rank three span R; three of rank two do not
    padded = TypePresentation(dend.generators, dend.star, (r0, r1, r2, both))
    short = TypePresentation(dend.generators, dend.star, (r0, r1, both))
    assert _agree(TypeMorphism(padded, dend, identity))
    assert check_morphism(TypeMorphism(short, dend, identity))
    assert not _agree(TypeMorphism(short, dend, identity))


def test_isomorphism_check_agrees_on_a_starless_dual():
    d = duality.dual(catalog.get("octo"))
    assert d.star is None
    labels = list(d.generators.labels)
    images = labels[:]
    random.Random(7).shuffle(images)
    p = Matrix.monomial([labels.index(image) for image in images])
    shuffled = relabel(d, p)
    assert _agree(TypeMorphism(d, d, Matrix.identity(d.dim)))
    assert _agree(TypeMorphism(d, shuffled, p))
    assert not _agree(TypeMorphism(d, shuffled, Matrix.identity(d.dim)))


# ---------------------------------------------------------------------------
# the backtracking search against the m! sweep it replaced
#
# The oracle tries every permutation with every entry choice that keeps
# the star, pushes the relations by its own index remap, runs the full
# isomorphism check on every candidate whose images stay in the span and
# sorts the survivors.


def _star_consistent_signs(star, perm, entries, m):
    if star is None:
        yield from itertools.product(entries, repeat=m)
        return
    options = []
    for j in range(m):
        want, have = star[perm[j]], star[j]
        if have == 0:
            if want != 0:
                return
            options.append(entries)
        else:
            if F(want, have) not in entries:
                return
            options.append((F(want, have),))
    yield from itertools.product(*options)


def _pushes_into_the_span(t, perm, signs):
    # a prefilter that only drops candidates check_isomorphism would refuse
    m, space = t.dim, t.relation_subspace
    for rel in t.relations:
        image = {
            (b * m + perm[i]) * m + perm[j]: c * signs[i] * signs[j]
            for b, i, j, c in rel.nonzero()
        }
        if not space.contains_vector(image):
            return False
    return True


def _sweep(t, entries=(F(1), F(-1))):
    found = []
    for perm in itertools.permutations(range(t.dim)):
        for signs in _star_consistent_signs(t.star, perm, entries, t.dim):
            if not _pushes_into_the_span(t, perm, signs):
                continue
            f = TypeMorphism(t, t, Matrix.monomial(perm, signs))
            if check_isomorphism(f):
                found.append(f.matrix)
    return sorted(found, key=lambda mat: mat.rows)


def _searched(t, entries=(1, -1)):
    """The searched group; for the entries (1,), its maps whose signs are all +1."""
    autos = monomial_automorphisms(t)
    return [f.matrix for f in (_unsigned(autos) if entries == (1,) else autos)]


def _shuffled(t, seed):
    """``t`` relabelled by a seeded permutation, with the matrix it used."""
    labels = list(t.generators.labels)
    images = labels[:]
    random.Random(seed).shuffle(images)
    mapping = dict(zip(labels, images))
    return relabel(t, mapping), Matrix.monomial([labels.index(mapping[lbl]) for lbl in labels])


def _starless(t):
    return TypePresentation(t.generators, None, t.relations, star_unresolved=True)


SMALL = [n for n in catalog.list_names() if catalog.get(n).dim <= 4]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", SMALL)
def test_search_matches_the_sweep_after_relabelling(name, seed):
    # a relabelling moves the supports, so the placement order changes;
    # published coordinates are covered by the brute-force test above
    t, _ = _shuffled(catalog.get(name), seed)
    assert _searched(t) == _sweep(t)


@pytest.mark.parametrize("entries", [(1,), (1, -1)])
@pytest.mark.parametrize("name", SMALL)
def test_search_matches_the_sweep_without_a_star(name, entries):
    t = _starless(catalog.get(name))
    assert _searched(t, entries) == _sweep(t, tuple(F(e) for e in entries))


def test_search_matches_the_sweep_on_eight_generators():
    t = catalog.get("di_dipterous_anti")
    assert t.dim == 8
    assert _searched(t) == _sweep(t)


def _transpose(t):
    """The factor swap (a|b) -> (b|a) on the labels of a square product."""
    labels = [flatten_label(lbl) for lbl in t.generators.labels]
    return Matrix.monomial([labels.index((b, a)) for a, b in labels])


def test_ennea_and_dendriform_nijenhuis_groups():
    ennea = catalog.get("ennea")
    assert ennea.dim == 9
    expected = sorted([Matrix.identity(9), _transpose(ennea)], key=lambda mat: mat.rows)
    assert _searched(ennea) == expected
    assert _searched(catalog.get("dendriform_nijenhuis")) == [Matrix.identity(9)]


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("name", ["octo", "ennea"])
def test_search_commutes_with_relabelling(name, seed):
    # the group of the relabelled type is the conjugate of the group
    t = catalog.get(name)
    shuffled, p = _shuffled(t, seed)
    conjugates = [p @ g @ p.inverse() for g in _searched(t)]
    assert _searched(shuffled) == sorted(conjugates, key=lambda mat: mat.rows)


def test_search_prunes_octo(monkeypatch):
    tested = []
    node_test = morphisms._relations_preserved

    def counting(*args):
        tested.append(args)
        return node_test(*args)

    monkeypatch.setattr(morphisms, "_relations_preserved", counting)
    assert len(monomial_automorphisms(catalog.get("octo"))) == 6
    assert 0 < len(tested) < 500  # the sweep tested 8! = 40320 maps


def _index_map(matrix):
    images, signs = [], []
    for j in range(matrix.ncols):
        ((i, e),) = [(i, row[j]) for i, row in enumerate(matrix.rows) if row[j]]
        images.append(i)
        signs.append(e)
    return tuple(images), tuple(signs)


def test_index_map_composition_is_the_matrix_product():
    maps = [
        (perm, signs)
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((F(1), F(-1)), repeat=3)
    ]
    for a in maps:
        for b in maps:
            product = Matrix.monomial(*a) @ Matrix.monomial(*b)
            assert Matrix.monomial(*_compose_index_maps(a, b)) == product


def test_closure_check_catches_a_missing_map():
    maps = [_index_map(f.matrix) for f in monomial_automorphisms(catalog.get("octo"))]
    assert len(maps) == 6
    _check_closed(maps)
    for k in range(len(maps)):
        with pytest.raises(ExactAlgebraError, match="not closed"):
            _check_closed(maps[:k] + maps[k + 1:])


def test_isomorphism_implies_morphism_both_ways():
    for name in ("quadri", "ennea", "m2"):
        f = catalog.table_isomorphism(name)
        assert check_isomorphism(f)
        assert check_morphism(f)
        assert check_morphism(invert(f))


def test_morphism_json_round_trip():
    f = catalog.table_isomorphism("quadri")
    data = morphism_to_json(f)
    assert data["source"] == "quadri_lit" and data["target"] == "quadri"
    g = morphism_from_json(data, f.source, f.target)
    assert g.matrix == f.matrix
    # JSON integers are rationals too
    data["matrix"][0][0] = int(data["matrix"][0][0])
    assert morphism_from_json(data, f.source, f.target).matrix == f.matrix


# ---------------------------------------------------------------------------
# the symmetry verdicts in a concrete model, without the elimination code
#
# Weight-0 Rota-Baxter dendriform structure on Q[s]: x lt y = x * P(y) and
# x gt y = P(x) * y with P the integral from 0.  On Q[s_1, ..., s_n] the
# label (a_1|...|a_n) acts factor by factor, which makes a model of the
# n-th power of dendriform, so every relation of quadri (n = 2) and octo
# (n = 3) holds there.  A relation pushed by a generator permutation that
# fails in the model is therefore outside the relation span.


def _model_product(ops, x, y):
    """x (a_1|...|a_n) y on polynomials held as {exponents: coefficient}."""
    out = {}
    for e, a in x.items():
        for f, b in y.items():
            coeff = a * b
            for op, i, j in zip(ops, e, f):
                coeff /= (j if op == "lt" else i) + 1
            key = tuple(i + j + 1 for i, j in zip(e, f))
            out[key] = out.get(key, 0) + coeff
    return out


class _RotaBaxterModel:
    """Both bracketings of every pair of labels at fixed generic x, y, z."""

    def __init__(self, n):
        monomials = list(itertools.product((0, 1), repeat=n))
        x, y, z = (
            {e: F(k * len(monomials) + i + 1) for i, e in enumerate(monomials)}
            for k in range(3)
        )
        ops = list(itertools.product(("lt", "gt"), repeat=n))
        self.left, self.right = {}, {}
        for a in ops:
            xy = _model_product(a, x, y)
            for b in ops:
                self.left[a, b] = _model_product(b, xy, z)
                self.right[a, b] = _model_product(a, x, _model_product(b, y, z))

    def holds(self, rel, labels, sigma=lambda ops: ops):
        """Whether the relation, with each label moved by ``sigma``, holds."""
        total = {}
        sides = ((self.left, 1), (self.right, -1))
        for block, i, j, c in rel.nonzero():
            values, sign = sides[block]
            key = sigma(flatten_label(labels[i])), sigma(flatten_label(labels[j]))
            for mono, v in values[key].items():
                total[mono] = total.get(mono, 0) + sign * c * v
        return not any(total.values())


def _signed_map(perm, flips):
    flip = {"lt": "gt", "gt": "lt"}
    return lambda ops: tuple(flip[ops[p]] if f else ops[p] for p, f in zip(perm, flips))


def test_rota_baxter_model_is_dendriform():
    dend = catalog.get("dendriform")
    model = _RotaBaxterModel(1)
    assert all(model.holds(rel, dend.generators.labels) for rel in dend.relations)
    # the identity a factor reversal produces: (x lt y) gt z = x lt (y gt z)
    # flat indices: L[0][1] at 1, R[0][1] at 4 + 1
    assert not model.holds(RelationElement(2, {1: F(1), 5: F(1)}), ("lt", "gt"))


@pytest.mark.parametrize("name, n", [("quadri", 2), ("octo", 3)])
def test_rota_baxter_model_refutes_the_dihedral_and_cube_claims(name, n):
    t = catalog.get(name)
    labels = t.generators.labels
    model = _RotaBaxterModel(n)
    surviving_claims, claims = 0, 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        for flips in itertools.product((False, True), repeat=n):
            sigma = _signed_map(perm, flips)
            holds = all(model.holds(rel, labels, sigma) for rel in t.relations)
            # identity, transpose and the coordinate permutations hold;
            # every map that reverses a factor breaks a relation
            assert holds == (not any(flips)), (perm, flips)
            # quadri's claim: the 8 dihedral maps; octo's: the 24 rotations
            if n == 2 or (inversions + sum(flips)) % 2 == 0:
                claims += 1
                surviving_claims += holds
    assert (claims, surviving_claims) == {2: (8, 2), 3: (24, 3)}[n]


# -- check_morphism's index path against pushes through push_relation ------------
#
# A monomial map (square, one nonzero per column, in pairwise distinct rows)
# pushes every relation by index, and any other map goes through
# push_relation.  The oracle pushes every map through push_relation and
# reads membership and equality off spans built by elimination, so it
# shares neither path with the check.


def _pushed(f):
    return [push_relation(r, f.matrix).coeffs for r in f.source.relations]


def _morphism_by_push(f):
    if not f.star_ok:
        return False
    target = f.target.relation_subspace
    return Subspace.from_rows(target.ambient, [*target.int_rows, *_pushed(f)]) == target


def _isomorphism_by_push(f):
    try:
        f.matrix.inverse()
    except ExactAlgebraError:
        return False
    target = f.target.relation_subspace
    return _morphism_by_push(f) and Subspace.from_rows(target.ambient, _pushed(f)) == target


def _agree_with_push(f):
    verdicts = check_morphism(f), check_isomorphism(f)
    assert verdicts == (_morphism_by_push(f), _isomorphism_by_push(f)), f
    return verdicts


@pytest.fixture
def pushes(monkeypatch):
    """The matrices check_morphism hands to push_relation, in call order."""
    calls = []

    def spy(rel, matrix):
        calls.append(matrix)
        return push_relation(rel, matrix)

    monkeypatch.setattr(morphisms, "push_relation", spy)
    return calls


def _seeded_monomial(m, seed, entries=(1, -1)):
    rng = random.Random(seed)
    images = list(range(m))
    rng.shuffle(images)
    return Matrix.monomial(images, [rng.choice(entries) for _ in range(m)])


@pytest.mark.parametrize("name", catalog.list_names())
def test_index_path_agrees_on_every_catalog_type(name, pushes):
    t = catalog.get(name)
    f = _seeded_monomial(t.dim, len(name))
    assert f.monomial_form is not None
    identity = Matrix.identity(t.dim)
    for source, target, matrix in (
        (t, t, identity),
        (t, t, f),
        (t, relabel(t, f), f),
        (_starless(t), t, f),
    ):
        _agree_with_push(TypeMorphism(source, target, matrix))
    assert check_isomorphism(TypeMorphism(t, relabel(t, f), f))
    assert pushes == []


def test_index_path_agrees_on_the_published_tables(pushes):
    for name in catalog.TABLE_NAMES:
        f = catalog.table_isomorphism(name)
        assert f.matrix.monomial_form is not None
        assert _agree_with_push(f) == (True, True), name
    assert pushes == []


@pytest.mark.parametrize("name", ["quadri", "m2"])
def test_index_path_agrees_on_all_24_permutations(name, pushes):
    t = catalog.get(name)
    held = []
    for images in itertools.permutations(range(4)):
        f = TypeMorphism(t, t, Matrix.monomial(images))
        if _agree_with_push(f) == (True, True):
            held.append(f.matrix)
    # the identity and the factor transpose
    assert held == [Matrix.identity(4), _transpose(t)]
    assert pushes == []


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["dendriform", "trialgebra", "dipterous", "quadri", "m1"])
def test_index_path_agrees_on_signed_and_scaled_monomial_maps(name, seed, pushes):
    t = catalog.get(name)
    verdicts = set()
    for entries in ((1, -1), (F(1, 2), -2, F(-3, 4), 5)):
        f = _seeded_monomial(t.dim, seed, entries)
        images, signs = f.monomial_form
        assert Matrix.monomial(images, signs) == f
        for source, target in ((t, t), (_starless(t), t), (_starless(t), _starless(t))):
            verdicts.add(_agree_with_push(TypeMorphism(source, target, f)))
        assert _agree_with_push(TypeMorphism(t, relabel(t, f), f)) == (True, True)
    assert (False, False) in verdicts
    assert pushes == []


def test_non_square_maps_take_push_relation(pushes):
    dend, tri = catalog.get("dendriform"), catalog.get("trialgebra")
    into = Matrix([[1, 0], [0, 1], [0, 0]])
    onto = Matrix([[1, 0, 0], [0, 1, 1]])
    for source, target, matrix in ((dend, tri, into), (tri, dend, onto)):
        assert matrix.monomial_form is None
        for s, t in ((source, target), (_starless(source), _starless(target))):
            _agree_with_push(TypeMorphism(s, t, matrix))
    assert pushes and all(m in (into, onto) for m in pushes)


@pytest.mark.parametrize(
    "rows", [[[1, 1], [0, 0]], [[0, 0], [0, 3]]], ids=["repeated-row", "zero-column"]
)
def test_singular_monomial_shaped_maps_take_push_relation(rows, pushes):
    dend = catalog.get("dendriform")
    f = Matrix(rows)
    assert f.monomial_form is None and not f.is_invertible()
    for source, target in ((dend, dend), (_starless(dend), dend), (_starless(dend), _starless(dend))):
        assert _agree_with_push(TypeMorphism(source, target, f))[1] is False
    assert pushes and all(m is f for m in pushes)


def test_push_relation_runs_for_the_repeated_row_map_only(pushes):
    # a monomial map is pushed by index; the repeated-row map of the
    # command-line check, starless so the star condition lets it through,
    # goes through push_relation
    dend = catalog.get("dendriform")
    swap = Matrix.monomial([1, 0], [-1, 1])
    assert check_morphism(TypeMorphism(_starless(dend), _starless(relabel(dend, swap)), swap))
    assert pushes == []
    repeated = Matrix([[1, 1], [0, 0]])
    assert not check_morphism(TypeMorphism(_starless(dend), dend, repeated))
    assert pushes == [repeated]


def test_a_remap_without_signs_disagrees_with_push_relation(monkeypatch):
    # a negative control: dendriform with gt sent to -gt, onto its image
    remap = morphisms.remap_relation
    dend = catalog.get("dendriform")
    f = Matrix.monomial([0, 1], [1, -1])
    g = TypeMorphism(dend, relabel(dend, f), f)
    assert _agree_with_push(g) == (True, True)
    monkeypatch.setattr(morphisms, "remap_relation", lambda rel, images, signs: remap(rel, images))
    assert (check_morphism(g), check_isomorphism(g)) == (False, False)
    assert _morphism_by_push(g) and _isomorphism_by_push(g)
