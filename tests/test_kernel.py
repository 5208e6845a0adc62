"""Differential tests: the sparse elimination kernel against a dense oracle.

The oracle is the dense elimination splitops used before the sparse
kernel: rows of Fractions scaled to integers, positional pivots (first
nonzero column, topmost unreduced row), gcd-trimmed fraction-free
updates, and a final division by each leading entry.  Whatever the
kernel computes - bases, pivots, ranks, nullspaces, membership, box
products and push-forwards - must agree with it exactly.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitops import catalog
from splitops.exactalg import Matrix, Subspace, nullspace, rref
from splitops.products import box_relation
from splitops.typecore import RelationElement, push_relation, star_associativity

F = Fraction


# -- the dense oracle ----------------------------------------------------------


def _rref_rational(rows, ncols):
    irows = []
    for r in rows:
        mult = lcm(*(Fraction(x).denominator for x in r)) if r else 1
        ir = [int(Fraction(x) * mult) for x in r]
        g = gcd(*ir) if any(ir) else 0
        if g > 1:
            ir = [x // g for x in ir]
        irows.append(ir)
    nrows = len(irows)
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, nrows) if irows[i][c]), None)
        if piv is None:
            continue
        if piv != pr:
            irows[pr], irows[piv] = irows[piv], irows[pr]
        prow = irows[pr]
        a = prow[c]
        for j in range(nrows):
            row = irows[j]
            if j == pr or not row[c]:
                continue
            b = row[c]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = [fa * x - fb * y for x, y in zip(row, prow)]
            g2 = gcd(*new) if any(new) else 0
            if g2 > 1:
                new = [x // g2 for x in new]
            irows[j] = new
        pr += 1
        if pr == nrows:
            break
    out = []
    for row in irows:
        lead = next((x for x in row if x), None)
        if lead is None:
            continue
        out.append(tuple(Fraction(x, lead) for x in row))
    return out


def oracle_rref(rows, ncols):
    """(reduced rows, pivot columns, rank), densely."""
    reduced = _rref_rational([list(r) for r in rows], ncols)
    pivots = tuple(next(j for j, x in enumerate(row) if x) for row in reduced)
    return reduced, pivots, len(pivots)


def oracle_nullspace(rows, ncols):
    """Reduced rows of the right kernel."""
    red, pivots, _ = oracle_rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for k, p in enumerate(pivots):
            if red[k][f]:
                v[p] = -red[k][f]
        basis.append(v)
    return oracle_rref(basis, ncols)[0]


def oracle_contains(rows, ncols, vec):
    red, pivots, _ = oracle_rref(rows, ncols)
    v = [F(x) for x in vec]
    for row, p in zip(red, pivots):
        if v[p]:
            x = v[p]
            v = [a - x * b for a, b in zip(v, row)]
    return not any(v)


def assert_same_space(space, rows, ncols):
    red, pivots, rank = oracle_rref(rows, ncols)
    assert list(space.basis) == red
    assert space.pivots == pivots
    assert space.dim == rank


# -- random integer matrices ---------------------------------------------------

entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows)
    )
    return ncols, rows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_oracle(case):
    ncols, rows = case
    red, pivots, rank = rref(Matrix(rows, ncols=ncols))
    o_red, o_pivots, o_rank = oracle_rref(rows, ncols)
    assert list(red.rows) == o_red
    assert pivots == o_pivots and rank == o_rank
    assert_same_space(Subspace.from_rows(ncols, rows), rows, ncols)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_oracle(case):
    ncols, rows = case
    assert list(nullspace(Matrix(rows, ncols=ncols)).basis) == oracle_nullspace(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_contains_vector_matches_oracle(case, data):
    ncols, rows = case
    space = Subspace.from_rows(ncols, rows)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    assert space.contains_vector(vec) == oracle_contains(rows, ncols, vec)
    # a combination of the rows is always inside, densely or sparsely
    weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    combo = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(ncols)]
    assert space.contains_vector(combo)
    assert space.contains_vector({j: x for j, x in enumerate(combo) if x})


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_subspace_equality_ignores_row_order_and_scale(case, data):
    ncols, rows = case
    scales = data.draw(st.lists(
        st.sampled_from([-3, -1, 2, F(-1, 2)]), min_size=len(rows), max_size=len(rows)))
    shuffled = data.draw(st.permutations([[s * x for x in r] for s, r in zip(scales, rows)]))
    a, b = Subspace.from_rows(ncols, rows), Subspace.from_rows(ncols, shuffled)
    assert a == b and hash(a) == hash(b)
    assert all(row[p] > 0 for p, row in zip(a.pivots, a.int_rows))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_matches_oracle(rows):
    n = len(rows)
    augmented = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots, _ = oracle_rref(augmented, 2 * n)
    if pivots[:n] != tuple(range(n)):
        with pytest.raises(Exception, match="singular"):
            Matrix(rows).inverse()
        return
    assert Matrix(rows).inverse() == Matrix([r[n:] for r in red])


# -- catalog relation spaces and square products ---------------------------------


def _flat_rows(relations):
    return [r.flatten() for r in relations]


@pytest.mark.parametrize("name", catalog.list_names())
def test_catalog_relation_space_matches_oracle(name):
    t = catalog.get(name)
    ambient = 2 * t.dim * t.dim
    rows = _flat_rows(t.relations)
    assert_same_space(t.relation_subspace, rows, ambient)
    if t.star is not None:
        star = star_associativity(t.star).flatten()
        assert t.relation_subspace.contains_vector(star) == oracle_contains(rows, ambient, star)
    # the annihilator under the plain dot product is the dense nullspace
    assert list(t.relation_subspace.annihilator().basis) == oracle_nullspace(rows, ambient)


def _small_pairs():
    names = catalog.list_names()
    return [
        (a, b) for a in names for b in names
        if catalog.get(a).dim * catalog.get(b).dim <= 9
    ]


def _dense_box(f1, f2):
    return RelationElement(f1.left.kron(f2.left), f1.right.kron(f2.right))


@pytest.mark.parametrize("a, b", _small_pairs())
def test_square_relation_space_matches_oracle(a, b):
    # the raw box products, so the degenerate dual-type pairs are covered too
    t1, t2 = catalog.get(a), catalog.get(b)
    m = t1.dim * t2.dim
    rels = [box_relation(f1, f2) for f1 in t1.relations for f2 in t2.relations]
    assert rels == [_dense_box(f1, f2) for f1 in t1.relations for f2 in t2.relations]
    rows = _flat_rows(rels)
    space = Subspace.from_rows(2 * m * m, [r.coeffs for r in rels])
    assert_same_space(space, rows, 2 * m * m)
    if t1.star is not None and t2.star is not None:
        star = [x * y for x in t1.star for y in t2.star]
        vec = star_associativity(star).flatten()
        assert space.contains_vector(vec) == oracle_contains(rows, 2 * m * m, vec)


# -- push-forwards --------------------------------------------------------------


def _dense_push(rel, f):
    ft = f.transpose()
    return RelationElement(f @ rel.left @ ft, f @ rel.right @ ft)


@st.composite
def invertible_maps(draw):
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    assume(oracle_rref(rows, n)[2] == n)
    return Matrix(rows)


@st.composite
def relations(draw, m):
    coeffs = draw(st.dictionaries(
        st.integers(0, 2 * m * m - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=2 * m * m,
    ))
    return RelationElement.from_coeffs(m, coeffs)


@settings(max_examples=150, deadline=None)
@given(invertible_maps(), st.data())
def test_push_relation_matches_dense_product(f, data):
    rel = data.draw(relations(f.ncols))
    assert push_relation(rel, f) == _dense_push(rel, f)


@pytest.mark.parametrize("name", ["dendriform", "trialgebra", "ns", "quadri_lit"])
def test_push_relation_permutations_match_dense_product(name):
    t = catalog.get(name)
    m = t.dim
    for perm in itertools.permutations(range(m)):
        f = Matrix([[F(int(perm[j] == i)) for j in range(m)] for i in range(m)])
        for rel in t.relations:
            assert push_relation(rel, f) == _dense_push(rel, f)
