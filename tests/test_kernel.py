"""Differential tests: the sparse elimination kernel against a dense oracle.

The oracle is the dense elimination splitops used before the sparse
kernel: rows of Fractions scaled to integers, positional pivots (first
nonzero column, topmost unreduced row), gcd-trimmed fraction-free
updates, and a final division by each leading entry.  Whatever the
kernel computes - bases, pivots, ranks, nullspaces, membership, box
products and push-forwards - must agree with it exactly.
"""

import itertools
import sys
import types
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitops import catalog
from splitops.exactalg import (
    DimensionMismatch,
    Echelon,
    Matrix,
    ScalarKindMismatch,
    Subspace,
    _eliminate,
    _primitive,
    rref,
)
from splitops.products import box_relation
from splitops.typecore import RelationElement, push_relation, star_associativity

F = Fraction


# -- the dense oracle ----------------------------------------------------------


def _rref_rational(rows, ncols):
    irows = []
    for r in rows:
        # ints and Fractions both carry numerator and denominator
        mult = lcm(*(x.denominator for x in r)) if r else 1
        ir = [x.numerator * (mult // x.denominator) for x in r]
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


def oracle_contains(red, pivots, vec):
    """Membership in the span of the rows ``oracle_rref`` reduced to ``red``."""
    v = [F(x) for x in vec]
    for row, p in zip(red, pivots):
        if v[p]:
            x = v[p]
            v = [a - x * b for a, b in zip(v, row)]
    return not any(v)


def assert_same_space(space, rows, ncols):
    """Compare with the oracle; returns its reduced rows and pivots."""
    red, pivots, rank = oracle_rref(rows, ncols)
    assert list(space.basis) == red
    assert space.pivots == pivots
    assert space.dim == rank
    return red, pivots


# -- dense L and R blocks ------------------------------------------------------


def _blocks(rel):
    """The L and R blocks of a relation as dense m x m matrices."""
    m = rel.size
    rows = [[[F(0)] * m for _ in range(m)] for _ in range(2)]
    for block, i, j, c in rel.nonzero():
        rows[block][i][j] = c
    return Matrix(rows[0], ncols=m), Matrix(rows[1], ncols=m)


def _from_blocks(left, right):
    """The relation with dense blocks ``left`` and ``right``."""
    m = left.nrows
    flat = [x for mat in (left, right) for row in mat.rows for x in row]
    return RelationElement(m, dict(enumerate(flat)))


def _kron(a, b):
    """Kronecker product, row-major index pairing."""
    return Matrix([[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows])


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
    kernel = Subspace.from_rows(ncols, rows).annihilator()
    assert list(kernel.basis) == oracle_nullspace(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_contains_vector_matches_oracle(case, data):
    ncols, rows = case
    space = Subspace.from_rows(ncols, rows)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    red, pivots, _ = oracle_rref(rows, ncols)
    assert space.contains_vector(vec) == oracle_contains(red, pivots, vec)
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


# -- the kernel's entry path: every input form of Echelon.integer_row ----------


def _input_forms(row, ambient):
    """A sparse row as a dict, as a read-only non-dict Mapping and densely."""
    dense = [0] * ambient
    for k, x in row.items():
        dense[k] = x
    return [dict(row), types.MappingProxyType(dict(row)), tuple(dense)]


@pytest.mark.parametrize(
    "row,want",
    [
        ({1: 2, 3: -4}, {1: 1, 3: -2}),  # ints, trimmed by their gcd
        ({0: True, 2: False, 4: True}, {0: 1, 4: 1}),  # bools read as ints
        ({1: F(4, 1), 2: F(-6, 1)}, {1: 2, 2: -3}),  # integral Fractions
        ({0: F(1, 2), 3: 1, 4: F(-2, 3)}, {0: 3, 3: 6, 4: -4}),  # mixed, cleared
        ({2: 0, 3: F(0)}, {}),  # zeros are dropped
        ({0: 0, 1: 6, 2: 0, 4: -9}, {1: 2, 4: -3}),  # zeros among nonzero ints
        ({0: -2, 3: -4, 4: -6}, {0: -1, 3: -2, 4: -3}),  # all negative, sign kept
        ({1: F(1, 2), 4: F(-3, 4)}, {1: 2, 4: -3}),  # non-integral Fractions only
    ],
)
def test_integer_row_reads_every_input_form(row, want):
    ech = Echelon(5)
    for vec in _input_forms(row, 5):
        got = ech.integer_row(vec)
        assert got == want
        assert all(type(x) is int for x in got.values())
        assert all(type(k) is int for k in got)


def _assert_intake_checks(read):
    """``read`` refuses what the intake of a 4-dimensional echelon refuses."""
    for bad in ({4: 1}, {-1: 1}, {0: 1, 9: 2}):
        for vec in _input_forms(bad, 10)[:2]:
            with pytest.raises(DimensionMismatch, match="outside the ambient"):
                read(vec)
    for length in (3, 5):
        with pytest.raises(DimensionMismatch, match="length"):
            read((1,) * length)
    for vec in _input_forms({1: 0.5, 2: 1}, 4):
        with pytest.raises(ScalarKindMismatch):
            read(vec)


def test_integer_row_keeps_its_checks():
    ech = Echelon(4)
    _assert_intake_checks(ech.integer_row)
    # the all-zero vector has no index to check
    assert ech.integer_row({}) == {} and ech.integer_row(types.MappingProxyType({})) == {}


@pytest.mark.parametrize("wrap", [lambda d: d, types.MappingProxyType], ids=["dict", "mapping"])
def test_add_stores_a_copy_of_the_callers_row(wrap):
    d = {1: 1, 3: 2}  # primitive with a positive pivot: stored as it reads
    ech = Echelon(5)
    assert ech.add(wrap(d)) and ech.integer_row(wrap(d)) is not d
    before = {p: dict(r) for p, r in ech.rows.items()}
    d[1], d[0] = 7, 5
    del d[3]
    assert ech.rows == before == {1: {1: 1, 3: 2}}
    assert all(r is not d for r in ech.rows.values())
    # from_rows (in bulk for dicts, through add for other mappings) on a
    # primitive row, a row the next one reduces and one trimmed by its gcd
    rows = [{1: 1, 3: 2}, {3: 1, 4: -1}, {0: 2, 4: 4}]
    given = [dict(r) for r in rows]
    stored = Subspace.from_rows(5, [wrap(g) for g in given])._echelon.rows
    before = {p: dict(r) for p, r in stored.items()}
    assert given == rows
    assert all(r is not g for r in stored.values() for g in given)
    for g in given:
        g[2] = 9
        g.pop(4, None)
    assert stored == before == _add_row_by_row(5, rows).rows


def _add_row_by_row(ambient, rows):
    ech = Echelon(ambient)
    for r in rows:
        ech.add(r)
    return ech


def _typed(ech):
    """The stored rows with the type of every index and entry, so that a
    bool stored where add stores an int shows."""
    return {p: [(type(k), k, type(x), x) for k, x in r.items()] for p, r in ech.rows.items()}


def test_from_rows_keeps_the_intake_checks():
    good = {0: 1, 3: 1}
    _assert_intake_checks(lambda v: Subspace.from_rows(4, [good, v]))
    assert Subspace.from_rows(4, [good, {}]).dim == 1


# rows of every form the intake takes, for an ambient dimension of 5
_ROW_FORMS = st.one_of(
    st.dictionaries(st.integers(0, 4), st.integers(-4, 4).filter(bool), max_size=5),
    st.dictionaries(st.integers(0, 4), st.integers(-2, 2), max_size=5),  # zeros
    st.dictionaries(
        st.integers(0, 4), st.fractions(-2, 2, max_denominator=3), max_size=5
    ),
    st.dictionaries(st.integers(0, 4), st.booleans(), max_size=5),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5).map(tuple),
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=5).map(
        types.MappingProxyType
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW_FORMS, max_size=6), st.booleans())
def test_from_rows_builds_the_echelon_of_add_row_by_row(rows, as_generator):
    want = _typed(_add_row_by_row(5, rows))
    given = (r for r in rows) if as_generator else rows
    assert _typed(Subspace.from_rows(5, given)._echelon) == want


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{}],
        [{}, {}, {0: 3}],
        [{0: 2, 3: -4}, {1: 1}, {0: 1, 1: 1, 3: -2}],
        [{0: 2, 3: -4}, {1: 0, 2: 3}],  # a zero
        [{0: 2, 3: -4}, {1: F(1, 2), 2: 3}],  # a Fraction
        [{0: 2, 3: -4}, {1: True, 2: 3}],  # a bool value
        [{0: 2, 3: -4}, {True: 1, 2: 3}],  # a bool index
        [{0: 2, 3: -4}, (0, 1, 0, 0, 2)],  # a dense tuple
        [{0: 2, 3: -4}, types.MappingProxyType({2: 5})],  # a mapping, not a dict
    ],
)
def test_from_rows_agrees_with_add_on_mixed_rows(rows):
    for given in (rows, iter(rows)):
        assert _typed(Subspace.from_rows(5, given)._echelon) == _typed(_add_row_by_row(5, rows))


@pytest.mark.parametrize(
    "bad, error",
    [
        ({5: 1}, DimensionMismatch),
        ({-1: 1}, DimensionMismatch),
        ({0: 0.5}, ScalarKindMismatch),
        ({0: 1, 2: "x"}, ScalarKindMismatch),
        ((1, 0, 0), DimensionMismatch),
        ({"a": 1}, TypeError),  # an index that does not compare with 0
    ],
)
def test_from_rows_raises_what_add_raises_for_one_bad_row(bad, error):
    rows = [{0: 2, 3: -4}, bad, {1: 1}]
    with pytest.raises(error) as by_add:
        _add_row_by_row(5, rows)
    with pytest.raises(error) as by_from_rows:
        Subspace.from_rows(5, rows)
    assert str(by_from_rows.value) == str(by_add.value)


# -- membership reads the caller's row without copying or trimming it ----------


def test_contains_vector_keeps_the_intake_checks():
    space = Subspace.from_rows(4, [(1, 0, 0, 1)])
    _assert_intake_checks(space.contains_vector)
    assert space.contains_vector({}) and space.contains_vector(types.MappingProxyType({}))


@pytest.mark.parametrize("wrap", [lambda d: d, types.MappingProxyType], ids=["dict", "mapping"])
@pytest.mark.parametrize(
    "row, inside",
    [({0: 1, 3: 1}, True), ({0: 2, 3: 2}, True), ({0: 1, 1: 2}, False), ({1: 2, 3: -4}, False)],
)
def test_contains_vector_neither_changes_nor_keeps_the_callers_row(wrap, row, inside):
    space = Subspace.from_rows(4, [(1, 0, 0, 1), (0, 0, 1, 1)])
    d = dict(row)
    vec = wrap(d)
    before_rows = [dict(r) for r in space.int_rows]
    refs = sys.getrefcount(d)
    assert space.contains_vector(vec) is inside
    assert d == row and sys.getrefcount(d) == refs
    assert all(r is not d for r in space._echelon.rows.values())
    # changing the row afterwards changes nothing in the space
    d[2] = 5
    assert [dict(r) for r in space.int_rows] == before_rows
    assert space.contains_vector(vec) is False


@pytest.mark.parametrize("row", [{1: 2, 3: -4}, {0: 6, 2: -9, 4: 3}, {1: -4}, {0: F(4, 6), 4: -2}])
def test_contains_vector_answers_a_row_as_its_primitive_form(row):
    ech = Echelon(5)
    primitive = ech.integer_row(row)
    assert primitive != row
    spaces = [
        Subspace.from_rows(5, rows)
        for rows in ([], [primitive], [(1, 1, 1, 1, 1)], [primitive, (0, 0, 0, 1, 7)])
    ]
    for space in spaces:
        assert space.contains_vector(row) == space.contains_vector(primitive)
        assert space.contains_vector(row) == (not space._echelon.reduce(primitive))
    assert [space.contains_vector(row) for space in spaces] == [False, True, False, True]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_contains_vector_agrees_with_reduce_on_scaled_rows(case, data):
    ncols, rows = case
    space = Subspace.from_rows(ncols, rows)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    scale = data.draw(st.sampled_from([1, 2, -3, 6]))
    sparse = {j: scale * x for j, x in enumerate(vec) if x}
    want = not space._echelon.reduce(space._echelon.integer_row(vec))
    assert space.contains_vector(sparse) == space.contains_vector(vec) == want


def _reduce_in_row_order(ech, row):
    """Elimination at each pivot hit in the row's key order, as a list."""
    hits = [p for p in row if p in ech.rows]
    for p in hits:
        row = _eliminate(row, ech.rows[p], p)
    return _primitive(row) if hits else row


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_reduce_does_not_depend_on_the_order_of_the_hits(case, data):
    ncols, rows = case
    ech = Echelon(ncols)
    for r in rows:
        ech.add(r)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    row = ech.integer_row(vec)
    want = _reduce_in_row_order(ech, dict(reversed(list(row.items()))))
    assert ech.reduce(row) == want


# -- catalog relation spaces and square products ---------------------------------


def _flat_rows(relations):
    return [r.flatten() for r in relations]


@pytest.mark.parametrize("name", catalog.list_names())
def test_catalog_relation_space_matches_oracle(name):
    t = catalog.get(name)
    ambient = 2 * t.dim * t.dim
    rows = _flat_rows(t.relations)
    red, pivots = assert_same_space(t.relation_subspace, rows, ambient)
    if t.star is not None:
        star = star_associativity(t.star).flatten()
        assert t.relation_subspace.contains_vector(star) == oracle_contains(red, pivots, star)
    # the annihilator under the plain dot product is the dense nullspace
    assert list(t.relation_subspace.annihilator().basis) == oracle_nullspace(rows, ambient)


def _small_pairs():
    names = catalog.list_names()
    return [
        (a, b) for a in names for b in names
        if catalog.get(a).dim * catalog.get(b).dim <= 9
    ]


def _dense_box(f1, f2):
    (l1, r1), (l2, r2) = _blocks(f1), _blocks(f2)
    return _from_blocks(_kron(l1, l2), _kron(r1, r2))


@pytest.mark.parametrize("a, b", _small_pairs())
def test_square_relation_space_matches_oracle(a, b):
    # the raw box products, so the degenerate dual-type pairs are covered too
    t1, t2 = catalog.get(a), catalog.get(b)
    m = t1.dim * t2.dim
    rels = [box_relation(f1, f2) for f1 in t1.relations for f2 in t2.relations]
    assert rels == [_dense_box(f1, f2) for f1 in t1.relations for f2 in t2.relations]
    rows = _flat_rows(rels)
    space = Subspace.from_rows(2 * m * m, [r.coeffs for r in rels])
    # one dense elimination per case, shared by the basis and membership checks
    red, pivots = assert_same_space(space, rows, 2 * m * m)
    if t1.star is not None and t2.star is not None:
        star = [x * y for x in t1.star for y in t2.star]
        vec = star_associativity(star).flatten()
        assert space.contains_vector(vec) == oracle_contains(red, pivots, vec)


# -- push-forwards --------------------------------------------------------------


def _dense_push(rel, f):
    ft = f.transpose()
    left, right = _blocks(rel)
    return _from_blocks(f @ left @ ft, f @ right @ ft)


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
    return RelationElement(m, coeffs)


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
