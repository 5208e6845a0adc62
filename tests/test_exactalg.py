"""Exact scalar and linear-algebra substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitops.exactalg import (
    DimensionMismatch,
    Matrix,
    ScalarKindMismatch,
    Subspace,
    canonical,
    format_scalar,
    rational_from_text,
    rref,
)

F = Fraction


def mat(rows):
    return Matrix([[F(x) for x in r] for r in rows])


def right_kernel(m):
    """The vectors ``m`` sends to 0: the annihilator of its row space."""
    return Subspace.from_rows(m.ncols, m.rows).annihilator()


def test_rref_proportional_rows():
    red, pivots, rank = rref(mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert red.rows[0] == (F(1), F(2))
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    ident = Matrix.identity(3)
    red, pivots, rank = rref(ident)
    assert red == ident
    assert rank == 3


def test_rref_dendriform_relation_matrix():
    # flattened dendriform relations, hand row-reduced: leading entries sit
    # in columns 0, 2 and 1, so the three rows are independent
    rows = [
        [1, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, 1, 0, 1, 0, 0, 0, 1],
    ]
    _, _, rank = rref(mat(rows))
    assert rank == 3
    # and the hand transcription matches the catalog presentation
    from splitops import catalog

    dend = catalog.get("dendriform")
    assert [list(r.flatten()) for r in dend.relations] == [
        [F(x) for x in row] for row in rows
    ]


def test_rref_scalar_kind_mismatch():
    with pytest.raises(ScalarKindMismatch, match="scalar kind mismatch"):
        Matrix([[F(1), 0.5]])


def test_nullspace_zero_matrix():
    assert right_kernel(mat([[0, 0, 0], [0, 0, 0]])).dim == 3


def test_nullspace_identity():
    assert right_kernel(Matrix.identity(3)).dim == 0


def test_nullspace_difference_row():
    space = right_kernel(mat([[1, -1]]))
    assert space.dim == 1
    assert space.contains_vector((F(1), F(1)))


def test_nullspace_vectors_annihilate():
    m = mat([[1, 2, 3], [0, 1, 1]])
    space = right_kernel(m)
    for row in space.basis:
        assert all(x == 0 for x in m.apply(row))
    assert space.dim == 3 - 2


def test_subspace_contains_scaling():
    a = Subspace.from_rows(2, [[F(1), F(0)]])
    assert a.contains_vector((F(2), F(0)))


def test_subspace_axes_differ():
    a = Subspace.from_rows(2, [[F(1), F(0)]])
    b = Subspace.from_rows(2, [[F(0), F(1)]])
    assert a != b
    assert not a.leq(b) and not b.leq(a)


def test_subspace_dendriform_star():
    from splitops import catalog

    dend = catalog.get("dendriform")
    vec = dend.star_relation().flatten()
    assert dend.relation_subspace.contains_vector(vec)


def test_subspace_dimension_mismatch():
    a = Subspace.from_rows(2, [[F(1), F(0)]])
    b = Subspace.from_rows(3, [[F(1), F(0), F(0)]])
    with pytest.raises(DimensionMismatch):
        a.leq(b)


def test_matrix_inverse_round_trip():
    m = mat([[1, 2], [3, 5]])
    assert m @ m.inverse() == Matrix.identity(2)


@pytest.mark.parametrize(
    "images, signs",
    [((0,), None), ((1, 0), None), ((2, 0, 3, 1), None), ((2, 0, 1), (F(-1), F(1), F(-1)))],
)
def test_monomial_matches_the_dense_builder(images, signs):
    n = len(images)
    entry = [F(1)] * n if signs is None else signs
    dense = Matrix(
        [[entry[j] if images[j] == i else F(0) for j in range(n)] for i in range(n)], ncols=n
    )
    assert Matrix.monomial(images, signs) == dense


def test_monomial_refuses_a_non_permutation():
    with pytest.raises(DimensionMismatch):
        Matrix.monomial((0, 0))
    with pytest.raises(DimensionMismatch):
        Matrix.monomial((1, 2))


# -- monomial_form against the column scan it replaced -------------------------


def _monomial_form_by_columns(m):
    """``(images, signs)`` read off ``nonzero_columns``: square, one nonzero
    per column, in pairwise distinct rows; else None."""
    columns = m.nonzero_columns
    if m.nrows == m.ncols and all(len(c) == 1 for c in columns):
        images = tuple(c[0][0] for c in columns)
        if len(set(images)) == m.ncols:
            return images, tuple(c[0][1] for c in columns)
    return None


monomial_entries = st.sampled_from([0, 1, -1, 2, F(1, 2)])


@st.composite
def near_monomial_matrices(draw):
    """Any small matrix over {0, 1, -1, 2, 1/2}, or a monomial one with at
    most one entry set or one row copied onto another."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        ncols = draw(st.integers(1, 5))
        row = st.lists(monomial_entries, min_size=ncols, max_size=ncols)
        return Matrix(draw(st.lists(row, min_size=n, max_size=n)), ncols=ncols)
    images = draw(st.permutations(range(n)))
    signs = draw(st.lists(monomial_entries.filter(bool), min_size=n, max_size=n))
    rows = [list(r) for r in Matrix.monomial(images, signs).rows]
    i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "entry", "copy"]))
    if change == "entry":
        rows[i][k] = draw(monomial_entries)
    elif change == "copy":
        rows[i] = list(rows[k])
    return Matrix(rows, ncols=n)


def _assert_same_monomial_form(m):
    got = m.monomial_form
    assert m._columns is None  # the row test builds no column table
    assert got == _monomial_form_by_columns(m)
    assert m.monomial_form is got  # built once
    if got is not None:
        assert Matrix.monomial(*got) == m


@pytest.mark.parametrize(
    "rows",
    [
        [[0]], [[2]], [[F(1, 2)]], [[-1]],  # 1 x 1
        [[0, 1], [0, 0]],  # a zero row
        [[1, 2], [0, 1]],  # a row with two nonzeros
        [[0, 1, 0], [0, -1, 0], [1, 0, 0]],  # two rows sharing a column
        [[0, 2, 0], [F(1, 2), 0, 0], [0, 0, -1]],  # monomial, non-unit entries
        [[1, 0, 0], [0, 1, 0]],  # not square
        [[1], [0]],
    ],
)
def test_monomial_form_matches_the_column_scan_on_pinned_cases(rows):
    _assert_same_monomial_form(Matrix(rows))


@settings(max_examples=300, deadline=None)
@given(near_monomial_matrices())
def test_monomial_form_matches_the_column_scan(m):
    _assert_same_monomial_form(m)


# -- properties --------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fracs, min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rref_idempotent(rows):
    red, _, rank = rref(Matrix(rows))
    again, _, rank2 = rref(red) if red.nrows else (red, (), 0)
    assert rank == rank2
    assert again == red


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fracs, min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_rank_plus_nullity(rows):
    m = Matrix(rows)
    _, _, rank = rref(m)
    assert rank + right_kernel(m).dim == m.ncols


@settings(max_examples=80, deadline=None)
@given(small_fracs, small_fracs, small_fracs)
def test_fraction_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    if a:
        assert a * (1 / a) == 1


def test_scalar_formats():
    assert format_scalar(F(3)) == "3"
    assert format_scalar(F(-1, 2)) == "-1/2"
    with pytest.raises(ScalarKindMismatch):
        format_scalar(0.5)


def test_canonical_is_an_int_when_integral_else_a_fraction():
    for value, want in ((3, 3), (F(6, 3), 2), (F(-1, 2), F(-1, 2)), (True, 1), (False, 0)):
        got = canonical(value)
        assert got == want and type(got) is type(want)
    for value in (0.5, 1.0, "1", None):
        with pytest.raises(ScalarKindMismatch):
            canonical(value)
    assert format_scalar(True) == "1" and format_scalar(F(4, 2)) == "2"


def test_rational_text_is_read_in_the_forms_format_scalar_writes():
    for text, want in (("3", 3), ("-1/2", F(-1, 2)), ("4/2", 2), ("-0", 0), ("007", 7)):
        got = rational_from_text(text)
        assert got == want and type(got) is type(want)
    for value in (F(-7, 3), 12, 0):
        assert rational_from_text(format_scalar(value)) == value
    for text in ("0.5", "1e5", "+2", " 3 ", "1_0", "1/-2", "half", "", "\u0663"):
        with pytest.raises(ValueError, match="expected a rational p or p/q"):
            rational_from_text(text)
    with pytest.raises(ZeroDivisionError):
        rational_from_text("1/0")


def test_matrix_entries_are_canonical():
    m = Matrix([[F(2, 1), F(1, 2)], [True, 0]])
    assert [[type(x) for x in r] for r in m.rows] == [[int, F], [int, int]]
    assert all(type(x) is int for r in Matrix.identity(3).rows for x in r)
    inv = Matrix([[2, 0], [0, 1]]).inverse()
    assert [[type(x) for x in r] for r in inv.rows] == [[F, int], [int, int]]


def test_sparse_basis_scalars_are_canonical():
    # the rows reduce to (1, 2, 0) and (0, 0, 1) with unit pivots, and to
    # (1, 1/3) with an entry the pivot does not divide
    basis = Subspace.from_rows(3, [[2, 4, 0], [0, 0, -3]]).sparse_basis()
    assert basis == [{0: 1, 1: 2}, {2: 1}]
    assert all(type(x) is int for row in basis for x in row.values())
    (row,) = Subspace.from_rows(2, [[3, 1]]).sparse_basis()
    assert row == {0: 1, 1: F(1, 3)} and [type(x) for x in row.values()] == [int, F]
