"""Exact scalar and linear-algebra substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitops.exactalg import (
    LAMBDA,
    RF_ONE,
    DimensionMismatch,
    Matrix,
    RatFunc,
    ScalarKindMismatch,
    Subspace,
    format_scalar,
    rref,
)
from splitops.exactalg import _padd, _pmul

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
        Matrix([[F(1), LAMBDA]])


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


def poly_ratfuncs():
    coeffs = st.lists(small_fracs, min_size=0, max_size=3)
    return st.builds(
        lambda num, den_tail: RatFunc(tuple(num), (F(1),) + tuple(den_tail)),
        coeffs,
        st.lists(small_fracs, min_size=0, max_size=2),
    )


@settings(max_examples=80, deadline=None)
@given(poly_ratfuncs(), poly_ratfuncs(), poly_ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (RatFunc(1) / a) == RatFunc(1)


@settings(max_examples=80, deadline=None)
@given(small_fracs, small_fracs, small_fracs)
def test_fraction_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    if a:
        assert a * (1 / a) == 1


@settings(max_examples=60, deadline=None)
@given(poly_ratfuncs(), poly_ratfuncs(), small_fracs)
def test_evaluation_commutes_with_arithmetic(a, b, point):
    # evaluating after computing agrees with computing on evaluated inputs,
    # wherever no denominator vanishes
    for expr, direct in (
        (a + b, lambda: a.evaluate(point) + b.evaluate(point)),
        (a * b, lambda: a.evaluate(point) * b.evaluate(point)),
        (a - b, lambda: a.evaluate(point) - b.evaluate(point)),
    ):
        try:
            lhs = expr.evaluate(point)
            rhs = direct()
        except ZeroDivisionError:
            continue
        assert lhs == rhs


def test_scalar_formats():
    assert format_scalar(F(3)) == "3"
    assert format_scalar(F(-1, 2)) == "-1/2"
    assert format_scalar(LAMBDA) == "(l)/(1)"
    quad = LAMBDA * LAMBDA + 1
    assert format_scalar(quad) == "(l^2+1)/(1)"
    assert format_scalar(quad / LAMBDA) == "(l^2+1)/(l)"


def test_ratfunc_canonical_form_unique():
    a = RatFunc((F(2),), (F(4),))  # 2/4 reduces to 1/2
    b = RatFunc((F(1),), (F(2),))
    assert a == b and a.num == b.num and a.den == b.den
    # monic denominator: (l+1)/(2l+2) = 1/2
    c = RatFunc((F(1), F(1)), (F(2), F(2)))
    assert c == RatFunc(F(1, 2))


# -- the constant constructor and the rational-operand paths of RatFunc ---------

wide_fracs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


def _canonical_coefficient(x):
    """An int, or a Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _same_representation(a, b):
    assert (a.num, a.den) == (b.num, b.den)
    assert all(_canonical_coefficient(x) for x in a.num + a.den + b.num + b.den)
    assert hash(a) == hash(b) and a == b


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_fracs, st.integers(-10**6, 10**6)))
def test_constant_ratfunc_matches_the_general_path(c):
    # RatFunc(c) skips the polynomial gcd; RatFunc((c,), (1,)) takes it
    _same_representation(RatFunc(c), RatFunc((c,), (1,)))
    assert bool(RatFunc(c)) == bool(c)


@settings(max_examples=100, deadline=None)
@given(st.lists(wide_fracs, min_size=0, max_size=3), wide_fracs)
def test_division_by_a_constant_matches_the_general_path(num, c):
    if not c:
        with pytest.raises(ZeroDivisionError):
            RatFunc(tuple(num)) / RatFunc(c)
        return
    quotient = RatFunc(tuple(num)) / RatFunc(c)
    _same_representation(quotient, RatFunc(tuple(num), (c,)))
    _same_representation(RatFunc(c) / RatFunc(c), RatFunc((1,), (1,)))


def _general_product(a, b):
    return RatFunc(_pmul(a.num, b.num), _pmul(a.den, b.den))


def _general_sum(a, b):
    return RatFunc(_padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))


def scalar_operands():
    """Units (RF_ONE itself and equal copies), zero, constants, polynomials
    of degree 1 to 3 and rational functions with a nonconstant denominator."""
    return st.one_of(
        st.sampled_from([RF_ONE, RatFunc(1), RatFunc(F(-1)), RatFunc(0)]),
        wide_fracs.map(RatFunc),
        st.lists(wide_fracs, min_size=2, max_size=4).map(lambda c: RatFunc(tuple(c))),
        poly_ratfuncs(),
    )


@settings(max_examples=300, deadline=None)
@given(scalar_operands(), scalar_operands())
def test_unit_and_constant_paths_match_the_general_path(a, b):
    # products: +-1 on either side, constant x constant, polynomial x constant
    _same_representation(a * b, _general_product(a, b))
    _same_representation(b * a, _general_product(b, a))
    for unit in (1, -1, F(1), F(-1)):
        _same_representation(a * unit, _general_product(a, RatFunc(unit)))
        _same_representation(unit * a, _general_product(RatFunc(unit), a))
    # sums, including constant sums that cancel to zero
    _same_representation(a + b, _general_sum(a, b))
    _same_representation(a - b, _general_sum(a, RatFunc(_pmul(b.num, (F(-1),)), b.den)))
    _same_representation(a + (-a), RatFunc(0))
    # negation of constants and of polynomials
    _same_representation(-a, RatFunc(_pmul(a.num, (F(-1),)), a.den))
    _same_representation(-(-a), a)


@pytest.mark.parametrize(
    "a, b",
    [
        (RatFunc(F(1, 2)), RatFunc(2)),  # constant x constant
        (RatFunc(F(2, 3)), RatFunc(F(3, 2))),
        (RatFunc((F(1, 2), F(3, 2))), RatFunc(2)),  # polynomial x constant
        (RatFunc((F(1, 2), F(1, 2))), RatFunc((2, -2))),  # polynomial x polynomial
        (RatFunc((F(1, 2),), (1, 1)), RatFunc((4,), (1, 1))),  # rational functions
    ],
)
def test_integral_results_have_int_coefficients(a, b):
    # every product here has integer coefficients, from Fraction inputs;
    # each path (and the sums and quotients) must normalize them to ints
    for value in (a * b, b * a, a + a, a / a, (a * b) / b, a * 2, 2 * a):
        _same_representation(value, RatFunc(value.num, value.den))
    product = a * b
    assert all(type(x) is int for x in product.num + product.den)


def test_unit_operands_return_the_other_operand_itself():
    # safe only because RatFunc values are immutable
    assert LAMBDA * F(1) is LAMBDA and F(1) * LAMBDA is LAMBDA and 1 * LAMBDA is LAMBDA


@pytest.mark.parametrize("text", ["12", "", b"12", bytearray(b"1")])
def test_ratfunc_refuses_text(text):
    # a string is iterable but is not a coefficient sequence: "12" once
    # built the polynomial 1 + 2*l
    with pytest.raises(TypeError):
        RatFunc(text)
    with pytest.raises(TypeError):
        RatFunc((1,), text)


def test_zero_constant_is_falsy():
    assert not RatFunc(0)
    assert not RatFunc(F(0))
    assert not RatFunc(0) / RatFunc(F(3, 2))
    assert RatFunc(0).num == () and RatFunc(0).den == (F(1),)
    assert hash(RatFunc(0)) == hash(F(0))
