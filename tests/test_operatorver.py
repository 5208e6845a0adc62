"""Symbolic operator verification: rewriting, certificates, lemmas."""

import hashlib
import json
import random
import weakref
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path

import pytest

import splitops.operatorver as ov
from splitops import catalog
from splitops.cli import main
from splitops.exactalg import ExactAlgebraError, ScalarKindMismatch, Subspace, canonical
from splitops.products import square
from splitops.typecore import (
    GeneratorSpace,
    RelationElement,
    TypePresentation,
    format_relation,
    relabel,
    star_associativity,
    validate,
)

F = Fraction
P = 0  # the only operator symbol in single-law tests


def nf(comb, law, **kwargs):
    return ov.Normalizer((law,), (0,), **kwargs).normalize(comb)


def powers(comb, law):
    """The power of the formal weight that goes with each term's coefficient."""
    grading = ov._Grading.of((law,))
    return {term: grading.power(term[3:]) for term in comb}


def term2(wx, wy, wout=()):
    return (2, -1, 0, tuple(wx), tuple(wy), (), (), tuple(wout))


B = ov.DEFAULT_STEP_BUDGET


def _product(v):
    """The product presentation a verifier names and never builds: square
    folded over the base and the law factors, as the reference."""
    return reduce(square, v.solve.factors, v.base)


def _tables(laws):
    """The predicted factors of ``laws`` and their derived tables, law k
    written with symbol k."""
    factors = [catalog.get(ov.predicted_factor_name(law)) for law in laws]
    return factors, [ov.derived_table(law, f, k) for k, (law, f) in enumerate(zip(laws, factors))]


class _Reference:
    """The definitions a verifier is tested against, with a normalizer of
    its own: a product relation substituted whole and a relation instance
    on the base, each normalized term by term.  It shares nothing with the
    solve memo."""

    def __init__(self, laws, tables=None):
        laws = tuple(laws)
        self.normalizer = ov.Normalizer(laws, tuple(range(len(laws))))
        self.table = ov._composite_table(tables or _tables(laws)[1])

    def residual(self, rel):
        return self.normalizer.normalize(ov.substitute(rel, self.table))

    def instance(self, base, tag):
        b, triple, ctx = tag
        return self.normalizer.normalize(ov.relation_instance(base.relations[b], triple, ctx))


@pytest.fixture
def cold_solves(monkeypatch):
    """An empty solve memo of the same size for one test, for tests that
    count what a solve does or patch how it solves; the memo from before
    comes back after."""
    fresh = lru_cache(**ov._law_solve.cache_parameters())(ov._law_solve.__wrapped__)
    monkeypatch.setattr(ov, "_law_solve", fresh)


@pytest.fixture
def normalizers(monkeypatch):
    """Every normalizer made during one test, in the order made."""
    made = []

    class Kept(ov.Normalizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(ov, "Normalizer", Kept)
    return made


def test_rb_single_step():
    # P(x) o P(y) -> P(P(x) o y) + P(x o P(y)) + weight * P(x o y), with
    # the formal weight written 1 and its power read from the grading
    out = nf({term2((P,), (P,)): 1}, ov.rb(None))
    assert out == {
        term2((P,), (), (P,)): 1,
        term2((), (P,), (P,)): 1,
        term2((), (), (P,)): 1,
    }
    assert list(powers(out, ov.rb(None)).values()) == [0, 0, 1]


def test_rb_weight_zero_single_step():
    out = nf({term2((P,), (P,)): 1}, ov.rb(0))
    assert out == {
        term2((P,), (), (P,)): 1,
        term2((), (P,), (P,)): 1,
    }


# the rewrite rules as they were written by hand, one per law:
# (coeff, keeps P on u, keeps P on v, symbols wrapped around) per term of
# P(u) o P(v) -> ...
_HAND_WRITTEN_RULES = [
    (ov.rb(None), [(1, True, False, 1), (1, False, True, 1), (1, False, False, 1)]),
    (ov.rb(0), [(1, True, False, 1), (1, False, True, 1)]),
    (ov.rb("1/2"), [(1, True, False, 1), (1, False, True, 1), (F(1, 2), False, False, 1)]),
    (ov.rb("-3"), [(1, True, False, 1), (1, False, True, 1), (-3, False, False, 1)]),
    (ov.nijenhuis(), [(1, True, False, 1), (1, False, True, 1), (-1, False, False, 2)]),
    (ov.left_rb(), [(1, False, True, 1)]),
    (ov.right_rb(), [(1, True, False, 1)]),
    # the lemmas' splitting, read off dendriform's star lt + gt, has rb's
    # rule at every weight: the splitting solve normalizes under rb
    (
        ov.OperatorLaw("rb_dendriform"),
        [(1, True, False, 1), (1, False, True, 1), (1, False, False, 1)],
    ),
    (ov.OperatorLaw("rb_dendriform", 0), [(1, True, False, 1), (1, False, True, 1)]),
]


@pytest.mark.parametrize(
    "law, rule", [pytest.param(law, rule, id=law.describe()) for law, rule in _HAND_WRITTEN_RULES]
)
def test_the_rule_read_off_the_star_is_the_hand_written_one(law, rule):
    # P(u) o P(v) -> P(u * v), * the predicted factor's star in the derived
    # operations, term for term and in order
    assert ov.rewrite_rule(law) == rule


def test_no_redex_is_fixed():
    start = {term2((), (P,)): 1}
    assert nf(start, ov.rb(None)) == start


def test_nijenhuis_single_step():
    out = nf({term2((P,), (P,)): 1}, ov.nijenhuis())
    assert out == {
        term2((P,), (), (P,)): 1,
        term2((), (P,), (P,)): 1,
        term2((), (), (P, P)): -1,
    }


def test_one_sided_laws_single_step():
    out = nf({term2((P,), (P,)): 1}, ov.left_rb())
    assert out == {term2((), (P,), (P,)): 1}
    out = nf({term2((P,), (P,)): 1}, ov.right_rb())
    assert out == {term2((P,), (), (P,)): 1}


def test_three_leaf_case_three_expansion():
    # (P(x) o P(y)) o z normalizes through the inner redex exactly as the
    # proof of the associative case expands it
    start = {(0, 0, 0, (P,), (P,), (), (), ()): 1}
    out = nf(start, ov.rb(None))
    assert out == {
        (0, 0, 0, (P,), (), (), (P,), ()): 1,
        (0, 0, 0, (), (P,), (), (P,), ()): 1,
        (0, 0, 0, (), (), (), (P,), ()): 1,
    }
    assert list(powers(out, ov.rb(None)).values()) == [0, 0, 1]


def test_case_three_substitution_matches_proof_chain():
    # for the associative type with a formal-weight operator, the relation
    # (star x gt | gt x gt) substitutes to
    #   P(x o P(y)) o z + P(P(x) o y) o z + weight * P(x o y) o z
    # on the left and P(x) o (P(y) o z) on the right, both already normal
    a = catalog.get("associative")
    v = _verifier("associative", [ov.rb(None)])
    rel = _product(v).relations[2]
    diff = _Reference([ov.rb(None)]).residual(rel)
    assert diff == {
        (0, 0, 0, (), (P,), (), (P,), ()): 1,
        (0, 0, 0, (P,), (), (), (P,), ()): 1,
        (0, 0, 0, (), (), (), (P,), ()): 1,
        (1, 0, 0, (P,), (P,), (), (), ()): -1,
    }
    assert list(powers(diff, ov.rb(None)).values()) == [0, 0, 1, 0]
    # and the residual is certified by the associativity instance on
    # (P(x), P(y), z): its left half rewrites into the three wrapped terms
    verdict = v.run(a.name, "law").verdicts[2]
    assert verdict.verified
    tags = [tag for tag, *_ in verdict.certificate]
    assert (0, ((P,), (P,), ()), ()) in tags


def test_verifier_substitutions_are_strategy_independent():
    law = ov.rb(None)
    reference = _Reference([law])
    outer = ov.Normalizer((law,), (0,), strategy="outermost")
    for rel in _product(_verifier("trialgebra", [law])).relations[::7]:
        comb = ov.substitute(rel, reference.table)
        assert reference.normalizer.normalize(comb) == outer.normalize(comb)


def test_normalization_strategy_independent():
    inputs = [
        {(0, 0, 0, (P,), (P,), (P,), (), ()): 1},
        {(1, 0, 0, (P,), (P,), (P,), (), ()): 1},
        {(0, 0, 0, (P, P), (P,), (P,), (), ()): 1},
        {term2((P, P), (P, P)): 1},
    ]
    for law in (ov.rb(None), ov.nijenhuis(), ov.left_rb(), ov.right_rb()):
        for comb in inputs:
            inner = ov.Normalizer((law,), (0,), strategy="innermost").normalize(comb)
            outer = ov.Normalizer((law,), (0,), strategy="outermost").normalize(comb)
            assert inner == outer


def test_normal_forms_have_no_redex():
    law = ov.rb(None)
    comb = {(0, 0, 0, (P, P), (P,), (P,), (), ()): 1}
    normalizer = ov.Normalizer((law,), (0,))
    for term in normalizer.normalize(comb):
        assert normalizer._find_redex(term) is None


@pytest.mark.parametrize(
    "law",
    [ov.OperatorLaw(kind) for kind in ov._LAW_TABLE] + [ov.rb(0)],
    ids=lambda law: law.describe(),
)
def test_every_rule_term_keeps_at_most_one_operand_symbol_and_wraps_one(law):
    # the premise of termination (see the module docstring)
    rule = ov.rewrite_rule(law)
    assert rule
    for _coeff, keep_x, keep_y, wraps in rule:
        assert keep_x + keep_y <= 1 <= wraps


def _depth_counts(term):
    """(symbols at depth 2, symbols at depth 1, all symbols) of a term."""
    shape, _gin, _gout, wx, wy, wz, win, wout = term
    deep, mid = {0: ((wx, wy), (win, wz)), 1: ((wy, wz), (wx, win)), 2: ((), (wx, wy))}[shape]
    return sum(map(len, deep)), sum(map(len, mid)), sum(map(len, term[3:]))


@pytest.mark.parametrize(
    "law", [ov.rb(None), ov.rb(0), ov.nijenhuis(), ov.left_rb(), ov.right_rb()],
    ids=lambda law: law.describe(),
)
def test_every_rewrite_step_lowers_the_depth_counts(law):
    # each piece of a step has fewer symbols at depth 2, or as many there
    # and fewer at depth 1, and never more in all: rewriting terminates
    normalizer = ov.Normalizer((law,), (0,))
    words = [(), (P,), (P, P)]
    terms = [
        (shape, 0, 0, wx, wy, wz if shape < 2 else (), win if shape < 2 else (), ())
        for shape in (0, 1, 2) for wx in words for wy in words for wz in words for win in words
    ]
    stepped = 0
    for term in set(terms):
        redex = normalizer._find_redex(term)
        if redex is None:
            continue
        stepped += 1
        deep, mid, total = _depth_counts(term)
        for piece in normalizer._apply(term, *redex):
            p_deep, p_mid, p_total = _depth_counts(piece)
            assert (p_deep, p_mid) < (deep, mid) and p_total <= total, (term, piece)
    assert stepped


# -- the theorem ---------------------------------------------------------------


def test_rb_on_associative_builds_trialgebra():
    report = ov.verify_operator_theorem(catalog.get("associative"), ov.rb(None))
    assert report.all_verified
    assert len(report.verdicts) == 7


def test_rb_weight_zero_on_dendriform_builds_quadri():
    report = ov.verify_operator_theorem(catalog.get("dendriform"), ov.rb(0))
    assert report.all_verified
    assert len(report.verdicts) == 9


def test_nijenhuis_on_associative_builds_ns():
    report = ov.verify_operator_theorem(catalog.get("associative"), ov.nijenhuis())
    assert report.all_verified
    assert len(report.verdicts) == 4


def test_one_sided_rb_builds_dipterous_pair():
    a = catalog.get("associative")
    left = ov.verify_operator_theorem(a, ov.left_rb())
    right = ov.verify_operator_theorem(a, ov.right_rb())
    assert left.all_verified and len(left.verdicts) == 3
    assert right.all_verified and len(right.verdicts) == 3
    assert left.product_name == "(associative sq dipterous)"
    assert right.product_name == "(associative sq anti_dipterous)"


def test_every_nonzero_residual_carries_a_certificate():
    report = ov.verify_operator_theorem(catalog.get("ns"), ov.nijenhuis())
    assert report.all_verified
    assert any(v.certificate for v in report.verdicts)


def test_certificates_reproduce_residuals():
    t = catalog.get("dendriform")
    law = ov.rb(None)
    v = _verifier("dendriform", [law])
    reference = _Reference([law])
    report = v.run(t.name, law.describe())
    product = _product(v)
    assert len(report.verdicts) == len(product.relations)
    for verdict, rel in zip(report.verdicts, product.relations):
        assert verdict.verified
        residual = reference.residual(rel)
        rebuilt = {}
        for tag, coeff, _power in verdict.certificate:
            for term, c in reference.instance(t, tag).items():
                ov._accumulate(rebuilt, term, coeff * c)
        assert rebuilt == residual


def test_specialization_coherence_at_weight_zero():
    # verifying with the formal weight and evaluating at 0 agrees with
    # verifying at weight 0 on the relations the two products share
    a = catalog.get("associative")
    formal, at_zero = _Reference([ov.rb(None)]), _Reference([ov.rb(0)])
    tri, dend = catalog.get("trialgebra"), catalog.get("dendriform")
    # trialgebra relations 1-3 mirror the dendriform relations
    for t_index, d_index in ((0, 0), (1, 1), (2, 2)):
        formal_residual = formal.residual(square(a, tri).relations[t_index])
        # at weight 0 only the terms whose coefficient has no power of the
        # formal weight survive
        graded = powers(formal_residual, ov.rb(None))
        specialized = {term: c for term, c in formal_residual.items() if graded[term] == 0}
        zero_residual = at_zero.residual(square(a, dend).relations[d_index])
        assert specialized == zero_residual


def test_rb_verifies_on_every_cataloged_star_type():
    for name in ("anti_dipterous", "assoc_dialgebra"):
        report = ov.verify_operator_theorem(catalog.get(name), ov.rb(None))
        assert report.all_verified, name


def test_commuting_families():
    a = catalog.get("associative")
    pairs = [
        ([ov.rb(0), ov.rb(0)], 9),
        ([ov.rb(None), ov.rb(None)], 49),
        ([ov.right_rb(), ov.left_rb()], 9),
        ([ov.left_rb(), ov.left_rb()], 9),
        ([ov.rb(0), ov.rb(0), ov.rb(0)], 27),
    ]
    for laws, want in pairs:
        report = ov.verify_commuting_family(a, laws)
        assert report.all_verified
        assert len(report.verdicts) == want
        assert not report.experimental


def test_family_size_guard():
    with pytest.raises(Exception, match="limited"):
        ov.verify_commuting_family(catalog.get("associative"), [ov.rb(0)] * 4)


def test_mixed_family_is_experimental_but_verifies():
    report = ov.verify_commuting_family(
        catalog.get("associative"), [ov.rb(0), ov.nijenhuis()]
    )
    assert report.experimental
    assert report.all_verified


def test_operator_lemmas():
    reports = ov.verify_operator_lemmas()
    assert len(reports) == 4
    assert all(r.ok for r in reports)
    names = [r.name for r in reports]
    assert any("Rota-Baxter" in n for n in names)
    assert any("Nijenhuis" in n for n in names)


def test_each_lemma_path_checks_its_steps_against_the_budget(cold_solves):
    # in each modified identity only Q(x) o Q(y) has the operator on both
    # operands, in one term: one step each, and a budget of 0 is short
    assert all(r.ok for r in ov.verify_operator_lemmas(include=(), budget=1))
    with pytest.raises(ov.RewriteBudget, match="rewrite budget exhausted"):
        ov.verify_operator_lemmas(include=(), budget=0)
    # the splitting reads its law solve from the memo and checks the steps
    # it recorded, the same whether the memo solves it afresh or has it
    key = _key([ov.OperatorLaw("rb_dendriform")])
    steps = ov._law_solve(key).steps
    assert steps == 2
    for warm in (False, True):
        ov._law_solve.cache_clear()
        if warm:
            ov._law_solve(key)
        assert all(r.ok for r in ov.verify_operator_lemmas(("associative",), budget=steps))
        assert _memo() == (1, int(warm), 1)
        ov._law_solve.cache_clear()
        if warm:
            ov._law_solve(key)
        with pytest.raises(ov.RewriteBudget, match="rewrite budget exhausted"):
            ov.verify_operator_lemmas(("associative",), budget=steps - 1)
        assert _memo() == (1, int(warm), 1)


def test_a_second_lemma_call_reads_the_memo(cold_solves):
    reports = ov.verify_operator_lemmas()
    # one solve of the splitting, read again on the second base
    assert _memo() == (1, 1, 1)
    assert ov.verify_operator_lemmas() == reports
    assert _memo() == (1, 3, 1)


def test_a_failing_lemma_prints_its_residual(monkeypatch):
    # with P of weight 2, -1*id - P (the formal weight written 1) is not
    # Rota-Baxter of weight 2; the residual keeps the rational-function format
    monkeypatch.setattr(ov, "rb", lambda weight=None, name="P": ov.OperatorLaw("rb", F(2), name))
    report = ov.verify_operator_lemmas(include=())[0]
    assert not report.ok
    assert report.describe() == (
        "modified Rota-Baxter operator (-weight*id - P): FAILED residual (1)/(1) * P(x o y)"
    )
    # and with N one-sided, id - N is not Nijenhuis: plain int residuals
    monkeypatch.setattr(ov, "nijenhuis", lambda name="N": ov.OperatorLaw("left_rb", name=name))
    assert ov.verify_operator_lemmas(include=())[1].describe() == (
        "modified Nijenhuis operator (id - N): FAILED residual "
        "(1)/(1) * N(N(x o y)); (-1)/(1) * N(N(x) o y)"
    )


def test_every_coefficient_is_a_plain_number():
    # the sources of every coefficient the verifier computes with; the
    # formal weight is written 1
    assert type(ov.rb(None).weight_scalar()) is int and ov.rb(None).weight_scalar() == 1
    assert type(ov.rb("2").weight_scalar()) is int and ov.rb("2").weight_scalar() == 2
    assert ov.rb("1/2").weight_scalar() == F(1, 2)
    for law in (ov.rb(None), ov.rb(0), ov.rb("-3"), ov.nijenhuis(), ov.left_rb(), ov.right_rb()):
        factor = catalog.get(ov.predicted_factor_name(law))
        coeffs = [c for c, *_ in ov.rewrite_rule(law)]
        coeffs += [c for entries in ov.derived_table(law, factor, P).values() for c, *_ in entries]
        assert all(type(c) is int for c in coeffs), law
    assert nf({term2((), (P,)): 1}, ov.rb(None)) == {term2((), (P,)): 1}
    inst = ov.relation_instance(catalog.get("dendriform").relations[0], ((), (), ()), ())
    assert inst and all(type(c) is int for c in inst.values())


def test_report_json_shape():
    report = ov.verify_operator_theorem(catalog.get("associative"), ov.rb(None))
    data = json.loads(report.to_json())
    assert data["type"] == "associative"
    assert len(data["relations"]) == 7
    assert all(r["verdict"] == "verified" for r in data["relations"])


def test_law_constructors():
    assert ov.rb("formal").weight is None
    assert ov.rb(F(1, 2)).weight == F(1, 2)
    assert ov.law_from_name("rb0").weight == 0
    assert ov.law_from_name("leftrb").kind == "left_rb"
    with pytest.raises(ValueError):
        ov.law_from_name("averaging")
    with pytest.raises(ValueError):
        ov.OperatorLaw("nijenhuis", F(1))
    assert ov.law_from_name("rb", "-1/2").weight == F(-1, 2)
    assert ov.law_from_name("rb", "formal").weight is None


@pytest.mark.parametrize(
    "kind, weight, message",
    [
        ("rb", "1/0", "zero denominator"),
        ("rb", "abc", "expected a rational p or p/q"),
        ("rb0", "1", "takes no weight"),
        ("nijenhuis", "2", "takes no weight"),
        ("leftrb", "formal", "takes no weight"),
        ("averaging", "1", "unknown law"),
    ],
)
def test_law_from_name_refuses_bad_weights(kind, weight, message):
    with pytest.raises(ValueError, match=message):
        ov.law_from_name(kind, weight)


def test_an_rb_weight_is_a_canonical_scalar():
    assert [type(ov.rb(w).weight) for w in ("4/2", Fraction(3, 1), True, "1/2")] == [
        int, int, int, Fraction,
    ]
    with pytest.raises(ScalarKindMismatch):
        ov.rb(0.1)


# -- one membership echelon per geometry ------------------------------------------


def _geometry(residual):
    """The candidate geometry of a residual, read from its shapes and words."""
    return ov._candidate_geometry({(t[0],) + t[3:] for t in residual})


def _oracle_verdicts(t, laws):
    """The per-relation, per-base rebuild: every product relation of
    ``laws`` on ``t`` is substituted and normalized whole and solved against
    a fresh echelon of the instances of every base relation.

    This is the verifier before it solved each factor relation once as a
    pattern and placed the certificate at every base relation, kept as the
    reference for ``run``.  It shares nothing with the solve memo.
    """
    factors, tables = _tables(laws)
    reference, grading = _Reference(laws, tables), ov._Grading.of(laws)
    verdicts = []
    product = reduce(square, factors, t)
    for index, rel in enumerate(product.relations):
        label = format_relation(rel, product.generators.labels)
        residual = reference.residual(rel)
        if not residual:
            verdicts.append(ov.RelationVerdict(index, label, True, residual_zero=True))
            continue
        triples, contexts = _geometry(residual)
        ech = ov._Echelon()
        for r_idx in range(len(t.relations)):
            for triple in triples:
                for ctx in contexts:
                    inst = reference.instance(t, (r_idx, triple, ctx))
                    if inst:
                        ech.insert(inst, (r_idx, triple, ctx))
        solved = ech.solve(residual)
        assert solved is not None, index  # these runs certify at the first depth
        certificate = tuple(
            (tag, c, grading.power(tag[1] + (tag[2],))) for tag, c in solved.items()
        )
        verdicts.append(ov.RelationVerdict(index, label, True, certificate=certificate))
    return tuple(verdicts)


def _named(laws):
    """``laws`` with the operator names verify_commuting_family gives a
    family."""
    if len(laws) == 1:
        return list(laws)
    return [
        ov.OperatorLaw(law.kind, law.weight, f"{law.name}{k + 1}") for k, law in enumerate(laws)
    ]


def _verifier(name, laws):
    return ov._make_verifier(catalog.get(name), _named(laws), B)


def _splitting(name):
    """The closing construction of the lemmas on ``name``, the law row
    rb_dendriform read from the memo."""
    return ov._make_verifier(catalog.get(name), [ov.OperatorLaw("rb_dendriform")], B)


def _splitting_table():
    """The derived table of the closing construction as the lemma states
    it: x (w|lt) y = x w P(y), x (w|gt) y = weight*(x w y) + P(x) w y."""
    dend = catalog.get("dendriform")
    lt, gt = dend.generators.index("lt"), dend.generators.index("gt")
    return {lt: [(1, (), (P,), ())], gt: [(1, (), (), ()), (1, (P,), (), ())]}


def _summands(table):
    """A derived table with each generator's entries as a multiset: the
    terms of a sum, in any order."""
    return {g: sorted(entries) for g, entries in table.items()}


def test_the_splitting_row_gives_the_table_the_lemma_states():
    dend = catalog.get("dendriform")
    row = ov.derived_table(ov.OperatorLaw("rb_dendriform"), dend, P)
    assert _summands(row) == _summands(_splitting_table())
    # at weight 0 the splitting is rb0 with its factor dendriform
    at_zero = ov.OperatorLaw("rb_dendriform", 0)
    assert ov.predicted_factor_name(at_zero) == "dendriform"
    assert ov.derived_table(at_zero, dend, P) == ov.derived_table(ov.rb(0), dend, P)


_CRITERION_6_SINGLES = [
    (name, law)
    for name in ("associative", "dendriform", "trialgebra", "ns", "dipterous")
    for law in ("rb", "nijenhuis", "left_rb", "right_rb")
]
_FAMILIES = [("trialgebra", ("rb", "rb")), ("ns", ("rb", "rb")), ("dendriform", ("rb", "rb"))]
_LAWS = {
    "rb": ov.rb,
    "rb0": lambda: ov.rb(0),
    "nijenhuis": ov.nijenhuis,
    "left_rb": ov.left_rb,
    "right_rb": ov.right_rb,
    "rb_dendriform": lambda: ov.OperatorLaw("rb_dendriform"),
}
# the commuting families of criterion 6, all on associative
_CRITERION_6_FAMILIES = [
    ("associative", laws)
    for laws in (
        ("rb0", "rb0"),
        ("rb", "rb"),
        ("right_rb", "left_rb"),
        ("left_rb", "left_rb"),
        ("rb0", "rb0", "rb0"),
    )
]


def _assert_run_matches_the_oracle(v, laws):
    name = v.base.name
    report = v.run(name, "law")
    oracle = _oracle_verdicts(v.base, laws)
    assert report.verdicts == oracle
    assert report.product_name == _product(v).name
    rebuilt = ov.VerificationReport(name, "law", report.product_name, oracle)
    assert report.to_json() == rebuilt.to_json()


@pytest.mark.parametrize(
    "name, laws",
    [(name, (law,)) for name, law in _CRITERION_6_SINGLES] + _FAMILIES + _CRITERION_6_FAMILIES,
    ids=lambda x: "+".join(x) if isinstance(x, tuple) else x,
)
def test_shared_echelons_match_the_per_relation_rebuild(name, laws):
    laws = _named([_LAWS[law]() for law in laws])
    _assert_run_matches_the_oracle(ov._make_verifier(catalog.get(name), laws, B), laws)


def _block_rank(t, block):
    """The rank of the L (block 0) or R (block 1) blocks of t's relations."""
    mm = t.dim * t.dim
    rows = [
        {k - block * mm: c for k, c in rel.coeffs.items() if k // mm == block}
        for rel in t.relations
    ]
    return Subspace.from_rows(mm, rows).dim


@pytest.mark.parametrize(
    "factors",
    # with dendriform, the factor of rb of weight 0 and of the splitting
    [(factor,) for factor in sorted({factor for factor, _ in ov._LAW_TABLE.values()})]
    # the composite factors of the criterion-6 families
    + [
        tuple(ov.predicted_factor_name(_LAWS[law]()) for law in laws)
        for _name, laws in _CRITERION_6_FAMILIES
    ],
    ids="+".join,
)
def test_every_factor_has_independent_l_blocks_and_independent_r_blocks(factors):
    # the precondition of the product lemma: box is then injective on
    # R_base (x) R_factor, so the product of a valid base is valid
    composite = reduce(square, [catalog.get(name) for name in factors])
    for block in (0, 1):
        assert _block_rank(composite, block) == len(composite.relations), block


def _random_base(seed):
    """A valid base of one or two generators: a random star, its
    associativity, and random sparse relations kept while independent.
    About two in five lie in one block, so they place only one shape of a
    pattern."""
    rng = random.Random(seed)
    m = rng.choice((1, 2))
    generators = GeneratorSpace(f"random{seed}", ("a", "b")[:m])
    star = [0] * m
    while not any(star):
        star = [rng.choice((-1, 0, 1, 2)) for _ in range(m)]
    t = TypePresentation(generators, star, [star_associativity(star)])
    for _ in range(rng.randint(0, 2 * m)):
        picks = rng.randint(1, 3)
        coeffs = {rng.randrange(2 * m * m): rng.choice((-2, -1, 1, 3)) for _ in range(picks)}
        grown = TypePresentation(generators, star, t.relations + (RelationElement(m, coeffs),))
        if validate(grown).valid:
            t = grown
    return t


@pytest.mark.parametrize(
    "law", [ov.rb(None), ov.nijenhuis(), ov.left_rb()], ids=lambda law: law.describe()
)
def test_pattern_solves_match_the_per_base_rebuild_on_random_bases(law):
    # the placing lemma on bases the catalog does not have: each factor
    # relation is solved once as a pattern, and every placed certificate
    # equals the one a per-base echelon finds
    for seed in range(60):
        t = _random_base(seed)
        _assert_run_matches_the_oracle(ov._make_verifier(t, [law], B), [law])


# -- one law solve per process -------------------------------------------------


def _key(laws):
    return tuple((law.kind, law.weight) for law in laws)


def _warm_on_other_bases(laws):
    """Solve ``laws`` into the memo on bases other than the ones under test,
    a relabelled trialgebra and a scaled dendriform, under other names."""
    others = (
        relabel(catalog.get("trialgebra"), {"lt": "gt", "gt": "cir", "cir": "lt"}),
        _scaled(catalog.get("dendriform"), F(-1, 3)),
    )
    renamed = [ov.OperatorLaw(law.kind, law.weight, f"Q{k}") for k, law in enumerate(laws)]
    for t in others:
        assert ov._make_verifier(t, renamed, B).run(t.name, "law").all_verified


def _assert_warm_gives_the_cold_report(t, laws):
    ov._law_solve.cache_clear()
    v = ov._make_verifier(t, laws, B)
    cold_solve, cold = v.solve, v.run(t.name, "law")
    ov._law_solve.cache_clear()
    _warm_on_other_bases(laws)
    hits = ov._law_solve.cache_info().hits
    v = ov._make_verifier(t, laws, B)
    # the record a run on other bases made, read again: equal to the cold one
    assert ov._law_solve.cache_info().hits == hits + 1
    assert v.solve is not cold_solve and v.solve == cold_solve
    assert v.run(t.name, "law").to_json() == cold.to_json()
    oracle = ov.VerificationReport(t.name, "law", cold.product_name, _oracle_verdicts(t, laws))
    assert oracle.to_json() == cold.to_json()


@pytest.mark.parametrize(
    "name, laws",
    [(name, (law,)) for name, law in _CRITERION_6_SINGLES]
    + _CRITERION_6_FAMILIES
    # the two dendriform splittings of the lemmas
    + [(name, ("rb_dendriform",)) for name in ("associative", "trialgebra")],
    ids=lambda x: "+".join(x) if isinstance(x, tuple) else x,
)
def test_a_warm_memo_gives_the_cold_report(cold_solves, name, laws):
    _assert_warm_gives_the_cold_report(catalog.get(name), _named([_LAWS[law]() for law in laws]))


@pytest.mark.parametrize(
    "law", [ov.rb(None), ov.nijenhuis(), ov.left_rb()], ids=lambda law: law.describe()
)
def test_a_warm_memo_gives_the_cold_report_on_random_bases(cold_solves, law):
    for seed in range(60):
        _assert_warm_gives_the_cold_report(_random_base(seed), [law])


def _memo():
    """(misses, hits, entries) of the solve memo."""
    info = ov._law_solve.cache_info()
    return info.misses, info.hits, info.currsize


def test_operator_names_share_one_solve(cold_solves):
    a, d = catalog.get("associative"), catalog.get("dendriform")
    kept = _verifier("associative", [ov.rb(None), ov.rb(None)]).solve
    report = ov.verify_commuting_family(d, [ov.rb(None, "Q"), ov.rb(None, "R")])
    assert report.law == "[rb(weight=formal, Q1) , rb(weight=formal, R2)]"
    assert _memo() == (1, 1, 1)
    assert _verifier("dendriform", [ov.rb(None, "S"), ov.rb(None, "T")]).solve is kept
    ov.verify_operator_theorem(a, ov.rb(None))
    ov.verify_operator_theorem(d, ov.rb(None, "Q"))
    assert _memo() == (2, 3, 2)


def test_weights_split_solves(cold_solves):
    a = catalog.get("associative")
    for weight in (None, 0, "1/2", 1, "2/2", F(1, 2)):
        assert ov.verify_operator_theorem(a, ov.rb(weight)).all_verified
    # "2/2" is 1 and F(1, 2) is "1/2": four weights, four entries
    assert _memo() == (4, 2, 4)


def test_the_memo_keeps_base_free_results_only(cold_solves):
    t = catalog.get("trialgebra")
    v = _verifier("trialgebra", [ov.rb(None), ov.rb(None)])
    kept = ov._law_solve(_key([ov.rb(None)] * 2))
    assert kept is v.solve
    # no laws, tables or normalizer: a record of what every run reads
    assert [f.name for f in fields(kept)] == [
        "factors", "factor_relations", "grading", "patterns", "certificates", "instances", "steps"
    ]
    assert kept.steps == 44
    assert len(kept.patterns) == len(kept.certificates) == len(kept.factor_relations)
    used = {tag for certificate in kept.certificates if certificate for tag, _c, _k in certificate}
    assert set(kept.instances) == used
    assert not any(t is value or t.relations is value for value in vars(kept).values())


def test_a_budget_failure_keeps_the_solve_for_a_later_run(cold_solves):
    # the budget is checked on the recorded steps, after solving: the
    # record stays, and a run at the default budget reads it
    t = catalog.get("trialgebra")
    with pytest.raises(ov.RewriteBudget, match="rewrite budget exhausted"):
        ov.verify_operator_theorem(t, ov.nijenhuis(), budget=5)
    assert _memo() == (1, 0, 1)
    assert ov.verify_operator_theorem(t, ov.nijenhuis()).all_verified
    assert _memo() == (1, 1, 1)


def test_the_memo_is_bounded(cold_solves):
    a = catalog.get("associative")
    size = ov._SOLVE_MEMO_SIZE
    for k in range(size + 2):
        ov.verify_operator_theorem(a, ov.rb(k + 1))
    assert _memo() == (size + 2, 0, size)
    # weights 1 and 2 are gone; 3 is the least recently used, until used
    ov.verify_operator_theorem(a, ov.rb(3))
    assert _memo() == (size + 2, 1, size)
    ov.verify_operator_theorem(a, ov.rb(size + 3))
    ov.verify_operator_theorem(a, ov.rb(3))
    assert _memo() == (size + 3, 2, size)
    ov.verify_operator_theorem(a, ov.rb(4))
    assert _memo() == (size + 4, 2, size)


# the runs of criterion 6, the two dendriform splittings of the lemmas, and
# bases whose generators are relabelled: a 3-cycle and a non-monomial map
_DIFFERENTIAL_RUNS = (
    [
        pytest.param(
            lambda n=name, ls=laws: _verifier(n, [_LAWS[law]() for law in ls]),
            [_LAWS[law]() for law in laws],
            None,
            id="+".join((name,) + laws),
        )
        for name, laws in [(name, (law,)) for name, law in _CRITERION_6_SINGLES]
        + _CRITERION_6_FAMILIES
    ]
    + [
        pytest.param(
            lambda n=name: _splitting(n),
            [ov.rb(None)],
            [_splitting_table()],
            id=f"splitting on {name}",
        )
        for name in ("associative", "trialgebra")
    ]
    + [
        pytest.param(
            lambda: ov._make_verifier(
                relabel(catalog.get("trialgebra"), {"lt": "gt", "gt": "cir", "cir": "lt"}),
                [ov.nijenhuis()],
                ov.DEFAULT_STEP_BUDGET,
            ),
            [ov.nijenhuis()],
            None,
            id="trialgebra 3-cycle+nijenhuis",
        ),
        pytest.param(
            lambda: ov._make_verifier(
                relabel(catalog.get("dendriform"), [[1, 1], [0, 1]]),
                [ov.rb(None), ov.rb(None)],
                ov.DEFAULT_STEP_BUDGET,
            ),
            [ov.rb(None), ov.rb(None)],
            None,
            id="dendriform sheared+rb+rb",
        ),
    ]
)


@pytest.mark.parametrize("make, laws, tables", _DIFFERENTIAL_RUNS)
def test_generator_blind_rewriting_matches_the_reference_definitions(
    cold_solves, normalizers, make, laws, tables
):
    # the verifier normalizes each substituted factor relation and each
    # instance pattern once, with base generators 0, and then places the
    # base generators; the reference substitutes the whole product relation
    # and every instance, and normalizes them term by term
    v = make()
    (solver,) = normalizers
    solve = v.solve
    report = v.run("base", "law")
    assert report.all_verified
    reference = _Reference(laws, tables)
    # q_s of instances no certificate uses, made again by a normalizer of
    # the test's own
    patterns = ov.Normalizer(tuple(laws), tuple(range(len(laws))))
    for index, rel in enumerate(_product(v).relations):
        residual = reference.residual(rel)
        b, f = divmod(index, len(solve.factor_relations))
        assert v._placed(b, solve.patterns[f]) == residual, index
        if not residual:
            continue
        triples, contexts = _geometry(residual)
        for r_idx in range(len(v.base.relations)):
            for triple in triples:
                for ctx in contexts:
                    want = reference.instance(v.base, (r_idx, triple, ctx))
                    q = solve.instances.get((triple, ctx))
                    if q is None:
                        q = ov._instance_pattern(patterns, triple, ctx)
                    assert v._placed(r_idx, q) == want
    # the record's steps are its normalizer's, and no more rewriting than
    # the reference needed for the same residuals and instances
    assert solver.steps == solve.steps <= reference.normalizer.steps


def test_the_step_budget_is_exact(capsys, cold_solves):
    # the steps a run uses are enough, and one fewer is not, whether the
    # memo solves the law afresh or has it from a run on another base
    t = catalog.get("trialgebra")

    def memo(warm):
        ov._law_solve.cache_clear()
        if warm:
            ov.verify_operator_theorem(catalog.get("dendriform"), ov.nijenhuis("M"))

    for warm in (False, True):
        memo(warm)
        v = ov._make_verifier(t, [ov.nijenhuis()], B)
        assert v.run(t.name, "law").all_verified
        steps = v.solve.steps
        assert steps > 0
        argv = ["verify-operator", "trialgebra", "--law", "nijenhuis", "--steps"]
        memo(warm)
        assert main(argv + [str(steps)]) == 0
        memo(warm)
        assert main(argv + [str(steps - 1)]) == 3
        assert capsys.readouterr().err == "error: rewrite budget exhausted\n"
        memo(warm)
        assert ov.verify_operator_theorem(t, ov.nijenhuis(), budget=steps).all_verified
        memo(warm)
        with pytest.raises(ov.RewriteBudget):
            ov.verify_operator_theorem(t, ov.nijenhuis(), budget=steps - 1)


def test_a_rewrite_never_lengthens_a_word_beyond_two_symbols_per_law(normalizers):
    # every derived operation carries at most one symbol, so the two a
    # substitution starts with per law bound every word of every normal
    # form; the formal-weight family of three reaches the bound
    for law, _ in _HAND_WRITTEN_RULES:
        assert all(on_x + on_y + around <= 1 for *_, on_x, on_y, around in law.operations())
    runs = [(name, (law,)) for name, law in _CRITERION_6_SINGLES] + _CRITERION_6_FAMILIES
    longest = {}
    for name, laws in runs + [("associative", ("rb", "rb", "rb"))]:
        named = _named([_LAWS[law]() for law in laws])
        v = ov._Verifier(catalog.get(name), named, ov._solve(named, *_tables(named)))
        assert v.run(name, "law").all_verified
        longest[name, laws] = max(
            len(word)
            for result in normalizers[-1]._memo.values()
            for term in result
            for word in term[3:]
        )
        assert longest[name, laws] <= 2 * len(laws), (name, laws)
    assert longest["associative", ("rb", "rb", "rb")] == 6


def test_one_echelon_per_geometry_and_one_alive_at_a_time(monkeypatch, cold_solves):
    built = []
    live = weakref.WeakSet()
    real = ov._echelon
    geometries = []
    real_geometry = ov._candidate_geometry

    def counting(normalizer, triples, contexts, known):
        assert len(live) == 0, "an earlier echelon is still alive"
        ech = real(normalizer, triples, contexts, known)
        # pattern keys, (shape,) + five words: no base generators
        assert all(len(key) == 6 for vec, _ in ech.pivots.values() for key in vec)
        built.append((tuple(triples), tuple(contexts)))
        live.add(ech)
        return ech

    def counting_geometry(pattern):
        geometries.append(pattern)
        return real_geometry(pattern)

    monkeypatch.setattr(ov, "_echelon", counting)
    monkeypatch.setattr(ov, "_candidate_geometry", counting_geometry)
    report = ov.verify_commuting_family(catalog.get("trialgebra"), [ov.rb(None), ov.rb(None)])
    assert report.all_verified and len(report.verdicts) == 343
    assert len(built) == len(set(built)) == 49
    # one geometry per nonzero factor relation, not one per product relation
    assert len(geometries) == 49


def test_a_wrong_certificate_is_reported_failed(monkeypatch, cold_solves):
    real = ov._Echelon.solve

    def off_by_one(self, target):
        solved = real(self, target)
        if solved:
            tag = next(iter(solved))
            solved[tag] = solved[tag] + 1
        return solved

    monkeypatch.setattr(ov._Echelon, "solve", off_by_one)
    a = catalog.get("associative")
    report = ov.verify_operator_theorem(a, ov.rb(None))
    assert not report.all_verified
    for verdict in report.verdicts:
        assert verdict.verified == verdict.residual_zero
        assert not verdict.certificate
        assert verdict.residual_zero or verdict.residual


def test_a_wrong_derived_table_fails_visibly():
    # rb on associative with gt sent to x P(y) instead of P(x) y: five of
    # the seven relations of associative sq trialgebra no longer follow
    a, tri = catalog.get("associative"), catalog.get("trialgebra")
    law = ov.rb(None)
    table = ov.derived_table(law, tri, P)
    table[tri.generators.index("gt")] = [(1, (), (P,), ())]
    v = ov._Verifier(a, (law,), ov._solve((law,), [tri], [table]))
    report = v.run(a.name, "rb with a wrong gt")
    failed = [verdict.index for verdict in report.verdicts if not verdict.verified]
    assert failed == [0, 1, 2, 3, 4]
    for verdict in report.verdicts:
        if verdict.verified:
            assert verdict.certificate
        else:
            assert verdict.residual and not verdict.certificate
    # every residual coefficient is printed as a rational function, as
    # certificates are, even where the verifier computed a plain int
    assert report.verdicts[0].residual == (
        "(1)/(1) * (x dot P(y)) dot P(z)",
        "(-l)/(1) * x dot P((y dot z))",
        "(-2)/(1) * x dot P((y dot P(z)))",
    )
    text = report.describe()
    assert text.startswith("associative with rb with a wrong gt: 2/7 relations")
    assert [line for line in text.splitlines() if "FAILED" in line] == [
        f"  relation {k}: FAILED" for k in failed
    ]


def test_a_table_without_a_homogeneous_lift_is_refused():
    # an entry with two symbols of a formal-weight law would stand for
    # l^-1 times itself; a formal-weight symbol in another law's table for
    # an entry of the wrong degree
    a, tri = catalog.get("associative"), catalog.get("trialgebra")
    law = ov.rb(None)
    table = ov.derived_table(law, tri, P)
    table[tri.generators.index("gt")] = [(1, (P, P), (), ())]
    with pytest.raises(ExactAlgebraError, match="not homogeneous"):
        ov._solve((law,), [tri], [table])
    laws = (ov.rb(None), ov.rb(0))
    dend = catalog.get("dendriform")
    tables = [ov.derived_table(laws[0], tri, 0), ov.derived_table(laws[1], dend, 1)]
    tables[1][dend.generators.index("lt")] = [(1, (), (0, 1), ())]
    with pytest.raises(ExactAlgebraError, match="not homogeneous"):
        ov._solve(laws, [tri, dend], tables)
    # a rational weight carries no grading: two symbols are fine
    law = ov.rb(1)
    table = ov.derived_table(law, tri, P)
    table[tri.generators.index("gt")] = [(1, (P, P), (), ())]
    v = ov._Verifier(a, (law,), ov._solve((law,), [tri], [table]))
    assert not v.run("a", "x").all_verified


@pytest.mark.parametrize(
    "c, power, text",
    [
        (1, 0, "(1)/(1)"),
        (-1, 0, "(-1)/(1)"),
        (F(1, 2), 0, "(1/2)/(1)"),
        (1, 1, "(l)/(1)"),
        (-1, 1, "(-l)/(1)"),
        (-2, 3, "(-2*l^3)/(1)"),
        (F(-1, 4), 2, "(-1/4*l^2)/(1)"),
        (2, -1, "(2)/(l)"),
        (F(-3, 2), -2, "(-3/2)/(l^2)"),
    ],
)
def test_weight_monomial_format(c, power, text):
    assert ov.format_weight_monomial(c, power) == text


# -- the grading, checked without trusting it ------------------------------------

# the formal-weight runs of criterion 6 and three larger families
_FORMAL_RUNS = [
    (name, ("rb",)) for name in ("associative", "dendriform", "trialgebra", "ns", "dipterous")
] + [
    ("associative", ("rb", "rb")),
    ("trialgebra", ("rb", "rb")),
    ("associative", ("rb", "rb", "rb")),
    ("ns", ("rb", "nijenhuis")),
]
# distinct nonzero weights, at least D + 1 = 7 for three formal weights
_WEIGHTS = (F(2), F(-1), F(1, 2), F(3), F(-2, 3), F(5), F(1, 3))


def _holds_at(name, laws, verdicts, weight):
    """Whether every certificate, its coefficients c * l^k evaluated at
    ``weight``, sums the instances normalized at that weight to the residual
    a verifier built with rb(weight) computes."""
    at_weight = [ov.rb(weight) if law.formal else law for law in laws]
    t = catalog.get(name)
    reference = _Reference(at_weight)
    relations = reduce(square, _tables(at_weight)[0], t).relations
    for verdict in verdicts:
        residual = reference.residual(relations[verdict.index])
        rebuilt = {}
        for tag, c, k in verdict.certificate:
            for term, x in reference.instance(t, tag).items():
                ov._accumulate(rebuilt, term, c * weight**k * x)
        if rebuilt != residual:
            return False
    return True


@pytest.mark.parametrize(
    "name, laws", _FORMAL_RUNS, ids=lambda x: "+".join(x) if isinstance(x, tuple) else x
)
def test_certificates_hold_at_enough_weights(name, laws):
    # for every term, both sides are polynomials of degree <= D in the
    # weight, so agreeing at D + 1 points is an identity over Q(l)
    laws = [_LAWS[law]() for law in laws]
    v = _verifier(name, laws)
    report = v.run(name, "law")
    assert report.all_verified
    degree = v.solve.grading.degree
    assert degree == 2 * laws.count(ov.rb(None))
    assert all(0 <= k <= degree for verdict in report.verdicts for *_, k in verdict.certificate)
    for weight in _WEIGHTS[: degree + 1]:
        assert _holds_at(name, laws, report.verdicts, weight), weight


def test_a_context_word_counts_toward_the_power(monkeypatch):
    # no catalog run certifies through an instance in a formal-weight
    # context, so certify P((P(x) y) z - P(x) (y z)) directly, as the
    # pattern every factor relation substitutes to, placed at base relation
    # 0: its two symbols make degree D = 2, so its coefficient carries no l
    tag = (0, ((P,), (), ()), (P,))
    (wu, wv, ww), ctx = tag[1:]
    instance = {(0, 0, 0, wu, wv, ww, (), ctx): 1, (1, 0, 0, wu, wv, ww, (), ctx): -1}
    monkeypatch.setattr(ov, "substitute", lambda rel, table: instance)
    law = ov.rb(None)
    solve = ov._solve((law,), *_tables([law]))
    verdict = ov._Verifier(catalog.get("associative"), [law], solve)._certify(0)
    assert verdict.certificate == ((tag, 1, 0),)


def test_a_power_off_by_one_fails_at_some_weight():
    laws = [ov.rb(None)]
    report = _verifier("associative", laws).run("associative", "law")
    verdict = next(verdict for verdict in report.verdicts if verdict.certificate)
    (tag, c, k), *rest = verdict.certificate
    wrong = ov.RelationVerdict(
        verdict.index, verdict.relation, True, certificate=((tag, c, k + 1), *rest)
    )
    assert not all(_holds_at("associative", laws, [wrong], w) for w in _WEIGHTS[:3])


def test_golden_certificate_export(capsys):
    golden = Path(__file__).parent / "golden" / "certificates" / "ns_nijenhuis.json"
    assert main(["verify-operator", "ns", "--law", "nijenhuis", "--json"]) == 0
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize(
    "argv, name",
    [
        # coefficients 1, l and l^2
        (["verify-operator", "associative", "--law", "rb"], "associative_rb.json"),
        # coefficients 1, 1/2 and 1/4
        (
            ["verify-operator", "dendriform", "--law", "rb", "--weight", "1/2"],
            "dendriform_rb_half.json",
        ),
    ],
)
def test_golden_certificate_export_with_weights(capsys, argv, name):
    golden = Path(__file__).parent / "golden" / "certificates" / name
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def _golden_digests():
    """(SHA-256 of the standard output, command line) pairs, one per line."""
    text = (Path(__file__).parent / "golden" / "certificates" / "SHA256SUMS").read_text()
    pairs = (line.split("  ", 1) for line in text.splitlines())
    return [pytest.param(digest, command, id=command) for digest, command in pairs]


@pytest.mark.parametrize("digest, command", _golden_digests())
def test_verifier_output_matches_its_golden_digest(capsys, digest, command):
    # the full outputs (the family alone is 193 KB) are kept as digests
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# -- scaled base relations: the non-unit pivots and the Fraction paths ---------


def _scaled(t, factor):
    """``t`` with every relation multiplied by ``factor``: the same span."""
    relations = [
        RelationElement(rel.size, {k: c * factor for k, c in rel.coeffs.items()})
        for rel in t.relations
    ]
    return TypePresentation(t.generators, t.star, relations, aux=t.aux)


def _assert_exact(value):
    """An int or a Fraction."""
    assert type(value) in (int, Fraction), value


@pytest.mark.parametrize("factor", [F(2), F(-1, 3)], ids=["2", "-1/3"])
@pytest.mark.parametrize("name", ["dendriform", "trialgebra", "ns"])
def test_scaled_base_relations_scale_certificates_inversely(
    monkeypatch, cold_solves, name, factor
):
    # scaling every base relation scales every residual and every relation
    # instance by the same factor, and the pattern solve sees neither: every
    # certificate stays the same
    t = catalog.get(name)
    laws = (ov.rb(None), ov.rb("1/2"), ov.nijenhuis())
    references = [ov.verify_operator_theorem(t, law) for law in laws]
    for law, reference in zip(laws, references):
        v = ov._make_verifier(_scaled(t, factor), [law], B)
        report = v.run(t.name, law.describe())
        assert reference.all_verified and report.all_verified
        assert [(got.residual_zero, got.certificate) for got in report.verdicts] == [
            (want.residual_zero, want.certificate) for want in reference.verdicts
        ]
        for index in range(len(report.verdicts)):
            b, f = divmod(index, len(v.solve.factor_relations))
            for value in v._placed(b, v.solve.patterns[f]).values():
                _assert_exact(value)
    # scaling the inserted instance patterns instead moves the pivot heads
    # away from +-1, and every certificate coefficient scales by the inverse
    built = []
    make_echelon, make_pattern = ov._echelon, ov._instance_pattern

    def keep_echelon(*args):
        built.append(make_echelon(*args))
        return built[-1]

    def scaled_pattern(*args):
        return {key: canonical(c * factor) for key, c in make_pattern(*args).items()}

    monkeypatch.setattr(ov, "_echelon", keep_echelon)
    monkeypatch.setattr(ov, "_instance_pattern", scaled_pattern)
    # the references warmed the memo; these runs must solve again
    ov._law_solve.cache_clear()
    for law, reference in zip(laws, references):
        report = ov.verify_operator_theorem(t, law)
        assert report.all_verified
        assert len(report.verdicts) == len(reference.verdicts)
        for got, want in zip(report.verdicts, reference.verdicts):
            assert got.residual_zero == want.residual_zero
            assert [(tag, k) for tag, _, k in got.certificate] == [
                (tag, k) for tag, _, k in want.certificate
            ]
            for (_, c_got, _), (_, c_want, _) in zip(got.certificate, want.certificate):
                _assert_exact(c_got)
                assert c_got * factor == c_want
    assert built
    for ech in built:
        # every head was divided out, and the certificates show by how much
        assert all(vec[lead] == 1 for lead, (vec, _) in ech.pivots.items())
        assert any(
            abs(c) == abs(1 / factor) for _, cert in ech.pivots.values() for c in cert.values()
        )
        for vec, cert in ech.pivots.values():
            for value in list(vec.values()) + list(cert.values()):
                _assert_exact(value)
