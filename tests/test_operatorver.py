"""Symbolic operator verification: rewriting, certificates, lemmas."""

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path

import pytest

import splitops.operatorver as ov
from splitops import catalog
from splitops.cli import main
from splitops.exactalg import Echelon, ExactAlgebraError, ScalarKindMismatch, Subspace, canonical
from splitops.products import square
from splitops.typecore import (
    GeneratorSpace,
    RelationElement,
    TypePresentation,
    format_relation,
    relabel,
    require_valid,
    star_associativity,
    validate,
)

F = Fraction
P = 0  # the only operator symbol in single-law tests


def nf(comb, law):
    return ov.Normalizer(law).normalize(comb)


class _Rewriter(ov.Normalizer):
    """A normalizer of several laws, law k written as symbol k, for the
    commuting lemma and the oracles' composite solve: a redex is a product
    whose two operands carry one law's symbol, the first law's first, found
    at the inner product first, as the verifier's, or at the outer one."""

    def __init__(self, laws, outermost=False):
        super().__init__(laws[0])
        self.rules = tuple(map(ov.rewrite_rule, laws))
        self.positions = ("outer", "inner") if outermost else ("inner", "outer")

    def _find_redex(self, term):
        for position in ("single",) if term[0] == 2 else self.positions:
            wa, wb = ov._operands(term, position)
            for symbol, rule in enumerate(self.rules):
                if symbol in wa and symbol in wb:
                    return rule, symbol, position
        return None


class _Echelon:
    """The incremental reduced echelon over the term space, with
    certificates, that law solves used before they eliminated through
    exactalg.Echelon; the oracles keep it.  A certificate lists its tags
    in the order the reduction met them."""

    def __init__(self):
        self.pivots: dict = {}  # pivot term -> (vector, combination)

    def reduce(self, vec: dict, cert: dict):
        vec = dict(vec)
        cert = dict(cert)
        while vec:
            lead = max(vec)
            hit = self.pivots.get(lead)
            if hit is None:
                return vec, cert, lead
            pvec, pcert = hit
            f = -vec[lead]
            for t, c in pvec.items():
                ov._accumulate(vec, t, f * c)
            for k, c in pcert.items():
                ov._accumulate(cert, k, f * c)
        return vec, cert, None

    def insert(self, vec: dict, tag) -> None:
        vec, cert, lead = self.reduce(vec, {tag: 1})
        if lead is None:
            return
        head = vec[lead]
        if head == -1:
            vec = {t: -c for t, c in vec.items()}
            cert = {k: -c for k, c in cert.items()}
        elif head != 1:
            # exact for every kind of head: Fraction(1) / 3 is 1/3, where
            # 1 / 3 would be a float
            inv = Fraction(1) / head
            vec = {t: c * inv for t, c in vec.items()}
            cert = {k: c * inv for k, c in cert.items()}
        self.pivots[lead] = (vec, cert)

    def solve(self, target: dict):
        """Express target in the inserted vectors; None if impossible."""
        vec, cert, lead = self.reduce(target, {})
        if lead is not None:
            return None
        return {k: -c for k, c in cert.items()}


def powers(comb, law):
    """The power of the formal weight that goes with each term's coefficient."""
    return {term: ov._power(law.formal, term[3:]) for term in comb}


def term2(wx, wy, wout=()):
    return (2, -1, 0, tuple(wx), tuple(wy), (), (), tuple(wout))


def _factors(laws):
    return [catalog.get(ov.predicted_factor_name(law)) for law in laws]


def _product(t, laws):
    """The product presentation the verifier names and never builds: square
    folded over the base and the law factors, as the reference."""
    return reduce(square, _factors(laws), t)


def _symbol_table(law, factor, symbol):
    """The derived table of ``law`` with its operator written ``symbol``."""
    return {
        g: [(c, *(tuple(symbol for _ in word) for word in words)) for c, *words in entries]
        for g, entries in ov.derived_table(law, factor).items()
    }


def _tables(laws):
    """The predicted factors of ``laws`` and their derived tables, law k
    written with symbol k."""
    factors = _factors(laws)
    return factors, [_symbol_table(law, f, k) for k, (law, f) in enumerate(zip(laws, factors))]


def _report(t, laws):
    """The report of ``laws`` on ``t``: one law's, or a family's."""
    if len(laws) == 1:
        return ov.verify_operator_theorem(t, laws[0])
    return ov.verify_commuting_family(t, laws)


def _levels(report):
    """The reports of a family, first law first: each prefix, then the family."""
    levels = []
    while report is not None:
        levels.append(report)
        report = report.prefix
    return levels[::-1]


def _bases(t, laws):
    """The base of each level, built and validated with products.square."""
    bases = [t]
    for factor in _factors(laws)[:-1]:
        bases.append(square(bases[-1], factor))
    return bases


class _Reference:
    """The definitions a verifier is tested against, with a normalizer of
    its own: a product relation substituted whole and a relation instance
    on the base, each normalized term by term.  It shares nothing with the
    solve memo."""

    def __init__(self, laws, tables=None):
        laws = tuple(laws)
        self.normalizer = _Rewriter(laws)
        self.table = _composite_table(tables or _tables(laws)[1])

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
    """Every normalizer made during one test, the oracles' included, in the
    order made."""
    made = []
    real_init = ov.Normalizer.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ov.Normalizer, "__init__", init)
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
    rel = _product(a, [ov.rb(None)]).relations[2]
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
    verdict = ov.verify_operator_theorem(a, ov.rb(None)).verdicts[2]
    assert verdict.verified
    tags = [tag for tag, *_ in verdict.certificate]
    assert (0, ((P,), (P,), ()), ()) in tags


def test_verifier_substitutions_are_strategy_independent():
    law = ov.rb(None)
    reference = _Reference([law])
    outer = _Rewriter([law], outermost=True)
    for rel in _product(catalog.get("trialgebra"), [law]).relations[::7]:
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
            inner = ov.Normalizer(law).normalize(comb)
            outer = _Rewriter([law], outermost=True).normalize(comb)
            assert inner == outer


def test_normal_forms_have_no_redex():
    law = ov.rb(None)
    comb = {(0, 0, 0, (P, P), (P,), (P,), (), ()): 1}
    normalizer = ov.Normalizer(law)
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
    normalizer = ov.Normalizer(law)
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
    reference = _Reference([law])
    report = ov.verify_operator_theorem(t, law)
    product = _product(t, [law])
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


def test_family_size_guard():
    with pytest.raises(Exception, match="limited"):
        ov.verify_commuting_family(catalog.get("associative"), [ov.rb(0)] * 4)


def test_mixed_family_verifies_and_is_not_experimental():
    # the commuting lemma covers families of mixed kinds: no line marks
    # them, and no level of the JSON has an experimental key; the schema
    # version heads the top level alone
    report = ov.verify_commuting_family(
        catalog.get("associative"), [ov.rb(0), ov.nijenhuis()]
    )
    assert report.all_verified
    assert report.describe() == (
        "associative with [rb(weight=0, P1) , nijenhuis(N2)]: "
        "12/12 relations of ((associative sq dendriform) sq ns) verified"
    )
    data = json.loads(report.to_json())
    assert list(data)[0] == "schema" and data["schema"] == 2
    for level in _levels_json(data):
        assert "experimental" not in level
    assert "schema" not in data["prefix"]


def _levels_json(data):
    """The JSON object of a report and those of its prefixes."""
    levels = []
    while data is not None:
        levels.append(data)
        data = data.get("prefix")
    return levels


def test_operator_lemmas():
    reports = ov.verify_operator_lemmas()
    assert len(reports) == 4
    assert all(r.ok for r in reports)
    names = [r.name for r in reports]
    assert any("Rota-Baxter" in n for n in names)
    assert any("Nijenhuis" in n for n in names)


def test_a_second_lemma_call_reads_the_memo(cold_solves):
    reports = ov.verify_operator_lemmas()
    # one solve of the splitting, read again on the second base
    assert _memo() == (1, 1, 1)
    assert ov.verify_operator_lemmas() == reports
    assert _memo() == (1, 3, 1)
    # the splitting solves its law afresh on its first base, or reads the
    # solve another run left, and verifies the same either way
    key = ("rb_dendriform", None)
    for warm in (False, True):
        ov._law_solve.cache_clear()
        if warm:
            ov._law_solve(*key)
        assert all(r.ok for r in ov.verify_operator_lemmas())
        assert _memo() == (1, 1 + int(warm), 1)


def test_a_failing_lemma_prints_its_residual(monkeypatch):
    # with P of weight 2, -1*id - P (the formal weight written 1) is not
    # Rota-Baxter of weight 2; the residual keeps the rational-function format
    monkeypatch.setattr(ov, "rb", lambda weight=None, name="P": ov.OperatorLaw("rb", F(2), name))
    report = ov.verify_operator_lemmas()[0]
    assert not report.ok
    assert report.describe() == (
        "modified Rota-Baxter operator (-weight*id - P): FAILED residual (1)/(1) * P(x o y)"
    )
    # and with N one-sided, id - N is not Nijenhuis: plain int residuals
    monkeypatch.setattr(ov, "nijenhuis", lambda name="N": ov.OperatorLaw("left_rb", name=name))
    assert ov.verify_operator_lemmas()[1].describe() == (
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
        coeffs += [c for entries in ov.derived_table(law, factor).values() for c, *_ in entries]
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
    assert ov.law_from_name("rb:0") == ov.rb(0)
    assert ov.law_from_name("leftrb").kind == "left_rb"
    with pytest.raises(ValueError):
        ov.law_from_name("averaging")
    with pytest.raises(ValueError):
        ov.OperatorLaw("nijenhuis", F(1))
    assert ov.law_from_name("rb:-1/2").weight == F(-1, 2)
    assert ov.law_from_name("rb:formal").weight is None
    # both parts are read with their spaces stripped
    assert ov.law_from_name(" rb : 3 ") == ov.rb(3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("rb:1/0", "zero denominator"),
        ("rb:abc", "expected a rational p or p/q"),
        # an empty weight is not the formal weight
        ("rb:", "found ''"),
        ("rb0", "unknown law 'rb0'"),
        ("nijenhuis:2", "law 'nijenhuis' takes no weight"),
        ("nijenhuis:", "takes no weight"),
        ("leftrb:formal", "takes no weight"),
        ("averaging:1", "unknown law 'averaging'"),
    ],
)
def test_law_from_name_refuses_bad_weights(text, message):
    with pytest.raises(ValueError, match=message):
        ov.law_from_name(text)


def test_an_rb_weight_is_a_canonical_scalar():
    assert [type(ov.rb(w).weight) for w in ("4/2", Fraction(3, 1), True, "1/2")] == [
        int, int, int, Fraction,
    ]
    with pytest.raises(ScalarKindMismatch):
        ov.rb(0.1)


# -- the candidate-geometry search, the oracles' own ------------------------------
#
# A law solve used to search the instances a pattern can come from, its
# candidate geometry, with one echelon per geometry; the composite solve
# below needed it for words of several symbols.  The oracles keep that
# search as it was, with the echelon of the time, _Echelon above, so they
# do not run the one exactalg.Echelon of 15 rows that a law solve now
# builds.


def _splits2(word: tuple):
    """All ways to split a sorted word into two sorted sub-multisets."""
    if not word:
        return [((), ())]
    head, rest = word[0], word[1:]
    out = []
    for a, b in _splits2(rest):
        out.append((ov._merge((head,), a), b))
        out.append((a, ov._merge((head,), b)))
    # duplicates arise for repeated symbols; keep each split once
    return list(dict.fromkeys(out))


def _candidate_geometry(pattern):
    """Leaf-word triples and context words that can certify a pattern.

    Rewriting only ever moves operator symbols from the two operands of a
    product into that product's wrap word, so the arguments of the
    relation instances a pattern can come from are recovered by
    redistributing each key's wrap words back onto the operands, in every
    multiset split.  Whatever part of the outermost wrap is not pushed
    down stays as the instance's context.  A key is (shape, wx, wy, wz,
    win, wout) with three leaves, as ``ov._pattern`` makes it.
    """
    triples = set()
    contexts = {()}
    for shape, wx, wy, wz, win, wout in pattern:
        for ctx, moved in _splits2(wout):
            contexts.add(ctx)
            for to_sub, to_leaf in _splits2(moved):
                if shape == 0:
                    pool = ov._merge(win, to_sub)
                    z2 = ov._merge(wz, to_leaf)
                    for ax, ay in _splits2(pool):
                        triples.add((ov._merge(wx, ax), ov._merge(wy, ay), z2))
                else:  # shape 1
                    pool = ov._merge(win, to_sub)
                    x2 = ov._merge(wx, to_leaf)
                    for ay, az in _splits2(pool):
                        triples.add((x2, ov._merge(wy, ay), ov._merge(wz, az)))
    return tuple(sorted(triples)), tuple(sorted(contexts))


def _echelon(normalizer, triples, contexts, known: dict):
    """Membership echelon of the instance patterns of one geometry, tagged
    (triple, context); ``known`` keeps each q_s made, across geometries."""
    ech = _Echelon()
    for triple in triples:
        for ctx in contexts:
            tag = (triple, ctx)
            pattern = known.get(tag)
            if pattern is None:
                pattern = known[tag] = ov._instance_pattern(normalizer, triple, ctx)
            if pattern:
                ech.insert(pattern, tag)
    return ech


def _geometry(residual):
    """The candidate geometry of a residual, read from its shapes and words."""
    return _candidate_geometry({(t[0],) + t[3:] for t in residual})


def _oracle_verdicts(t, laws):
    """The per-relation, per-base rebuild: every product relation of
    ``laws`` on ``t`` is substituted and normalized whole and solved against
    a fresh echelon of the instances of every base relation.

    This is the verifier before it solved each factor relation once as a
    pattern and placed the certificate at every base relation, kept as the
    reference for one law and for the composite solve below.  It shares
    nothing with the solve memo.  Certificate entries go in tag order, as
    the verifier's do.
    """
    factors, tables = _tables(laws)
    reference, grading = _Reference(laws, tables), _CompositeGrading.of(laws)
    verdicts = []
    product = reduce(square, factors, t)
    for index, rel in enumerate(product.relations):
        label = format_relation(rel, product.generators.labels)
        residual = reference.residual(rel)
        if not residual:
            verdicts.append(ov.RelationVerdict(index, label, True, residual_zero=True))
            continue
        triples, contexts = _geometry(residual)
        ech = _Echelon()
        for r_idx in range(len(t.relations)):
            for triple in triples:
                for ctx in contexts:
                    inst = reference.instance(t, (r_idx, triple, ctx))
                    if inst:
                        ech.insert(inst, (r_idx, triple, ctx))
        solved = ech.solve(residual)
        assert solved is not None, index  # these runs certify at the first depth
        certificate = tuple(
            (tag, c, grading.power(tag[1] + (tag[2],))) for tag, c in sorted(solved.items())
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


# -- the composite solve, the oracle of the stage loop ---------------------------
#
# A family of k laws used to be one solve in k operator symbols over the
# composite factor, the square of the law factors: one normalizer with every
# law's rule, one table with every law's words merged, and a grading of
# degree 2 per formal-weight law.  It is kept here as it was, as the oracle
# the stage loop is compared with, but for its certificate entries, which
# go in tag order as the verifier's do.


def _composite_table(tables) -> tuple:
    """The derived table of the composite factor, from its factors': for
    each of its generators, in square's order, the entries of its factor
    generators multiplied, their words merged as multisets."""
    composite: tuple = (((1, (), (), ()),),)
    for table in tables:
        composite = tuple(
            tuple(
                (c1 * c2, ov._merge(wl1, wl2), ov._merge(wr1, wr2), ov._merge(wp1, wp2))
                for c1, wl1, wr1, wp1 in entries
                for c2, wl2, wr2, wp2 in table[g]
            )
            for entries in composite
            for g in range(len(table))
        )
    return composite


@dataclass(frozen=True)
class _CompositeGrading:
    """Words with d formal-weight symbols go with l^(degree - d)."""

    formal: tuple  # the symbols of the formal-weight laws

    @classmethod
    def of(cls, laws):
        return cls(tuple(s for s, law in enumerate(laws) if law.formal))

    @property
    def degree(self) -> int:
        return 2 * len(self.formal)

    def symbols_in(self, words) -> int:
        return sum(word.count(s) for word in words for s in self.formal)

    def power(self, words) -> int:
        return self.degree - self.symbols_in(words)

    def show(self, residual, labels, names):
        return tuple(
            f"{ov.format_weight_monomial(c, self.power(t[3:]))} * {ov.term_str(t, labels, names)}"
            for t, c in sorted(residual.items())
        )

    def check_table(self, table, symbol) -> None:
        allowed = symbol in self.formal
        if any(self.symbols_in(words) > allowed for e in table.values() for _c, *words in e):
            raise ExactAlgebraError("derived table is not homogeneous in the formal weight")


@dataclass(frozen=True)
class _CompositeSolve:
    factors: tuple
    factor_relations: tuple
    grading: _CompositeGrading
    patterns: tuple
    certificates: tuple
    instances: dict
    steps: int


def _composite_solve(laws, factors, tables) -> _CompositeSolve:
    grading = _CompositeGrading.of(laws)
    for symbol, table in enumerate(tables):
        grading.check_table(table, symbol)
    normalizer = _Rewriter(laws)
    table = _composite_table(tables)
    factor_relations = reduce(square, factors).relations
    patterns = tuple(
        ov._pattern(normalizer, ov.substitute(rel, table)) for rel in factor_relations
    )
    groups: dict = {}
    for f, pattern in enumerate(patterns):
        if pattern:
            groups.setdefault(_candidate_geometry(pattern), []).append(f)
    certificates: list = [None] * len(patterns)
    known: dict = {}
    for (triples, contexts), group in groups.items():
        echelon = _echelon(normalizer, triples, contexts, known)
        for f in group:
            solved = echelon.solve(patterns[f])
            if solved is not None:
                certificates[f] = tuple(
                    (tag, c, grading.power(tag[0] + (tag[1],)))
                    for tag, c in sorted(solved.items())
                )
        del echelon
    # kept by block, for placing as the stage loop places
    used = {tag: ov._by_block(known[tag]) for cert in certificates if cert for tag, _c, _k in cert}
    return _CompositeSolve(
        tuple(factors), factor_relations, grading, tuple(map(ov._by_block, patterns)),
        tuple(certificates), used, normalizer.steps,
    )


@lru_cache(maxsize=None)
def _composite_law_solve(key) -> _CompositeSolve:
    laws = [ov.OperatorLaw(kind, weight) for kind, weight in key]
    return _composite_solve(laws, *_tables(laws))


def _rebuild(nonzeros, instances: dict, certificate: tuple) -> dict:
    """Sum of coefficient times placed instance, its q_s read from the
    record and not the echelon, so a certificate is checked independently;
    ``nonzeros`` maps each base relation a certificate cites to its
    nonzeros."""
    out: dict = {}
    for (b, triple, ctx), coeff, _k in certificate:
        for term, c in ov._placed(nonzeros[b], instances[triple, ctx]).items():
            ov._accumulate(out, term, coeff * c)
    return out


def _per_base_verdict(solve, b, nonzeros, f, index, label, show):
    """The verdict of box(r_b, r_f) by the per-base re-check: n_f and its
    certificate placed at r_b, whose nonzeros are ``nonzeros``, and the
    certificate summed again there by :func:`_rebuild`.  It reads the
    patterns, the certificates and the instances of ``solve``, a law solve
    or a composite one, and nothing else: not the blocks a law solve
    records its certificates to hold on."""
    residual = ov._placed(nonzeros, solve.patterns[f])
    if not residual:
        return ov.RelationVerdict(index, label, True, residual_zero=True)
    if solve.certificates[f] is not None:
        placed = tuple(((b,) + tag, c, k) for tag, c, k in solve.certificates[f])
        if _rebuild({b: nonzeros}, solve.instances, placed) == residual:
            return ov.RelationVerdict(index, label, True, certificate=placed)
    return ov.RelationVerdict(index, label, False, residual=show(residual))


def _composite_verdicts(t, laws, solve):
    """Every product relation box(r_b, r_f), r_f a relation of the composite
    factor: n_f and its certificate placed at r_b, and re-checked there."""
    names = [law.name for law in laws]
    labels = reduce(
        ov.square_generators, [f.generators for f in (t, *solve.factors)]
    ).labels

    def show(residual):
        return solve.grading.show(residual, t.generators.labels, names)

    verdicts = []
    for index in range(len(t.relations) * len(solve.factor_relations)):
        b, f = divmod(index, len(solve.factor_relations))
        label = ((t.relations[b], solve.factor_relations[f]), labels)
        nonzeros = ov._nonzeros(t.relations[b])
        verdicts.append(_per_base_verdict(solve, b, nonzeros, f, index, label, show))
    return tuple(verdicts)


def _per_base_report(t, laws):
    """The report of ``laws`` on ``t`` with every verdict given by the
    per-base re-check instead of the block check: the stage loop, the
    Kronecker nonzeros and the law solves are the verifier's."""

    def certify(solve, b, nonzeros, _blocks, f, index, label, show):
        return _per_base_verdict(solve, b, nonzeros, f, index, label, show)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ov, "_certify", certify)
        return _report(t, laws)


def _composite_report(t, laws):
    """verify_commuting_family as it was, without its prefix: one composite
    solve of ``laws``, read from the oracle's own memo and placed at every
    base relation."""
    laws = [
        ov.OperatorLaw(law.kind, law.weight, f"{law.name}{k + 1}") for k, law in enumerate(laws)
    ]
    require_valid(t)
    solve = _composite_law_solve(_key(laws))
    product = reduce(ov.square_generators, [f.generators for f in (t, *solve.factors)])
    desc = " , ".join(law.describe() for law in laws)
    verdicts = _composite_verdicts(t, laws, solve)
    return ov.VerificationReport(t.name, f"[{desc}]", product.name, verdicts)


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
    row = ov.derived_table(ov.OperatorLaw("rb_dendriform"), dend)
    assert _summands(row) == _summands(_splitting_table())
    # at weight 0 the splitting is rb0 with its factor dendriform
    at_zero = ov.OperatorLaw("rb_dendriform", 0)
    assert ov.predicted_factor_name(at_zero) == "dendriform"
    assert ov.derived_table(at_zero, dend) == ov.derived_table(ov.rb(0), dend)


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


def _assert_run_matches_the_oracle(t, laws):
    """One law through the stage loop, or a family through the composite
    solve, against the per-relation rebuild."""
    report = _report(t, laws) if len(laws) == 1 else _composite_report(t, laws)
    oracle = _oracle_verdicts(t, laws)
    assert report.verdicts == oracle
    assert report.product_name == _product(t, laws).name
    rebuilt = ov.VerificationReport(t.name, report.law, report.product_name, oracle)
    assert report.to_json() == rebuilt.to_json()


@pytest.mark.parametrize(
    "name, laws",
    [(name, (law,)) for name, law in _CRITERION_6_SINGLES] + _FAMILIES + _CRITERION_6_FAMILIES,
    ids=lambda x: "+".join(x) if isinstance(x, tuple) else x,
)
def test_shared_echelons_match_the_per_relation_rebuild(name, laws):
    _assert_run_matches_the_oracle(catalog.get(name), [_LAWS[law]() for law in laws])


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
        _assert_run_matches_the_oracle(_random_base(seed), [law])


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
        assert _report(t, renamed).all_verified


def _assert_warm_gives_the_cold_report(t, laws):
    keys = list(dict.fromkeys(_key(laws)))
    ov._law_solve.cache_clear()
    cold = _report(t, laws)
    cold_solves = [ov._law_solve(*key) for key in keys]
    ov._law_solve.cache_clear()
    _warm_on_other_bases(laws)
    hits = ov._law_solve.cache_info().hits
    warm = _report(t, laws)
    # the records a run on other bases made, one read per law: equal to
    # the cold ones
    assert ov._law_solve.cache_info().hits == hits + len(laws)
    for key, cold_solve in zip(keys, cold_solves):
        assert ov._law_solve(*key) is not cold_solve and ov._law_solve(*key) == cold_solve
    assert warm.to_json() == cold.to_json()
    if len(laws) == 1:
        oracle = _oracle_verdicts(t, laws)
        rebuilt = ov.VerificationReport(t.name, cold.law, cold.product_name, oracle)
        assert rebuilt.to_json() == cold.to_json()
    else:
        _assert_stages_match_the_composite(t, laws, cold)


@pytest.mark.parametrize(
    "name, laws",
    [(name, (law,)) for name, law in _CRITERION_6_SINGLES]
    + _CRITERION_6_FAMILIES
    # the two dendriform splittings of the lemmas
    + [(name, ("rb_dendriform",)) for name in ("associative", "trialgebra")],
    ids=lambda x: "+".join(x) if isinstance(x, tuple) else x,
)
def test_a_warm_memo_gives_the_cold_report(cold_solves, name, laws):
    _assert_warm_gives_the_cold_report(catalog.get(name), [_LAWS[law]() for law in laws])


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
    ov.verify_commuting_family(a, [ov.rb(None), ov.rb(None)])
    kept = ov._law_solve("rb", None)
    # the family's two stages read one solve, the one every name shares
    assert _memo() == (1, 2, 1)
    report = ov.verify_commuting_family(
        d, [ov.OperatorLaw("rb", None, "Q"), ov.OperatorLaw("rb", None, "R")]
    )
    assert report.law == "[rb(weight=formal, Q1) , rb(weight=formal, R2)]"
    assert report.prefix.law == "[rb(weight=formal, Q1)]"
    assert _memo() == (1, 4, 1)
    assert ov._law_solve("rb", None) is kept
    # and a single law reads the solve of the families
    ov.verify_operator_theorem(a, ov.rb(None))
    ov.verify_operator_theorem(d, ov.OperatorLaw("rb", None, "Q"))
    assert _memo() == (1, 7, 1)


def test_each_command_line_name_builds_one_law():
    # the (kind, weight) that each --law name builds
    built = {name: ov.law_from_name(name) for name in ov.LAW_NAMES}
    assert {name: (law.kind, law.weight) for name, law in built.items()} == {
        "rb": ("rb", None),
        "nijenhuis": ("nijenhuis", None),
        "leftrb": ("left_rb", None),
        "rightrb": ("right_rb", None),
    }


def test_weights_split_solves(cold_solves):
    a = catalog.get("associative")
    for weight in (None, 0, "1/2", 1, "2/2", F(1, 2)):
        assert ov.verify_operator_theorem(a, ov.rb(weight)).all_verified
    # "2/2" is 1 and F(1, 2) is "1/2": four weights, four entries
    assert _memo() == (4, 2, 4)


def test_the_memo_keeps_base_free_results_only(cold_solves):
    t = catalog.get("dendriform")
    ov.verify_commuting_family(t, [ov.rb(None), ov.rb(None)])
    kept = ov._law_solve("rb", None)
    assert _memo() == (1, 2, 1)
    # no laws, tables or normalizer: a record of what every run reads
    assert [f.name for f in fields(kept)] == [
        "factor", "formal", "patterns", "certificates", "instances", "holds"
    ]
    assert kept.factor is catalog.get("trialgebra") and kept.formal
    assert len(kept.patterns) == len(kept.certificates) == len(kept.factor.relations)
    # every factor relation of rb has a certificate, and it holds on both
    # blocks
    assert kept.holds == (frozenset({0, 1}),) * len(kept.factor.relations)
    used = {tag for certificate in kept.certificates if certificate for tag, _c, _k in certificate}
    assert set(kept.instances) == used
    assert not any(t is value or t.relations is value for value in vars(kept).values())
    # the composite solve of the oracle took 44 steps for the pair
    assert _composite_law_solve.__wrapped__(_key([ov.rb(None)] * 2)).steps == 44


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
# bases whose generators are relabelled: a 3-cycle and a non-monomial map.
# Each is (base, laws, the laws and the tables the reference substitutes).
_DIFFERENTIAL_RUNS = (
    [
        pytest.param(
            lambda n=name: catalog.get(n),
            [_LAWS[law]() for law in laws],
            None,
            None,
            id="+".join((name,) + laws),
        )
        for name, laws in [(name, (law,)) for name, law in _CRITERION_6_SINGLES]
        + _CRITERION_6_FAMILIES
    ]
    + [
        pytest.param(
            lambda n=name: catalog.get(n),
            [ov.OperatorLaw("rb_dendriform")],
            [ov.rb(None)],
            [_splitting_table()],
            id=f"splitting on {name}",
        )
        for name in ("associative", "trialgebra")
    ]
    + [
        pytest.param(
            lambda: relabel(catalog.get("trialgebra"), {"lt": "gt", "gt": "cir", "cir": "lt"}),
            [ov.nijenhuis()],
            None,
            None,
            id="trialgebra 3-cycle+nijenhuis",
        ),
        pytest.param(
            lambda: relabel(catalog.get("dendriform"), [[1, 1], [0, 1]]),
            [ov.rb(None), ov.rb(None)],
            None,
            None,
            id="dendriform sheared+rb+rb",
        ),
    ]
)


@pytest.mark.parametrize("make, laws, reference_laws, tables", _DIFFERENTIAL_RUNS)
def test_generator_blind_rewriting_matches_the_reference_definitions(
    cold_solves, normalizers, make, laws, reference_laws, tables
):
    # the verifier normalizes each substituted factor relation and each
    # instance pattern once, with base generators 0, and then places the
    # base generators; the reference substitutes the whole product relation
    # and every instance, and normalizes them term by term, at every level
    # of a family on its base built with products.square
    t = make()
    report = _report(t, laws)
    assert report.all_verified
    # one solve, one normalizer, per law kind and weight, in the order read
    solvers = dict(zip(dict.fromkeys(_key(laws)), list(normalizers)))
    assert len(normalizers) == len(solvers)
    for k, (law, base) in enumerate(zip(laws, _bases(t, laws))):
        solve = ov._law_solve(law.kind, law.weight)
        reference = _Reference(reference_laws or [law], tables)
        # q_s of instances no certificate uses, made again by a normalizer
        # of the test's own
        patterns = ov.Normalizer(law)
        for index, rel in enumerate(square(base, solve.factor).relations):
            residual = reference.residual(rel)
            b, f = divmod(index, len(solve.factor.relations))
            assert ov._placed(ov._nonzeros(base.relations[b]), solve.patterns[f]) == residual
            if not residual:
                continue
            triples, contexts = _geometry(residual)
            for r_idx in range(len(base.relations)):
                nonzeros = ov._nonzeros(base.relations[r_idx])
                for triple in triples:
                    for ctx in contexts:
                        want = reference.instance(base, (r_idx, triple, ctx))
                        q = solve.instances.get((triple, ctx))
                        if q is None:
                            q = ov._by_block(ov._instance_pattern(patterns, triple, ctx))
                        assert ov._placed(nonzeros, q) == want
        # no more rewriting than the reference needed for the same
        # residuals and instances
        assert solvers[law.kind, law.weight].steps <= reference.normalizer.steps


@pytest.mark.parametrize(
    "argv, cold, warm",
    [
        (["verify-operator", "trialgebra", "--law", "nijenhuis"], (1, 0, 1), (2, 1, 2)),
        (
            ["verify-family", "trialgebra", "--laws", "nijenhuis,nijenhuis,nijenhuis"],
            (1, 2, 1),
            (2, 3, 2),
        ),
        (["verify-family", "trialgebra", "--laws", "rb,nijenhuis,leftrb"], (3, 0, 3), (3, 2, 3)),
        (["verify-family", "trialgebra", "--laws", "rb:formal,rb:1/2"], (2, 0, 2), (3, 1, 3)),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_a_run_reads_the_same_solves_cold_or_warm(capsys, cold_solves, argv, cold, warm):
    # a run solves each of its laws afresh, or reads the solves that runs
    # on another base left (Nijenhuis and rb of formal weight), and prints
    # the same either way; the memo counts (misses, hits, entries)
    outputs = []
    for warmed, memo in ((False, cold), (True, warm)):
        ov._law_solve.cache_clear()
        if warmed:
            d = catalog.get("dendriform")
            ov.verify_operator_theorem(d, ov.OperatorLaw("nijenhuis", name="M"))
            ov.verify_operator_theorem(d, ov.OperatorLaw("rb", None, "Q"))
        assert main(argv) == 0
        assert _memo() == memo
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and not outputs[0].err


def _longest_word(normalizer):
    return max(
        len(word) for result in normalizer._memo.values() for term in result for word in term[3:]
    )


def test_a_rewrite_never_lengthens_a_word_beyond_two_symbols_per_law(normalizers):
    # every derived operation carries at most one symbol, so the two a
    # substitution starts with per law bound every word of every normal
    # form
    for law, _ in _HAND_WRITTEN_RULES:
        assert all(on_x + on_y + around <= 1 for *_, on_x, on_y, around in law.operations())
    # each law solve has one symbol: two at most, and two are reached
    longest = {}
    for kind in ("rb", "rb0", "nijenhuis", "left_rb", "right_rb", "rb_dendriform"):
        law = _LAWS[kind]()
        factor = catalog.get(ov.predicted_factor_name(law))
        ov._solve(law, factor, ov.derived_table(law, factor))
        longest[kind] = _longest_word(normalizers[-1])
    assert max(longest.values()) == 2
    # the composite solve of the oracle has one symbol per law: the
    # formal-weight family of three reaches six
    runs = [laws for _name, laws in _CRITERION_6_FAMILIES] + [("rb", "rb", "rb")]
    for laws in runs:
        named = _named([_LAWS[law]() for law in laws])
        _composite_solve(named, *_tables(named))
        longest[laws] = _longest_word(normalizers[-1])
        assert longest[laws] <= 2 * len(laws), laws
    assert longest["rb", "rb", "rb"] == 6


@pytest.fixture
def echelons(monkeypatch):
    """Every exactalg.Echelon a law solve builds during one test, in the
    order built."""
    made = []

    class Kept(Echelon):
        def __init__(self, ambient):
            super().__init__(ambient)
            made.append(self)

    monkeypatch.setattr(ov, "Echelon", Kept)
    return made


def _term_columns(echelon):
    """The number of term columns of a solve's echelon: the tags' 15 and
    the target's one follow them."""
    return echelon.ambient - len(ov._TAGS) - 1


def _solve_keys(law, substitute=None):
    """The pattern keys of the q_s of the 15 tags and of the n_f of
    ``law``, made by a normalizer of the test's own."""
    factor = catalog.get(ov.predicted_factor_name(law))
    table, normalizer = ov.derived_table(law, factor), ov.Normalizer(law)
    q_keys = {key for tag in ov._TAGS for key in ov._instance_pattern(normalizer, *tag)}
    n_keys = {
        key
        for rel in factor.relations
        for key in ov._pattern(normalizer, (substitute or ov.substitute)(rel, table))
    }
    return q_keys, n_keys


def test_a_solve_builds_one_echelon_of_15_rows(cold_solves, echelons):
    report = ov.verify_commuting_family(catalog.get("trialgebra"), [ov.rb(None), ov.rb(None)])
    assert report.all_verified and len(report.verdicts) == 343
    # both stages read the one solve of rb: one echelon, whose 15 rows are
    # the instance patterns of the 15 tags, each with its tag's column
    (echelon,) = echelons
    n = _term_columns(echelon)
    assert len(echelon.rows) == 15
    assert all(p < n for p in echelon.rows)
    assert {c for row in echelon.rows.values() for c in row if c >= n} == set(range(n, n + 15))
    # the term columns are the pattern keys of the q_s and the n_f,
    # (shape,) + five words: no base generators
    q_keys, n_keys = _solve_keys(ov.rb(None))
    assert n == len(q_keys | n_keys)
    assert all(len(key) == 6 for key in q_keys | n_keys)
    # a family of two kinds solves two laws, one echelon each
    echelons.clear()
    ov.verify_commuting_family(catalog.get("associative"), [ov.rb(0), ov.nijenhuis()])
    assert [len(echelon.rows) for echelon in echelons] == [15, 15]


# the law rows of the rank lemma (see the module docstring)
_RANK_LAWS = [
    ov.OperatorLaw(kind, weight)
    for kind, weight in [
        ("rb", None), ("rb", 0), ("rb", 1), ("rb", F(1, 2)), ("rb", F(-3, 4)),
        ("nijenhuis", None), ("left_rb", None), ("right_rb", None),
        ("rb_dendriform", None), ("rb_dendriform", 2),
    ]
]


@pytest.mark.parametrize("law", _RANK_LAWS, ids=lambda law: law.describe())
def test_the_15_instance_patterns_are_independent(law):
    # the rank lemma: the q_s of the tags whose leaf words and context carry
    # at most two symbols in all have rank 15, computed here from the q_s
    # alone and not from the verifier's echelon, with its tag columns
    tags = sorted(
        (((P,) * a, (P,) * b, (P,) * c), (P,) * d)
        for a, b, c, d in itertools.product(range(3), repeat=4) if a + b + c + d <= 2
    )
    assert list(ov._TAGS) == tags and len(tags) == 15
    normalizer = ov.Normalizer(law)
    rows = [ov._instance_pattern(normalizer, *tag) for tag in tags]
    column = {key: k for k, key in enumerate(sorted({key for row in rows for key in row}))}
    rows = [{column[key]: c for key, c in row.items()} for row in rows]
    assert Subspace.from_rows(len(column), rows).dim == 15


@pytest.mark.parametrize("law", _RANK_LAWS, ids=lambda law: law.describe())
def test_an_instance_pattern_is_the_associators_instance(law):
    # q_s as it was built by hand: the left-bracketed term of the tag minus
    # its right-bracketed one, base generators 0
    normalizer = ov.Normalizer(law)
    for triple, ctx in ov._TAGS:
        comb = {(0, 0, 0, *triple, (), ctx): 1, (1, 0, 0, *triple, (), ctx): -1}
        assert ov.relation_instance(catalog.get("associative").relations[0], triple, ctx) == comb
        assert ov._instance_pattern(normalizer, triple, ctx) == ov._pattern(normalizer, comb)


# the law rows of the rank lemma and four more
_SOLVE_LAWS = (
    _RANK_LAWS
    + [ov.rb(2), ov.rb(-1)]
    + [ov.OperatorLaw("rb_dendriform", weight) for weight in (0, F(1, 3))]
)


@pytest.mark.parametrize("law", _SOLVE_LAWS, ids=lambda law: law.describe())
def test_one_echelon_solves_as_the_geometry_search_did(cold_solves, law):
    # the composite solve of the oracle, for one law, is the solve as it
    # was: one echelon per candidate geometry of the nonzero n_f, and
    # contexts of up to four symbols.  It finds the same certificates,
    # coefficient for coefficient and in tag order, from the same instance
    # patterns
    solve = ov._law_solve(law.kind, law.weight)
    oracle = _composite_law_solve.__wrapped__(_key([law]))
    assert solve.patterns == oracle.patterns
    assert solve.certificates == oracle.certificates
    assert any(solve.certificates)
    assert solve.instances == oracle.instances


def _old_echelon_certificates(law):
    """The law solve as it was before it eliminated through
    exactalg.Echelon: the q_s of the 15 tags inserted into one _Echelon, in
    tag order, and each nonzero n_f solved there.  Per factor relation, the
    certificate as a map tag -> coefficient, or None."""
    factor = catalog.get(ov.predicted_factor_name(law))
    table, normalizer = ov.derived_table(law, factor), ov.Normalizer(law)
    echelon = _Echelon()
    for tag in ov._TAGS:
        echelon.insert(ov._instance_pattern(normalizer, *tag), tag)
    patterns = [ov._pattern(normalizer, ov.substitute(rel, table)) for rel in factor.relations]
    return [echelon.solve(pattern) if pattern else None for pattern in patterns]


@pytest.mark.parametrize("law", _SOLVE_LAWS, ids=lambda law: law.describe())
def test_the_solve_finds_the_certificates_of_the_old_echelon(cold_solves, law):
    # a differential test: the certificates read off the remainder in
    # exactalg.Echelon are those the verifier's echelon of the time found,
    # as maps, with None where n_f has none; their entries go in tag order,
    # each with the power of l its words give
    solve = ov._law_solve(law.kind, law.weight)
    old = _old_echelon_certificates(law)
    assert len(solve.certificates) == len(old)
    for certificate, want in zip(solve.certificates, old):
        if certificate is None:
            assert want is None
            continue
        assert {tag: c for tag, c, _k in certificate} == want
        tags = [tag for tag, _c, _k in certificate]
        assert tags == sorted(tags)
        for tag, c, k in certificate:
            _assert_exact(c)
            assert c and k == ov._power(law.formal, tag[0] + (tag[1],))
    assert any(solve.certificates)


def test_a_term_no_instance_has_fails_with_its_residual(monkeypatch, cold_solves, echelons):
    # every n_f carries an x under three symbols, a term of no q_s (theirs
    # carry two symbols at most): the column map covers it, and the solve
    # gives no certificate, as the old echelon does, never a KeyError
    extra = (0, 0, 0, (P, P, P), (), (), (), ())
    real = ov.substitute
    monkeypatch.setattr(ov, "substitute", lambda rel, table: {**real(rel, table), extra: 1})
    law, factor = ov.nijenhuis(), catalog.get("ns")
    solve = ov._solve(law, factor, ov.derived_table(law, factor))
    (echelon,) = echelons
    q_keys, n_keys = _solve_keys(law)
    assert (0,) + extra[3:] in n_keys - q_keys
    assert _term_columns(echelon) == len(q_keys | n_keys)
    assert solve.certificates == (None,) * len(factor.relations) == tuple(
        _old_echelon_certificates(law)
    )
    assert solve.holds == (frozenset(),) * len(factor.relations)
    # every relation FAILED, with the term in its printed residual
    _solving_with(monkeypatch, solve, "nijenhuis")
    report = ov.verify_operator_theorem(catalog.get("associative"), law)
    assert len(report.verdicts) == len(factor.relations)
    for verdict in report.verdicts:
        assert not verdict.verified and not verdict.certificate
        assert "(1)/(1) * (N(N(N(x))) dot y) dot z" in verdict.residual


# -- commuting families, one law at a time on a growing base ----------------------


def _assert_stages_match_the_composite(t, laws, report=None):
    """The stage loop against the composite solve of the oracle: the same
    verdicts, text, product name and relation labels."""
    report = report or ov.verify_commuting_family(t, laws)
    composite = _composite_report(t, laws)
    assert report.describe() == composite.describe()
    assert report.product_name == composite.product_name
    assert [v.verified for v in report.verdicts] == [v.verified for v in composite.verdicts]
    assert [v.relation for v in report.verdicts] == [v.relation for v in composite.verdicts]
    # and the prefix is the family without its last law
    if len(laws) > 1:
        assert report.prefix == ov.verify_commuting_family(t, laws[:-1])


# the families of the command-line checks
_CI_FAMILIES = [
    ("trialgebra", (ov.rb(None), ov.rb(None))),
    ("trialgebra", (ov.rb(None), ov.rb("1/2"))),
    ("associative", (ov.rb(None),) * 3),
    ("dendriform", (ov.nijenhuis(),) * 3),
    ("trialgebra", (ov.nijenhuis(),) * 3),
    ("quadri", (ov.nijenhuis(),) * 3),
]


def _family_params(runs):
    return [
        pytest.param(name, laws, id="+".join([name] + [law.describe() for law in laws]))
        for name, laws in runs
    ]


_C6_FAMILY_RUNS = [
    (name, tuple(_LAWS[law]() for law in laws)) for name, laws in _CRITERION_6_FAMILIES
]


@pytest.mark.parametrize("name, laws", _family_params(_C6_FAMILY_RUNS + _CI_FAMILIES))
def test_the_stage_loop_matches_the_composite_solve(name, laws):
    _assert_stages_match_the_composite(catalog.get(name), list(laws))


_RANDOM_LAWS = (
    lambda: ov.rb(None),
    lambda: ov.rb(0),
    lambda: ov.rb("1/2"),
    ov.nijenhuis,
    ov.left_rb,
    ov.right_rb,
)


def _random_family(seed):
    """A catalog base relabelled by a random shear, when it has two
    generators or more, and a random permutation, and a random family of
    at most three laws."""
    rng = random.Random(seed)
    t = catalog.get(rng.choice(("associative", "dendriform", "trialgebra", "dipterous", "ns")))
    m = t.dim
    shear = [[int(i == j) for j in range(m)] for i in range(m)]
    if m > 1:
        i, j = rng.sample(range(m), 2)
        shear[i][j] = rng.choice((-1, 1, 2))
    order = list(range(m))
    rng.shuffle(order)
    laws = [rng.choice(_RANDOM_LAWS)() for _ in range(rng.randint(1, 3))]
    return relabel(t, [shear[i] for i in order]), laws


@pytest.mark.parametrize("seed", range(20))
def test_the_stage_loop_matches_the_composite_solve_on_random_families(seed):
    t, laws = _random_family(seed)
    _assert_stages_match_the_composite(t, laws)


_LEMMA_LAWS = (ov.rb(None), ov.rb(0), ov.rb(1), ov.nijenhuis(), ov.left_rb(), ov.right_rb())


@pytest.mark.parametrize(
    "first, second",
    [(p, q) for p in _LEMMA_LAWS for q in _LEMMA_LAWS],
    ids=lambda law: law.describe(),
)
def test_the_commuting_lemma(first, second):
    # P (symbol 0) of law ``first`` and Q (symbol 1) of law ``second``
    # commute; for each derived operation g of P, Q(x) g Q(y) minus the
    # terms of Q's rule with g as the product normalizes to 0 (the module
    # docstring): Q obeys its law for g
    normalizer = _Rewriter([first, second])
    for _label, c, on_x, on_y, around in first.operations():

        def g(wx, wy, wout=()):
            # c * Q^wout(P^around(P^on_x(x) o P^on_y(y))), x and y carrying wx, wy
            p = (0,)
            return term2(
                ov._merge(wx, p * on_x), ov._merge(wy, p * on_y), ov._merge(wout, p * around)
            ), c

        term, coeff = g((1,), (1,))
        diff = {term: coeff}
        for rule_coeff, keep_x, keep_y, wraps in ov.rewrite_rule(second):
            term, coeff = g((1,) * keep_x, (1,) * keep_y, (1,) * wraps)
            ov._accumulate(diff, term, -rule_coeff * coeff)
        assert diff
        assert normalizer.normalize(diff) == {}, _label


def _level_certificates_hold(t, laws, report) -> bool:
    """Whether every verified relation of every level, re-summed from its
    certificate with instances the test normalizes on that level's base,
    built with products.square, is that level's residual."""
    for law, base, level in zip(laws, _bases(t, laws), _levels(report)):
        reference = _Reference([law])
        relations = _product(base, [law]).relations
        for verdict in level.verdicts:
            assert verdict.verified
            rebuilt: dict = {}
            for tag, coeff, _k in verdict.certificate:
                for term, c in reference.instance(base, tag).items():
                    ov._accumulate(rebuilt, term, coeff * c)
            if rebuilt != reference.residual(relations[verdict.index]):
                return False
    return True


@pytest.mark.parametrize("name, laws", _family_params(_C6_FAMILY_RUNS + _CI_FAMILIES[:4]))
def test_every_level_certificate_holds_on_the_built_base(monkeypatch, name, laws):
    # the verifier never builds a level's base: it pairs the nonzeros of
    # the relations of the one before with its factor's.  Build each base
    # with the validated products.square instead, and check every level's
    # certificates there with the reference normalizer
    t, laws = catalog.get(name), list(laws)
    certified_at = []
    real_certify = ov._certify

    def certifying(solve, b, nonzeros, blocks, *rest):
        certified_at.append(frozenset(nonzeros))
        # the premise of the block lemma, on the Kronecker nonzeros too:
        # pairwise distinct heads and nonzero coefficients; and the blocks
        # a verdict is read for are those of the nonzeros
        assert len({nonzero[:3] for nonzero in nonzeros}) == len(nonzeros)
        assert all(c for *_, c in nonzeros)
        assert blocks == {blk for blk, *_ in nonzeros}
        return real_certify(solve, b, nonzeros, blocks, *rest)

    monkeypatch.setattr(ov, "_certify", certifying)
    report = ov.verify_commuting_family(t, laws)
    monkeypatch.undo()
    assert report.all_verified and len(_levels(report)) == len(laws)
    assert _level_certificates_hold(t, laws, report)
    # every base relation a level certified at is one of the built bases,
    # and every relation of the last base was certified at
    built = [{frozenset(ov._nonzeros(rel)) for rel in base.relations} for base in _bases(t, laws)]
    assert set(certified_at) <= set().union(*built)
    assert built[-1] <= set(certified_at)
    # a negative control: one certificate coefficient flipped in sign
    # fails the check
    index, verdict = next((k, v) for k, v in enumerate(report.verdicts) if v.certificate)
    (tag, c, k), *rest = verdict.certificate
    flipped = replace(verdict, certificate=((tag, -c, k), *rest))
    verdicts = report.verdicts[:index] + (flipped,) + report.verdicts[index + 1:]
    assert not _level_certificates_hold(t, laws, replace(report, verdicts=verdicts))


def _nested(text):
    """A report's JSON as a longer family nests it: without the top-level
    schema version, 2, which the nested levels do not repeat."""
    data = json.loads(text)
    assert list(data)[0] == "schema" and data.pop("schema") == 2
    return data


def test_a_family_json_nests_its_prefix():
    t = catalog.get("trialgebra")
    laws = [ov.rb(None), ov.rb(0), ov.nijenhuis()]
    data = json.loads(ov.verify_commuting_family(t, laws).to_json())
    # the schema version, the keys of one law's report, then the family
    # without its last law, nested without the version
    assert list(data) == ["schema", "type", "law", "product", "relations", "prefix"]
    assert data["prefix"] == _nested(ov.verify_commuting_family(t, laws[:2]).to_json())
    first = data["prefix"]["prefix"]
    assert first == _nested(ov.verify_commuting_family(t, laws[:1]).to_json())
    assert "prefix" not in first
    assert "prefix" not in json.loads(ov.verify_operator_theorem(t, laws[0]).to_json())
    # each level's certificates cite relations of the level before, in
    # words of the level's own law, symbol 0
    levels = [first, data["prefix"], data]
    for below, level in zip([{"relations": t.relations}] + levels, levels):
        tags = [c for r in level["relations"] for c in r["certificate"]]
        assert tags
        assert all(0 <= c["relation_index"] < len(below["relations"]) for c in tags)
        words = [w for c in tags for w in c["leaf_words"] + [c["context"]]]
        assert {s for w in words for s in w} == {0}
    # trialgebra, dendriform and ns have 7, 3 and 4 relations
    assert [len(level["relations"]) for level in levels] == [7 * 7, 7 * 7 * 3, 7 * 7 * 3 * 4]


def test_a_wrong_certificate_is_reported_failed(monkeypatch, cold_solves):
    # a negative control: each certificate read off the remainder gets its
    # first coefficient off by one, -(rest[s] - rest[target]) / rest[target]
    class OffByOne(Echelon):
        def reduce(self, row):
            rest = super().reduce(row)
            target = self.ambient - 1
            if target in row and len(rest) > 1:
                first = min(rest)
                rest = {**rest, first: rest[first] - rest[target]}
            return rest

    monkeypatch.setattr(ov, "Echelon", OffByOne)
    a = catalog.get("associative")
    report = ov.verify_operator_theorem(a, ov.rb(None))
    assert not report.all_verified
    for verdict in report.verdicts:
        assert verdict.verified == verdict.residual_zero
        assert not verdict.certificate
        assert verdict.residual_zero or verdict.residual


def _solving_with(monkeypatch, solve, kind="rb"):
    """Runs of law ``kind`` read ``solve`` instead of the memo's record."""
    real = ov._law_solve
    monkeypatch.setattr(ov, "_law_solve", lambda k, w: solve if k == kind else real(k, w))


def _wrong_gt_solve():
    """rb with gt sent to x P(y) instead of P(x) y."""
    tri, law = catalog.get("trialgebra"), ov.rb(None)
    table = ov.derived_table(law, tri)
    table[tri.generators.index("gt")] = [(1, (), (P,), ())]
    return ov._solve(law, tri, table)


def test_a_wrong_derived_table_fails_visibly(monkeypatch):
    # rb on associative with gt sent to x P(y) instead of P(x) y: five of
    # the seven relations of associative sq trialgebra no longer follow
    a = catalog.get("associative")
    _solving_with(monkeypatch, _wrong_gt_solve())
    run = ov.verify_operator_theorem(a, ov.rb(None))
    report = ov.VerificationReport(a.name, "rb with a wrong gt", run.product_name, run.verdicts)
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


def test_a_relation_on_a_failed_prefix_relation_fails(monkeypatch):
    # with the wrong gt, relations 0-4 of the first level fail; at the
    # second, every relation built on one of them fails too, although its
    # own certificate re-checks there, and every other one is verified
    a = catalog.get("associative")
    _solving_with(monkeypatch, _wrong_gt_solve())
    report = ov.verify_commuting_family(a, [ov.rb(None), ov.left_rb()])
    failed = {v.index for v in report.prefix.verdicts if not v.verified}
    assert failed == {0, 1, 2, 3, 4}
    assert len(report.verdicts) == 7 * 3
    for verdict in report.verdicts:
        assert verdict.verified == (verdict.index // 3 not in failed)
        assert verdict.certificate or verdict.residual_zero
    assert report.describe().startswith(
        "associative with [rb(weight=formal, P1) , left_rb(P2)]: 6/21 relations"
    )


# -- the block check against the per-base re-check ---------------------------------


def _assert_block_check_matches_the_per_base_recheck(t, laws):
    """Every verdict of every level, read off the blocks a solve recorded,
    is the one the per-base re-check gives, field by field and in text."""
    report, oracle = _report(t, laws), _per_base_report(t, laws)
    levels, oracle_levels = _levels(report), _levels(oracle)
    assert len(levels) == len(oracle_levels) == len(laws)
    for level, want in zip(levels, oracle_levels):
        assert len(level.verdicts) == len(want.verdicts)
        for got, expected in zip(level.verdicts, want.verdicts):
            assert (
                got.index, got.verified, got.residual_zero, got.certificate, got.residual
            ) == (
                expected.index, expected.verified, expected.residual_zero,
                expected.certificate, expected.residual,
            )
            assert got.describe() == expected.describe()
        assert level.describe() == want.describe()
    assert report.to_json() == oracle.to_json()


@pytest.mark.parametrize(
    "name, laws",
    _family_params(
        [(name, (_LAWS[law](),)) for name, law in _CRITERION_6_SINGLES]
        + _C6_FAMILY_RUNS
        + _CI_FAMILIES
    ),
)
def test_the_block_check_matches_the_per_base_recheck(name, laws):
    _assert_block_check_matches_the_per_base_recheck(catalog.get(name), list(laws))


@pytest.mark.parametrize(
    "law", [ov.rb(None), ov.nijenhuis(), ov.left_rb()], ids=lambda law: law.describe()
)
def test_the_block_check_matches_the_per_base_recheck_on_random_bases(law):
    # the bases of the per-base rebuild test, about two in five of whose
    # relations lie in one block
    for seed in range(60):
        _assert_block_check_matches_the_per_base_recheck(_random_base(seed), [law])


def test_the_block_check_fails_as_the_per_base_recheck_on_a_wrong_table(monkeypatch):
    # failed verdicts, and relations on a failed prefix relation, print
    # what the per-base re-check prints
    _solving_with(monkeypatch, _wrong_gt_solve())
    a = catalog.get("associative")
    for laws in ([ov.rb(None)], [ov.rb(None), ov.left_rb()]):
        assert not _report(a, laws).all_verified
        _assert_block_check_matches_the_per_base_recheck(a, laws)


@pytest.mark.parametrize("block", (0, 1))
def test_a_flipped_instance_coefficient_fails_exactly_its_block(block):
    # a negative control of the block check: one coefficient of one
    # recorded q_s flipped in sign in ``block``.  Every product relation
    # whose certificate uses that instance then fails where its base
    # relation has a nonzero in ``block``, and stays verified where its
    # base relation lies in the other block alone, as the per-base
    # re-check says
    t, law = _random_base(17), ov.rb(None)
    blocks = [frozenset(blk for blk, *_ in ov._nonzeros(rel)) for rel in t.relations]
    # relations in both blocks, in block 0 alone and in block 1 alone
    assert {frozenset({0, 1}), frozenset({0}), frozenset({1})} <= set(blocks)
    solve = ov._law_solve(law.kind, law.weight)
    m = len(solve.factor.relations)
    for tag, q in solve.instances.items():
        (words, x), *rest = q[block]
        flipped = {**solve.instances, tag: tuple(
            ((words, -x), *rest) if k == block else side for k, side in enumerate(q)
        )}
        held = ov._blocks_held(solve.patterns, solve.certificates, flipped)
        users = {
            f for f, cert in enumerate(solve.certificates) if cert and tag in {s for s, *_ in cert}
        }
        assert users
        assert held == tuple(h - {block} if f in users else h for f, h in enumerate(solve.holds))
        with pytest.MonkeyPatch.context() as patch:
            _solving_with(patch, replace(solve, instances=flipped, holds=held))
            report = ov.verify_operator_theorem(t, law)
            oracle = _per_base_report(t, [law])
        assert report.verdicts == oracle.verdicts
        assert report.to_json() == oracle.to_json()
        outcomes = set()
        for got, want in zip(report.verdicts, oracle.verdicts):
            b, f = divmod(got.index, m)
            if f in users and not got.residual_zero:
                assert got.verified == (block not in blocks[b])
                assert got.residual == want.residual
                assert bool(got.residual) != got.verified
                outcomes.add((got.verified, blocks[b]))
        # a failure at a relation in both blocks and at one in ``block``
        # alone, and a relation in the other block alone verified
        assert {
            (False, frozenset({0, 1})), (False, frozenset({block})), (True, frozenset({1 - block}))
        } == outcomes


def test_a_table_without_a_homogeneous_lift_is_refused(monkeypatch):
    # an entry with two symbols of a formal-weight law would stand for
    # l^-1 times itself; in the composite solve of the oracle, a
    # formal-weight symbol in another law's table for an entry of the
    # wrong degree
    a, tri = catalog.get("associative"), catalog.get("trialgebra")
    law = ov.rb(None)
    table = ov.derived_table(law, tri)
    table[tri.generators.index("gt")] = [(1, (P, P), (), ())]
    with pytest.raises(ExactAlgebraError, match="not homogeneous"):
        ov._solve(law, tri, table)
    laws = (ov.rb(None), ov.rb(0))
    dend = catalog.get("dendriform")
    tables = [_symbol_table(laws[0], tri, 0), _symbol_table(laws[1], dend, 1)]
    tables[1][dend.generators.index("lt")] = [(1, (), (0, 1), ())]
    with pytest.raises(ExactAlgebraError, match="not homogeneous"):
        _composite_solve(laws, [tri, dend], tables)
    # a rational weight carries no grading: two symbols are fine
    law = ov.rb(1)
    table = ov.derived_table(law, tri)
    table[tri.generators.index("gt")] = [(1, (P, P), (), ())]
    _solving_with(monkeypatch, ov._solve(law, tri, table))
    assert not ov.verify_operator_theorem(a, law).all_verified


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
# distinct nonzero weights: D + 1 = 3 for one level, and 7 for the
# composite solve of the oracle with three formal weights
_WEIGHTS = (F(2), F(-1), F(1, 2), F(3), F(-2, 3), F(5), F(1, 3))


def _holds_at(t, laws, verdicts, weight):
    """Whether every certificate, its coefficients c * l^k evaluated at
    ``weight``, sums the instances on ``t`` normalized at that weight to the
    residual a verifier built with rb(weight) computes; ``laws`` has one law
    for a level and more for the composite solve of the oracle."""
    at_weight = [ov.rb(weight) if law.formal else law for law in laws]
    reference = _Reference(at_weight)
    relations = _product(t, at_weight).relations
    for verdict in verdicts:
        residual = reference.residual(relations[verdict.index])
        rebuilt = {}
        for tag, c, k in verdict.certificate:
            for term, x in reference.instance(t, tag).items():
                ov._accumulate(rebuilt, term, c * weight**k * x)
        if rebuilt != residual:
            return False
    return True


def _assert_certificates_hold_at_enough_weights(t, laws, verdicts, degree):
    assert all(0 <= k <= degree for verdict in verdicts for *_, k in verdict.certificate)
    for weight in _WEIGHTS[: degree + 1]:
        assert _holds_at(t, laws, verdicts, weight), weight


@pytest.mark.parametrize(
    "name, laws", _FORMAL_RUNS, ids=lambda x: "+".join(x) if isinstance(x, tuple) else x
)
def test_certificates_hold_at_enough_weights(name, laws):
    # for every term, both sides are polynomials of degree <= D in the
    # weight, so agreeing at D + 1 points is an identity over Q(l)
    laws = [_LAWS[law]() for law in laws]
    t = catalog.get(name)
    report = _report(t, laws)
    assert report.all_verified
    # each level has a formal weight of its own law, of degree 2
    for law, base, level in zip(laws, _bases(t, laws), _levels(report)):
        degree = ov._power(law.formal, ())
        assert degree == 2 * (law == ov.rb(None))
        _assert_certificates_hold_at_enough_weights(base, [law], level.verdicts, degree)
    if len(laws) > 1:
        # the composite solve of the oracle shares one weight, of degree 2
        # per formal-weight law
        degree = _composite_law_solve(_key(laws)).grading.degree
        assert degree == 2 * laws.count(ov.rb(None))
        verdicts = _composite_report(t, laws).verdicts
        _assert_certificates_hold_at_enough_weights(t, laws, verdicts, degree)


def test_a_context_word_counts_toward_the_power(monkeypatch):
    # no catalog run certifies through an instance in a formal-weight
    # context, so certify P((P(x) y) z - P(x) (y z)) directly, as the
    # pattern every factor relation substitutes to, placed at base relation
    # 0: its two symbols make degree D = 2, so its coefficient carries no l
    tag = (0, ((P,), (), ()), (P,))
    (wu, wv, ww), ctx = tag[1:]
    instance = {(0, 0, 0, wu, wv, ww, (), ctx): 1, (1, 0, 0, wu, wv, ww, (), ctx): -1}
    monkeypatch.setattr(ov, "substitute", lambda rel, table: instance)
    law, tri = ov.rb(None), catalog.get("trialgebra")
    solve = ov._solve(law, tri, ov.derived_table(law, tri))
    nonzeros = ov._nonzeros(catalog.get("associative").relations[0])
    blocks = frozenset(blk for blk, *_ in nonzeros)
    verdict = ov._certify(solve, 0, nonzeros, blocks, 0, 0, "relation 0", None)
    assert verdict.certificate == ((tag, 1, 0),)


def test_a_power_off_by_one_fails_at_some_weight():
    a, laws = catalog.get("associative"), [ov.rb(None)]
    report = ov.verify_operator_theorem(a, laws[0])
    verdict = next(verdict for verdict in report.verdicts if verdict.certificate)
    (tag, c, k), *rest = verdict.certificate
    wrong = ov.RelationVerdict(
        verdict.index, verdict.relation, True, certificate=((tag, c, k + 1), *rest)
    )
    assert not all(_holds_at(a, laws, [wrong], w) for w in _WEIGHTS[:3])


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
            ["verify-operator", "dendriform", "--law", "rb:1/2"],
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
    # the full outputs (the family alone is 207 KB) are kept as digests
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
    monkeypatch, cold_solves, echelons, name, factor
):
    # scaling every base relation scales every residual and every relation
    # instance by the same factor, and the pattern solve sees neither: every
    # certificate stays the same
    t = catalog.get(name)
    laws = (ov.rb(None), ov.rb("1/2"), ov.nijenhuis())
    references = [ov.verify_operator_theorem(t, law) for law in laws]
    scaled = _scaled(t, factor)
    for law, reference in zip(laws, references):
        report = ov.verify_operator_theorem(scaled, law)
        solve = ov._law_solve(law.kind, law.weight)
        assert reference.all_verified and report.all_verified
        assert [(got.residual_zero, got.certificate) for got in report.verdicts] == [
            (want.residual_zero, want.certificate) for want in reference.verdicts
        ]
        for index in range(len(report.verdicts)):
            b, f = divmod(index, len(solve.factor.relations))
            nonzeros = ov._nonzeros(scaled.relations[b])
            for value in ov._placed(nonzeros, solve.patterns[f]).values():
                _assert_exact(value)
    # scaling the inserted instance patterns instead moves the pivot entries
    # away from +-1, and every certificate coefficient scales by the inverse
    make_pattern = ov._instance_pattern

    def scaled_pattern(*args):
        return {key: canonical(c * factor) for key, c in make_pattern(*args).items()}

    monkeypatch.setattr(ov, "_instance_pattern", scaled_pattern)
    # the references warmed the memo, one echelon per law; these runs must
    # solve again
    plain = list(echelons)
    ov._law_solve.cache_clear()
    echelons.clear()
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
    # one echelon per law solve, of integer rows.  Against the plain one of
    # its law, its reduced rows (each divided by its pivot entry) have the
    # same pivots and term entries, and tag entries divided by the factor:
    # the certificates show by how much
    assert len(echelons) == len(plain) == len(laws)
    for ech, ref in zip(echelons, plain):
        assert ech.ambient == ref.ambient and ech.rows.keys() == ref.rows.keys()
        n = _term_columns(ech)
        for p, row in ech.rows.items():
            assert all(type(value) is int for value in row.values())
            got = {c: F(x, row[p]) for c, x in row.items()}
            want = {c: F(x, ref.rows[p][p]) for c, x in ref.rows[p].items()}
            assert {c: x for c, x in got.items() if c < n} == {
                c: x for c, x in want.items() if c < n
            }
            assert {c: x * factor for c, x in got.items() if c >= n} == {
                c: x for c, x in want.items() if c >= n
            }
        assert any(c >= n for row in ech.rows.values() for c in row)
