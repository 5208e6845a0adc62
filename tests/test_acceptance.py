"""Acceptance criteria, one test per criterion.

Exact arithmetic everywhere, so every comparison is on the nose; each
test prints one pass/fail line with the computed detail.

Criterion 5 asserts that the monomial automorphism search finds exactly
the coordinate permutations of the factor labels: {identity, transpose}
(order 2) for quadri = dendriform sq dendriform and the six permutations
(order 6) for octo = dendriform^3, and that a second search returns the
same sorted list.  It also refutes the larger groups once claimed, the
order-8 dihedral group (per-factor swaps plus the transpose) on quadri
and the 24 cube rotations on octo: each of the 6 + 21 extra maps fails
``check_morphism`` and the detail prints a relation it pushes outside
the relation span.  Reversing a factor maps the relations onto those of
the opposite product; for example, the quadri relation
(x (gt|gt) y) (lt|lt) z = x (gt|gt) (y (lt|lt) z) goes to one whose
first factor reads (x lt y) gt z = x lt (y gt z), which fails in
dendriform algebras.  ``tests/test_morphisms.py`` checks the same
verdicts in a Rota-Baxter polynomial model, without the elimination
code, and the negative control below shows that the criterion fails on
a wrong search result.
"""

from fractions import Fraction
from itertools import permutations

from splitops import catalog, cli
from splitops.cli import (
    check_catalog_validation,
    check_dsl_round_trip,
    check_duality,
    check_isomorphism_tables,
    check_non_duality,
    check_operator_lemmas,
    check_operator_theorem_suite,
    check_structural_properties,
    check_symmetries,
)
from splitops.exactalg import Matrix
from splitops.morphisms import TypeMorphism
from splitops.products import flatten_label


def _report(number, title, ok, detail):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_catalog_validation():
    ok, detail = check_catalog_validation()
    _report(1, "catalog validation", ok, detail)


def test_criterion_2_duality():
    ok, detail = check_duality()
    _report(2, "duality", ok, detail)


def test_criterion_2_states_the_published_counts_it_compares_with(monkeypatch):
    # negative controls: each failure message names the count it read off
    # EXPECTED_RELATION_COUNTS, in the same words at the published counts
    real_get, real_counts = catalog.get, catalog.EXPECTED_RELATION_COUNTS
    monkeypatch.setattr(catalog, "EXPECTED_RELATION_COUNTS", dict(real_counts, assoc_trialgebra=12))
    assert check_duality() == (False, "dual(trialgebra) dimension is not 12")
    monkeypatch.setattr(
        catalog, "get", lambda name: real_get("ns" if name == "assoc_nijenhuis_tri" else name)
    )
    for count in (14, 15):
        counts = dict(real_counts, assoc_nijenhuis_tri=count)
        monkeypatch.setattr(catalog, "EXPECTED_RELATION_COUNTS", counts)
        assert check_duality() == (False, f"dual(ns) differs from the {count} transcribed relations")
    assert real_counts["assoc_nijenhuis_tri"] == 14


def test_criterion_3_non_duality_counterexample():
    ok, detail = check_non_duality()
    _report(3, "non-duality counterexample", ok, detail)


def test_criterion_4_isomorphism_tables():
    ok, detail = check_isomorphism_tables()
    _report(4, "isomorphism tables", ok, detail)


def test_criterion_5_symmetries():
    ok, detail = check_symmetries()
    _report(5, "symmetries", ok, detail)


def _coordinate_permutations(t):
    """The maps permuting the factors of every label, built without a search."""
    tuples = [flatten_label(l) for l in t.generators.labels]
    maps = []
    for perm in permutations(range(len(tuples[0]))):
        rows = [[Fraction(0)] * t.dim for _ in range(t.dim)]
        for j, tup in enumerate(tuples):
            rows[tuples.index(tuple(tup[p] for p in perm))][j] = Fraction(1)
        maps.append(TypeMorphism(t, t, Matrix(rows, ncols=t.dim)))
    return maps


def test_criterion_5_fails_on_a_wrong_search_result(monkeypatch):
    groups = {name: _coordinate_permutations(catalog.get(name)) for name in ("quadri", "octo")}

    def search_returns(edits):
        def fake(t, **kwargs):
            return edits.get(t.name, list)(list(groups[t.name]))

        monkeypatch.setattr(cli.morphisms, "monomial_automorphisms", fake)
        return check_symmetries()

    # the true groups pass, so each failure below comes from its edit
    ok, detail = search_returns({})
    assert ok, detail

    identity, transpose = groups["quadri"]
    ok, detail = search_returns({"quadri": lambda autos: [identity]})
    assert not ok and "quadri 1," in detail

    # swapping lt and gt in the first factor: (a|b) -> (a'|b)
    q = catalog.get("quadri")
    swap_first = TypeMorphism(
        q, q, Matrix([[Fraction(int(i == j ^ 2)) for j in range(4)] for i in range(4)])
    )
    ok, detail = search_returns({"quadri": lambda autos: autos + [swap_first]})
    assert not ok and "quadri 3," in detail

    ok, detail = search_returns({"octo": lambda autos: autos[:-1]})
    assert not ok and "octo 5;" in detail


def test_criterion_6_operator_theorem_suite():
    ok, detail = check_operator_theorem_suite()
    _report(6, "operator theorem suite", ok, detail)


def test_criterion_7_operator_lemmas():
    ok, detail = check_operator_lemmas()
    _report(7, "operator lemmas", ok, detail)


def test_criterion_8_structural_properties():
    ok, detail = check_structural_properties()
    _report(8, "structural properties", ok, detail)


def test_criterion_9_dsl_round_trip():
    ok, detail = check_dsl_round_trip()
    if ok:
        # byte-stability against the committed golden exports
        from pathlib import Path

        from splitops import catalog
        from splitops.dsl import serialize

        golden = Path(__file__).parent / "golden"
        for name in catalog.list_names():
            if serialize(catalog.get(name), "json").encode() != (
                golden / f"{name}.json"
            ).read_bytes():
                ok, detail = False, f"golden export drifted for {name}"
                break
    _report(9, "dsl round-trip", ok, detail)
