"""The definition language and the serializers."""

from fractions import Fraction
from pathlib import Path

import pytest

from splitops import catalog
from splitops.dsl import (
    DslError,
    DslValidationError,
    parse_type,
    parse_type_json,
    parse_type_report,
    serialize,
)

F = Fraction

GOLDEN = Path(__file__).parent / "golden"

DEND = """
type dend {
  generators: lt, gt;
  star: lt+gt;
  relations: (lt.lt | lt.lt + lt.gt) (gt.lt | gt.lt) (lt.gt + gt.gt | gt.gt)
}
"""


def test_parse_dendriform():
    t = parse_type(DEND)
    assert t.name == "dend"
    assert t.generators.labels == ("lt", "gt")
    assert list(t.relations) == list(catalog.get("dendriform").relations)
    assert t.star == (F(1), F(1))


def test_parse_associative():
    t = parse_type("type assoc { generators: m; star: m; relations: (m.m | m.m) }")
    assert t.dim == 1 and len(t.relations) == 1


def test_parse_aux_and_coefficients():
    t = parse_type(
        """
        type tri {
          generators: lt, gt, cir;
          star: lt + gt + cir;
          aux: st = lt + gt + cir;
          relations:
            (lt.lt | lt.st) (gt.lt | gt.lt) (st.gt | gt.gt) (gt.cir | gt.cir)
            (lt.cir | cir.gt) (cir.lt | cir.lt) (cir.cir | cir.cir)
        }
        """
    )
    assert t.relation_subspace == catalog.get("trialgebra").relation_subspace
    scaled = parse_type(
        "type s { generators: a; star: 2*a - 1*a; relations: (a.a | a.a) }"
    )
    assert scaled.star == (F(1),)
    half = parse_type(
        "type h { generators: a, b; star: a + b;"
        " relations: (a.a | a.a + 1/2*a.b - 1/2*a.b)"
        " (a.b + b.a + b.b | a.b + b.a + b.b) }"
    )
    assert half.relations[0].coeff(1, 0, 1) == 0


def test_parse_rejects_bad_star():
    with pytest.raises(DslValidationError) as excinfo:
        parse_type("type bad { generators: a; star: a; relations: (a.a | 2*a.a) }")
    report = excinfo.value.report
    assert report.star_nonzero and not report.star_associative


def test_parse_report_allows_invalid():
    t, report = parse_type_report(
        "type bad { generators: a; star: a; relations: (a.a | 2*a.a) }"
    )
    assert not report.valid
    assert t.dim == 1


def test_syntax_error_has_span():
    with pytest.raises(DslError) as excinfo:
        parse_type("type t {\n  generators: a;;\n  star: a;\n  relations: (a.a | a.a)\n}")
    assert excinfo.value.span.line == 2


def test_unknown_identifier_error():
    with pytest.raises(DslError, match="unknown identifier 'b'"):
        parse_type("type t { generators: a; star: b; relations: (a.a | a.a) }")


def test_duplicate_generator_error():
    with pytest.raises(DslError, match="duplicate"):
        parse_type("type t { generators: a, a; star: a; relations: (a.a | a.a) }")


def test_unexpected_character_span():
    with pytest.raises(DslError) as excinfo:
        parse_type("type t { generators: a; star: a; relations: (a.a ? a.a) }")
    assert excinfo.value.span.column > 1


def test_round_trip_all_catalog_entries():
    for name in catalog.list_names():
        t = catalog.get(name)
        back = parse_type(serialize(t, "dsl"))
        assert back.generators.labels == t.generators.labels, name
        assert back.star == t.star, name
        assert back.aux == t.aux, name
        assert list(back.relations) == list(t.relations), name


def test_quoted_product_labels():
    t = catalog.get("quadri")
    text = serialize(t, "dsl")
    assert '"(lt|gt)"' in text
    assert parse_type(text).generators.labels == t.generators.labels


def test_zero_sided_relations_round_trip():
    t = catalog.get("assoc_trialgebra")
    text = serialize(t, "dsl")
    back = parse_type(text)
    assert list(back.relations) == list(t.relations)


def test_json_round_trip_and_schema():
    import json

    t = catalog.get("dendriform")
    text = serialize(t, "json")
    data = json.loads(text)
    assert list(data) == ["name", "generators", "star", "aux", "relations"]
    assert data["star"] == ["1", "1"]
    assert data["relations"][0]["L"] == [["1", "0"], ["0", "0"]]
    assert set(v for row in data["relations"][0]["L"] for v in row) <= {"0", "1"}
    back = parse_type_json(text)
    assert list(back.relations) == list(t.relations)
    assert serialize(back, "json") == text


def test_golden_json_exports_are_byte_stable():
    for name in catalog.list_names():
        expected = (GOLDEN / f"{name}.json").read_bytes()
        assert serialize(catalog.get(name), "json").encode() == expected, name


def test_latex_quadri_rows():
    text = serialize(catalog.get("quadri"), "latex")
    assert text.count("\\\\") == 9
    assert "\\binom{\\prec}{\\succ}" in text
    assert serialize(catalog.get("quadri"), "latex") == text


def test_latex_uses_symbol_table():
    text = serialize(catalog.get("dendriform"), "latex")
    assert "(x \\prec y) \\prec z" in text
    assert "\\begin{array}" in text


def test_serialize_unknown_format():
    with pytest.raises(ValueError):
        serialize(catalog.get("dendriform"), "xml")
