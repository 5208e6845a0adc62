"""The definition language and the serializers."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitops import catalog, duality, products
from splitops.dsl import (
    DslError,
    parse_type,
    parse_type_json,
    parse_type_report,
    serialize,
)
from splitops.exactalg import ExactAlgebraError, format_scalar
from splitops.typecore import (
    GeneratorSpace,
    InvalidPresentation,
    RelationElement,
    TypePresentation,
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
    with pytest.raises(InvalidPresentation, match="bad: invalid presentation") as excinfo:
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


# -- the JSON writer and parser against json.dumps and the parser they replaced --


def _oracle_export(t) -> str:
    """The JSON export as ``json.dumps(indent=2)`` writes it, the writer ``serialize`` replaced."""
    def blocks(rel):
        m = rel.size
        out = [[["0"] * m for _ in range(m)] for _ in range(2)]
        for block, i, j, c in rel.nonzero():
            out[block][i][j] = format_scalar(c)
        return {"L": out[0], "R": out[1]}

    obj = {
        "name": t.name,
        "generators": list(t.generators.labels),
        "star": [format_scalar(x) for x in t.star] if t.star is not None else None,
        "aux": {k: [format_scalar(x) for x in v] for k, v in t.aux.items()},
        "relations": [blocks(rel) for rel in t.relations],
    }
    return json.dumps(obj, indent=2) + "\n"


def _oracle_parse(text: str):
    """(star, aux, relations) of a well-formed export, read cell by cell as every cell once was."""
    def vector(value, m):
        assert isinstance(value, list) and len(value) == m
        return [rational(x) for x in value]

    def rational(value):
        known = common.get(value) if isinstance(value, str) else None
        if known is not None:
            return known
        assert isinstance(value, (int, str)) and not isinstance(value, bool)
        return Fraction(value)

    common = {"0": F(0), "1": F(1), "-1": F(-1)}

    obj = json.loads(text)
    m = len(obj["generators"])
    star = obj.get("star")
    if star is not None:
        star = tuple(vector(star, m))
    aux = {k: tuple(vector(v, m)) for k, v in obj.get("aux", {}).items()}
    relations = []
    for rel in obj["relations"]:
        coeffs = {}
        for block, key in enumerate(("L", "R")):
            assert len(rel[key]) == m
            for i, row in enumerate(rel[key]):
                for j, c in enumerate(vector(row, m)):
                    if c:
                        coeffs[block * m * m + i * m + j] = c
        relations.append(RelationElement(m, coeffs))
    return star, aux, relations


def _assert_json_export_and_parse(t):
    text = serialize(t, "json")
    assert text == _oracle_export(t), t.name
    back = parse_type_json(text)
    star, aux, relations = _oracle_parse(text)
    assert back.star == star, t.name
    assert back.aux == aux, t.name
    assert list(back.relations) == relations, t.name
    return back


def test_json_export_matches_json_dumps_on_catalog_types_and_duals():
    null_stars = set()
    for name in catalog.list_names():
        t = catalog.get(name)
        _assert_json_export_and_parse(t)
        d = duality.dual(t, labels=catalog.DUAL_LABELS.get(name))
        if d.star is None:
            null_stars.add(name)
        assert _assert_json_export_and_parse(d).star_unresolved == (d.star is None)
    assert {"ennea", "octo", "dendriform_nijenhuis", "di_dipterous_anti"} <= null_stars


def test_json_export_matches_json_dumps_on_squares():
    names = catalog.list_names()
    count = 0
    for a in names:
        for b in names:
            ta, tb = catalog.get(a), catalog.get(b)
            if ta.dim * tb.dim > 9:
                continue
            try:
                sq = products.square(ta, tb)
            except ExactAlgebraError:
                continue
            _assert_json_export_and_parse(sq)
            count += 1
    assert count >= 100
    _assert_json_export_and_parse(products.square(catalog.get("ennea"), catalog.get("trialgebra")))


def test_golden_json_export_of_a_dual_without_star():
    t = duality.dual(catalog.get("ennea"), labels=catalog.DUAL_LABELS.get("ennea"))
    expected = (GOLDEN / "dual" / "ennea.json").read_bytes()
    assert serialize(t, "json").encode() == expected
    back = parse_type_json(expected.decode())
    assert back.star is None and back.star_unresolved
    assert back.relation_subspace == t.relation_subspace


# Names with characters json.dumps escapes (backslash, control and
# non-ASCII ones, astral ones as surrogate pairs).  One presentation in
# four may also use characters the definition language cannot write,
# which the parser refuses.
_WRITABLE = 'ab\\\t\x01éλ\U0001f600|()'
_rationals = st.sampled_from([F(1), F(-1), F(2), F(-3, 7), F(5, 2)]) | st.fractions(
    min_value=-9, max_value=9, max_denominator=12
).filter(bool)


@st.composite
def presentations(draw):
    alphabet = _WRITABLE if draw(st.integers(0, 3)) else _WRITABLE + '"\n\r'
    text = st.text(alphabet=alphabet, max_size=4)
    labels = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    m = len(labels)
    vector = st.lists(st.just(F(0)) | _rationals, min_size=m, max_size=m)
    star = draw(st.none() | vector)
    aux = draw(st.dictionaries(text, vector, max_size=3))
    relation = st.dictionaries(st.integers(0, 2 * m * m - 1), _rationals, max_size=6)
    relations = [RelationElement(m, c) for c in draw(st.lists(relation, max_size=3))]
    name = draw(text)
    return TypePresentation(
        GeneratorSpace(name, tuple(labels)), star, relations, aux=aux, star_unresolved=star is None
    )


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_json_export_and_parse_match_the_oracles_on_random_presentations(t):
    text = serialize(t, "json")
    assert text == _oracle_export(t)
    names = (t.name, *t.generators.labels, *t.aux)
    if any('"' in s or "\n" in s or "\r" in s for s in names) or set(t.aux) & set(
        t.generators.labels
    ):
        with pytest.raises(DslError):
            parse_type_json(text)
        return
    back = _assert_json_export_and_parse(t)
    assert back.name == t.name and back.generators == t.generators
    assert serialize(back, "json") == text


def _dendriform_named(name="d", labels=("lt", "gt"), aux=None):
    """Dendriform's star and relations under other names, built through the API."""
    d = catalog.get("dendriform")
    return TypePresentation(GeneratorSpace(name, labels), d.star, d.relations, aux=aux)


@pytest.mark.parametrize(
    "names, message",
    [
        ({"labels": ('l"t', "gt")}, "generators[0]: a name cannot contain"),
        ({"labels": ("lt", "g\nt")}, "generators[1]: a name cannot contain"),
        ({"labels": ("lt", "g\rt")}, "generators[1]: a name cannot contain"),
        ({"name": 'd"'}, "name: a name cannot contain"),
        ({"aux": {'s"t': (1, 1)}}, 'aux.s"t: a name cannot contain'),
        ({"aux": {"lt": (1, 1)}}, "aux.lt: duplicate name"),
    ],
)
def test_dsl_export_refuses_the_names_the_json_reader_refuses(names, message):
    # 'l"t' once exported as `generators: "l"t", gt;`, which does not parse
    t = _dendriform_named(**names)
    with pytest.raises(DslError) as dsl_err:
        serialize(t, "dsl")
    assert str(dsl_err.value).startswith(message)
    with pytest.raises(DslError) as json_err:
        parse_type_json(serialize(t, "json"))
    assert str(json_err.value) == str(dsl_err.value)
