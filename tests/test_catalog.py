"""Catalog entries carry the published counts and identifications."""

import pytest

from splitops import catalog
from splitops.duality import dual
from splitops.dsl import serialize
from splitops.exactalg import Matrix, Subspace
from splitops.typecore import validate


def test_all_entries_validate_with_published_counts():
    assert len(catalog.list_names()) == 17
    for name in catalog.list_names():
        t = catalog.get(name)
        assert validate(t).valid, name
        assert len(t.relations) == catalog.EXPECTED_RELATION_COUNTS[name], name


def test_entries_are_cached_and_named():
    assert catalog.get("dendriform") is catalog.get("dendriform")
    for name in catalog.list_names():
        assert catalog.get(name).name == name


@pytest.mark.parametrize("name", ["dendriform", "trialgebra"])
def test_base_entries_are_eliminated_once(monkeypatch, name):
    # the span computed while validating the parsed text is kept
    calls = []
    from_rows = Subspace.from_rows.__func__

    def counting(cls, ambient, rows):
        calls.append(ambient)
        return from_rows(cls, ambient, rows)

    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.setattr(Subspace, "from_rows", classmethod(counting))
    t = catalog.get(name)
    assert t.relation_subspace.dim == len(t.relations)
    assert len(calls) == 1


def test_unknown_name_lists_alternatives():
    with pytest.raises(catalog.UnknownTypeError, match="dendriform"):
        catalog.get("dendroform")


def test_provenance_notes_exist():
    for name in catalog.list_names():
        assert catalog.provenance(name)


@pytest.mark.parametrize("name", catalog.list_names())
def test_an_entry_carries_its_catalog_note(name):
    # a recipe's note too, not the product's "square product of ..."
    assert catalog.get(name).provenance == catalog.provenance(name)


def test_unknown_name_has_no_note():
    with pytest.raises(catalog.UnknownTypeError, match="available: associative, dendriform"):
        catalog.provenance("dendroform")


# the order ``splitops list`` prints and the published relation counts of
# the defining axiom lists (the counts bench/expected.json records)
_PUBLISHED = {
    "associative": 1,
    "dendriform": 3,
    "trialgebra": 7,
    "ns": 4,
    "dipterous": 3,
    "anti_dipterous": 3,
    "quadri_lit": 9,
    "assoc_dialgebra": 5,
    "assoc_trialgebra": 11,
    "assoc_nijenhuis_tri": 14,
    "quadri": 9,
    "ennea": 49,
    "dendriform_nijenhuis": 28,
    "octo": 27,
    "m2": 9,
    "m1": 9,
    "di_dipterous_anti": 27,
}


def test_the_catalog_order_and_published_counts_are_pinned():
    assert catalog.list_names() == tuple(_PUBLISHED)
    assert catalog.EXPECTED_RELATION_COUNTS == _PUBLISHED


def test_dual_identifications():
    dend = catalog.get("dendriform")
    assert (
        dual(dend).relation_subspace
        == catalog.get("assoc_dialgebra").relation_subspace
    )
    ns = catalog.get("ns")
    assert (
        dual(ns).relation_subspace
        == catalog.get("assoc_nijenhuis_tri").relation_subspace
    )
    tri = catalog.get("trialgebra")
    assert (
        dual(tri).relation_subspace
        == catalog.get("assoc_trialgebra").relation_subspace
    )


def test_ns_entry_counts():
    ns = catalog.get("ns")
    assert ns.dim == 3
    assert len(ns.relations) == 4


def test_quadri_lit_matches_published_shape():
    q = catalog.get("quadri_lit")
    assert q.generators.labels == ("ne", "nw", "se", "sw")
    assert set(q.aux) == {"wedge", "vee", "lt", "gt", "st"}
    assert len(q.relations) == 9


def test_recipe_entries_are_products():
    assert catalog.get("quadri").dim == 4
    assert catalog.get("ennea").dim == 9
    assert catalog.get("dendriform_nijenhuis").dim == 9
    assert catalog.get("octo").dim == 8
    assert catalog.get("di_dipterous_anti").dim == 8
    assert catalog.get("m1").generators.labels[0] == "(st|st)"


def test_assoc_trialgebra_found_its_star():
    at = catalog.get("assoc_trialgebra")
    assert at.star is not None
    assert validate(at).valid


def test_latex_symbols():
    assert catalog.latex_symbol("lt") == r"\prec"
    assert catalog.latex_symbol("(lt|gt)") == r"\binom{\prec}{\succ}"
    assert catalog.latex_symbol("bul3") == r"\bullet_{3}"
    assert catalog.latex_symbol("weird") == r"\mathtt{weird}"
    # a right-nested pair keeps its nesting
    assert catalog.latex_symbol("(lt|(lt|gt))") == r"\binom{\prec}{\binom{\prec}{\succ}}"


def test_latex_power_labels_stack_left_nested():
    # the flattened octo label and its unflattened spelling write one stack
    want = r"\binom{\binom{\prec}{\prec}}{\succ}"
    assert catalog.latex_symbol("(lt|lt|gt)") == want
    assert catalog.latex_symbol("((lt|lt)|gt)") == want
    text = serialize(catalog.get("octo"), "latex")
    assert want in text and r"\mathtt" not in text


def test_table_isomorphism_unknown():
    with pytest.raises(catalog.UnknownTypeError, match="octo"):
        catalog.table_isomorphism("quadri_lit")


def test_each_published_table_is_a_fixed_index_map():
    # literal pins: the order of the tables, each table's source and target
    # and the generator index map it sends the literature labels by
    want = {
        "quadri": ("quadri_lit", (1, 0, 3, 2)),
        "ennea": ("ennea_lit", (0, 2, 1, 6, 8, 7, 3, 5, 4)),
        "dendriform_nijenhuis": ("dendriform_nijenhuis_lit", (1, 4, 3, 0, 2, 5, 6, 7, 8)),
        "octo": ("octo_lit", (2, 3, 0, 1, 6, 7, 4, 5)),
        "m2": ("m2_lit", (3, 2, 1, 0)),
    }
    assert catalog.TABLE_NAMES == tuple(want)
    for name, (source, images) in want.items():
        f = catalog.table_isomorphism(name)
        assert f.source.name == source and f.target is catalog.get(name)
        assert f.matrix == Matrix.monomial(images)
    with pytest.raises(catalog.UnknownTypeError) as err:
        catalog.table_isomorphism("quadri_lit")
    assert str(err.value) == (
        "no published table for 'quadri_lit'; "
        "available: quadri, ennea, dendriform_nijenhuis, octo, m2"
    )
