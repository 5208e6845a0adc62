"""Built-in presentations and named product recipes.

Base entries are transcribed from the defining axiom lists in the
literature (Loday's dendriform dialgebra, the Loday-Ronco dendriform
trialgebra, Leroux's NS-algebra, the dipterous pair, the Aguiar-Loday
quadri axioms, the associative dialgebra, the associative Nijenhuis
trialgebra) and entered through the definition language, so the catalog
doubles as a machine-checked transcription.  Product entries are built
by recipe (square products, powers, duals).

Generator names use the fixed ASCII aliases lt, gt, cir, bul, lv, rv,
st, dot plus compass names for the quadri/octo operation families.
"""

from __future__ import annotations

from functools import partial

from .duality import dual
from .dsl import parse_type
from .exactalg import ExactAlgebraError, Matrix
from .morphisms import TypeMorphism
from .typecore import GeneratorSpace, TypePresentation, push_relation
from .products import label_factors, pair_label, power, square


class UnknownTypeError(ExactAlgebraError):
    pass


_LATEX = {
    "lt": r"\prec",
    "gt": r"\succ",
    "cir": r"\circ",
    "bul": r"\bullet",
    "lv": r"\dashv",
    "rv": r"\vdash",
    "st": r"\star",
    "dot": r"\cdot",
    "nw": r"\nwarrow",
    "ne": r"\nearrow",
    "sw": r"\swarrow",
    "se": r"\searrow",
    "up": r"\uparrow",
    "dn": r"\downarrow",
    "perp": r"\perp",
    "wedge": r"\wedge",
    "vee": r"\vee",
    "tlt": r"\tilde\prec",
    "tgt": r"\tilde\succ",
    "tbul": r"\tilde\bullet",
}


def latex_symbol(label: str) -> str:
    """A generator label in LaTeX.  A product label is a stack of binomials;
    a power label (a|b|c) stacks left-nested, as ((a|b)|c) does."""
    first, *rest = label_factors(label)
    if rest:
        out = latex_symbol(first)
        for part in rest:
            out = rf"\binom{{{out}}}{{{latex_symbol(part)}}}"
        return out
    if label in _LATEX:
        return _LATEX[label]
    if label.startswith("bul") and label[3:].isdigit():
        return rf"\bullet_{{{label[3:]}}}"
    return rf"\mathtt{{{label}}}"


# dual-basis names matching the published notation, keyed by primal entry
DUAL_LABELS = {
    "dendriform": ("lv", "rv"),
    "trialgebra": ("lv", "rv", "perp"),
    "ns": ("lv", "rv", "cir"),
}

# name -> (published relation count, note, definition text or recipe), in
# the order ``list`` prints; a recipe builds the entry from earlier ones
_ENTRIES = {
    "associative": (
        1,
        "one associative product",
        """
        type associative {
          generators: dot;
          star: dot;
          relations: (dot.dot | dot.dot)
        }
        """,
    ),
    "dendriform": (
        3,
        "Loday's dendriform dialgebra",
        """
        type dendriform {
          generators: lt, gt;
          star: lt + gt;
          aux: st = lt + gt;
          relations:
            (lt.lt | lt.lt + lt.gt)
            (gt.lt | gt.lt)
            (lt.gt + gt.gt | gt.gt)
        }
        """,
    ),
    "trialgebra": (
        7,
        "Loday-Ronco dendriform trialgebra",
        """
        type trialgebra {
          generators: lt, gt, cir;
          star: lt + gt + cir;
          aux: st = lt + gt + cir;
          relations:
            (lt.lt | lt.st)
            (gt.lt | gt.lt)
            (st.gt | gt.gt)
            (gt.cir | gt.cir)
            (lt.cir | cir.gt)
            (cir.lt | cir.lt)
            (cir.cir | cir.cir)
        }
        """,
    ),
    "ns": (
        4,
        "Leroux's NS-algebra; the last relation bundles one linear identity",
        """
        type ns {
          generators: lt, gt, bul;
          star: lt + gt + bul;
          aux: st = lt + gt + bul;
          relations:
            (lt.lt | lt.st)
            (gt.lt | gt.lt)
            (st.gt | gt.gt)
            (st.bul + bul.lt | gt.bul + bul.st)
        }
        """,
    ),
    "dipterous": (
        3,
        "L-dipterous algebra: an associative product and one right action",
        """
        type dipterous {
          generators: st, gt;
          star: st;
          relations:
            (st.st | st.st)
            (st.gt | gt.gt)
            (gt.st | gt.st)
        }
        """,
    ),
    "anti_dipterous": (
        3,
        "L-anti-dipterous algebra, the mirror of the dipterous one",
        """
        type anti_dipterous {
          generators: st, lt;
          star: st;
          relations:
            (st.st | st.st)
            (lt.lt | lt.st)
            (st.lt | st.lt)
        }
        """,
    ),
    "quadri_lit": (
        9,
        "Aguiar-Loday quadri-algebra, the nine published axioms",
        """
        type quadri_lit {
          generators: ne, nw, se, sw;
          star: ne + nw + se + sw;
          aux: wedge = ne + nw, vee = se + sw,
               lt = nw + sw, gt = ne + se,
               st = ne + nw + se + sw;
          relations:
            (nw.nw | nw.st)
            (ne.nw | ne.lt)
            (wedge.ne | ne.gt)
            (sw.nw | sw.wedge)
            (se.nw | se.nw)
            (vee.ne | se.ne)
            (lt.sw | sw.vee)
            (gt.sw | se.sw)
            (st.se | se.se)
        }
        """,
    ),
    "assoc_dialgebra": (
        5,
        "associative dialgebra, the dual of the dendriform dialgebra",
        """
        type assoc_dialgebra {
          generators: lv, rv;
          star: lv;
          relations:
            (lv.lv | lv.lv)
            (rv.rv | rv.rv)
            (lv.lv | lv.rv)
            (rv.lv | rv.lv)
            (lv.rv | rv.rv)
        }
        """,
    ),
    "assoc_trialgebra": (
        11,
        "associative trialgebra, the dual of the dendriform trialgebra",
        lambda: dual(get("trialgebra"), labels=DUAL_LABELS["trialgebra"]),
    ),
    "assoc_nijenhuis_tri": (
        14,
        "associative Nijenhuis trialgebra: the 14 independent relations "
        "perpendicular to the NS axioms; all three products are associative",
        """
        type assoc_nijenhuis_tri {
          generators: lv, rv, cir;
          star: lv;
          relations:
            (lv.lv | lv.lv)
            (lv.lv | lv.rv)
            (lv.lv | lv.cir)
            (rv.lv | rv.lv)
            (rv.rv | rv.rv)
            (lv.rv | rv.rv)
            (cir.rv | rv.rv)
            (lv.cir | rv.cir)
            (rv.cir | rv.cir)
            (cir.cir | rv.cir)
            (cir.lv | rv.cir)
            (cir.lv | cir.lv)
            (cir.lv | cir.rv)
            (cir.lv | cir.cir)
        }
        """,
    ),
    "quadri": (
        9,
        "square of the dendriform dialgebra with itself",
        lambda: square(get("dendriform"), get("dendriform")),
    ),
    "ennea": (
        49,
        "square of the dendriform trialgebra with itself",
        lambda: square(get("trialgebra"), get("trialgebra")),
    ),
    "dendriform_nijenhuis": (
        28,
        "square of the dendriform trialgebra with the NS-algebra",
        lambda: square(get("trialgebra"), get("ns")),
    ),
    "octo": (
        27,
        "third power of the dendriform dialgebra",
        lambda: power(get("dendriform"), 3),
    ),
    "m2": (
        9,
        "square of the dipterous type with itself",
        lambda: square(get("dipterous"), get("dipterous")),
    ),
    "m1": (
        9,
        "square of the anti-dipterous and dipterous types; the published "
        "identification gives no operation table, so it stays unverified",
        lambda: square(get("anti_dipterous"), get("dipterous")),
    ),
    "di_dipterous_anti": (
        27,
        "product of dendriform, dipterous and anti-dipterous types",
        lambda: square(square(get("dendriform"), get("dipterous")), get("anti_dipterous")),
    ),
}

CATALOG_NAMES = tuple(_ENTRIES)
EXPECTED_RELATION_COUNTS = {name: entry[0] for name, entry in _ENTRIES.items()}

_cache: dict[str, TypePresentation] = {}


def list_names() -> tuple[str, ...]:
    return CATALOG_NAMES


def provenance(name: str) -> str:
    return _entry(name)[1]


def get(name: str) -> TypePresentation:
    """Catalog lookup; presentations are immutable and shared.

    The entry is parsed from its text or built by its recipe, then takes
    the catalog's name and note."""
    if name in _cache:
        return _cache[name]
    _count, note, source = _entry(name)
    t = parse_type(source) if isinstance(source, str) else source()
    t = TypePresentation(
        GeneratorSpace(name, t.generators.labels),
        t.star,
        t.relations,
        aux=t.aux,
        star_unresolved=t.star_unresolved,
        provenance=note,
        subspace=t.relation_subspace,
    )
    _cache[name] = t
    return t


def _entry(name: str) -> tuple:
    if name not in _ENTRIES:
        raise UnknownTypeError(_unknown_message(name))
    return _ENTRIES[name]


def _unknown_message(name: str) -> str:
    return f"unknown type {name!r}; available: {', '.join(CATALOG_NAMES)}"


# ---------------------------------------------------------------------------
# published operation tables
#
# Each table identifies the literature operations with product pairs.  For
# the quadri-algebra the literature side is the independent nine-axiom
# transcription above; for the others the published axiom lists are not
# reproduced here, so the literature presentation is the pullback of the
# product along the table (octo pulls back through square(quadri_lit, D),
# which still exercises the transcribed quadri axioms).

_QUADRI_TABLE = {
    "nw": ("lt", "lt"),
    "ne": ("lt", "gt"),
    "sw": ("gt", "lt"),
    "se": ("gt", "gt"),
}

_ENNEA_TABLE = {
    # Leroux's nine ennea operations, row by row
    "nw": ("lt", "lt"), "up": ("lt", "cir"), "ne": ("lt", "gt"),
    "lt": ("cir", "lt"), "cir": ("cir", "cir"), "gt": ("cir", "gt"),
    "sw": ("gt", "lt"), "dn": ("gt", "cir"), "se": ("gt", "gt"),
}

_DN_TABLE = {
    # dendriform-Nijenhuis operations against trialgebra x NS pairs
    "ne": ("lt", "gt"), "se": ("gt", "gt"), "sw": ("gt", "lt"),
    "nw": ("lt", "lt"), "up": ("lt", "bul"), "dn": ("gt", "bul"),
    "tlt": ("cir", "lt"), "tgt": ("cir", "gt"), "tbul": ("cir", "bul"),
}

_M2_TABLE = {
    "bul1": ("gt", "gt"),
    "bul2": ("gt", "st"),
    "bul3": ("st", "gt"),
    "bul4": ("st", "st"),
}

def _quadri_table():
    source = get("quadri_lit")
    images = {g: pair_label(*_QUADRI_TABLE[g]) for g in source.generators.labels}
    return source, get("quadri"), images


def _pullback_table(name, source_name, table):
    """A table whose literature side is the pullback of the product, named
    ``source_name``; its generators come in the table's key order."""
    target = get(name)
    images = {g: pair_label(*pair) for g, pair in table.items()}
    return _pullback(source_name, images, target), target, images


def _octo_table():
    source = square(get("quadri_lit"), get("dendriform"), name="octo_lit")
    images = {}
    for label in source.generators.labels:
        arrow, d = label_factors(label)
        a, b = _QUADRI_TABLE[arrow]
        images[label] = f"({a}|{b}|{d})"
    return source, get("octo"), images


# each published table, in order, with the function that makes its
# (source, target, label images)
_TABLES = {
    "quadri": _quadri_table,
    "ennea": partial(_pullback_table, "ennea", "ennea_lit", _ENNEA_TABLE),
    "dendriform_nijenhuis": partial(
        _pullback_table, "dendriform_nijenhuis", "dendriform_nijenhuis_lit", _DN_TABLE
    ),
    "octo": _octo_table,
    "m2": partial(_pullback_table, "m2", "m2_lit", _M2_TABLE),
}

TABLE_NAMES = tuple(_TABLES)


def table_isomorphism(name: str) -> TypeMorphism:
    """The published correspondence as a morphism onto the product type."""
    if name not in _TABLES:
        raise UnknownTypeError(
            f"no published table for {name!r}; available: {', '.join(TABLE_NAMES)}"
        )
    return _label_map_morphism(*_TABLES[name]())


def _label_map_morphism(source, target, images: dict[str, str]) -> TypeMorphism:
    rows = [target.generators.index(images[label]) for label in source.generators.labels]
    return TypeMorphism(source, target, Matrix.monomial(rows))


def _pullback(name, images, target) -> TypePresentation:
    """Relabel the product through the inverse of a table bijection, the
    generators in the order of ``images``."""
    order = tuple(images)
    inverse = [0] * target.dim
    for j, label in enumerate(order):
        inverse[target.generators.index(images[label])] = j
    inv = Matrix.monomial(inverse)
    relations = [push_relation(r, inv) for r in target.relations]
    star = inv.apply(target.star)
    return TypePresentation(
        GeneratorSpace(name, tuple(order)),
        star,
        relations,
        provenance=f"pullback of {target.name} through the published table",
    )
