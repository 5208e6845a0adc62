"""Seeded op lists for the three benchmark workloads.

Inputs are catalog presentations pushed through ``typecore.relabel`` with
generator permutations drawn from ``(workload, seed, pass)``; relabelling
preserves every answer the workloads check.  Every op gets presentation
objects of its own (fresh copies share only the immutable relation
elements), so no op reads a relation subspace cached by an earlier op.

The heavy op of each workload runs on a fresh copy in the published
coordinates: positional elimination does seed-dependent work on permuted
coordinates (about +-15% on the heavy ops), which would hide changes of
that size.

Expected verdicts come from ``expected.json`` (hand-written, with
sources), never from splitops itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from splitops import catalog, dsl, duality, morphisms, operatorver, products, typecore
from splitops.exactalg import ExactAlgebraError, Matrix

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())
TYPES = EXPECTED["types"]
NAMES = tuple(TYPES)
DUAL_DERIVED = frozenset(EXPECTED["dual_derived"])

WORKLOADS = ("relspace", "symmetry", "operators")

# Catalog entries each workload builds during set-up.
SETUP_NAMES = {
    "relspace": NAMES,
    "symmetry": NAMES,
    "operators": ("associative", "dendriform", "trialgebra", "ns", "dipterous", "anti_dipterous"),
}

OPERATOR_BASES = ("associative", "dendriform", "trialgebra", "ns", "dipterous")

LAWS = {
    "rb": lambda: operatorver.rb(None),
    "rb0": lambda: operatorver.rb(0),
    "nijenhuis": operatorver.nijenhuis,
    "left_rb": operatorver.left_rb,
    "right_rb": operatorver.right_rb,
}

# Each (base, law) pair of the operators workload is verified this many
# times per pass, so that one pass holds more than 100 light ops.
OPERATOR_REPEATS = 4

# The commuting families of the paper suite (all on the associative
# type) plus two larger bases.
FAMILIES = (
    ("associative", ("rb0", "rb0")),
    ("associative", ("rb", "rb")),
    ("associative", ("right_rb", "left_rb")),
    ("associative", ("left_rb", "left_rb")),
    ("associative", ("rb0", "rb0", "rb0")),
    ("ns", ("rb", "rb")),
    ("dendriform", ("rb", "rb")),
)

# Rounds of quadri and m2 permutation checks in the symmetry workload.
# These small queries are most of its light ops, so that the median and
# the 90th percentile of light op times fall inside dense groups of
# similar queries, not in gaps between op kinds where a seed moves them far.
PERMUTATION_ROUNDS = 6

REFUSED = "refused"


@dataclass
class Op:
    """One call into splitops with the verdict it must give.

    ``size`` is the largest generator count the op works on; the reduced
    (smoke) op lists keep only ops of size at most 4.
    """

    name: str
    call: Callable[[], Any]
    expected: Any
    size: int
    inputs: tuple = ()


@dataclass
class OpList:
    heavy: Op
    light: list[Op]

    @property
    def ops(self) -> list[Op]:
        return [self.heavy] + self.light


# ---------------------------------------------------------------------------
# seeded inputs


def _copy(t: typecore.TypePresentation) -> typecore.TypePresentation:
    """A new presentation object with nothing cached."""
    return typecore.TypePresentation(
        t.generators,
        t.star,
        t.relations,
        aux=t.aux,
        star_unresolved=t.star_unresolved,
        provenance=t.provenance,
    )


def _perm_matrix(labels, mapping: dict) -> Matrix:
    """The matrix ``relabel`` uses for a label bijection."""
    m = len(labels)
    return Matrix(
        [[Fraction(int(mapping[labels[j]] == labels[i])) for j in range(m)] for i in range(m)],
        ncols=m,
    )


class Inputs:
    """The seeded inputs of one pass.

    Entries with at most ``FRESH_PERM_MAX`` generators get a new
    permutation on every request; larger ones, whose relabelling is
    costly, share one permutation per pass.
    """

    FRESH_PERM_MAX = 4

    def __init__(self, workload: str, seed: int, index: int):
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self.perms: dict[str, dict] = {}
        self._templates: dict[str, typecore.TypePresentation] = {}

    def _shuffle(self, name: str) -> dict:
        labels = list(catalog.get(name).generators.labels)
        images = list(labels)
        self.rng.shuffle(images)
        return dict(zip(labels, images))

    def perm(self, name: str) -> dict:
        """The pass's shared generator permutation of a catalog entry."""
        if name not in self.perms:
            self.perms[name] = self._shuffle(name)
        return self.perms[name]

    def _template(self, name: str) -> typecore.TypePresentation:
        if name not in self._templates:
            self._templates[name] = typecore.relabel(catalog.get(name), self.perm(name))
        return self._templates[name]

    def relabelled(self, name: str) -> typecore.TypePresentation:
        if _gens(name) <= self.FRESH_PERM_MAX:
            return typecore.relabel(catalog.get(name), self._shuffle(name))
        return _copy(self._template(name))

    def published(self, name: str) -> typecore.TypePresentation:
        return _copy(catalog.get(name))

    def shared(self, name: str) -> typecore.TypePresentation:
        """A fresh copy of the entry under the pass's shared permutation."""
        return _copy(self._template(name))

    def conjugated(self, name: str, tau: dict) -> morphisms.TypeMorphism:
        """p(t) -> p(t) with matrix P_p P_tau P_p^-1 for a seeded p.

        An isomorphism exactly when tau is an automorphism of t.
        """
        if _gens(name) <= self.FRESH_PERM_MAX:
            p = self._shuffle(name)
            source = typecore.relabel(catalog.get(name), p)
            target = _copy(source)
        else:
            p = self.perm(name)
            source, target = self.shared(name), self.shared(name)
        p_inv = {v: k for k, v in p.items()}
        labels = catalog.get(name).generators.labels
        composite = {x: p[tau[p_inv[x]]] for x in labels}
        return morphisms.TypeMorphism(source, target, _perm_matrix(labels, composite))


def _atoms(label: str) -> tuple[str, ...]:
    return tuple(label[1:-1].split("|"))


def _coordinate_perms(labels) -> list[dict]:
    """Label maps permuting the factor coordinates of flat product labels."""
    by_atoms = {_atoms(l): l for l in labels}
    k = len(_atoms(labels[0]))
    return [
        {l: by_atoms[tuple(_atoms(l)[i] for i in perm)] for l in labels}
        for perm in itertools.permutations(range(k))
    ]


# ---------------------------------------------------------------------------
# expected answers


def _count(name: str) -> int:
    return TYPES[name]["relations"]


def _gens(name: str) -> int:
    return TYPES[name]["generators"]


def _product_expected(base: str, laws) -> list:
    """[verdict count, all verified] of an operator run on ``base``."""
    count = _count(base)
    for law in laws:
        count *= _count(EXPECTED["operator_factors"][law])
    return [count, True]


def _product_size(base: str, laws) -> int:
    size = _gens(base)
    for law in laws:
        size *= _gens(EXPECTED["operator_factors"][law])
    return size


# ---------------------------------------------------------------------------
# verdicts


def _square_verdict(ta, tb, results: dict, key):
    try:
        sq = products.square(ta, tb)
    except ExactAlgebraError:
        return REFUSED
    results[key] = sq
    return [sq.dim, sq.relation_subspace.dim]


def _round_trip_verdict(results: dict, key) -> bool:
    export = dsl.serialize(results[key], "json")
    return dsl.serialize(dsl.parse_type_json(export), "json") == export


def _dual_verdict(t) -> list[int]:
    d = duality.dual(t)
    return [d.dim, len(d.relations)]


def _report_verdict(report) -> list:
    return [len(report.verdicts), report.all_verified]


def _lemmas_verdict() -> list:
    reports = operatorver.verify_operator_lemmas()
    return [len(reports), all(r.ok for r in reports)]


def _square_op(make, a: str, b: str, results: dict, key) -> Op:
    """square(a, b) on presentations from ``make``; stores it under ``key``."""
    ta, tb = make(a), make(b)
    expected = (
        REFUSED
        if a in DUAL_DERIVED and b in DUAL_DERIVED
        else [_gens(a) * _gens(b), _count(a) * _count(b)]
    )
    return Op(
        f"square {a} {b}",
        lambda: _square_verdict(ta, tb, results, key),
        expected,
        _gens(a) * _gens(b),
        (ta, tb),
    )


def _automorphisms_op(t, name: str) -> Op:
    return Op(
        f"monomial_automorphisms {name}",
        lambda: len(morphisms.monomial_automorphisms(t)),
        EXPECTED["group_orders"][name],
        _gens(name),
        (t,),
    )


def _family_op(t, base: str, laws) -> Op:
    return Op(
        f"verify_commuting_family {base} {' '.join(laws)}",
        lambda: _report_verdict(
            operatorver.verify_commuting_family(t, [LAWS[law]() for law in laws])
        ),
        _product_expected(base, laws),
        _product_size(base, laws),
        (t,) + tuple(laws),
    )


# ---------------------------------------------------------------------------
# op lists


def relspace(inp: Inputs) -> OpList:
    """Bulk elimination on large sparse relation spaces."""
    results: dict = {}
    heavy = _square_op(inp.published, "ennea", "trialgebra", results, "heavy")
    squares, trips, light = [], [], []
    for a in NAMES:
        for b in NAMES:
            if _gens(a) * _gens(b) > 9:
                continue
            squares.append(_square_op(inp.relabelled, a, b, results, (a, b)))
            if not (a in DUAL_DERIVED and b in DUAL_DERIVED):
                trips.append(
                    Op(
                        f"json round trip {a} {b}",
                        lambda key=(a, b): _round_trip_verdict(results, key),
                        True,
                        _gens(a) * _gens(b),
                    )
                )
    for other in NAMES:
        if _gens(other) > 4:
            continue
        for a, b in (("associative", other), (other, "associative")):
            ta, tb = inp.relabelled(a), inp.relabelled(b)
            m = _gens(a) * _gens(b)
            light.append(
                Op(
                    f"maltese {a} {b}",
                    lambda ta=ta, tb=tb: len(products.maltese(ta, tb).relations),
                    2 * m * m,
                    m,
                    (ta, tb),
                )
            )
    for name in NAMES:
        m, r = _gens(name), _count(name)
        t1, t2, t3 = inp.relabelled(name), inp.relabelled(name), inp.relabelled(name)
        light.append(Op(f"dual {name}", lambda t=t1: _dual_verdict(t), [m, 2 * m * m - r], m, (t1,)))
        light.append(
            Op(f"double dual {name}", lambda t=t2: duality.double_dual_check(t), True, m, (t2,))
        )
        light.append(
            Op(f"arity3 {name}", lambda t=t3: typecore.arity3_dimension(t), 2 * m * m - r, m, (t3,))
        )
    return OpList(heavy, squares + trips + light)


def symmetry(inp: Inputs, tables: dict) -> OpList:
    """Many small push-forwards and membership queries."""
    heavy = _automorphisms_op(inp.published("octo"), "octo")
    light = [
        _automorphisms_op(inp.relabelled(name), name)
        for name in EXPECTED["group_orders"]
        if _gens(name) <= 4
    ]
    for name in EXPECTED["tables"]:
        f = tables[name]
        labels = f.target.generators.labels
        g = morphisms.TypeMorphism(
            _copy(f.source),
            inp.shared(name),
            _perm_matrix(labels, inp.perm(name)) @ f.matrix,
        )
        light.append(
            Op(f"table {name}", lambda g=g: morphisms.check_isomorphism(g), True, _gens(name), (g,))
        )
    # t -> relabel(t, p), its inverse, and the identity of relabel(t, p)
    for name in NAMES:
        labels = catalog.get(name).generators.labels
        p = inp.perm(name)
        p_inv = {v: k for k, v in p.items()}
        maps = [
            morphisms.TypeMorphism(inp.published(name), inp.shared(name), _perm_matrix(labels, p))
        ]
        if _gens(name) <= 4:
            maps.append(
                morphisms.TypeMorphism(
                    inp.shared(name), inp.published(name), _perm_matrix(labels, p_inv)
                )
            )
            maps.append(inp.conjugated(name, {l: l for l in labels}))
        for g in maps:
            light.append(
                Op(
                    f"relabel isomorphism {name}",
                    lambda g=g: morphisms.check_isomorphism(g),
                    True,
                    _gens(name),
                    (g,),
                )
            )
    # every permutation of the quadri and m2 generators, each under
    # PERMUTATION_ROUNDS conjugations; the automorphisms are exactly the
    # identity and the factor transpose
    taus = []
    for name in ("quadri", "m2"):
        labels = catalog.get(name).generators.labels
        by_atoms = {_atoms(l): l for l in labels}
        group = [{l: l for l in labels}, {l: by_atoms[_atoms(l)[::-1]] for l in labels}]
        for _ in range(PERMUTATION_ROUNDS):
            for images in itertools.permutations(labels):
                tau = dict(zip(labels, images))
                taus.append((name, tau, tau in group))
    # octo: the six coordinate permutations and twelve seeded others
    labels = catalog.get("octo").generators.labels
    coordinate = _coordinate_perms(labels)
    others = []
    for _ in range(12):
        images = list(labels)
        inp.rng.shuffle(images)
        others.append(dict(zip(labels, images)))
    for tau in coordinate + others:
        taus.append(("octo", tau, tau in coordinate))
    for name, tau, expected in taus:
        g = inp.conjugated(name, tau)
        light.append(
            Op(
                f"permutation {name}",
                lambda g=g: morphisms.check_isomorphism(g),
                expected,
                _gens(name),
                (g,),
            )
        )
    return OpList(heavy, light)


def operators(inp: Inputs) -> OpList:
    """Term rewriting and certificates."""
    heavy = _family_op(inp.published("trialgebra"), "trialgebra", ("rb", "rb"))
    light = []
    for _ in range(OPERATOR_REPEATS):
        for base in OPERATOR_BASES:
            for law in LAWS:
                t = inp.relabelled(base)
                light.append(
                    Op(
                        f"verify_operator_theorem {base} {law}",
                        lambda t=t, law=law: _report_verdict(
                            operatorver.verify_operator_theorem(t, LAWS[law]())
                        ),
                        _product_expected(base, (law,)),
                        _product_size(base, (law,)),
                        (t, law),
                    )
                )
    for base, laws in FAMILIES:
        light.append(_family_op(inp.relabelled(base), base, laws))
    light.append(
        Op("verify_operator_lemmas", _lemmas_verdict, [EXPECTED["lemma_reports"], True], 3)
    )
    return OpList(heavy, light)


def _smoke_heavy(workload: str, inp: Inputs) -> Op:
    """A small analogue of the workload's heavy op."""
    if workload == "relspace":
        return _square_op(inp.published, "trialgebra", "trialgebra", {}, "heavy")
    if workload == "symmetry":
        return _automorphisms_op(inp.published("quadri"), "quadri")
    return _family_op(inp.published("associative"), "associative", ("rb", "rb"))


class Workload:
    """Set-up state and per-pass op lists of one workload."""

    def __init__(self, name: str, smoke: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.smoke = smoke
        self._tables: dict | None = None

    def set_up(self) -> None:
        """Build every catalog entry the workload uses."""
        for name in SETUP_NAMES[self.name]:
            catalog.get(name)

    def op_list(self, seed: int, index: int) -> OpList:
        """The ops of pass ``index``, with fresh inputs drawn from the seed."""
        inp = Inputs(self.name, seed, index)
        if self.name == "relspace":
            ops = relspace(inp)
        elif self.name == "symmetry":
            if self._tables is None:
                self._tables = {n: catalog.table_isomorphism(n) for n in EXPECTED["tables"]}
            ops = symmetry(inp, self._tables)
        else:
            ops = operators(inp)
        if self.smoke:
            ops = OpList(
                _smoke_heavy(self.name, inp), [op for op in ops.light if op.size <= 4]
            )
        return ops


# ---------------------------------------------------------------------------
# input digest


def _feed(h, obj) -> None:
    if isinstance(obj, typecore.TypePresentation):
        h.update(repr(obj.generators.labels).encode())
        h.update(repr(None if obj.star is None else [str(x) for x in obj.star]).encode())
        for rel in obj.relations:
            h.update(",".join(str(x) for x in rel.flatten()).encode())
            h.update(b";")
    elif isinstance(obj, morphisms.TypeMorphism):
        _feed(h, obj.source)
        _feed(h, obj.target)
        h.update(repr([[str(x) for x in row] for row in obj.matrix.rows]).encode())
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            _feed(h, x)
    else:
        h.update(repr(obj).encode())
    h.update(b"|")


def digest(ops: OpList) -> str:
    """SHA-256 over every op's name, expected verdict and input contents."""
    h = hashlib.sha256()
    for op in ops.ops:
        _feed(h, (op.name, op.expected, op.inputs))
    return h.hexdigest()
