"""Command-line frontend.

Exit codes: 0 success or verified; 1 a mathematical check is false;
2 usage or parse error; 3 internal error.  A reader that closes
standard output early (``| head``) ends the output: exit 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import catalog, dsl, duality, morphisms, operatorver, products, typecore
from .exactalg import ExactAlgebraError, Matrix, format_scalar
from .typecore import (
    InvalidPresentation,
    format_lincomb,
    format_relation,
    require_valid,
    star_associativity,
    star_line,
    validate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _load_type(spec: str):
    """A catalog name, a .json export, or a definition-language file."""
    path = Path(spec)
    if spec.endswith(".json") or spec.endswith(".type") or path.is_file():
        text = path.read_text()
        if spec.endswith(".json") or text.lstrip().startswith("{"):
            # validated here, as parse_type validates a definition-language file
            t = dsl.parse_type_json(text)
            require_valid(t)
            return t
        return dsl.parse_type(text)
    return catalog.get(spec)


def _option(name: str, parse, *args):
    """``parse(*args)``; a value it refuses is a usage error naming the option."""
    try:
        return parse(*args)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


# ---------------------------------------------------------------------------
# commands


def _show(args, out):
    t = _load_type(args.type)
    report = validate(t)
    out(f"type {t.name}: {t.dim} generators, {len(t.relations)} relations")
    out("  generators: " + ", ".join(t.generators.labels))
    out(star_line(t.star, t.generators.labels))
    for k, v in t.aux.items():
        out(f"  aux {k} = " + format_lincomb(v, t.generators.labels))
    out(f"  valid: {report.valid}")
    for k, rel in enumerate(t.relations):
        out(f"  ({k + 1}) " + format_relation(rel, t.generators.labels))
    if args.relation_basis:
        for k, rel in enumerate(t.relations):
            out(f"  basis element {k + 1}:")
            for block, tag in enumerate(("L", "R")):
                for i in range(t.dim):
                    row = (format_scalar(rel.coeff(block, i, j)) for j in range(t.dim))
                    out(f"    {tag} " + " ".join(row))
    return EXIT_OK


def _validate(args, out):
    try:
        report = validate(_load_type(args.type))
    except InvalidPresentation as err:
        if err.report is None:
            raise
        report = err.report
    out(report.describe())
    return EXIT_OK if report.valid else EXIT_CHECK_FAILED


def _print_type(t, args, out):
    """A computed type: its JSON export alone, or a summary line, the star
    when it is unresolved, and the numbered relations."""
    if args.json:
        out(dsl.serialize(t, "json"))
        return EXIT_OK
    out(f"{t.name}: {t.dim} generators, {len(t.relations)} relations")
    if t.star is None:
        out(star_line(None))
    for k, rel in enumerate(t.relations):
        out(f"  ({k + 1}) " + format_relation(rel, t.generators.labels))
    return EXIT_OK


def _binary_product(args, out, op):
    return _print_type(op(_load_type(args.a), _load_type(args.b)), args, out)


def _power(args, out):
    return _print_type(products.power(_load_type(args.type), args.n), args, out)


def _dual(args, out):
    t = _load_type(args.type)
    # the published dual labels, unless a file shadows the catalog name
    labels = catalog.DUAL_LABELS.get(args.type)
    t = duality.dual(t, labels=labels if labels and t is catalog.get(args.type) else None)
    return _print_type(t, args, out)


def _double_dual(args, out):
    t = _load_type(args.type)
    ok = duality.double_dual_check(t)
    out(f"double dual of {t.name} equals the original: {ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _arity3(args, out):
    t = _load_type(args.type)
    out(f"arity-3 dimension of {t.name}: {typecore.arity3_dimension(t)}")
    return EXIT_OK


def _check_morphism(args, out):
    source, target = _load_type(args.a), _load_type(args.b)
    data = json.loads(Path(args.map).read_text())
    f = morphisms.morphism_from_json(data, source, target)
    is_mor = morphisms.check_morphism(f)
    is_iso = morphisms.check_isomorphism(f)
    out(f"morphism: {is_mor}; isomorphism: {is_iso}")
    return EXIT_OK if is_mor else EXIT_CHECK_FAILED


def _auto_group(args, out):
    t = _load_type(args.type)
    autos = morphisms.monomial_automorphisms(t, allow_large=args.allow_large)
    if args.json:
        out(json.dumps([morphisms.morphism_to_json(f)["matrix"] for f in autos], indent=2))
    else:
        out(f"monomial automorphism group of {t.name}: order {len(autos)}")
    return EXIT_OK


def _tensor_model(args, out):
    t1, t2 = _load_type(args.a), _load_type(args.b)
    ok = products.verify_tensor_model(t1, t2)
    out(f"tensor model of {t1.name} and {t2.name} satisfies the square product: {ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_operator(args, out):
    t = _load_type(args.type)
    law = _option("--law", operatorver.law_from_name, args.law)
    report = operatorver.verify_operator_theorem(t, law)
    out(report.to_json() if args.json else report.describe())
    return EXIT_OK if report.all_verified else EXIT_CHECK_FAILED


def _verify_family(args, out):
    t = _load_type(args.type)
    laws = [_option("--laws", operatorver.law_from_name, part) for part in args.laws.split(",")]
    report = operatorver.verify_commuting_family(t, laws)
    out(report.to_json() if args.json else report.describe())
    return EXIT_OK if report.all_verified else EXIT_CHECK_FAILED


def _verify_lemmas(args, out):
    reports = operatorver.verify_operator_lemmas()
    ok = all(r.ok for r in reports)
    for r in reports:
        out(r.describe())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _non_duality(args, out):
    report = duality.non_duality_witness()
    out(report.describe())
    ok = (not report.inclusion_holds) and report.pairing_value == -1
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _export(args, out):
    t = _load_type(args.type)
    text = dsl.serialize(t, args.format)
    if args.output:
        Path(args.output).write_text(text)
        out(f"wrote {args.output}")
    else:
        out(text)
    return EXIT_OK


def _paper_suite(args, out):
    results = run_paper_suite(out if args.verbose else None)
    failed = [r for r in results if not r.ok]
    for r in results:
        mark = "ok " if r.ok else "FAIL"
        out(f"[{mark}] criterion {r.name} ({r.seconds:.2f}s)" + (f": {r.detail}" if r.detail else ""))
    if failed:
        out(f"{len(failed)} criterion(s) failed: " + ", ".join(r.name for r in failed))
        return EXIT_CHECK_FAILED
    out("all acceptance criteria verified")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the acceptance suite (shared with the test suite)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0


def _timed(name, fn) -> CheckResult:
    start = time.monotonic()
    try:
        ok, detail = fn()
    except ExactAlgebraError as err:
        ok, detail = False, f"error: {err}"
    return CheckResult(name, ok, detail, time.monotonic() - start)


def count_planar_binary_trees(internal_nodes: int) -> int:
    if internal_nodes == 0:
        return 1
    return sum(
        count_planar_binary_trees(i) * count_planar_binary_trees(internal_nodes - 1 - i)
        for i in range(internal_nodes)
    )


def count_planar_trees(leaves: int) -> int:
    """Planar rooted trees with every internal node of arity >= 2."""
    if leaves == 1:
        return 1
    total = 0
    for k in range(2, leaves + 1):
        for parts in _compositions(leaves, k):
            prod = 1
            for p in parts:
                prod *= count_planar_trees(p)
            total += prod
    return total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def check_catalog_validation():
    bad = []
    for name in catalog.list_names():
        t = catalog.get(name)
        report = validate(t)
        want = catalog.EXPECTED_RELATION_COUNTS[name]
        if not report.valid or len(t.relations) != want:
            bad.append(f"{name} (valid={report.valid}, {len(t.relations)} vs {want})")
    if bad:
        return False, "failed entries: " + ", ".join(bad)
    return True, f"{len(catalog.list_names())} entries validate with the published counts"


def check_duality():
    dend = catalog.get("dendriform")
    ad = duality.dual(dend, labels=catalog.DUAL_LABELS["dendriform"])
    if ad.relation_subspace != catalog.get("assoc_dialgebra").relation_subspace:
        return False, "dual(dendriform) differs from the associative dialgebra"
    counts = catalog.EXPECTED_RELATION_COUNTS
    tri_dim = counts["assoc_trialgebra"]
    if duality.dual(catalog.get("trialgebra")).relation_subspace.dim != tri_dim:
        return False, f"dual(trialgebra) dimension is not {tri_dim}"
    ans = duality.dual(catalog.get("ns"), labels=catalog.DUAL_LABELS["ns"])
    lit = catalog.get("assoc_nijenhuis_tri")
    if ans.relation_subspace != lit.relation_subspace:
        return False, (
            f"dual(ns) differs from the {counts['assoc_nijenhuis_tri']} transcribed relations"
        )
    cir = tuple(int(i == 2) for i in range(3))
    if not ans.relation_subspace.contains_vector(star_associativity(cir).coeffs):
        return False, "dual(ns) misses the circle associativity"
    for name in catalog.list_names():
        t = catalog.get(name)
        m = t.dim
        d = duality.dual(t)
        if d.relation_subspace.dim != 2 * m * m - t.relation_subspace.dim:
            return False, f"dual dimension defect for {name}"
        if not duality.double_dual_check(t):
            return False, f"double dual defect for {name}"
    return True, "annihilator dimensions and double duals verified on all entries"


def check_non_duality():
    report = duality.non_duality_witness()
    ok = (
        not report.inclusion_holds
        and report.witness_in_maltese
        and report.pairing_value == -1
        and report.paired_relation_in_square
    )
    return ok, f"witness pairing {report.pairing_value}, inclusion {report.inclusion_holds}"


def check_isomorphism_tables():
    bad = []
    for name in catalog.TABLE_NAMES:
        f = catalog.table_isomorphism(name)
        if not morphisms.check_isomorphism(f):
            bad.append(name)
    if bad:
        return False, "failed tables: " + ", ".join(bad)
    return True, "quadri, ennea, dendriform-Nijenhuis, octo and M2 tables verified"


_FLIP = {"lt": "gt", "gt": "lt"}


def _signed_coordinate_maps(t):
    """Every signed coordinate map on the factor labels of a power of dendriform.

    A key ``(perm, flips)`` sends the label (a_1|...|a_n) to the label
    whose i-th factor is a_{perm[i]}, with lt and gt exchanged where
    flips[i] is set; its value is the generator index map.  For n = 2
    these are the eight maps of the dihedral group generated by the
    per-factor swaps and the transpose; for n = 3 the 48 signed maps of
    the cube, of which 24 are rotations.
    """
    tuples = [products.flatten_label(l) for l in t.generators.labels]
    index = {tup: i for i, tup in enumerate(tuples)}
    n = len(tuples[0])
    return {
        (perm, flips): tuple(
            index[tuple(_FLIP[tup[p]] if f else tup[p] for p, f in zip(perm, flips))]
            for tup in tuples
        )
        for perm in itertools.permutations(range(n))
        for flips in itertools.product((False, True), repeat=n)
    }


def _is_rotation(perm, flips) -> bool:
    inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
    return (inversions + sum(flips)) % 2 == 0


def _map_name(perm, flips) -> str:
    """E.g. ``(a|b) -> (b'|a)``: swap the factors, then lt and gt in the first."""
    letters = "abc"
    source = "|".join(letters[: len(perm)])
    image = "|".join(letters[p] + ("'" if f else "") for p, f in zip(perm, flips))
    return f"({source}) -> ({image})"


def _non_morphism_witness(t, images):
    """A relation of ``t`` that the generator permutation pushes outside its span.

    The push goes through ``push_relation`` on the permutation matrix,
    independent of the index remap that ``check_morphism`` makes for a
    monomial map.  Relations are tried sparsest first, so the witness stays
    short; None when every relation is carried into the span.
    """
    f = Matrix.monomial(images)
    by_size = sorted(enumerate(t.relations, 1), key=lambda kr: len(kr[1].coeffs))
    for k, rel in by_size:
        pushed = typecore.push_relation(rel, f)
        if not t.relation_subspace.contains_vector(pushed.coeffs):
            return f"relation {k} goes to {format_relation(pushed, t.generators.labels)}"
    return None


def check_symmetries():
    """Criterion 5: the monomial automorphism groups of quadri and octo.

    The searched groups must equal, as sets, the unflipped coordinate
    permutations of the factor labels: {identity, transpose} for
    quadri = dendriform sq dendriform (order 2) and the six permutations
    for octo = dendriform^3 (order 6).  The larger groups once claimed -
    the order-8 dihedral group of signed maps on quadri and the 24 cube
    rotations on octo - are refuted map by map, by two independent pushes:
    every claimed map that reverses a factor fails ``check_morphism``
    (an index remap), and the detail names one relation that
    ``push_relation`` carries outside the relation span.  Reversing a
    factor maps the relations onto those of the opposite product, not onto
    its own.  ``test_rota_baxter_model_refutes_the_dihedral_and_cube_claims``
    confirms the refutations in a model that shares neither push.
    """
    q, o = catalog.get("quadri"), catalog.get("octo")
    q_autos = morphisms.monomial_automorphisms(q)
    o_autos = morphisms.monomial_automorphisms(o)
    # determinism: a second run returns the identical sorted list
    stable = [f.matrix for f in morphisms.monomial_automorphisms(q)] == [
        f.matrix for f in q_autos
    ]

    groups_ok = True
    counts, unrefuted, witnesses = [], [], []
    for t, autos, claim, is_claimed in (
        (q, q_autos, "dihedral maps of quadri", lambda key: True),
        (o, o_autos, "cube rotations of octo", lambda key: _is_rotation(*key)),
    ):
        maps = _signed_coordinate_maps(t)
        expected = {Matrix.monomial(images) for key, images in maps.items() if not any(key[1])}
        found = [f.matrix for f in autos]
        groups_ok = groups_ok and len(found) == len(expected) and set(found) == expected
        claimed = [key for key in maps if is_claimed(key)]
        refuted = 0
        for key in claimed:
            if not any(key[1]):
                continue  # a coordinate permutation, in the group
            witness = _non_morphism_witness(t, maps[key])
            f = morphisms.TypeMorphism(t, t, Matrix.monomial(maps[key]))
            if witness is None or morphisms.check_morphism(f):
                unrefuted.append(f"{t.name} {_map_name(*key)}")
            else:
                refuted += 1
                witnesses.append(f"  {t.name} {_map_name(*key)} is not a morphism: {witness}")
        counts.append(f"{refuted} of the {len(claimed)} claimed {claim}")

    detail = (
        f"computed group orders: quadri {len(q_autos)}, octo {len(o_autos)}; "
        f"equal to the coordinate permutations of the factor labels: {groups_ok}; "
        f"refuted: {' and '.join(counts)} are not morphisms; stable: {stable}"
    )
    if unrefuted:
        detail += "; not refuted: " + ", ".join(unrefuted)
    detail += "".join("\n" + line for line in witnesses)
    return groups_ok and not unrefuted and stable, detail


def check_operator_theorem_suite():
    failures = []
    bases = ("associative", "dendriform", "trialgebra", "ns", "dipterous")
    laws = (
        operatorver.rb(None),
        operatorver.nijenhuis(),
        operatorver.left_rb(),
        operatorver.right_rb(),
    )
    for tname in bases:
        t = catalog.get(tname)
        for law in laws:
            report = operatorver.verify_operator_theorem(t, law)
            if not report.all_verified:
                failures.append(f"{tname} x {law.describe()}")
            # a verified relation must carry a certificate unless the two
            # sides normalized to literally the same combination
            if any(
                v.verified and not v.certificate and not v.residual_zero
                for v in report.verdicts
            ):
                failures.append(f"{tname} x {law.describe()}: verdict without certificate")
    a = catalog.get("associative")
    # each family on the associative type has the relation count of the
    # catalog type it names
    families = [
        ("quadri", [operatorver.rb(0), operatorver.rb(0)]),
        ("ennea", [operatorver.rb(None), operatorver.rb(None)]),
        ("m1", [operatorver.right_rb(), operatorver.left_rb()]),
        ("m2", [operatorver.left_rb(), operatorver.left_rb()]),
        ("octo", [operatorver.rb(0), operatorver.rb(0), operatorver.rb(0)]),
    ]
    for name, family in families:
        report = operatorver.verify_commuting_family(a, family)
        want = catalog.EXPECTED_RELATION_COUNTS[name]
        if not report.all_verified or len(report.verdicts) != want:
            failures.append(f"family {name}")
    if failures:
        return False, "failed: " + ", ".join(failures)
    return True, (
        f"{len(bases) * len(laws)} single-operator runs and "
        f"{len(families)} commuting families verified"
    )


def check_operator_lemmas():
    reports = operatorver.verify_operator_lemmas()
    bad = [r.name for r in reports if not r.ok]
    if bad:
        return False, "failed: " + ", ".join(bad)
    return True, "; ".join(r.name for r in reports)


def check_structural_properties():
    dend = catalog.get("dendriform")
    tri = catalog.get("trialgebra")
    ns = catalog.get("ns")
    for t1, t2 in ((dend, dend), (tri, tri), (tri, ns)):
        if not products.verify_tensor_model(t1, t2):
            return False, f"tensor model fails for {t1.name}, {t2.name}"

    # Dimension multiplicativity and star associativity of squares over
    # catalog pairs (bounded so the biggest products stay tractable).
    # Squaring two dual-derived types can produce a dependent relation
    # set - relations there share a whole side, e.g. for the associative
    # dialgebra (r1 - r3) box (r2 - r5) = 0 - in which case the square
    # construction itself reports the rank defect; those pairs are
    # recorded rather than counted against multiplicativity.
    degenerate = []
    names = [n for n in catalog.list_names()]
    for n1 in names:
        for n2 in names:
            t1, t2 = catalog.get(n1), catalog.get(n2)
            # every product the source constructions take fits in 9
            if t1.dim * t2.dim > 9 or t1.star is None or t2.star is None:
                continue
            try:
                sq = products.square(t1, t2)
            except ExactAlgebraError:
                dual_derived = {"assoc_dialgebra", "assoc_trialgebra", "assoc_nijenhuis_tri"}
                if n1 in dual_derived and n2 in dual_derived:
                    degenerate.append(f"{n1} x {n2}")
                    continue
                return False, f"square({n1}, {n2}) unexpectedly fails validation"
            if sq.relation_subspace.dim != t1.relation_subspace.dim * t2.relation_subspace.dim:
                return False, f"dimension defect for square({n1}, {n2})"
            if not sq.relation_subspace.contains_vector(sq.star_relation().coeffs):
                return False, f"star of square({n1}, {n2}) is not associative"

    cube = products.power(dend, 3)
    nested = products.square(products.square(dend, dend), dend)
    iso = products.reassociation_isomorphism(nested, cube)
    if not morphisms.check_isomorphism(iso):
        return False, "reassociation of the dendriform cube fails"
    if cube.relation_subspace != nested.relation_subspace:
        return False, "third power differs from the left-nested square"

    if typecore.arity3_dimension(dend) != count_planar_binary_trees(3):
        return False, "dendriform arity-3 dimension misses the binary tree count"
    if typecore.arity3_dimension(tri) != count_planar_trees(4):
        return False, "trialgebra arity-3 dimension misses the planar tree count"
    detail = "tensor models, products, powers and tree counts verified"
    if degenerate:
        detail += "; degenerate dual-type squares recorded: " + ", ".join(degenerate)
    return True, detail


def check_dsl_round_trip():
    for name in catalog.list_names():
        t = catalog.get(name)
        back = dsl.parse_type(dsl.serialize(t, "dsl"))
        same = (
            back.generators.labels == t.generators.labels
            and back.star == t.star
            and back.aux == t.aux
            and list(back.relations) == list(t.relations)
        )
        if not same:
            return False, f"round trip fails for {name}"
        once = dsl.serialize(t, "json")
        again = dsl.serialize(dsl.parse_type_json(once), "json")
        if once != again:
            return False, f"json export of {name} is not byte stable"
    return True, "definition-language and json exports round-trip on all entries"


PAPER_SUITE = (
    ("1 catalog validation", check_catalog_validation),
    ("2 duality", check_duality),
    ("3 non-duality counterexample", check_non_duality),
    ("4 isomorphism tables", check_isomorphism_tables),
    ("5 symmetries", check_symmetries),
    ("6 operator theorem suite", check_operator_theorem_suite),
    ("7 operator lemmas", check_operator_lemmas),
    ("8 structural properties", check_structural_properties),
    ("9 dsl round-trip", check_dsl_round_trip),
)


def run_paper_suite(progress=None):
    results = []
    for name, fn in PAPER_SUITE:
        if progress:
            progress(f"running {name} ...")
        results.append(_timed(name, fn))
    return results


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitops",
        description="exact computer algebra for operad presentations with a splitting star",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, json_flag=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if json_flag:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("list", lambda a, out: (out("\n".join(catalog.list_names())), EXIT_OK)[1],
            help="list catalog types")

    p = add("show", _show, help="print a presentation")
    p.add_argument("type")
    p.add_argument("--relation-basis", action="store_true")

    p = add("validate", _validate, help="validate a catalog type or file")
    p.add_argument("type")

    p = add("square", lambda a, o: _binary_product(a, o, products.square),
            json_flag=True, help="square product of two types")
    p.add_argument("a")
    p.add_argument("b")

    p = add("maltese", lambda a, o: _binary_product(a, o, products.maltese),
            json_flag=True, help="maltese product of two types")
    p.add_argument("a")
    p.add_argument("b")

    p = add("power", _power, json_flag=True, help="left-associated square power")
    p.add_argument("type")
    p.add_argument("n", type=int)

    p = add("dual", _dual, json_flag=True, help="dual type (annihilator of the relations)")
    p.add_argument("type")

    p = add("double-dual", _double_dual, help="check dual(dual(t)) = t")
    p.add_argument("type")

    p = add("arity3", _arity3, help="dimension of the arity-3 component")
    p.add_argument("type")

    p = add("check-morphism", _check_morphism, help="check a generator map")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--map", required=True, help="json file with a matrix")

    p = add("auto-group", _auto_group, json_flag=True, help="monomial automorphism group")
    p.add_argument("type")
    p.add_argument("--allow-large", action="store_true")

    p = add("tensor-model", _tensor_model, help="verify the tensor-product model")
    p.add_argument("a")
    p.add_argument("b")

    p = add("verify-operator", _verify_operator, json_flag=True, help="verify an operator law")
    p.add_argument("type")
    p.add_argument("--law", required=True,
                   help=f"KIND or rb:WEIGHT, KIND one of {', '.join(operatorver.LAW_NAMES)}; "
                        "e.g. rb:1/2, rb:-3/4 or rb:formal")

    p = add("verify-family", _verify_family, json_flag=True, help="verify commuting operators")
    p.add_argument("type")
    p.add_argument("--laws", required=True,
                   help="comma list, e.g. rb:formal,rb:formal or rightrb,leftrb")

    p = add("verify-lemmas", _verify_lemmas, help="modified-operator identities")

    p = add("non-duality", _non_duality, help="the square/maltese duality failure")

    p = add("paper-suite", _paper_suite, help="run every acceptance check")
    p.add_argument("--verbose", action="store_true")

    p = add("export", _export, help="serialize a type")
    p.add_argument("type")
    p.add_argument("--format", choices=list(dsl.WRITERS), default="dsl")
    p.add_argument("-o", "--output", default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK

    def out(text=""):
        print(text)

    try:
        return args.fn(args, out)
    except BrokenPipeError:
        # the reader has all the output it wants; what is still buffered
        # goes to the null device, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (dsl.DslError, catalog.UnknownTypeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidPresentation as err:
        # with a validation report, the input (or a product of inputs) is
        # not a presentation, as ``validate`` would say
        if err.report is None:
            print(f"internal error: {err}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"error: {err}\n{err.report.describe()}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ExactAlgebraError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
