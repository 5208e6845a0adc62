"""Command-line surface and exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitops import catalog, cli, dsl, duality, operatorver, products
from splitops.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from splitops.typecore import GeneratorSpace, InvalidPresentation, TypePresentation, star_line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list(capsys):
    code, out = run(capsys, "list")
    assert code == EXIT_OK
    assert "dendriform" in out and "octo" in out


def test_show(capsys):
    code, out = run(capsys, "show", "dendriform")
    assert code == EXIT_OK
    assert "2 generators, 3 relations" in out
    assert "(x lt y) lt z = x lt (y lt z) + x lt (y gt z)" in out


def test_a_directory_named_like_a_catalog_entry_is_not_a_type_file(tmp_path, monkeypatch, capsys):
    # only a file is read as a type: a directory named dendriform in the
    # working directory leaves the catalog name to the catalog
    (tmp_path / "dendriform").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "show", "dendriform")
    assert code == EXIT_OK
    assert "2 generators, 3 relations" in out


def test_show_relation_basis(capsys):
    code, out = run(capsys, "show", "associative", "--relation-basis")
    assert code == EXIT_OK
    assert "L 1" in out


@pytest.mark.parametrize("name", ["quadri", "assoc_trialgebra"])
def test_show_relation_basis_matches_golden(capsys, name):
    code, out = run(capsys, "show", name, "--relation-basis")
    assert code == EXIT_OK
    assert out == (Path(__file__).parent / "golden" / "show" / f"{name}.txt").read_text()


def test_show_writes_the_star_and_aux_as_signed_sums(tmp_path, capsys):
    # dendriform with b = -gt: the star lt + gt is a - b
    path = tmp_path / "signed.type"
    path.write_text(
        "type signed {\n"
        "  generators: a, b;\n"
        "  star: a - b;\n"
        "  aux: c = a - 2*b;\n"
        "  relations:\n"
        "    (a.a | a.a - a.b)\n"
        "    (b.a | b.a)\n"
        "    (b.b - a.b | b.b)\n"
        "}\n"
    )
    code, out = run(capsys, "show", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[2:5] == ["  star: a - b", "  aux c = a - 2*b", "  valid: True"]


def test_square(capsys):
    code, out = run(capsys, "square", "dendriform", "dendriform")
    assert code == EXIT_OK
    assert "4 generators, 9 relations" in out


def test_maltese(capsys):
    code, out = run(capsys, "maltese", "associative", "associative")
    assert code == EXIT_OK
    assert "1 generators, 2 relations" in out


def test_power(capsys):
    code, out = run(capsys, "power", "dendriform", "3")
    assert code == EXIT_OK
    assert "8 generators, 27 relations" in out


def test_dual(capsys):
    code, out = run(capsys, "dual", "dendriform")
    assert code == EXIT_OK
    assert "2 generators, 5 relations" in out


def test_double_dual(capsys):
    code, out = run(capsys, "double-dual", "ns")
    assert code == EXIT_OK
    assert "True" in out


def test_arity3(capsys):
    code, out = run(capsys, "arity3", "trialgebra")
    assert code == EXIT_OK
    assert "11" in out


def test_non_duality(capsys):
    code, out = run(capsys, "non-duality")
    assert code == EXIT_OK
    assert "-1" in out
    assert "False" in out


def test_verify_operator(capsys):
    code, out = run(capsys, "verify-operator", "associative", "--law", "rb:formal")
    assert code == EXIT_OK
    assert "7/7" in out


def test_a_negative_weight_is_part_of_the_law_argument(capsys, monkeypatch):
    code, out = run(capsys, "verify-operator", "associative", "--law", "rb:-3/4")
    assert code == EXIT_OK
    assert "rb(weight=-3/4, P): 7/7" in out
    code, out = run(capsys, "verify-operator", "associative", "--law", "rb:-3/4", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["law"] == "rb(weight=-3/4, P)"


def test_verify_operator_json(capsys):
    code, out = run(capsys, "verify-operator", "associative", "--law", "nijenhuis",
                    "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["relations"]) == 4


def test_verify_family(capsys):
    code, out = run(capsys, "verify-family", "associative", "--laws", "rightrb,leftrb")
    assert code == EXIT_OK
    assert "9/9" in out


def test_verify_lemmas(capsys):
    code, out = run(capsys, "verify-lemmas")
    assert code == EXIT_OK
    assert "Nijenhuis" in out


def test_tensor_model(capsys):
    code, out = run(capsys, "tensor-model", "trialgebra", "ns")
    assert code == EXIT_OK
    assert "True" in out


def test_auto_group(capsys):
    code, out = run(capsys, "auto-group", "quadri")
    assert code == EXIT_OK
    assert "order 2" in out


def test_export_and_reload(tmp_path, capsys):
    path = tmp_path / "dend.type"
    code, _ = run(capsys, "export", "dendriform", "-o", str(path))
    assert code == EXIT_OK
    code, out = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "valid" in out


def test_export_json_and_reload(tmp_path, capsys):
    path = tmp_path / "tri.json"
    code, _ = run(capsys, "export", "trialgebra", "--format", "json", "-o", str(path))
    assert code == EXIT_OK
    code, out = run(capsys, "show", str(path))
    assert code == EXIT_OK
    assert "3 generators, 7 relations" in out


def test_export_latex(capsys):
    code, out = run(capsys, "export", "quadri", "--format", "latex")
    assert code == EXIT_OK
    assert out.count("\\\\") == 9


def test_check_morphism(tmp_path, capsys):
    from splitops import catalog
    from splitops.morphisms import morphism_to_json

    data = morphism_to_json(catalog.table_isomorphism("quadri"))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "check-morphism", "quadri_lit", "quadri", "--map", str(path))
    assert code == EXIT_OK
    assert "isomorphism: True" in out


@pytest.mark.parametrize(
    "a, b, path, written, loaded",
    [
        ("m2", "quadri", "source", "quadri_lit", "m2"),
        ("quadri_lit", "m2", "target", "quadri", "m2"),
    ],
)
def test_a_map_written_for_other_types_is_a_usage_error(tmp_path, a, b, path, written, loaded):
    from splitops import catalog
    from splitops.morphisms import morphism_to_json

    data = morphism_to_json(catalog.table_isomorphism("quadri"))  # quadri_lit -> quadri
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(data))
    code, out, err = run_quiet("check-morphism", a, b, "--map", str(map_file))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {path}: ")
    assert repr(written) in err and repr(loaded) in err


def test_a_map_without_type_names_is_accepted(tmp_path, capsys):
    from splitops import catalog
    from splitops.morphisms import morphism_to_json

    data = morphism_to_json(catalog.table_isomorphism("quadri"))
    del data["source"], data["target"]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "check-morphism", "quadri_lit", "quadri", "--map", str(path))
    assert code == EXIT_OK
    assert "isomorphism: True" in out


_IDENTITY_4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, "matrix: missing field"),
        ({"matrix": 5}, "matrix: expected a list of 4 rows"),
        ({"matrix": [_IDENTITY_4[0], ["0", "1"]] + _IDENTITY_4[2:]}, "matrix[1]: "),
        ({"matrix": [["1", "0"], ["0", "1"]]}, "matrix: expected a list of 4 rows"),
        ({"matrix": [["(l)/(1)"] + _IDENTITY_4[0][1:]] + _IDENTITY_4[1:]}, "matrix[0][0]: "),
        ([_IDENTITY_4], "expected a JSON object"),
    ],
)
def test_malformed_morphism_json_is_a_usage_error(tmp_path, data, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, _, err = run_quiet("check-morphism", "quadri", "quadri", "--map", str(path))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "{dir}"),
        ("show", "{dir}"),
        ("check-morphism", "quadri", "quadri", "--map", "{dir}"),
        ("export", "dendriform", "-o", "{dir}"),
    ],
)
def test_a_directory_in_place_of_a_file_is_a_usage_error(tmp_path, argv):
    directory = tmp_path / "d.json"
    directory.mkdir()
    code, _, err = run_quiet(*(a.format(dir=directory) for a in argv))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize(
    "argv, option, message",
    [
        (("verify-operator", "dendriform", "--law", "rb:1/0"), "--law", "zero denominator"),
        (("verify-family", "dendriform", "--laws", "rb:1/0"), "--laws", "zero denominator"),
        (("verify-family", "dendriform", "--laws", "rb:formal,rb:3/0"),
         "--laws", "zero denominator"),
        (("verify-operator", "dendriform", "--law", "nijenhuis:2"), "--law", "takes no weight"),
        (("verify-family", "dendriform", "--laws", "leftrb:1"), "--laws", "takes no weight"),
        # an empty weight after the colon is not the formal weight
        (("verify-family", "dendriform", "--laws", "rb:"), "--laws", "found ''"),
        (("verify-family", "dendriform", "--laws", "rb:formal,rb: "), "--laws", "found ''"),
        (("verify-family", "dendriform", "--laws", "nijenhuis:"), "--laws", "takes no weight"),
        (("verify-family", "dendriform", "--laws", "leftrb:"), "--laws", "takes no weight"),
        (("verify-operator", "dendriform", "--law", "rb:half"),
         "--law", "expected a rational p or p/q such as -1/2, found 'half'"),
        # text that Fraction reads but format_scalar never writes
        (("verify-operator", "dendriform", "--law", "rb:0.5"), "--law", "found '0.5'"),
        (("verify-operator", "dendriform", "--law", "rb:1e5"), "--law", "found '1e5'"),
        (("verify-operator", "dendriform", "--law", "rb:+2"), "--law", "found '+2'"),
        (("verify-operator", "dendriform", "--law", "rb:1_0"), "--law", "found '1_0'"),
        (("verify-family", "dendriform", "--laws", "rb:formal,rb:0.5"), "--laws", "p or p/q"),
        (("verify-operator", "dendriform", "--law", "rb:-1/0"), "--law", "zero denominator"),
        (("verify-family", "dendriform", "--laws", "rb:formal,rb:-1/0"),
         "--laws", "zero denominator"),
        (("verify-family", "dendriform", "--laws", "rb:1.0"), "--laws", "found '1.0'"),
        (("verify-family", "dendriform", "--laws", "rb:formal,rb:1e5"), "--laws", "found '1e5'"),
    ],
)
def test_a_bad_rational_option_is_a_usage_error(argv, option, message):
    code, out, err = run_quiet(*argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {option}: ") and message in err


def test_a_weight_is_read_with_its_spaces_stripped():
    # as each item of --laws is
    code, out, err = run_quiet("verify-operator", "dendriform", "--law", "rb: 3 ")
    assert (code, err) == (EXIT_OK, "")
    assert out == run_quiet("verify-operator", "dendriform", "--law", "rb:3")[1]
    assert "rb(weight=3, P)" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--law", "rb", "--weight", "1/2"), "unrecognized arguments: --weight 1/2"),
        (("--law", "rb0"), "error: --law: unknown law 'rb0'"),
    ],
    ids=["--weight", "rb0"],
)
def test_a_removed_law_spelling_is_a_usage_error(argv, message):
    # a weight is written rb:W, and rb0 is rb:0
    code, out, err = run_quiet("verify-operator", "associative", *argv)
    assert code == EXIT_USAGE and out == ""
    (line,) = (line for line in err.splitlines() if "error: " in line)
    assert message in line


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-operator", "associative", "--law", "rb_dendriform"),
         "error: --law: unknown law 'rb_dendriform'"),
        (("verify-family", "associative", "--laws", "rb_dendriform"),
         "error: --laws: unknown law 'rb_dendriform'"),
    ],
    ids=["verify-operator", "verify-family"],
)
def test_the_lemmas_splitting_is_no_command_line_law(argv, message):
    # the splitting is a row of the law table that only the lemmas read
    code, out, err = run_quiet(*argv)
    assert code == EXIT_USAGE and out == ""
    assert message in err


@pytest.mark.parametrize("law", ["left_rb", "right_rb"])
def test_a_law_has_one_spelling_on_the_command_line(law):
    # --laws takes the names --law offers: leftrb and rightrb, not the library's
    code, out, err = run_quiet("verify-family", "associative", "--laws", law)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: --laws: unknown law '{law}'\n"


@pytest.mark.parametrize("law", ["rb", "rb:0", "rb:-3/4", "nijenhuis", "leftrb", "rightrb"])
def test_every_law_choice_is_also_a_family_law(law):
    # a one-law family checks what the single operator checks
    code, single, err = run_quiet("verify-operator", "associative", "--law", law)
    assert (code, err) == (EXIT_OK, "")
    code, family, err = run_quiet("verify-family", "associative", "--laws", law)
    assert (code, err) == (EXIT_OK, "")
    verdict = single.splitlines()[0].split(": ", 1)[1]
    assert family.splitlines()[0].split(": ", 1)[1] == verdict


def test_unknown_type_is_usage_error(capsys):
    code = main(["show", "no_such_type"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_invalid_file_fails_validation(tmp_path, capsys):
    path = tmp_path / "bad.type"
    path.write_text("type bad { generators: a; star: a; relations: (a.a | 2*a.a) }")
    code, out = run(capsys, "validate", str(path))
    assert code == EXIT_CHECK_FAILED
    assert "INVALID" in out


def test_bad_usage(capsys):
    assert main(["power", "dendriform"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_verify_operator_rational_weight(capsys):
    code, out = run(capsys, "verify-operator", "associative", "--law", "rb:1/2")
    assert code == EXIT_OK
    assert "7/7" in out


def test_verify_operator_on_user_defined_type(tmp_path, capsys):
    # end to end: definition language in, operator verification out
    path = tmp_path / "mine.type"
    path.write_text(
        "type mine {\n"
        "  generators: a, b;\n"
        "  star: a + b;\n"
        "  relations:\n"
        "    (a.a | a.a + a.b)\n"
        "    (b.a | b.a)\n"
        "    (a.b + b.b | b.b)\n"
        "}\n"
    )
    code, out = run(capsys, "verify-operator", str(path), "--law", "nijenhuis")
    assert code == EXIT_OK
    assert "12/12" in out


# -- malformed JSON type files -------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
SMALL_GOLDEN = ("associative", "dendriform", "trialgebra", "ns", "assoc_dialgebra", "quadri")


def run_quiet(*argv):
    """Exit code, stdout and stderr of main; any escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _dendriform_json():
    return json.loads((GOLDEN / "dendriform.json").read_text())


def _without_relations():
    return {"name": "x", "generators": ["a"], "star": ["1"]}


def _generators_not_a_list():
    data = _dendriform_json()
    data["generators"] = 5
    return data


def _relation_without_r():
    data = _dendriform_json()
    del data["relations"][0]["R"]
    return data


def _non_square_l():
    data = _dendriform_json()
    data["relations"][1]["L"][0].append("0")
    return data


def _bad_cell(value):
    def make():
        data = _dendriform_json()
        data["relations"][0]["R"][1][0] = value
        return data

    return make


@pytest.mark.parametrize(
    "make, path",
    [
        (_without_relations, "relations"),
        (_generators_not_a_list, "generators"),
        (_relation_without_r, "relations[0].R"),
        (lambda: [1, 2], None),
        (_non_square_l, "relations[1].L[0]"),
        (_bad_cell("1/0"), "relations[0].R[1][0]"),
        (_bad_cell(True), "relations[0].R[1][0]"),
    ],
)
def test_malformed_json_is_a_usage_error(tmp_path, make, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make()))
    code, _, err = run_quiet("validate", str(bad))
    assert code == EXIT_USAGE
    assert err.startswith("error: ")
    if path is not None:
        assert f"error: {path}: " in err


@pytest.mark.parametrize("cell", ["1e0", " 1.0 ", "+1", "1_0"])
def test_a_scalar_the_exporter_never_writes_is_a_usage_error(tmp_path, cell):
    # a cell is a JSON integer or text p or p/q, as format_scalar writes it
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_bad_cell(cell)()))
    code, _, err = run_quiet("validate", str(bad))
    assert code == EXIT_USAGE
    assert err.startswith("error: relations[0].R[1][0]: expected a rational")
    matrix = [list(row) for row in _IDENTITY_4]
    matrix[0][0] = cell
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, _, err = run_quiet("check-morphism", "quadri", "quadri", "--map", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error: matrix[0][0]: expected a rational")


def test_json_that_is_not_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", ')
    code, _, err = run_quiet("validate", str(bad))
    assert code == EXIT_USAGE and "not valid JSON" in err


def _renamed(field, value, index=None):
    """The dendriform export with one name replaced: the type name, a label or an aux name."""

    def make():
        data = _dendriform_json()
        if field == "aux":
            data["aux"] = {value: ["1", "1"]}
        elif index is None:
            data[field] = value
        else:
            data[field][index] = value
        return data

    return make


@pytest.mark.parametrize(
    "make, message",
    [
        (_renamed("aux", "lt"), "aux.lt: duplicate name"),
        (_renamed("name", 'a"b'), "name: a name cannot contain"),
        (_renamed("name", "a\nb"), "name: a name cannot contain"),
        (_renamed("generators", 'g"t', 1), "generators[1]: a name cannot contain"),
        (_renamed("generators", "g\nt", 1), "generators[1]: a name cannot contain"),
        (_renamed("generators", "g\rt", 0), "generators[0]: a name cannot contain"),
        (_renamed("aux", 'st"'), 'aux.st": a name cannot contain'),
    ],
)
@pytest.mark.parametrize("command", [("validate",), ("export", "--format", "dsl")])
def test_a_json_name_the_definition_language_cannot_write_is_a_usage_error(
    tmp_path, make, message, command
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make()))
    code, out, err = run_quiet(command[0], str(bad), *command[1:])
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {message}")
    assert not out


def test_escaped_json_names_survive_the_definition_language(tmp_path):
    source = tmp_path / "type.json"
    data = _renamed("generators", "g\\t\u00e9", 1)()
    data["aux"] = {"s\u03bb": ["1", "1"]}
    source.write_text(json.dumps(data))
    code, text, _ = run_quiet("export", str(source), "--format", "dsl")
    assert code == EXIT_OK
    back = tmp_path / "type.type"
    back.write_text(text)
    code, json_text, _ = run_quiet("export", str(back), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(json_text)["generators"] == ["lt", "g\\t\u00e9"]
    assert json.loads(json_text)["aux"] == {"s\u03bb": ["1", "1"]}


def _json_paths(obj, prefix=()):
    """Every path into a parsed JSON document, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _json_paths(v, prefix + (k,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["0", "1", "-1/2", "1/0", "l", "", "(l)/(1)", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["L", "R", "a"]), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def mutated_exports(draw):
    name = draw(st.sampled_from(SMALL_GOLDEN))
    text = (GOLDEN / f"{name}.json").read_text()
    data = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(data))
        path = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(["replace", "delete", "append"]))
        if not path:
            data = draw(json_values)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "delete":
            del parent[key]
        elif action == "append" and isinstance(parent[key], list):
            parent[key].append(draw(json_values))
        else:
            parent[key] = draw(json_values)
    text = json.dumps(data, indent=2)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_exports())
def test_mutated_json_exports_keep_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "type.json"
    path.write_text(text)
    code, out, err = run_quiet("validate", str(path))
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_INTERNAL)
    assert "Traceback" not in out + err
    if code in (EXIT_USAGE, EXIT_INTERNAL):
        assert err.strip(), "a usage or internal error must say what went wrong"
    if code == EXIT_CHECK_FAILED:
        assert "INVALID" in out


def test_a_family_beyond_the_size_limit_is_a_usage_error():
    code, out, err = run_quiet("verify-family", "associative", "--laws", "rb,rb,rb,rb")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: commuting families are limited to 3 operators\n"


@pytest.mark.parametrize(
    "command",
    [
        ("verify-operator", "associative", "--law", "rb"),
        ("verify-family", "associative", "--laws", "rb"),
        ("verify-lemmas",),
    ],
)
def test_the_operator_commands_take_no_step_budget(command):
    # rewriting terminates and a law solve is a fixed job, so no command
    # takes a budget: --steps is an unknown argument
    code, out, err = run_quiet(*command, "--steps", "8")
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --steps 8" in err


# every subcommand with a minimal argument list; the first seven write JSON
_JSON_COMMANDS = {
    "square": ("associative", "associative"),
    "maltese": ("associative", "associative"),
    "power": ("associative", "2"),
    "dual": ("associative",),
    "auto-group": ("associative",),
    "verify-operator": ("associative", "--law", "rb"),
    "verify-family": ("associative", "--laws", "rb"),
}
_TEXT_COMMANDS = {
    "list": (),
    "show": ("associative",),
    "validate": ("associative",),
    "double-dual": ("associative",),
    "arity3": ("associative",),
    "check-morphism": ("associative", "associative", "--map", "map.json"),
    "tensor-model": ("associative", "associative"),
    "verify-lemmas": (),
    "non-duality": (),
    "paper-suite": (),
    "export": ("associative", "--format", "json"),
}


def test_the_command_matrix_covers_every_subcommand():
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(_JSON_COMMANDS) | set(_TEXT_COMMANDS)
    takes_json = {
        name for name, p in commands.choices.items() if "--json" in p._option_string_actions
    }
    assert takes_json == set(_JSON_COMMANDS)


def _choices(command, option):
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]._option_string_actions[option].choices


def test_the_law_help_and_format_choices_read_the_library_tables(monkeypatch, capsys):
    assert list(operatorver.LAW_NAMES) == ["rb", "nijenhuis", "leftrb", "rightrb"]
    # --law takes KIND[:WEIGHT], which law_from_name reads, so it has no choices
    assert _choices("verify-operator", "--law") is None
    # wide enough that the help text is not wrapped inside the option
    monkeypatch.setenv("COLUMNS", "200")
    code, out = run(capsys, "verify-operator", "--help")
    assert code == EXIT_OK
    assert "KIND one of rb, nijenhuis, leftrb, rightrb;" in out
    assert "rb:1/2, rb:-3/4 or rb:formal" in out
    assert "--weight" not in out
    assert _choices("export", "--format") == ["dsl", "json", "latex"]
    assert _choices("export", "--format") == list(dsl.WRITERS)


def test_serialize_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'yaml'$"):
        dsl.serialize(catalog.get("dendriform"), "yaml")


@pytest.mark.parametrize("command", sorted(_JSON_COMMANDS))
def test_the_commands_that_write_json_take_json(command):
    code, out, err = run_quiet(command, *_JSON_COMMANDS[command], "--json")
    assert (code, err) == (EXIT_OK, "")
    # the document alone: no summary line before it
    json.loads(out)


@pytest.mark.parametrize("command", sorted(_TEXT_COMMANDS))
def test_the_commands_that_write_no_json_refuse_json(command):
    code, out, err = run_quiet(command, *_TEXT_COMMANDS[command], "--json")
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --json" in err


@pytest.mark.parametrize("name, published", [("ns", "cir"), ("trialgebra", "perp")])
def test_a_file_that_shadows_a_catalog_name_gets_the_default_dual_labels(
    tmp_path, monkeypatch, name, published
):
    # the catalog entry's dual gets the published labels of three generators
    code, out, _ = run_quiet("dual", name)
    assert code == EXIT_OK
    assert published in out and "^" not in out
    # a file called like it holds its own type, here dendriform's two
    (tmp_path / name).write_text(json.dumps(_dendriform_json()))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_quiet("dual", name)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == "dendriform!: 2 generators, 5 relations"
    assert "(x lt^ y) lt^ z = x lt^ (y gt^ z)" in out


def _starless_dendriform(tmp_path):
    data = _dendriform_json()
    data["star"] = None
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "command, first_line_end",
    [
        (("square", "{}", "dendriform"), "4 generators, 9 relations"),
        (("maltese", "dendriform", "{}"), "4 generators, 30 relations"),
        (("power", "{}", "2"), "4 generators, 9 relations"),
        (("verify-operator", "{}", "--law", "rb"),
         " 21/21 relations of (dendriform sq trialgebra) verified"),
        (("verify-family", "{}", "--laws", "rb,rb"),
         " 147/147 relations of ((dendriform sq trialgebra) sq trialgebra) verified"),
    ],
    ids=["square", "maltese", "power", "verify-operator", "verify-family"],
)
def test_a_product_with_a_starless_factor_has_no_star(tmp_path, command, first_line_end):
    spec = _starless_dendriform(tmp_path)
    code, out, err = run_quiet(*(spec if part == "{}" else part for part in command))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0].endswith(first_line_end)


@pytest.mark.parametrize(
    "command, at, next_line",
    [
        (("square", "{}", "dendriform"), 1, "  (1) "),
        (("maltese", "dendriform", "{}"), 1, "  (1) "),
        (("power", "{}", "2"), 1, "  (1) "),
        (("show", "{}"), 2, "  aux st = "),
    ],
    ids=["square", "maltese", "power", "show"],
)
def test_a_starless_result_prints_its_star_as_unresolved(tmp_path, command, at, next_line):
    # one spelling of an unresolved star, printed once, right before the
    # relations of a product and before the aux line of show
    spec = _starless_dendriform(tmp_path)
    code, out, err = run_quiet(*(spec if part == "{}" else part for part in command))
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[at] == "  star: unresolved" == star_line(None)
    assert lines[at + 1].startswith(next_line)
    assert "star" not in "\n".join(lines[:at] + lines[at + 1:])


def test_validate_names_an_unresolved_star_once(tmp_path):
    code, out, err = run_quiet("validate", _starless_dendriform(tmp_path))
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "type dendriform: valid\n"
        "  relations: 3 given, rank 3\n"
        "  star: unresolved\n"
    )


def test_power_lists_its_relations():
    code, out, err = run_quiet("power", "dendriform", "2")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[0] == "(dendriform^2): 4 generators, 9 relations"
    assert [line.split(")", 1)[0] for line in lines[1:]] == [f"  ({k}" for k in range(1, 10)]


@pytest.mark.parametrize(
    "argv, build",
    [
        (("square", "dendriform", "dendriform"),
         lambda: products.square(catalog.get("dendriform"), catalog.get("dendriform"))),
        (("maltese", "associative", "dendriform"),
         lambda: products.maltese(catalog.get("associative"), catalog.get("dendriform"))),
        (("power", "dendriform", "3"), lambda: products.power(catalog.get("dendriform"), 3)),
        (("dual", "ns"),
         lambda: duality.dual(catalog.get("ns"), labels=catalog.DUAL_LABELS["ns"])),
    ],
    ids=["square", "maltese", "power", "dual"],
)
def test_a_json_document_is_the_exported_type_alone(argv, build):
    code, out, err = run_quiet(*argv, "--json")
    assert (code, err) == (EXIT_OK, "")
    assert out == dsl.serialize(build(), "json") + "\n"


def test_auto_group_of_a_starless_type_lists_each_map_once(tmp_path):
    # with no star to respect, each generator may keep or flip its sign
    spec = _starless_dendriform(tmp_path)
    code, out, err = run_quiet("auto-group", spec)
    assert (code, err) == (EXIT_OK, "")
    assert out == "monomial automorphism group of dendriform: order 2\n"
    code, out, err = run_quiet("auto-group", spec, "--json")
    assert (code, err) == (EXIT_OK, "")
    matrices = json.loads(out)
    assert len(matrices) == 2 and matrices[0] != matrices[1]


def test_a_starless_product_exports_as_json_with_a_null_star(tmp_path):
    code, out, _ = run_quiet("square", _starless_dendriform(tmp_path), "dendriform", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["star"] is None


def test_dsl_export_of_a_starless_type_is_a_usage_error(tmp_path):
    code, out, err = run_quiet("export", _starless_dendriform(tmp_path), "--format", "dsl")
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "error: star: the definition language has no unresolved star; "
        "export the type as JSON\n"
    )


def test_auto_group_over_the_guard_is_a_usage_error(tmp_path):
    path = tmp_path / "d4.json"
    code, out, _ = run_quiet("power", "dendriform", "4", "--json")
    assert code == EXIT_OK
    path.write_text(out)
    code, out, err = run_quiet("auto-group", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "error: (dendriform^4) has 16 generators, more than the monomial search "
        "guard (9); pass --allow-large (allow_large=True) to search anyway\n"
    )


def test_auto_group_takes_no_entries():
    # the search always uses the entries 1 and -1: --entries is an unknown argument
    code, out, err = run_quiet("auto-group", "dendriform", "--entries=1")
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --entries=1" in err


# -- presentations that are not valid, reached from user input ----------------------


def test_a_square_with_dependent_box_relations_fails_like_validate():
    code, out, err = run_quiet("square", "assoc_dialgebra", "assoc_trialgebra")
    assert code == EXIT_CHECK_FAILED and out == ""
    assert err.startswith(
        "error: square(assoc_dialgebra, assoc_trialgebra): the box relations are dependent"
    )
    assert "INVALID\n  relations: 55 given, rank 51\n" in err


@pytest.mark.parametrize(
    "command",
    [
        ("verify-operator", "{}", "--law", "rb"),
        ("verify-family", "{}", "--laws", "rb,rb"),
        ("square", "{}", "dendriform"),
        ("dual", "{}"),
        ("show", "{}"),
        ("auto-group", "{}"),
    ],
)
def test_a_duplicated_json_relation_fails_like_validate(tmp_path, command):
    # a JSON file is validated on load, as a definition-language file is:
    # every command reports a dependent relation list as validate does
    data = _dendriform_json()
    data["relations"].append(data["relations"][1])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_quiet("validate", str(path))
    assert code == EXIT_CHECK_FAILED and "relations: 4 given, rank 3" in out
    code, out, err = run_quiet(*(part.format(path) for part in command))
    assert code == EXIT_CHECK_FAILED and out == ""
    assert err.startswith("error: dendriform: invalid presentation\ntype dendriform: INVALID\n")
    assert "relations: 4 given, rank 3" in err


def test_an_invalid_presentation_without_a_report_is_internal(monkeypatch):
    def broken(t1, t2):
        raise InvalidPresentation("no report here")

    monkeypatch.setattr(products, "square", broken)
    code, out, err = run_quiet("square", "dendriform", "dendriform")
    assert code == EXIT_INTERNAL and out == ""
    assert err == "internal error: no report here\n"


def test_a_name_the_definition_language_cannot_write_is_a_usage_error_on_export(monkeypatch):
    d = cli.catalog.get("dendriform")
    named = TypePresentation(GeneratorSpace("d", ('l"t', "gt")), d.star, d.relations)
    monkeypatch.setattr(cli, "_load_type", lambda spec: named)
    code, out, err = run_quiet("export", "d", "--format", "dsl")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: generators[0]: a name cannot contain '\"' or a line break\n"


def test_a_reader_closing_stdout_early_ends_the_output():
    # the JSON export of this square is about 8 MB, far more than a pipe
    # holds, so the write meets the closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "splitops.cli", "square", "ennea", "trialgebra", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert first == b"{\n"
    assert err == b""
