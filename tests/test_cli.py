"""Command-line surface and exit codes."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitops.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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


def test_show_relation_basis(capsys):
    code, out = run(capsys, "show", "associative", "--relation-basis")
    assert code == EXIT_OK
    assert "L 1" in out


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
    code, out = run(capsys, "verify-operator", "associative", "--law", "rb",
                    "--weight", "formal")
    assert code == EXIT_OK
    assert "7/7" in out


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
    code, out = run(capsys, "verify-operator", "associative", "--law", "rb",
                    "--weight", "1/2")
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


@pytest.mark.parametrize(
    "make, path",
    [
        (_without_relations, "relations"),
        (_generators_not_a_list, "generators"),
        (_relation_without_r, "relations[0].R"),
        (lambda: [1, 2], None),
        (_non_square_l, "relations[1].L[0]"),
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


def test_json_that_is_not_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", ')
    code, _, err = run_quiet("validate", str(bad))
    assert code == EXIT_USAGE and "not valid JSON" in err


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
