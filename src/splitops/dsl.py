"""Plain-text definition language for type presentations, plus exporters.

Surface syntax::

    type dend {
      generators: lt, gt;
      star: lt + gt;
      aux: st = lt + gt;
      relations:
        (lt.lt | lt.lt + lt.gt)
        (gt.lt | gt.lt)
        (lt.gt + gt.gt | gt.gt)
    }

A relation ``(B1 | B2)`` pairs the left-association side with the
right-association side: ``a.b`` on the left of ``|`` means (x a y) b z,
on the right it means x a (y b z).  Auxiliary names are expanded to
primitive generators before validation.  Generator names are plain
identifiers; product generator names like ``(lt|gt)`` are written in
double quotes.

Parsing is ASCII-only and every error carries a source span.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

from .exactalg import ExactAlgebraError, format_scalar, rational_from_text
from .typecore import (
    GeneratorSpace,
    RelationElement,
    TypePresentation,
    format_lincomb,
    format_sides,
    require_valid,
    validate,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


class DslError(ExactAlgebraError):
    """A malformed definition (with its source span) or JSON file (with a JSON path)."""

    def __init__(self, message: str, span: SourceSpan | None = None, path: str | None = None):
        if span is not None:
            message = f"{message} ({span})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.span = span
        self.path = path


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<quoted>"[^"\n]*")
  | (?P<int>[0-9]+)
  | (?P<punct>[{}();:,|.+\-*/=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # id | int | punct | end
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        span = SourceSpan(line, pos - line_start + 1)
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        raw = m.group()
        if kind in ("ws", "comment"):
            nl = raw.count("\n")
            if nl:
                line += nl
                line_start = pos + raw.rindex("\n") + 1
        elif kind == "quoted":
            tokens.append(_Token("id", raw[1:-1], span))
        else:
            tokens.append(_Token(kind, raw, span))
        pos = m.end()
    tokens.append(_Token("end", "", SourceSpan(line, pos - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise DslError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.span)
        return tok

    def expect_id(self, what="identifier") -> _Token:
        tok = self.next()
        if tok.kind != "id":
            raise DslError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return tok

    # -- numbers and linear combinations ------------------------------------

    def scalar(self):
        tok = self.next()
        if tok.kind != "int":
            raise DslError("expected a number", tok.span)
        value = int(tok.text)
        if self.peek().text == "/":
            self.next()
            den = self.next()
            if den.kind != "int" or int(den.text) == 0:
                raise DslError("expected a nonzero denominator", den.span)
            value = Fraction(value, int(den.text))
        return value

    def _zero_term(self) -> bool:
        # a bare "0" denotes the zero side / zero combination
        tok = self.peek()
        if tok.kind == "int" and tok.text == "0":
            nxt = self.tokens[self.i + 1].text
            if nxt not in ("*", "/"):
                self.next()
                return True
        return False

    def _signed_terms(self, term) -> None:
        """A signed sum of terms ``[q *] t``, any of them a bare ``0``;
        ``term(c)`` reads each ``t`` and takes its signed coefficient ``c``."""
        while True:
            sign = 1
            tok = self.peek()
            if tok.text in ("+", "-"):
                self.next()
                sign = -1 if tok.text == "-" else 1
            if not self._zero_term():
                coeff = 1
                if self.peek().kind == "int":
                    coeff = self.scalar()
                    self.expect("*")
                term(sign * coeff)
            if self.peek().text not in ("+", "-"):
                break

    def lincomb(self, names: dict[str, tuple], m: int) -> tuple:
        vec = [0] * m

        def term(coeff):
            name = self.expect_id("generator name")
            if name.text not in names:
                raise DslError(f"unknown identifier {name.text!r}", name.span)
            for k, c in enumerate(names[name.text]):
                vec[k] += coeff * c

        self._signed_terms(term)
        return tuple(vec)

    def bilin(self, names, m) -> dict:
        """A bilinear combination as {a*m + b: coefficient of a.b}."""
        coeffs: dict = {}

        def term(coeff):
            u = self.factor(names, m)
            self.expect(".")
            v = self.factor(names, m)
            for a in range(m):
                if not u[a]:
                    continue
                for b in range(m):
                    if v[b]:
                        k = a * m + b
                        coeffs[k] = coeffs.get(k, 0) + coeff * u[a] * v[b]

        self._signed_terms(term)
        return coeffs

    def factor(self, names, m) -> tuple:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            vec = self.lincomb(names, m)
            self.expect(")")
            return vec
        name = self.expect_id("generator name")
        if name.text not in names:
            raise DslError(f"unknown identifier {name.text!r}", name.span)
        return names[name.text]


def _parse(text: str) -> TypePresentation:
    p = _Parser(text)
    p.expect("type")
    name = p.expect_id("type name")
    p.expect("{")

    p.expect("generators")
    p.expect(":")
    labels = [p.expect_id("generator name")]
    while p.peek().text == ",":
        p.next()
        labels.append(p.expect_id("generator name"))
    seen = set()
    for tok in labels:
        if tok.text in seen:
            raise DslError(f"duplicate generator {tok.text!r}", tok.span)
        seen.add(tok.text)
    labels_t = tuple(tok.text for tok in labels)
    m = len(labels_t)
    names = {lbl: tuple(int(i == j) for j in range(m)) for i, lbl in enumerate(labels_t)}
    p.expect(";")

    p.expect("star")
    p.expect(":")
    star = p.lincomb(names, m)
    p.expect(";")

    aux: dict[str, tuple] = {}
    if p.peek().text == "aux":
        p.next()
        p.expect(":")
        while p.peek().kind == "id" and p.tokens[p.i + 1].text == "=":
            name_tok = p.expect_id("auxiliary name")
            if name_tok.text in names:
                raise DslError(f"duplicate name {name_tok.text!r}", name_tok.span)
            p.expect("=")
            vec = p.lincomb(names, m)
            names[name_tok.text] = vec
            aux[name_tok.text] = vec
            if p.peek().text == ",":
                p.next()
        p.expect(";")

    p.expect("relations")
    p.expect(":")
    relations = []
    while p.peek().text == "(":
        p.next()
        coeffs = p.bilin(names, m)
        p.expect("|")
        coeffs.update((m * m + k, c) for k, c in p.bilin(names, m).items())
        p.expect(")")
        relations.append(RelationElement(m, coeffs))
    if not relations:
        raise DslError("a type needs at least one relation", p.peek().span)
    p.expect("}")
    tail = p.peek()
    if tail.kind != "end":
        raise DslError(f"trailing input {tail.text!r}", tail.span)

    return TypePresentation(GeneratorSpace(name.text, labels_t), star, relations, aux=aux)


def parse_type_report(text: str):
    """Parse without enforcing validity; returns (presentation, report)."""
    t = _parse(text)
    return t, validate(t)


def parse_type(text: str) -> TypePresentation:
    """Parse and validate; an invalid presentation raises InvalidPresentation
    with its report, through ``require_valid``."""
    t = _parse(text)
    require_valid(t)
    return t


# ---------------------------------------------------------------------------
# serialization


def serialize(t: TypePresentation, format: str = "dsl") -> str:
    """``t`` in one of the formats of ``WRITERS``."""
    if format not in WRITERS:
        raise ValueError(f"unknown format {format!r}")
    return WRITERS[format](t)


def _name_out(label: str) -> str:
    return label if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label) else f'"{label}"'


def _to_dsl(t: TypePresentation) -> str:
    if t.star is None:
        # a star of 0 would read back as an invalid presentation
        raise DslError(
            "the definition language has no unresolved star; export the type as JSON",
            path="star",
        )
    labels = t.generators.labels
    # the names the JSON reader accepts, checked with its rules and paths
    _check_writable(t.name, "name")
    for k, label in enumerate(labels):
        _check_writable(label, f"generators[{k}]")
    for k in t.aux:
        _check_writable(k, f"aux.{k}")
        if k in labels:
            raise DslError("duplicate name", path=f"aux.{k}")

    names = [_name_out(l) for l in labels]

    def term(_block, i, j):
        return f"{names[i]}.{names[j]}"

    lines = [f"type {_name_out(t.name)} {{"]
    lines.append("  generators: " + ", ".join(names) + ";")
    lines.append("  star: " + format_lincomb(t.star, names) + ";")
    if t.aux:
        defs = ", ".join(f"{_name_out(k)} = {format_lincomb(v, names)}" for k, v in t.aux.items())
        lines.append(f"  aux: {defs};")
    lines.append("  relations:")
    for rel in t.relations:
        left, right = format_sides(rel, term)
        lines.append(f"    ({left} | {right})")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_json(t: TypePresentation) -> str:
    """The JSON export, written directly for its fixed schema.

    The text is byte for byte what ``json.dumps(obj, indent=2) + "\n"``
    gives for the object with keys ``name``, ``generators``, ``star`` (a
    list of rational strings, or ``null``), ``aux`` and ``relations`` (one
    ``{"L": rows, "R": rows}`` object per relation, m rows of m strings
    each); strings are escaped to ASCII as ``json.dumps`` does.  Most rows
    are zero, so the text of an all-zero relation is built once per export
    as a list of fixed pieces: a head, the 2m zero-row texts with their
    separators, the ``"R"`` joint and a tail, row k at index 2k + 1.  Each
    relation copies that list, overwrites the rows its nonzero
    coefficients fall in, and joins it once.
    """
    m = t.dim
    labels = [_json_string(label) for label in t.generators.labels]
    if t.star is None:
        star = "null"
    else:
        star = _json_array([_json_string(format_scalar(x)) for x in t.star], 1)
    if t.aux:
        defs = ",".join(
            f"\n    {_json_string(k)}: "
            + _json_array([_json_string(format_scalar(x)) for x in v], 2)
            for k, v in t.aux.items()
        )
        aux = "{" + defs + "\n  }"
    else:
        aux = "{}"
    zero_cells = ['"0"'] * m
    row_open, row_sep, row_close = "[\n" + " " * 10, ",\n" + " " * 10, "\n" + " " * 8 + "]"
    skeleton = ['{\n      "L": [\n        ']
    skeleton += [row_open + row_sep.join(zero_cells) + row_close, ",\n        "] * (2 * m)
    skeleton[2 * m] = '\n      ],\n      "R": [\n        '
    skeleton[-1] = "\n      ]\n    }"
    relations = []
    for rel in t.relations:
        rows: dict[int, list[str]] = {}
        for k, c in rel.coeffs.items():
            r, j = divmod(k, m)
            if r not in rows:
                rows[r] = zero_cells.copy()
            rows[r][j] = f'"{c}"'  # a canonical scalar prints as p or p/q, plain ASCII
        pieces = skeleton.copy()
        for r, cells in rows.items():
            pieces[2 * r + 1] = row_open + row_sep.join(cells) + row_close
        relations.append("".join(pieces))
    return (
        f'{{\n  "name": {_json_string(t.name)},\n  "generators": {_json_array(labels, 1)},'
        f'\n  "star": {star},\n  "aux": {aux},'
        f'\n  "relations": {_json_array(relations, 1)}\n}}\n'
    )


def _json_array(items: list[str], level: int) -> str:
    """A list of encoded items, laid out as ``json.dumps(indent=2)`` at depth ``level``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def parse_type_json(text: str) -> TypePresentation:
    """Inverse of the JSON export; a malformed file raises DslError naming the bad field."""
    try:
        obj = json.loads(text)
    except ValueError as err:
        raise DslError(f"not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise DslError("expected a JSON object at the top level")
    for key in ("name", "generators", "relations"):
        if key not in obj:
            raise DslError("missing field", path=key)
    if not isinstance(obj["name"], str):
        raise DslError("expected a string", path="name")
    _check_writable(obj["name"], "name")
    labels = obj["generators"]
    if not isinstance(labels, list) or not labels:
        raise DslError("expected a nonempty list of labels", path="generators")
    for k, label in enumerate(labels):
        if not isinstance(label, str):
            raise DslError("expected a string", path=f"generators[{k}]")
        _check_writable(label, f"generators[{k}]")
    seen = set(labels)
    if len(seen) != len(labels):
        raise DslError("duplicate generator labels", path="generators")
    m = len(labels)
    star = obj.get("star")
    if star is not None:
        star = _json_vector(star, m, "star")
    aux = obj.get("aux", {})
    if not isinstance(aux, dict):
        raise DslError("expected an object", path="aux")
    for k in aux:
        _check_writable(k, f"aux.{k}")
        if k in seen:
            raise DslError("duplicate name", path=f"aux.{k}")
    aux = {k: _json_vector(v, m, f"aux.{k}") for k, v in aux.items()}
    if not isinstance(obj["relations"], list):
        raise DslError("expected a list", path="relations")
    relations = [_relation_from_json(rel, m, r) for r, rel in enumerate(obj["relations"])]
    return TypePresentation(
        GeneratorSpace(obj["name"], tuple(labels)),
        star,
        relations,
        aux=aux,
        star_unresolved=star is None,
    )


def _relation_from_json(rel, m: int, r: int) -> RelationElement:
    """``relations[r]`` of a JSON export.

    A ``"0"`` cell is skipped before any conversion, and a row of ``"0"``
    cells as a whole; every other cell goes through ``_json_scalar``.
    """
    if not isinstance(rel, dict):
        raise DslError("expected an object", path=f"relations[{r}]")
    coeffs = {}
    for block, key in enumerate(("L", "R")):
        if key not in rel:
            raise DslError("missing field", path=f"relations[{r}].{key}")
        rows = rel[key]
        if not isinstance(rows, list) or len(rows) != m:
            raise DslError(f"expected a list of {m} rows", path=f"relations[{r}].{key}")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != m:
                raise DslError(
                    f"expected a list of {m} rationals", path=f"relations[{r}].{key}[{i}]"
                )
            if row.count("0") == m:
                continue
            path = f"relations[{r}].{key}[{i}]"
            offset = (block * m + i) * m
            for j, x in enumerate(row):
                if x == "0":
                    continue
                c = _json_scalar(x, path, j)
                if c:
                    coeffs[offset + j] = c
    return RelationElement(m, coeffs)


def _check_writable(name: str, path: str) -> None:
    """Refuse a name the definition language cannot write back.

    A quoted name ends at ``"`` or a line break, and text files read back
    with universal newlines turn ``\\r`` into a line break.
    """
    if '"' in name or "\n" in name or "\r" in name:
        raise DslError("a name cannot contain '\"' or a line break", path=path)


def _json_vector(value, m: int, path: str) -> list:
    if not isinstance(value, list) or len(value) != m:
        raise DslError(f"expected a list of {m} rationals", path=path)
    return [_json_scalar(x, path, k) for k, x in enumerate(value)]


_COMMON_SCALARS = {"0": 0, "1": 1, "-1": -1}


def _json_scalar(value, path: str, k: int):
    """Entry ``k`` of the JSON list at ``path`` as an exact scalar: a JSON
    integer, or text in the form ``p`` or ``p/q``."""
    known = _COMMON_SCALARS.get(value) if isinstance(value, str) else None
    if known is not None:
        return known
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return rational_from_text(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DslError(f"expected a rational such as \"-1/2\", found {value!r}", path=f"{path}[{k}]")


def _to_latex(t: TypePresentation) -> str:
    from .catalog import latex_symbol

    labels = [latex_symbol(l) for l in t.generators.labels]

    def term(block, i, j):
        if block == 0:
            return f"(x {labels[i]} y) {labels[j]} z"
        return f"x {labels[i]} (y {labels[j]} z)"

    rows = []
    for rel in t.relations:
        left, right = format_sides(rel, term, scale="\\,")
        rows.append(f"{left} &= {right} \\\\")
    return "\\begin{array}{rcl}\n" + "\n".join(rows) + "\n\\end{array}\n"


# the export formats, each with its writer
WRITERS = {"dsl": _to_dsl, "json": _to_json, "latex": _to_latex}
