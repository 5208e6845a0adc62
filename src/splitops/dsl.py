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

from .exactalg import ExactAlgebraError, format_scalar
from .typecore import (
    GeneratorSpace,
    InvalidPresentation,
    RelationElement,
    TypePresentation,
    format_sides,
    validate,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    start: int
    end: int

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


class DslValidationError(InvalidPresentation):
    """Parsed fine, but the presentation does not validate."""

    def __init__(self, report):
        super().__init__("parsed type failed validation:\n" + report.describe(), report)


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
        m = _TOKEN_RE.match(text, pos)
        if not m:
            span = SourceSpan(line, pos - line_start + 1, pos, pos + 1)
            raise DslError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        raw = m.group()
        span = SourceSpan(line, pos - line_start + 1, pos, m.end())
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
    tokens.append(_Token("end", "", SourceSpan(line, pos - line_start + 1, pos, pos)))
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

    def rational(self) -> Fraction:
        tok = self.next()
        if tok.kind != "int":
            raise DslError("expected a number", tok.span)
        value = Fraction(int(tok.text))
        if self.peek().text == "/":
            self.next()
            den = self.next()
            if den.kind != "int" or int(den.text) == 0:
                raise DslError("expected a nonzero denominator", den.span)
            value /= int(den.text)
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

    def lincomb(self, names: dict[str, tuple[Fraction, ...]], m: int) -> tuple[Fraction, ...]:
        vec = [Fraction(0)] * m
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok.text in ("+", "-"):
                self.next()
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            elif not first:
                break
            if self._zero_term():
                first = False
                if self.peek().text not in ("+", "-"):
                    break
                continue
            coeff = Fraction(1)
            if self.peek().kind == "int":
                coeff = self.rational()
                self.expect("*")
            name = self.expect_id("generator name")
            if name.text not in names:
                raise DslError(f"unknown identifier {name.text!r}", name.span)
            for k, c in enumerate(names[name.text]):
                vec[k] += sign * coeff * c
            first = False
            if self.peek().text not in ("+", "-"):
                break
        return tuple(vec)

    def bilin(self, names, m) -> dict[int, Fraction]:
        """A bilinear combination as {a*m + b: coefficient of a.b}."""
        coeffs: dict[int, Fraction] = {}
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok.text in ("+", "-"):
                self.next()
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            elif not first:
                break
            if self._zero_term():
                first = False
                if self.peek().text not in ("+", "-"):
                    break
                continue
            coeff = Fraction(1)
            if self.peek().kind == "int":
                coeff = self.rational()
                self.expect("*")
            u = self.factor(names, m)
            self.expect(".")
            v = self.factor(names, m)
            for a in range(m):
                if not u[a]:
                    continue
                for b in range(m):
                    if v[b]:
                        k = a * m + b
                        coeffs[k] = coeffs.get(k, 0) + sign * coeff * u[a] * v[b]
            first = False
            if self.peek().text not in ("+", "-"):
                break
        return coeffs

    def factor(self, names, m) -> tuple[Fraction, ...]:
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


def parse_type_report(text: str):
    """Parse without enforcing validity; returns (presentation, report)."""
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
    names = {
        lbl: tuple(Fraction(int(i == j)) for j in range(m)) for i, lbl in enumerate(labels_t)
    }
    p.expect(";")

    p.expect("star")
    p.expect(":")
    star = p.lincomb(names, m)
    p.expect(";")

    aux: dict[str, tuple[Fraction, ...]] = {}
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
        relations.append(RelationElement.from_coeffs(m, coeffs))
    if not relations:
        raise DslError("a type needs at least one relation", p.peek().span)
    p.expect("}")
    tail = p.peek()
    if tail.kind != "end":
        raise DslError(f"trailing input {tail.text!r}", tail.span)

    t = TypePresentation(GeneratorSpace(name.text, labels_t), star, relations, aux=aux)
    return t, validate(t)


def parse_type(text: str) -> TypePresentation:
    """Parse and validate; invalid presentations raise with the report attached."""
    t, report = parse_type_report(text)
    if not report.valid:
        raise DslValidationError(report)
    return t


# ---------------------------------------------------------------------------
# serialization


def serialize(t: TypePresentation, format: str = "dsl") -> str:
    if format == "dsl":
        return _to_dsl(t)
    if format == "json":
        return _to_json(t)
    if format == "latex":
        return _to_latex(t)
    raise ValueError(f"unknown format {format!r}")


def _name_out(label: str) -> str:
    return label if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label) else f'"{label}"'


def _lincomb_str(vec, labels) -> str:
    parts = []
    for c, lbl in zip(vec, labels):
        if not c:
            continue
        body = _name_out(lbl) if abs(c) == 1 else f"{format_scalar(abs(c))}*{_name_out(lbl)}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _to_dsl(t: TypePresentation) -> str:
    labels = t.generators.labels

    def term(_block, i, j):
        return f"{_name_out(labels[i])}.{_name_out(labels[j])}"

    lines = [f"type {_name_out(t.name)} {{"]
    lines.append("  generators: " + ", ".join(_name_out(l) for l in labels) + ";")
    star = t.star if t.star is not None else (Fraction(0),) * t.dim
    lines.append("  star: " + _lincomb_str(star, labels) + ";")
    if t.aux:
        defs = ", ".join(
            f"{_name_out(k)} = {_lincomb_str(v, labels)}" for k, v in t.aux.items()
        )
        lines.append(f"  aux: {defs};")
    lines.append("  relations:")
    for rel in t.relations:
        left, right = format_sides(rel, term)
        lines.append(f"    ({left} | {right})")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_json(t: TypePresentation) -> str:
    obj = {
        "name": t.name,
        "generators": list(t.generators.labels),
        "star": [format_scalar(x) for x in t.star] if t.star is not None else None,
        "aux": {k: [format_scalar(x) for x in v] for k, v in t.aux.items()},
        "relations": [_json_blocks(rel) for rel in t.relations],
    }
    return json.dumps(obj, indent=2) + "\n"


def _json_blocks(rel: RelationElement) -> dict:
    m = rel.size
    blocks = [[["0"] * m for _ in range(m)] for _ in range(2)]
    for block, i, j, c in rel.nonzero():
        blocks[block][i][j] = format_scalar(c)
    return {"L": blocks[0], "R": blocks[1]}


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
    labels = obj["generators"]
    if not isinstance(labels, list) or not labels:
        raise DslError("expected a nonempty list of labels", path="generators")
    for k, label in enumerate(labels):
        if not isinstance(label, str):
            raise DslError("expected a string", path=f"generators[{k}]")
    if len(set(labels)) != len(labels):
        raise DslError("duplicate generator labels", path="generators")
    m = len(labels)
    star = obj.get("star")
    if star is not None:
        star = _json_vector(star, m, "star")
    aux = obj.get("aux", {})
    if not isinstance(aux, dict):
        raise DslError("expected an object", path="aux")
    aux = {k: _json_vector(v, m, f"aux.{k}") for k, v in aux.items()}
    if not isinstance(obj["relations"], list):
        raise DslError("expected a list", path="relations")
    relations = []
    for r, rel in enumerate(obj["relations"]):
        path = f"relations[{r}]"
        if not isinstance(rel, dict):
            raise DslError("expected an object", path=path)
        coeffs = {}
        for block, key in enumerate(("L", "R")):
            if key not in rel:
                raise DslError("missing field", path=f"{path}.{key}")
            rows = rel[key]
            if not isinstance(rows, list) or len(rows) != m:
                raise DslError(f"expected a list of {m} rows", path=f"{path}.{key}")
            for i, row in enumerate(rows):
                row = _json_vector(row, m, f"{path}.{key}[{i}]")
                for j, c in enumerate(row):
                    if c:
                        coeffs[block * m * m + i * m + j] = c
        relations.append(RelationElement.from_coeffs(m, coeffs))
    return TypePresentation(
        GeneratorSpace(obj["name"], tuple(labels)),
        star,
        relations,
        aux=aux,
        star_unresolved=star is None,
    )


def _json_vector(value, m: int, path: str) -> list[Fraction]:
    if not isinstance(value, list) or len(value) != m:
        raise DslError(f"expected a list of {m} rationals", path=path)
    return [_json_rational(x, f"{path}[{k}]") for k, x in enumerate(value)]


_COMMON_RATIONALS = {"0": Fraction(0), "1": Fraction(1), "-1": Fraction(-1)}


def _json_rational(value, path: str) -> Fraction:
    known = _COMMON_RATIONALS.get(value) if isinstance(value, str) else None
    if known is not None:
        return known
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DslError(f"expected a rational such as \"-1/2\", found {value!r}", path=path)


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
