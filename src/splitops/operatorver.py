"""Symbolic verification of operator-induced structures.

Given a valid type and an operator law (Rota-Baxter of formal or rational
weight, Nijenhuis, left or right Rota-Baxter), the derived operations

    x (w|lt) y = x w P(y),   x (w|gt) y = P(x) w y,   ...

are substituted into every relation of the predicted product type.  The
difference of the two sides is normalized by rewriting every product
whose operands both carry the law's operator outermost:

    rb:        P(u) o P(v) -> P(P(u) o v) + P(u o P(v)) + weight * P(u o v)
    nijenhuis: N(u) o N(v) -> N(N(u) o v) + N(u o N(v)) - N(N(u o v))
    left rb:   P(u) o P(v) -> P(u o P(v))
    right rb:  P(u) o P(v) -> P(P(u) o v)

and the residual must be an exact Q(weight)-linear combination of
base-type relation instances on decorated arguments, wrapped in operator
words.  The combination found is returned as a certificate.

Terms are product trees with three leaves x, y, z in fixed order (two
leaves for the operator-identity lemmas); every leaf and every product
node carries an operator word.  Words are kept canonically sorted, which
makes commuting families definitional rather than rewritten.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import LAMBDA, RatFunc, RF_ONE, ExactAlgebraError, format_scalar
from .typecore import RelationElement, TypePresentation, require_valid
from .products import square

DEFAULT_NESTING_CAP = 6
DEFAULT_STEP_BUDGET = 100_000


class RewriteBudget(ExactAlgebraError):
    pass


# ---------------------------------------------------------------------------
# operator laws


@dataclass(frozen=True)
class OperatorLaw:
    """One rewrite rule: kind in {rb, nijenhuis, left_rb, right_rb}.

    ``weight`` applies to rb only; ``None`` means the formal weight.
    """

    kind: str
    weight: Fraction | None = None
    name: str = "P"

    def __post_init__(self):
        if self.kind not in ("rb", "nijenhuis", "left_rb", "right_rb"):
            raise ValueError(f"unknown operator law {self.kind!r}")
        if self.kind != "rb" and self.weight is not None:
            raise ValueError(f"{self.kind} takes no weight")

    def weight_scalar(self) -> RatFunc:
        if self.weight is None:
            return LAMBDA
        return RatFunc(self.weight)

    def describe(self) -> str:
        if self.kind == "rb":
            w = "formal" if self.weight is None else format_scalar(self.weight)
            return f"rb(weight={w}, {self.name})"
        return f"{self.kind}({self.name})"

    def expansions(self):
        """(coeff, keep_left_operator, keep_right_operator, wraps_added)."""
        if self.kind == "rb":
            w = self.weight_scalar()
            out = [(RF_ONE, True, False, 1), (RF_ONE, False, True, 1)]
            if w:
                out.append((w, False, False, 1))
            return out
        if self.kind == "nijenhuis":
            return [
                (RF_ONE, True, False, 1),
                (RF_ONE, False, True, 1),
                (-RF_ONE, False, False, 2),
            ]
        if self.kind == "left_rb":
            return [(RF_ONE, False, True, 1)]
        return [(RF_ONE, True, False, 1)]


def rb(weight=None, name: str = "P") -> OperatorLaw:
    w = None if weight in (None, "formal") else Fraction(weight)
    return OperatorLaw("rb", w, name)


def nijenhuis(name: str = "N") -> OperatorLaw:
    return OperatorLaw("nijenhuis", name=name)


def left_rb(name: str = "P") -> OperatorLaw:
    return OperatorLaw("left_rb", name=name)


def right_rb(name: str = "P") -> OperatorLaw:
    return OperatorLaw("right_rb", name=name)


def law_from_name(kind: str, weight=None, name: str | None = None) -> OperatorLaw:
    if kind == "rb":
        return rb(weight, name or "P")
    if kind == "rb0":
        return rb(0, name or "P")
    if kind == "nijenhuis":
        return nijenhuis(name or "N")
    if kind == "leftrb" or kind == "left_rb":
        return left_rb(name or "P")
    if kind == "rightrb" or kind == "right_rb":
        return right_rb(name or "P")
    raise ValueError(f"unknown law {kind!r}")


def predicted_factor_name(law: OperatorLaw) -> str:
    if law.kind == "rb":
        return "dendriform" if law.weight == 0 else "trialgebra"
    if law.kind == "nijenhuis":
        return "ns"
    if law.kind == "left_rb":
        return "dipterous"
    return "anti_dipterous"


def derived_table(law: OperatorLaw, factor: TypePresentation, symbol: int):
    """Map factor-generator index -> [(coeff, left word, right word, wrap word)].

    The entries are the derived binary operations of the construction;
    composing tables for commuting families merges the words as
    multisets.
    """
    labels = factor.generators.labels
    sym = (symbol,)
    empty = ()
    table = {}
    if law.kind == "rb":
        table[labels.index("lt")] = [(RF_ONE, empty, sym, empty)]
        table[labels.index("gt")] = [(RF_ONE, sym, empty, empty)]
        if law.weight != 0:
            table[labels.index("cir")] = [(law.weight_scalar(), empty, empty, empty)]
    elif law.kind == "nijenhuis":
        table[labels.index("lt")] = [(RF_ONE, empty, sym, empty)]
        table[labels.index("gt")] = [(RF_ONE, sym, empty, empty)]
        table[labels.index("bul")] = [(-RF_ONE, empty, empty, sym)]
    elif law.kind == "left_rb":
        table[labels.index("gt")] = [(RF_ONE, sym, empty, empty)]
        table[labels.index("st")] = [(RF_ONE, empty, sym, empty)]
    else:  # right_rb
        table[labels.index("lt")] = [(RF_ONE, empty, sym, empty)]
        table[labels.index("st")] = [(RF_ONE, sym, empty, empty)]
    if len(table) != factor.dim:
        raise ExactAlgebraError("derived table does not cover the factor type")
    return table


# ---------------------------------------------------------------------------
# decorated terms
#
# A term is a tuple (shape, gin, gout, wx, wy, wz, win, wout) with words as
# sorted tuples of operator symbols:
#   shape 0:  wout[ win[ wx[x] gin wy[y] ]  gout  wz[z] ]
#   shape 1:  wout[ wx[x]  gout  win[ wy[y] gin wz[z] ] ]
#   shape 2:  wout[ wx[x]  gout  wy[y] ]          (two leaves, gin unused)


def _word_add(word: tuple, symbol: int, count: int = 1) -> tuple:
    out = list(word)
    for _ in range(count):
        insort(out, symbol)
    return tuple(out)


def _word_remove(word: tuple, symbol: int) -> tuple:
    out = list(word)
    out.remove(symbol)
    return tuple(out)


class Normalizer:
    """Rewrites linear combinations of decorated terms to normal form.

    Memoizes per-term normal forms, counts rewrite steps against a
    budget and enforces the nesting cap on operator words.
    """

    def __init__(
        self,
        laws: tuple[OperatorLaw, ...],
        symbols: tuple[int, ...],
        cap: int = DEFAULT_NESTING_CAP,
        budget: int = DEFAULT_STEP_BUDGET,
        strategy: str = "innermost",
    ):
        if strategy not in ("innermost", "outermost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.laws = laws
        self.symbols = symbols
        self.cap = cap
        self.budget = budget
        self.steps = 0
        self.strategy = strategy
        self._memo: dict[tuple, dict] = {}

    def _spend(self):
        self.steps += 1
        if self.steps > self.budget:
            raise RewriteBudget("rewrite budget exhausted")

    def _check_cap(self, word: tuple):
        if len(word) > self.cap:
            raise RewriteBudget(
                f"rewrite budget exhausted: operator word beyond nesting cap {self.cap}"
            )

    def normalize(self, comb: dict) -> dict:
        out: dict = {}
        for term, coeff in comb.items():
            if not coeff:
                continue
            for t2, c2 in self.normalize_term(term).items():
                _accumulate(out, t2, coeff * c2)
        return out

    def normalize_term(self, term: tuple) -> dict:
        known = self._memo.get(term)
        if known is not None:
            return known
        redex = self._find_redex(term)
        if redex is None:
            result = {term: RF_ONE}
        else:
            law, symbol, position = redex
            self._spend()
            result = {}
            for piece, coeff in self._apply(term, law, symbol, position).items():
                for t2, c2 in self.normalize_term(piece).items():
                    _accumulate(result, t2, coeff * c2)
        self._memo[term] = result
        return result

    def _positions(self, shape: int):
        if shape == 2:
            return ("single",)
        if self.strategy == "innermost":
            return ("inner", "outer")
        return ("outer", "inner")

    def _find_redex(self, term):
        shape = term[0]
        for position in self._positions(shape):
            wa, wb = _operands(term, position)
            for law, symbol in zip(self.laws, self.symbols):
                if symbol in wa and symbol in wb:
                    return law, symbol, position
        return None

    def _apply(self, term, law: OperatorLaw, symbol: int, position: str) -> dict:
        shape, gin, gout, wx, wy, wz, win, wout = term
        wa, wb = _operands(term, position)
        wa_red = _word_remove(wa, symbol)
        wb_red = _word_remove(wb, symbol)
        out: dict = {}
        for coeff, keep_a, keep_b, wraps in law.expansions():
            na = wa if keep_a else wa_red
            nb = wb if keep_b else wb_red
            if position == "single":
                nwout = _word_add(wout, symbol, wraps)
                self._check_cap(nwout)
                piece = (2, gin, gout, na, nb, wz, win, nwout)
            elif position == "inner":
                nwin = _word_add(win, symbol, wraps)
                self._check_cap(nwin)
                if shape == 0:
                    piece = (0, gin, gout, na, nb, wz, nwin, wout)
                else:
                    piece = (1, gin, gout, wx, na, nb, nwin, wout)
            else:  # outer; operand roles follow _operands
                nwout = _word_add(wout, symbol, wraps)
                self._check_cap(nwout)
                if shape == 0:
                    piece = (0, gin, gout, wx, wy, nb, na, nwout)
                else:
                    piece = (1, gin, gout, na, wy, wz, nb, nwout)
            _accumulate(out, piece, coeff)
        return out


def _operands(term, position: str):
    shape, _gin, _gout, wx, wy, wz, win, wout = term
    if position == "single":
        return wx, wy
    if position == "inner":
        return (wx, wy) if shape == 0 else (wy, wz)
    # outer: left/right operands of the outer product
    return (win, wz) if shape == 0 else (wx, win)


def _accumulate(acc: dict, term, coeff):
    if not coeff:
        return
    cur = acc.get(term)
    if cur is None:
        acc[term] = coeff
    else:
        cur = cur + coeff
        if cur:
            acc[term] = cur
        else:
            del acc[term]


def term_str(term, labels, sym_names) -> str:
    shape, gin, gout, wx, wy, wz, win, wout = term

    def wrap(word, body):
        for s in word:
            body = f"{sym_names[s]}({body})"
        return body

    x = wrap(wx, "x")
    y = wrap(wy, "y")
    if shape == 2:
        return wrap(wout, f"{x} {labels[gout]} {y}")
    z = wrap(wz, "z")
    if shape == 0:
        inner = wrap(win, f"({x} {labels[gin]} {y})")
        return wrap(wout, f"{inner} {labels[gout]} {z}")
    inner = wrap(win, f"({y} {labels[gin]} {z})")
    return wrap(wout, f"{x} {labels[gout]} {inner}")


# ---------------------------------------------------------------------------
# relation instances and the membership solver


def relation_instance(
    rel: RelationElement, triple: tuple, context: tuple
) -> dict:
    """The combination LHS - RHS of a base relation on decorated leaves,
    wrapped in a context word."""
    wu, wv, ww = triple
    comb: dict = {}
    for block, i, j, c in rel.nonzero():
        if block == 0:
            _accumulate(comb, (0, i, j, wu, wv, ww, (), context), RatFunc(c))
        else:
            _accumulate(comb, (1, j, i, wu, wv, ww, (), context), -RatFunc(c))
    return comb


def _sorted_words(symbols: tuple[int, ...], max_len: int):
    """All sorted operator words of length at most max_len."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in symbols:
                if w and s < w[-1]:
                    continue
                nxt.append(w + (s,))
        words.extend(nxt)
        frontier = nxt
    return words


def _splits2(word: tuple):
    """All ways to split a sorted word into two sorted sub-multisets."""
    if not word:
        return [((), ())]
    head, rest = word[0], word[1:]
    out = []
    for a, b in _splits2(rest):
        out.append((_merge((head,), a), b))
        out.append((a, _merge((head,), b)))
    # duplicates arise for repeated symbols; keep each split once
    return list(dict.fromkeys(out))


def _candidate_geometry(residual: dict):
    """Leaf-word triples and context words that can certify a residual.

    Rewriting only ever moves operator symbols from the two operands of a
    product into that product's wrap word, so the arguments of the
    relation instances a residual can come from are recovered by
    redistributing each term's wrap words back onto the operands, in
    every multiset split.  Whatever part of the outermost wrap is not
    pushed down stays as the instance's context.
    """
    triples = set()
    contexts = {()}
    for shape, _gin, _gout, wx, wy, wz, win, wout in residual:
        for ctx, moved in _splits2(wout):
            contexts.add(ctx)
            for to_sub, to_leaf in _splits2(moved):
                if shape == 0:
                    pool = _merge(win, to_sub)
                    z2 = _merge(wz, to_leaf)
                    for ax, ay in _splits2(pool):
                        triples.add((_merge(wx, ax), _merge(wy, ay), z2))
                elif shape == 1:
                    pool = _merge(win, to_sub)
                    x2 = _merge(wx, to_leaf)
                    for ay, az in _splits2(pool):
                        triples.add((x2, _merge(wy, ay), _merge(wz, az)))
                else:
                    triples.add((_merge(wx, to_sub), _merge(wy, to_leaf), ()))
    return sorted(triples), sorted(contexts)


class _Echelon:
    """Incremental reduced echelon over the term space with certificates."""

    def __init__(self):
        self.pivots: dict = {}  # pivot term -> (vector, combination)

    def reduce(self, vec: dict, cert: dict):
        vec = dict(vec)
        cert = dict(cert)
        while vec:
            lead = max(vec)
            hit = self.pivots.get(lead)
            if hit is None:
                return vec, cert, lead
            pvec, pcert = hit
            f = vec[lead]
            for t, c in pvec.items():
                _accumulate(vec, t, -f * c)
            for k, c in pcert.items():
                _accumulate(cert, k, -f * c)
        return vec, cert, None

    def insert(self, vec: dict, tag) -> None:
        vec, cert, lead = self.reduce(vec, {tag: RF_ONE})
        if lead is None:
            return
        inv = RF_ONE / vec[lead]
        vec = {t: c * inv for t, c in vec.items()}
        cert = {k: c * inv for k, c in cert.items()}
        self.pivots[lead] = (vec, cert)

    def solve(self, target: dict):
        """Express target in the inserted vectors; None if impossible."""
        vec, cert, lead = self.reduce(target, {})
        if lead is not None:
            return None
        return {k: -c for k, c in cert.items()}


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class RelationVerdict:
    index: int
    relation: str
    verified: bool
    certificate: tuple = ()
    residual: tuple = ()
    residual_zero: bool = False

    def describe(self) -> str:
        status = "verified" if self.verified else "FAILED"
        return f"relation {self.index}: {status}"


@dataclass(frozen=True)
class VerificationReport:
    type_name: str
    law: str
    product_name: str
    verdicts: tuple[RelationVerdict, ...]
    experimental: bool = False

    @property
    def all_verified(self) -> bool:
        return all(v.verified for v in self.verdicts)

    def describe(self) -> str:
        n_ok = sum(v.verified for v in self.verdicts)
        lines = [
            f"{self.type_name} with {self.law}: {n_ok}/{len(self.verdicts)} "
            f"relations of {self.product_name} verified"
        ]
        if self.experimental:
            lines.append("  (mixed-kind operator family: experimental)")
        lines.extend("  " + v.describe() for v in self.verdicts if not v.verified)
        return "\n".join(lines)

    def to_json(self) -> str:
        obj = {
            "type": self.type_name,
            "law": self.law,
            "product": self.product_name,
            "experimental": self.experimental,
            "relations": [
                {
                    "index": v.index,
                    "relation": v.relation,
                    "verdict": "verified" if v.verified else "failed",
                    "certificate": [
                        {
                            "relation_index": idx,
                            "leaf_words": [list(w) for w in triple],
                            "context": list(ctx),
                            "coefficient": format_scalar(coeff),
                        }
                        for (idx, triple, ctx), coeff in v.certificate
                    ],
                    "residual": list(v.residual),
                }
                for v in self.verdicts
            ],
        }
        return json.dumps(obj, indent=2)


class _Verifier:
    """Shared machinery for single laws, families and the closing lemma."""

    def __init__(self, base, laws, factors, tables, cap, budget, strategy="innermost"):
        self.base = base
        self.laws = tuple(laws)
        self.symbols = tuple(range(len(self.laws)))
        self.factors = factors
        self.tables = tables
        self.normalizer = Normalizer(self.laws, self.symbols, cap, budget, strategy)
        product = base
        for k, factor in enumerate(factors):
            product = square(product, factor)
        self.product = product
        self.factor_dims = [f.dim for f in factors]

    def _decompose(self, index: int):
        taus = []
        for mdim in reversed(self.factor_dims):
            index, tau = divmod(index, mdim)
            taus.append(tau)
        taus.reverse()
        return index, tuple(taus)

    def _entries(self, taus: tuple[int, ...]):
        entries = [(RF_ONE, (), (), ())]
        for table, tau in zip(self.tables, taus):
            nxt = []
            for c1, wl1, wr1, wp1 in entries:
                for c2, wl2, wr2, wp2 in table[tau]:
                    nxt.append(
                        (
                            c1 * c2,
                            _merge(wl1, wl2),
                            _merge(wr1, wr2),
                            _merge(wp1, wp2),
                        )
                    )
            entries = nxt
        return entries

    def substitute(self, rel: RelationElement) -> dict:
        """LHS - RHS of a product relation under the derived operations."""
        comb: dict = {}
        for block, i, j, c in rel.nonzero():
            # L: (x g_i y) g_j z, R: x g_i (y g_j z)
            inner, outer = (i, j) if block == 0 else (j, i)
            b_in, taus_in = self._decompose(inner)
            b_out, taus_out = self._decompose(outer)
            coeff = -RatFunc(c) if block else RatFunc(c)
            for c1, wl1, wr1, wp1 in self._entries(taus_in):
                for c2, wl2, wr2, wp2 in self._entries(taus_out):
                    if block == 0:
                        term = (0, b_in, b_out, wl1, wr1, wr2, _merge(wl2, wp1), wp2)
                    else:
                        term = (1, b_in, b_out, wl2, wl1, wr1, _merge(wr2, wp1), wp2)
                    _accumulate(comb, term, coeff * c1 * c2)
        return comb

    def verify_relation(self, index: int) -> RelationVerdict:
        from .typecore import format_relation

        rel = self.product.relations[index]
        label = format_relation(rel, self.product.generators.labels)
        residual = self.normalizer.normalize(self.substitute(rel))
        if not residual:
            return RelationVerdict(index, label, True, residual_zero=True)
        triples, contexts = _candidate_geometry(residual)
        solved = self._solve_membership(residual, triples, contexts)
        if solved is None:
            # one retry at extended depth: every word one symbol longer
            total = max(
                len(t[3]) + len(t[4]) + len(t[5]) + len(t[6]) + len(t[7])
                for t in residual
            )
            words = _sorted_words(self.symbols, total + 1)
            triples = [
                (a, b, c)
                for a in words
                for b in words
                for c in words
                if len(a) + len(b) + len(c) <= total + 1
            ]
            depth = max(len(t[7]) for t in residual) + 1
            solved = self._solve_membership(residual, triples, _sorted_words(self.symbols, depth))
        if solved is None:
            labels = self.base.generators.labels
            names = [law.name for law in self.laws]
            shown = tuple(
                f"{format_scalar(c)} * {term_str(t, labels, names)}"
                for t, c in sorted(residual.items())
            )
            return RelationVerdict(index, label, False, residual=shown)
        return RelationVerdict(index, label, True, certificate=tuple(solved.items()))

    def _solve_membership(self, residual: dict, triples, contexts):
        ech = _Echelon()
        for r_idx, rel in enumerate(self.base.relations):
            for triple in triples:
                for ctx in contexts:
                    inst = self.normalizer.normalize(relation_instance(rel, triple, ctx))
                    if inst:
                        ech.insert(inst, (r_idx, triple, ctx))
        return ech.solve(residual)

    def instance_vector(self, tag) -> dict:
        """Normalized relation instance for re-evaluating certificates."""
        r_idx, triple, ctx = tag
        return self.normalizer.normalize(
            relation_instance(self.base.relations[r_idx], triple, ctx)
        )

    def run(self, type_name: str, law_desc: str, experimental=False) -> VerificationReport:
        verdicts = tuple(
            self.verify_relation(k) for k in range(len(self.product.relations))
        )
        return VerificationReport(
            type_name, law_desc, self.product.name, verdicts, experimental
        )


def _merge(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


def _make_verifier(t, laws, cap, budget, strategy="innermost", tables=None, factors=None):
    from . import catalog

    require_valid(t)
    if factors is None:
        factors = [catalog.get(predicted_factor_name(law)) for law in laws]
    if tables is None:
        tables = [
            derived_table(law, factor, symbol)
            for symbol, (law, factor) in enumerate(zip(laws, factors))
        ]
    return _Verifier(t, laws, factors, tables, cap, budget, strategy)


def verify_operator_theorem(
    t: TypePresentation,
    law: OperatorLaw,
    cap: int = DEFAULT_NESTING_CAP,
    budget: int = DEFAULT_STEP_BUDGET,
    strategy: str = "innermost",
) -> VerificationReport:
    """Verify that one operator induces the predicted product structure."""
    v = _make_verifier(t, [law], cap, budget, strategy)
    return v.run(t.name, law.describe())


def verify_commuting_family(
    t: TypePresentation,
    laws,
    cap: int = DEFAULT_NESTING_CAP,
    budget: int = DEFAULT_STEP_BUDGET,
    max_family: int = 3,
) -> VerificationReport:
    """Iterated construction for a family of commuting operators."""
    laws = list(laws)
    if not 1 <= len(laws) <= max_family:
        raise ExactAlgebraError(
            f"commuting families are limited to {max_family} operators"
        )
    laws = [
        OperatorLaw(law.kind, law.weight, f"{law.name}{k + 1}")
        for k, law in enumerate(laws)
    ]
    kinds = {law.kind for law in laws}
    experimental = len(kinds) > 1 and kinds != {"right_rb", "left_rb"}
    v = _make_verifier(t, laws, cap, budget)
    desc = " , ".join(law.describe() for law in laws)
    return v.run(t.name, f"[{desc}]", experimental)


# ---------------------------------------------------------------------------
# the operator-identity lemmas


@dataclass(frozen=True)
class LemmaReport:
    name: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        return f"{self.name}: {'ok' if self.ok else 'FAILED ' + self.detail}"


def _two_leaf_product(left_parts, right_parts, wout=()):
    comb: dict = {}
    for cl, wl in left_parts:
        for cr, wr in right_parts:
            _accumulate(comb, (2, -1, 0, wl, wr, (), (), wout), cl * cr)
    return comb


def _wrap_combination(comb: dict, parts) -> dict:
    out: dict = {}
    for term, coeff in comb.items():
        shape, gin, gout, wx, wy, wz, win, wout = term
        for c, w in parts:
            nt = (shape, gin, gout, wx, wy, wz, win, _merge(wout, w))
            _accumulate(out, nt, coeff * c)
    return out


def _check_modified_operator(kind: str) -> LemmaReport:
    """-weight*id - P is again Rota-Baxter; id - N is again Nijenhuis."""
    sym = (0,)
    if kind == "rb":
        law = rb(None)
        modified = [(-LAMBDA, ()), (-RF_ONE, sym)]
        inner = [
            _two_leaf_product(modified, [(RF_ONE, ())]),
            _two_leaf_product([(RF_ONE, ())], modified),
            _two_leaf_product([(LAMBDA, ())], [(RF_ONE, ())]),
        ]
        name = "modified Rota-Baxter operator (-weight*id - P)"
    else:
        law = nijenhuis()
        modified = [(RF_ONE, ()), (-RF_ONE, sym)]
        wrapped_inner: dict = {}
        for term, coeff in _two_leaf_product([(RF_ONE, ())], [(RF_ONE, ())]).items():
            shape, gin, gout, wx, wy, wz, win, wout = term
            for c, w in modified:
                _accumulate(
                    wrapped_inner,
                    (shape, gin, gout, wx, wy, wz, win, _merge(wout, w)),
                    -(coeff * c),
                )
        inner = [
            _two_leaf_product(modified, [(RF_ONE, ())]),
            _two_leaf_product([(RF_ONE, ())], modified),
            wrapped_inner,
        ]
        name = "modified Nijenhuis operator (id - N)"
    lhs = _two_leaf_product(modified, modified)
    rhs_arg: dict = {}
    for part in inner:
        for term, coeff in part.items():
            _accumulate(rhs_arg, term, coeff)
    rhs = _wrap_combination(rhs_arg, modified)
    normalizer = Normalizer((law,), (0,))
    diff: dict = {}
    for t, c in lhs.items():
        _accumulate(diff, t, c)
    for t, c in rhs.items():
        _accumulate(diff, t, -c)
    residual = normalizer.normalize(diff)
    if residual:
        shown = "; ".join(
            f"{format_scalar(c)} * {term_str(t, ['o'], [law.name])}"
            for t, c in sorted(residual.items())
        )
        return LemmaReport(name, False, f"residual {shown}")
    return LemmaReport(name, True)


def verify_operator_lemmas(
    include=("associative", "trialgebra"),
    cap: int = DEFAULT_NESTING_CAP,
    budget: int = DEFAULT_STEP_BUDGET,
):
    """The two modified-operator identities plus the closing dendriform
    construction x (w|lt) y = x w P(y), x (w|gt) y = weight*(x w y) + P(x) w y."""
    from . import catalog

    reports = [_check_modified_operator("rb"), _check_modified_operator("nijenhuis")]
    law = rb(None)
    dend = catalog.get("dendriform")
    for name in include:
        t = catalog.get(name)
        table = {
            dend.generators.index("lt"): [(RF_ONE, (), (0,), ())],
            dend.generators.index("gt"): [
                (LAMBDA, (), (), ()),
                (RF_ONE, (0,), (), ()),
            ],
        }
        v = _Verifier(t, (law,), [dend], [table], cap, budget)
        report = v.run(t.name, "dendriform splitting by -(modified P)")
        reports.append(
            LemmaReport(
                f"dendriform splitting on {name} (all {len(report.verdicts)} relations)",
                report.all_verified,
                "" if report.all_verified else report.describe(),
            )
        )
    return reports
