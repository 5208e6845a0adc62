"""Symbolic verification of operator-induced structures.

Given a valid type and an operator law (Rota-Baxter of formal or rational
weight, Nijenhuis, left or right Rota-Baxter, or rb_dendriform, the
dendriform splitting the lemmas check), the law's table of derived
operations

    x (w|lt) y = x w P(y),   x (w|gt) y = P(x) w y,   ...

is substituted into every relation of the predicted product type.  The
difference of the two sides is normalized by rewriting every product
whose operands both carry the law's operator outermost, with the one
rule every law obeys:

    P(u) o P(v) -> P(u * v),

where * is the predicted factor's star written in the derived
operations.  For rb it is P(P(u) o v) + P(u o P(v)) + weight * P(u o v)
(Ebrahimi-Fard, Lett. Math. Phys. 2002); for Nijenhuis the derived
operation -N(u o v) takes the place of the weight term (Lei-Guo, Front.
Math. China 2012); the one-sided laws keep one term; rb_dendriform, read
off dendriform's star lt + gt, has rb's rule.  The residual must be an
exact Q(weight)-linear combination of base-type relation instances on
decorated arguments, wrapped in operator words.  The combination found is
returned as a certificate, after it has been summed again, block by block,
from the recorded instances and compared with the residual there (see the
block lemma below).

Rewriting terminates.  Every derived operation carries at most one
operator symbol, so every term of a rewrite rule keeps at most one of
the two operand symbols it removes and wraps at least one, one level up.
An inner step removes two symbols from the leaf words under the inner
product (depth 2) and puts back at most one there; an outer or two-leaf
step does the same at depth 1 and leaves depth 2 alone.  So the pair
(symbols at depth 2, symbols at depth 1) falls lexicographically at
every step, and the total never rises: no word grows beyond the two
symbols a substitution starts with.

Terms are product trees with three leaves x, y, z in fixed order (two
leaves for the operator-identity lemmas); every leaf and every product
node carries an operator word, kept sorted.  A solve writes its law's
operator as symbol 0, and its normalizer rewrites with that one law.

Rewriting moves operator symbols between words and never reads or changes
the base generators of a term, so the verifier works on patterns, terms
keyed by shape and words alone.  The pattern n_f is relation f of the
law's factor, substituted with base generators 0 and normalized; the
pattern q_s of an instance s = (leaf words, context) is its normalized
left-bracketed term minus its right-bracketed one.  Placing a pattern at
every nonzero of a base relation r_b, with that nonzero's generators and
coefficient, is linear, and it turns n_f into the residual of the product
relation box(r_b, r_f) and q_s into the instance (b, s).  Hence the
placing lemma: if n_f = sum c_s * q_s, then

    residual(b, f) = sum c_s * instance(b, s)   for every base relation b.

So the verifier solves each nonzero n_f once and places that certificate
at every base relation.  It solves against the q_s of 15 tags: the s
whose leaf words a, b, c and context d, all of symbol 0, carry
a + b + c + d <= 2 symbols, the most a term of n_f carries.  Under the
formal weight and under every law whose rule keeps the number of symbols
(weight 0, Nijenhuis, the one-sided laws), n_f is homogeneous of degree 2
and q_s of degree a + b + c + d in the symbols, the weight l counted as
one (see the grading below), so the instances of degree 2 in any
certificate make one by themselves, and the 15 tags hold them all.  The
rank lemma: for rb of formal weight, 0, 1, 1/2 and -3/4, Nijenhuis,
left_rb, right_rb, and rb_dendriform of formal weight and 2, the 15 q_s
have rank 15, so a pattern certificate, when one exists, is unique.

The solve eliminates through one :class:`~splitops.exactalg.Echelon`,
with one column per term of the q_s and the n_f, then one per tag, then
one for the target.  Each q_s enters with a 1 in its tag's column, and
each nonzero n_f is reduced with a 1 in the target's; the remainder is a
positive multiple of n_f + e_target - sum a_s (q_s + e_s).  So n_f has a
certificate exactly when no term column survives, and its coefficient at
tag s is -rest[s] / rest[target], read off the remainder; the entries go
in tag order.  The solve reads no base and no operator name, so a
process solves each law kind and weight once, into one record of the
n_f, the certificates, the q_s they use and the blocks on which each
certificate holds, and every run reads that record.

The block lemma makes one check per solve enough.  The nonzeros of a base
relation r_b have pairwise distinct heads (block, gin, gout) and nonzero
coefficients; :func:`_nonzeros` keeps both, and so does the Kronecker
product of two relations' nonzeros in a family stage.  Placing at r_b
puts the words of block beta of a pattern under each head of block beta,
times its coefficient, so distinct heads give disjoint terms and placing
is injective block by block:

    placed_b(sum c_s * q_s) = placed_b(n_f)
        iff  sum c_s * q_s[beta] = n_f[beta]  for every block beta of r_b,

the blocks in which r_b has a nonzero; and the residual of box(r_b, r_f)
is zero iff n_f[beta] is empty for every such beta.  So a solve sums each
certificate once per block, 0 and 1, from the recorded q_s and not from
the echelon, and records the blocks where the sum is n_f.  A product
relation is verified iff its residual is zero or its certificate holds on
every block of r_b, and the verdict is a lookup; the residual is placed
only to print a failure.  A FAILED verdict means that no pattern
certificate exists (or that the block check caught a wrong one); under a
fixed nonzero weight, whose rule lowers the number of symbols, that none
exists in the 15 instances.  A certificate that exists for one base only,
where placing drops a shape of a pattern or combines instances of several
base relations, is not searched for.

The product is never built.  Its name and generator labels are
:func:`products.square_generators` of the base and the law's factor F,
and its relation k is box(r_b, r_f) for b, f = divmod(k, |R_F|).  No
validation is lost, by the product lemma: if F has independent L blocks
and independent R blocks, base sq F is valid for every valid base.  If
sum_f y_f (x) r_f in R_B (x) R_F has box 0, the independent L(r_f) give
every L(y_f) = 0 and the R(r_f) every R(y_f) = 0, so y_f = 0: box is
injective.  The star s_B (x) s_F is nonzero with associativity
box(assoc(s_B), assoc(s_F)) by bilinearity, and a starless base gives a
starless product.  trialgebra, ns, dendriform, dipterous and
anti_dipterous, every factor a law predicts, meet the premise.

A family [L1, ..., Lk] of commuting operators is verified one law at a
time on a growing base: stage i is Li alone on B' = B sq F1 sq ... sq
F(i-1).  B' is not built: the nonzeros of its relations are Kronecker
products, made only when another law follows, and it is valid by the
product lemma.  Box is associative, so relation (b', f) of stage i is
relation box(b', f) of B sq F1 sq ... sq Fi, with its index and label.  It
is verified when its certificate holds on the blocks of b' and b' was
verified at stage i - 1; the certificate uses instances of b' alone, so
the rule is exact.  Each stage has a formal weight of its own; a shared one
specializes them.

Stage i is sound by the commuting lemma: if Q commutes with P and obeys
its law for an operation o, it obeys it for each derived operation
g(u, v) = s * P^a(P^b(u) o P^c(v)) of P on o.  Every term of Q's rule is
a scalar times Q^w(Q^p(u) o Q^q(v)), linear in o; moving each Q through
P turns the rule for g at (u, v) into s * P^a of the rule for o at
(P^b(u), P^c(v)), and Q(u) g Q(v) into s * P^a(Q(P^b(u)) o Q(P^c(v))),
which agree.  By induction every operation of B' is a sum of derived
operations of the earlier operators, so Li obeys its law on each, and the
base-free single-law theorem gives B' sq Fi, whose operations are the
family's.

Every coefficient is an int or a Fraction: the formal weight l is a
grading.  Under a formal-weight law, give l and the operator's symbol
degree 1, and let d(t) count the symbols in the words of a term t.  The
rb rule, each entry of the derived table (x P(y), P(x) y, l * x y) and
each relation instance (no l) are homogeneous, so a product relation
substitutes to degree D = 2 (D = 0 under any other law, where no power
of l appears), and every coefficient of a term t is c_t * l^(D - d(t)).
Scaling the coordinate of each t by l^(d(t) - D) is invertible and turns
every homogeneous vector into a power of l times its value at l = 1.  So
a residual lies in the Q(l)-span of the relation instances iff its value
at l = 1 lies in the Q-span of theirs, and rational coefficients a_i
there scale back to the certificate a_i * l^(D - d(i)), d(i) counting
the symbols in the words of instance i.  Pivots depend on supports only,
which the scaling keeps, so these are the certificates an echelon over
Q(l) finds.  The verifier therefore computes at l = 1 and restores the
powers of l when it prints, as quotients of polynomials in l such as
(-2*l^3)/(1).  The one precondition, checked once per table, is that a
table written at l = 1 lifts to a homogeneous one: under the formal
weight an entry with n symbols stands for l^(1 - n) times itself, so it
carries at most one.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial, reduce

from . import catalog
from .exactalg import Echelon, ExactAlgebraError, canonical, format_scalar, rational_from_text
from .typecore import RelationElement, TypePresentation, format_relation, require_valid
# square is not called here: the benchmark tracer (bench/tracing.py) wraps
# it under this module's binding too, and its self-test checks that binding
from .products import box_relation, square, square_generators  # noqa: F401

MAX_FAMILY = 3  # operators in one commuting family, a bound on the output's size


# ---------------------------------------------------------------------------
# operator laws

_WEIGHT = "weight"  # the coefficient that is a law's weight

# kind -> (predicted factor, derived operations); an operation is
# (factor label, coefficient, P on x, P on y, P around), so gt, x gt y =
# P(x) y, is ("gt", 1, 1, 0, 0).  Operations with one label add up:
# rb_dendriform, the lemmas' splitting, has x gt y = P(x) y + weight x y.
_LAW_TABLE = {
    "rb": ("trialgebra", (("gt", 1, 1, 0, 0), ("lt", 1, 0, 1, 0), ("cir", _WEIGHT, 0, 0, 0))),
    "nijenhuis": ("ns", (("gt", 1, 1, 0, 0), ("lt", 1, 0, 1, 0), ("bul", -1, 0, 0, 1))),
    "left_rb": ("dipterous", (("gt", 1, 1, 0, 0), ("st", 1, 0, 1, 0))),
    "right_rb": ("anti_dipterous", (("st", 1, 1, 0, 0), ("lt", 1, 0, 1, 0))),
    "rb_dendriform": (
        "dendriform", (("gt", 1, 1, 0, 0), ("lt", 1, 0, 1, 0), ("gt", _WEIGHT, 0, 0, 0))
    ),
}
# the kinds that take a weight: those whose row has a weight entry
_WEIGHTED = frozenset(k for k, (_, ops) in _LAW_TABLE.items() if any(o[1] is _WEIGHT for o in ops))


@dataclass(frozen=True)
class OperatorLaw:
    """One operator law, a kind of ``_LAW_TABLE``.

    ``weight`` applies to the laws whose row has a weight entry (rb and the
    lemmas' splitting rb_dendriform); ``None`` means the formal weight.
    """

    kind: str
    weight: Fraction | None = None
    name: str = "P"

    def __post_init__(self):
        if self.kind not in _LAW_TABLE:
            raise ValueError(f"unknown operator law {self.kind!r}")
        if self.kind not in _WEIGHTED and self.weight is not None:
            raise ValueError(f"{self.kind} takes no weight")

    @property
    def formal(self) -> bool:
        return self.kind in _WEIGHTED and self.weight is None

    def weight_scalar(self):
        """The rational weight as a plain scalar; 1 for the formal weight,
        whose powers the grading restores (see the module docstring)."""
        if self.weight is None:
            return 1
        return canonical(self.weight)

    def describe(self) -> str:
        if self.kind in _WEIGHTED:
            w = "formal" if self.weight is None else format_scalar(self.weight)
            return f"{self.kind}(weight={w}, {self.name})"
        return f"{self.kind}({self.name})"

    def operations(self):
        """The law's derived operations, (factor label, coefficient, P on x,
        P on y, P around) each: the weight is a coefficient, and weight 0
        drops its operation (rb's with its factor's cir)."""
        out = []
        for label, c, on_x, on_y, around in _LAW_TABLE[self.kind][1]:
            c = self.weight_scalar() if c is _WEIGHT else c
            if c:
                out.append((label, c, on_x, on_y, around))
        return out


def rb(weight=None) -> OperatorLaw:
    """Rota-Baxter of a rational ``weight`` or its text, ``p`` or ``p/q``;
    None or "formal" is the formal weight.

    Text in any other form raises ValueError; a weight that is neither text
    nor an exact scalar, such as a float, raises ScalarKindMismatch.
    """
    if weight in (None, "formal"):
        return OperatorLaw("rb")
    try:
        exact = rational_from_text(weight) if isinstance(weight, str) else weight
        return OperatorLaw("rb", canonical(exact))
    except ZeroDivisionError:
        raise ValueError(f"weight {weight} has a zero denominator") from None


def nijenhuis() -> OperatorLaw:
    return OperatorLaw("nijenhuis", name="N")


def left_rb() -> OperatorLaw:
    return OperatorLaw("left_rb")


def right_rb() -> OperatorLaw:
    return OperatorLaw("right_rb")


# the law names of the command line, each with the law it builds; only rb
# takes a weight
LAW_NAMES = {
    "rb": rb,
    "nijenhuis": nijenhuis,
    "leftrb": left_rb,
    "rightrb": right_rb,
}


def law_from_name(text: str) -> OperatorLaw:
    """The law a command line spells ``KIND`` or ``KIND:WEIGHT``: a name of
    ``LAW_NAMES``, then for ``rb`` alone a weight (see :func:`rb`).  Both
    parts are read with surrounding spaces stripped; ``rb`` alone is the
    formal weight, and ``rb:`` names an empty weight, which ``rb`` refuses.

    An unknown kind, a malformed weight or one with a zero denominator, and
    a weight given to any other law raise ValueError.
    """
    kind, colon, weight = (part.strip() for part in text.partition(":"))
    if kind not in LAW_NAMES:
        raise ValueError(f"unknown law {kind!r}")
    if kind == "rb":
        return rb(weight if colon else None)
    if colon:
        raise ValueError(f"law {kind!r} takes no weight")
    return LAW_NAMES[kind]()


def predicted_factor_name(law: OperatorLaw) -> str:
    return "dendriform" if law.weight == 0 else _LAW_TABLE[law.kind][0]


def derived_table(law: OperatorLaw, factor: TypePresentation):
    """Map factor-generator index -> [(coeff, left word, right word, wrap word)].

    The entries are the law's derived operations, a label's in one list,
    with the operator written as symbol 0.
    """
    sym = (0,)
    table: dict = {}
    for label, c, on_x, on_y, around in law.operations():
        entry = (c, sym * on_x, sym * on_y, sym * around)
        table.setdefault(factor.generators.index(label), []).append(entry)
    if len(table) != factor.dim:
        raise ExactAlgebraError("derived table does not cover the factor type")
    return table


def rewrite_rule(law: OperatorLaw):
    """P(u) o P(v) -> P(u * v) for the predicted factor's star *, as
    (coeff, keeps P on u, keeps P on v, symbols wrapped around) per term."""
    factor = catalog.get(predicted_factor_name(law))
    rule = []
    for label, c, on_x, on_y, around in law.operations():
        coeff = factor.star[factor.generators.index(label)] * c
        if coeff:
            rule.append((coeff, on_x, on_y, 1 + around))
    return rule


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
    """Rewrites linear combinations of decorated terms to normal form under
    one law, its operator written as symbol 0.

    The law's rewrite rule is derived once, from the law alone; the
    normalizer memoizes per-term normal forms and counts rewrite steps.
    Rewriting terminates (see the module docstring), so it needs no bound.
    """

    def __init__(self, law: OperatorLaw):
        self.rule = rewrite_rule(law)
        self.steps = 0
        self._memo: dict[tuple, dict] = {}

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
            result = {term: 1}
        else:
            self.steps += 1
            result = {}
            for piece, coeff in self._apply(term, *redex).items():
                for t2, c2 in self.normalize_term(piece).items():
                    _accumulate(result, t2, coeff * c2)
        self._memo[term] = result
        return result

    def _find_redex(self, term):
        """(rule, symbol, position) of the first redex, the inner product
        before the outer one; None for a normal form."""
        for position in ("single",) if term[0] == 2 else ("inner", "outer"):
            wa, wb = _operands(term, position)
            if 0 in wa and 0 in wb:
                return self.rule, 0, position
        return None

    def _apply(self, term, rule, symbol: int, position: str) -> dict:
        shape, gin, gout, wx, wy, wz, win, wout = term
        wa, wb = _operands(term, position)
        wa_red = _word_remove(wa, symbol)
        wb_red = _word_remove(wb, symbol)
        out: dict = {}
        for coeff, keep_a, keep_b, wraps in rule:
            na = wa if keep_a else wa_red
            nb = wb if keep_b else wb_red
            if position == "single":
                nwout = _word_add(wout, symbol, wraps)
                piece = (2, gin, gout, na, nb, wz, win, nwout)
            elif position == "inner":
                nwin = _word_add(win, symbol, wraps)
                if shape == 0:
                    piece = (0, gin, gout, na, nb, wz, nwin, wout)
                else:
                    piece = (1, gin, gout, wx, na, nb, nwin, wout)
            else:  # outer; operand roles follow _operands
                nwout = _word_add(wout, symbol, wraps)
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


def _power_of_l(k: int) -> str:
    return "" if not k else "l" if k == 1 else f"l^{k}"


def format_weight_monomial(c, power: int) -> str:
    """``c * l**power`` as a quotient of polynomials in the formal weight l:
    (1/2)/(1), (-l)/(1), (3*l^2)/(1), (2)/(l)."""
    num, den = _power_of_l(max(power, 0)), _power_of_l(max(-power, 0)) or "1"
    body = format_scalar(abs(c))
    if num:
        body = num if abs(c) == 1 else f"{body}*{num}"
    return f"({'-' if c < 0 else ''}{body})/({den})"


def _power(formal: bool, words) -> int:
    """The power of l that computing at l = 1 leaves out (see the module
    docstring): l^(2 - d) goes with words of d symbols under the formal
    weight, and l^0 with every word under any other."""
    return 2 - sum(map(len, words)) if formal else 0


def _show(formal: bool, residual: dict, labels, names) -> tuple[str, ...]:
    return tuple(
        f"{format_weight_monomial(c, _power(formal, t[3:]))} * {term_str(t, labels, names)}"
        for t, c in sorted(residual.items())
    )


# ---------------------------------------------------------------------------
# relation instances


def relation_instance(rel: RelationElement, triple: tuple, context: tuple) -> dict:
    """The combination LHS - RHS of a base relation on decorated leaves,
    wrapped in a context word.  Placed instance patterns are tested against
    it, and each q_s is the associator's instance, normalized.
    """
    comb: dict = {}
    for block, gin, gout, c in _nonzeros(rel):
        _accumulate(comb, (block, gin, gout, *triple, (), context), -c if block else c)
    return comb


@lru_cache(maxsize=None)
def _associator() -> RelationElement:
    """(x y) z = x (y z), the relation every instance pattern instantiates."""
    return catalog.get("associative").relations[0]


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class RelationVerdict:
    """``certificate`` holds (instance tag, c, k): the instance enters with
    coefficient c * l^k, for the formal weight l.  ``label`` is the relation's
    text, or the (relations, product labels) :attr:`relation` formats it
    from, the product relation being the box of the relations."""

    index: int
    label: str | tuple = field(compare=False)
    verified: bool
    certificate: tuple = ()
    residual: tuple = ()
    residual_zero: bool = False

    @property
    def relation(self) -> str:
        if isinstance(self.label, str):
            return self.label
        relations, labels = self.label
        return format_relation(reduce(box_relation, relations), labels)

    def describe(self) -> str:
        status = "verified" if self.verified else "FAILED"
        return f"relation {self.index}: {status}"


@dataclass(frozen=True)
class VerificationReport:
    """``prefix`` is the report of a family without its last law, whose
    product's relations the certificates cite; None for one law."""

    type_name: str
    law: str
    product_name: str
    verdicts: tuple[RelationVerdict, ...]
    prefix: VerificationReport | None = None

    @property
    def all_verified(self) -> bool:
        return all(v.verified for v in self.verdicts)

    def describe(self) -> str:
        n_ok = sum(v.verified for v in self.verdicts)
        lines = [
            f"{self.type_name} with {self.law}: {n_ok}/{len(self.verdicts)} "
            f"relations of {self.product_name} verified"
        ]
        lines.extend("  " + v.describe() for v in self.verdicts if not v.verified)
        return "\n".join(lines)

    def to_json(self) -> str:
        # the version of the report format, at the top level only
        return json.dumps({"schema": 2, **self._json()}, indent=2)

    def _json(self) -> dict:
        obj = {
            "type": self.type_name,
            "law": self.law,
            "product": self.product_name,
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
                            "coefficient": format_weight_monomial(coeff, power),
                        }
                        for (idx, triple, ctx), coeff, power in v.certificate
                    ],
                    "residual": list(v.residual),
                }
                for v in self.verdicts
            ],
        }
        if self.prefix is not None:
            obj["prefix"] = self.prefix._json()
        return obj


def substitute(rel: RelationElement, table: dict) -> dict:
    """LHS - RHS of a product relation under the derived operations.

    ``table`` holds the (coeff, left word, right word, wrap word) entries
    of each generator of the law's factor; product generator g pairs base
    generator g // len(table) with factor generator g % len(table).
    Applied to a relation of the factor, whose generators have base
    generator 0, it gives the terms of the pattern n_f; the normalized
    product relation is the definition the placed residual is tested
    against.
    """
    n = len(table)
    comb: dict = {}
    for block, i, j, c in rel.nonzero():
        # L: (x g_i y) g_j z, R: x g_i (y g_j z)
        inner, outer = (i, j) if block == 0 else (j, i)
        b_in, f_in = divmod(inner, n)
        b_out, f_out = divmod(outer, n)
        coeff = -c if block else c
        for c1, wl1, wr1, wp1 in table[f_in]:
            for c2, wl2, wr2, wp2 in table[f_out]:
                if block == 0:
                    term = (0, b_in, b_out, wl1, wr1, wr2, _merge(wl2, wp1), wp2)
                else:
                    term = (1, b_in, b_out, wl2, wl1, wr1, _merge(wr2, wp1), wp2)
                _accumulate(comb, term, coeff * c1 * c2)
    return comb


def _pattern(normalizer: Normalizer, comb: dict) -> dict:
    """The normal form of ``comb``, a combination with base generators 0,
    keyed by (shape,) + words."""
    return {(t[0],) + t[3:]: c for t, c in normalizer.normalize(comb).items()}


def _instance_pattern(normalizer: Normalizer, triple: tuple, ctx: tuple) -> dict:
    """q_s: the normalized instance pattern of leaf words ``triple`` in
    context ``ctx``: the associator's instance there."""
    return _pattern(normalizer, relation_instance(_associator(), triple, ctx))


# the tags (leaf words, context) of the instance patterns a solve inserts:
# words of symbol 0 with at most two symbols in all, sorted (see the module
# docstring)
_TAGS = tuple(sorted(
    (((0,) * a, (0,) * b, (0,) * c), (0,) * d)
    for a in range(3) for b in range(3 - a) for c in range(3 - a - b) for d in range(3 - a - b - c)
))


@dataclass(frozen=True)
class _LawSolve:
    """The base-free half of a verdict, the one record every run of its
    law reads.  Nothing here reads a base or an operator name (see the
    module docstring)."""

    # the law's factor: product relation k, named but never built, is
    # box(base relation b, factor relation f) for b, f = divmod(k, |R_F|)
    factor: TypePresentation
    formal: bool  # whether the law has the formal weight
    patterns: tuple  # n_f of each factor relation f, by block
    # per factor relation, the certificate of n_f as ((triple, context),
    # c, k) per instance, c * l^k its coefficient; None where n_f has none
    certificates: tuple
    instances: dict  # q_s, by block, of each (triple, context) a certificate uses
    # per factor relation, the blocks on which its certificate sums to n_f
    # (see the block lemma); empty where n_f has none
    holds: tuple


def _solve(law: OperatorLaw, factor: TypePresentation, table: dict) -> _LawSolve:
    """The record of ``law`` with its factor and derived table.  The
    normalizer, the echelon and the q_s no certificate uses live only
    while the solve runs."""
    # the precondition of the grading (see the module docstring)
    if law.formal and any(sum(map(len, w)) > 1 for e in table.values() for _c, *w in e):
        raise ExactAlgebraError("derived table is not homogeneous in the formal weight")
    normalizer = Normalizer(law)
    patterns = tuple(_pattern(normalizer, substitute(rel, table)) for rel in factor.relations)
    instances = {tag: _instance_pattern(normalizer, *tag) for tag in _TAGS}
    # one column per term of the q_s and the n_f, sorted, then one per tag
    # in _TAGS order, then the target's
    terms = sorted({key for comb in (*instances.values(), *patterns) for key in comb})
    column = {key: k for k, key in enumerate(terms)}
    n, target = len(terms), len(terms) + len(_TAGS)

    def row(comb: dict, one: int) -> dict:
        return {**{column[key]: c for key, c in comb.items()}, one: 1}

    echelon = Echelon(target + 1)
    for k, q in enumerate(instances.values(), n):
        echelon.add(row(q, k))
    certificates: list = [None] * len(patterns)
    for f, pattern in enumerate(patterns):
        if not pattern:
            continue
        # no surviving term column: n_f = sum a_s q_s (see the module docstring)
        rest = echelon.reduce(echelon.integer_row(row(pattern, target)))
        if min(rest) >= n:
            lead = rest[target]
            certificates[f] = tuple(
                (tag, canonical(Fraction(-rest[k], lead)), _power(law.formal, tag[0] + (tag[1],)))
                for k, tag in enumerate(_TAGS, n) if k in rest
            )
    used = {tag: _by_block(instances[tag]) for cert in certificates if cert for tag, _c, _k in cert}
    patterns = tuple(map(_by_block, patterns))
    holds = _blocks_held(patterns, certificates, used)
    return _LawSolve(factor, law.formal, patterns, tuple(certificates), used, holds)


def _blocks_held(patterns: tuple, certificates, instances: dict) -> tuple:
    """Per factor relation, the blocks on which its certificate, summed
    from the recorded q_s and not from the echelon, is n_f."""
    holds = []
    for pattern, certificate in zip(patterns, certificates):
        blocks = []
        for block in (0, 1) if certificate else ():
            total: dict = {}
            for tag, c, _k in certificate:
                for words, x in instances[tag][block]:
                    _accumulate(total, words, c * x)
            if total == dict(pattern[block]):
                blocks.append(block)
        holds.append(frozenset(blocks))
    return tuple(holds)


def _nonzeros(rel: RelationElement) -> tuple:
    """The nonzeros of a relation as (block, gin, gout, c): the generators
    of the inner and the outer product of its term, and its coefficient."""
    return tuple((blk, i, j, c) if blk == 0 else (blk, j, i, c) for blk, i, j, c in rel.nonzero())


def _by_block(pattern: dict) -> tuple:
    """A pattern as the (words, coefficient) pairs of each shape, 0 and 1."""
    return tuple(tuple((key[1:], x) for key, x in pattern.items() if key[0] == b) for b in (0, 1))


def _placed(nonzeros: tuple, pattern: tuple) -> dict:
    """A pattern, by block, placed at every nonzero of a base relation: it
    takes the base generators and the coefficient of each nonzero of its
    shape's block.  Distinct nonzeros give distinct terms."""
    out: dict = {}
    for block, gin, gout, c in nonzeros:
        head = (block, gin, gout)
        for words, x in pattern[block]:
            out[head + words] = c * x
    return out


def _certify(solve: _LawSolve, b: int, nonzeros: tuple, blocks, f: int, index: int, label, show):
    """The verdict of product relation ``index`` = box(r_b, r_f), read off
    the record by the block lemma: ``nonzeros`` and ``blocks`` are r_b's.

    A residual with no certificate, or one whose certificate does not hold
    on every block of r_b, fails with the residual as ``show`` prints it.
    """
    pattern = solve.patterns[f]
    if not any(map(pattern.__getitem__, blocks)):
        return RelationVerdict(index, label, True, residual_zero=True)
    if blocks <= solve.holds[f]:
        placed = tuple(((b,) + tag, c, k) for tag, c, k in solve.certificates[f])
        return RelationVerdict(index, label, True, certificate=placed)
    return RelationVerdict(index, label, False, residual=show(_placed(nonzeros, pattern)))


def _merge(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b)) if a and b else a or b


_SOLVE_MEMO_SIZE = 64


@lru_cache(maxsize=_SOLVE_MEMO_SIZE)
def _law_solve(kind: str, weight) -> _LawSolve:
    """The record of the law ``kind`` of ``weight``: every operator name
    shares it."""
    law = OperatorLaw(kind, weight)
    factor = catalog.get(predicted_factor_name(law))
    return _solve(law, factor, derived_table(law, factor))


def _stages(t: TypePresentation, laws) -> list:
    """``laws`` on ``t``, one stage per law, as (product generators,
    verdicts) per stage: stage k is law k on the product of ``t`` and the
    factors of the laws before it (see the module docstring)."""
    require_valid(t)
    generators = t.generators
    nonzeros = [_nonzeros(rel) for rel in t.relations]
    # base relation b is the box of chains[b]: a relation of t, then one
    # relation of each earlier factor
    chains = [(rel,) for rel in t.relations]
    prefix = [True] * len(t.relations)  # whether base relation b was verified
    stages = []
    for k, law in enumerate(laws):
        solve = _law_solve(law.kind, law.weight)
        relations = solve.factor.relations
        product = square_generators(generators, solve.factor.generators)
        show = partial(_show, solve.formal, labels=generators.labels, names=[law.name])
        verdicts: list = []
        for b, chain in enumerate(chains):
            blocks = frozenset(blk for blk, *_ in nonzeros[b])
            for f, r_f in enumerate(relations):
                label = (chain + (r_f,), product.labels)
                verdict = _certify(solve, b, nonzeros[b], blocks, f, len(verdicts), label, show)
                verdicts.append(verdict if prefix[b] else replace(verdict, verified=False))
        stages.append((product, tuple(verdicts)))
        if k + 1 < len(laws):
            # the nonzeros of box(r_b, r_f), paired as products.box_relation
            # pairs them: in one block, inner with inner, outer with outer
            m, factor_nonzeros = solve.factor.dim, [_nonzeros(r_f) for r_f in relations]
            nonzeros = [
                tuple(
                    (blk, gin * m + fin, gout * m + fout, c * fc)
                    for blk, gin, gout, c in nz for fblk, fin, fout, fc in fz if fblk == blk
                )
                for nz in nonzeros for fz in factor_nonzeros
            ]
            chains = [chain + (r_f,) for chain in chains for r_f in relations]
            prefix = [verdict.verified for verdict in verdicts]
            generators = product
    return stages


def verify_operator_theorem(t: TypePresentation, law: OperatorLaw) -> VerificationReport:
    """Verify that one operator induces the predicted product structure."""
    ((product, verdicts),) = _stages(t, [law])
    return VerificationReport(t.name, law.describe(), product.name, verdicts)


def verify_commuting_family(t: TypePresentation, laws) -> VerificationReport:
    """Iterated construction for a family of commuting operators: each law
    on the product of ``t`` and the factors of the laws before it.  The
    family without its last law is the report's ``prefix``."""
    laws = list(laws)
    if not 1 <= len(laws) <= MAX_FAMILY:
        raise ValueError(f"commuting families are limited to {MAX_FAMILY} operators")
    laws = [OperatorLaw(law.kind, law.weight, f"{law.name}{k + 1}") for k, law in enumerate(laws)]
    report = None
    for k, (product, verdicts) in enumerate(_stages(t, laws), 1):
        desc = " , ".join(law.describe() for law in laws[:k])
        report = VerificationReport(t.name, f"[{desc}]", product.name, verdicts, report)
    return report


# ---------------------------------------------------------------------------
# the operator-identity lemmas


@dataclass(frozen=True)
class LemmaReport:
    name: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        return f"{self.name}: {'ok' if self.ok else 'FAILED ' + self.detail}"


def _two_leaf_product(left_parts, right_parts):
    comb: dict = {}
    for cl, wl in left_parts:
        for cr, wr in right_parts:
            _accumulate(comb, (2, -1, 0, wl, wr, (), (), ()), cl * cr)
    return comb


def _wrap_combination(comb: dict, parts) -> dict:
    out: dict = {}
    for term, coeff in comb.items():
        shape, gin, gout, wx, wy, wz, win, wout = term
        for c, w in parts:
            nt = (shape, gin, gout, wx, wy, wz, win, _merge(wout, w))
            _accumulate(out, nt, coeff * c)
    return out


def _check_modified_operator(name: str, identity: OperatorLaw, law: OperatorLaw, q):
    """Whether Q, given as (coeff, word) parts in the symbol 0 of ``law``,
    obeys the rule of ``identity``: Q(x) o Q(y) = Q(x * y), with Q in place
    of P in every derived operation.

    A formal weight is written 1 (see the module docstring).
    """
    one = [(1, ())]
    diff = _two_leaf_product(q, q)
    for coeff, on_x, on_y, wraps in rewrite_rule(identity):
        side = _two_leaf_product(q if on_x else one, q if on_y else one)
        for _ in range(wraps):
            side = _wrap_combination(side, q)
        for t, c in side.items():
            _accumulate(diff, t, -coeff * c)
    residual = Normalizer(law).normalize(diff)
    if residual:
        shown = "; ".join(_show(law.formal, residual, ["o"], [law.name]))
        return LemmaReport(name, False, f"residual {shown}")
    return LemmaReport(name, True)


# the bases of the dendriform splitting the lemmas check
_LEMMA_BASES = ("associative", "trialgebra")


def verify_operator_lemmas():
    """The two modified-operator identities, -weight*id - P is again
    Rota-Baxter and id - N is again Nijenhuis, plus the closing dendriform
    construction x (w|lt) y = x w P(y), x (w|gt) y = weight*(x w y) + P(x) w y,
    the law rb_dendriform of formal weight on each of ``_LEMMA_BASES``."""
    reports = [
        _check_modified_operator(
            "modified Rota-Baxter operator (-weight*id - P)",
            OperatorLaw("rb"), rb(None), [(-1, ()), (-1, (0,))],
        ),
        _check_modified_operator(
            "modified Nijenhuis operator (id - N)",
            OperatorLaw("nijenhuis"), nijenhuis(), [(1, ()), (-1, (0,))],
        ),
    ]
    for name in _LEMMA_BASES:
        t = catalog.get(name)
        ((product, verdicts),) = _stages(t, [OperatorLaw("rb_dendriform")])
        text = "dendriform splitting by -(modified P)"
        report = VerificationReport(t.name, text, product.name, verdicts)
        reports.append(
            LemmaReport(
                f"dendriform splitting on {name} (all {len(report.verdicts)} relations)",
                report.all_verified,
                "" if report.all_verified else report.describe(),
            )
        )
    return reports
