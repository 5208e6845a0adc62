"""Exact scalars and sparse integer linear algebra over Q.

Everything downstream (relation subspaces, annihilators, push-forwards)
reduces to linear algebra over the rationals.  The operator verifier also
computes over the field Q(l) of rational functions in one formal weight
parameter, written ``l`` in serialized form, with its own echelon.  No
floating point is used anywhere.

Scalars:

* plain rationals, represented by :class:`fractions.Fraction`;
* rational functions, represented by :class:`RatFunc` (reduced fraction
  of polynomials, monic denominator, so equal values have identical
  representations).

:class:`Matrix` is a small dense rational matrix (generator maps and
their products).  Relation spaces are large and sparse, so every row
reduction goes through one routine, :class:`Echelon`: rows are primitive
integer ``{column: value}`` dicts, an elimination step is the
fraction-free combination ``a*v - b*r`` trimmed by its gcd (Bareiss), and
a vector is reduced only at the pivot columns where it is nonzero
(structured sparse elimination, LaMacchia-Odlyzko), so sparse rows stay
sparse.

Row reduction is deterministic and the echelon is kept fully reduced,
which makes the reduced row-echelon form of a subspace a canonical
object; two subspaces are equal iff their basis rows are equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Mapping, Sequence
from typing import Union


class ExactAlgebraError(Exception):
    """Base class for errors raised by this package."""


class ScalarKindMismatch(ExactAlgebraError):
    pass


class DimensionMismatch(ExactAlgebraError):
    pass


QQ = Fraction

# ---------------------------------------------------------------------------
# polynomials over Q, as tuples of Fractions in ascending degree


def _ptrim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a: tuple, b: tuple) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv = 1 / b[-1]
    while len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] -= c * y
        del r[-1]
        while r and not r[-1]:
            del r[-1]
    return _ptrim(q), _ptrim(r)


def _pgcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a and a[-1] != 1:
        inv = 1 / a[-1]
        a = tuple(x * inv for x in a)
    return a


def _pmonic(a: tuple) -> tuple[tuple, Fraction]:
    """Return (a/lead, lead)."""
    lead = a[-1]
    if lead == 1:
        return a, lead
    inv = 1 / lead
    return tuple(x * inv for x in a), lead


_PONE = (Fraction(1),)


class RatFunc:
    """A reduced rational function in the formal weight, over Q.

    Canonical form: gcd(num, den) = 1 and den monic, so ``==`` on values
    coincides with ``==`` on representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFunc):
            if den is not None:
                raise TypeError("RatFunc(num) takes no denominator")
            self.num, self.den = num.num, num.den
            return
        n = self._coerce_poly(num)
        d = _PONE if den is None else self._coerce_poly(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if n:
            g = _pgcd(n, d)
            if len(g) > 1:
                n = _pdivmod(n, g)[0]
                d = _pdivmod(d, g)[0]
            d, lead = _pmonic(d)
            if lead != 1:
                inv = 1 / lead
                n = tuple(x * inv for x in n)
        else:
            d = _PONE
        self.num = n
        self.den = d

    @staticmethod
    def _coerce_poly(v) -> tuple:
        if isinstance(v, (int, Fraction)):
            f = Fraction(v)
            return (f,) if f else ()
        if isinstance(v, Iterable):
            return _ptrim([Fraction(x) for x in v])
        raise TypeError(f"cannot build polynomial from {v!r}")

    @classmethod
    def _raw(cls, num: tuple, den: tuple) -> "RatFunc":
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == _PONE and len(self.num) <= 1:
            return hash(self.num[0] if self.num else Fraction(0))
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == _PONE and other.den == _PONE:
            return RatFunc._raw(_padd(self.num, other.num), _PONE)
        return RatFunc(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(_pneg(self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        if not self.num or not other.num:
            return RF_ZERO
        if self.den == _PONE and other.den == _PONE:
            return RatFunc._raw(_pmul(self.num, other.num), _PONE)
        return RatFunc(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def is_rational(self) -> bool:
        return self.den == _PONE and len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a constant")
        return self.num[0] if self.num else Fraction(0)

    def evaluate(self, value: Fraction) -> Fraction:
        """Evaluate at a rational point; the denominator must not vanish."""
        value = Fraction(value)
        den = _peval(self.den, value)
        if den == 0:
            raise ZeroDivisionError(f"denominator of {self} vanishes at {value}")
        return _peval(self.num, value) / den

    def __repr__(self):
        return f"RatFunc({format_scalar(self)!r})"


def _peval(p: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)
LAMBDA = RatFunc._raw((Fraction(0), Fraction(1)), _PONE)

Scalar = Union[Fraction, RatFunc]


# ---------------------------------------------------------------------------
# serialization: "p/q", "p", "(poly)/(poly)" with variable literal "l"


def format_scalar(x: Scalar) -> str:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, RatFunc):
        return f"({_format_poly(x.num)})/({_format_poly(x.den)})"
    raise ScalarKindMismatch(f"not a scalar: {x!r}")


def _format_poly(p: tuple) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            mono = ""
        elif k == 1:
            mono = "l"
        else:
            mono = f"l^{k}"
        if not mono:
            body = format_scalar(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{format_scalar(abs(c))}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += sign + body
    return text


def parse_scalar(text: str) -> Scalar:
    """Inverse of :func:`format_scalar`."""
    text = text.strip()
    if text.startswith("("):
        mid = text.index(")/(")
        return RatFunc(_parse_poly(text[1:mid]), _parse_poly(text[mid + 3 : -1]))
    return Fraction(text)


def _parse_poly(text: str) -> tuple:
    text = text.strip().replace("-", "+-")
    coeffs: dict[int, Fraction] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        if "l" in chunk:
            coef_s, _, tail = chunk.partition("l")
            coef = Fraction(coef_s.rstrip("*")) if coef_s.rstrip("*") else Fraction(1)
            deg = int(tail[1:]) if tail.startswith("^") else 1
        else:
            coef, deg = Fraction(chunk), 0
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + sign * coef
    out = [Fraction(0)] * (max(coeffs, default=0) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return _ptrim(out)


# ---------------------------------------------------------------------------
# matrices


_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational(x) -> Fraction:
    """``x`` as a Fraction; anything but an int or a Fraction is refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise ScalarKindMismatch("scalar kind mismatch")


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
        elif ncols is not None:
            width = ncols
        else:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
        self.rows = tuple(tuple(rational(x) for x in r) for r in rows)
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[_ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        bt = other.transpose().rows
        return Matrix(
            [[_dot(r, c) for c in bt] for r in self.rows], ncols=other.ncols
        )

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(_dot(r, vec) for r in self.rows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major index pairing."""
        out = []
        for a in self.rows:
            for c in other.rows:
                out.append([x * y for x in a for y in c])
        return Matrix(out, ncols=self.ncols * other.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices invert")
        n = self.nrows
        augmented = Echelon(2 * n)
        for i, r in enumerate(self.rows):
            row = {j: x for j, x in enumerate(r) if x}
            row[n + i] = _ONE
            augmented.add(row)
        rows = augmented.rows
        if any(k not in rows for k in range(n)):
            raise ExactAlgebraError("matrix is singular")
        return Matrix(
            [[Fraction(rows[k].get(n + j, 0), rows[k][k]) for j in range(n)] for k in range(n)],
            ncols=n,
        )

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)


def _dot(a: Sequence, b: Sequence):
    acc = None
    for x, y in zip(a, b):
        t = x * y
        acc = t if acc is None else acc + t
    if acc is None:
        raise DimensionMismatch("empty dot product")
    return acc


# ---------------------------------------------------------------------------
# the elimination kernel


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


def _eliminate(v: dict, r: dict, p: int) -> dict:
    """a*v - b*r with column ``p`` cancelled; a > 0 when r[p] > 0."""
    a, b = r[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = dict(v) if a == 1 else {k: a * x for k, x in v.items()}
    for k, y in r.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            del out[k]
    return out if a == 1 else _primitive(out)


class Echelon:
    """A subspace of Q^ambient in reduced row-echelon form, grown one vector at a time.

    ``rows`` maps each pivot column to its row: a primitive integer
    ``{column: value}`` dict whose pivot entry is positive and is its
    first nonzero column, and which is zero in every other pivot column.
    Dividing a row by its pivot entry gives the row of the canonical
    reduced row-echelon basis, so the rows do not depend on the order in
    which vectors were added.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}

    def integer_row(self, vec) -> dict:
        """A rational vector, dense or as {index: value}, as a primitive integer row."""
        if isinstance(vec, Mapping):
            items = [(k, x) for k, x in vec.items() if x]
            if items and not 0 <= min(items)[0] <= max(items)[0] < self.ambient:
                raise DimensionMismatch("vector index outside the ambient dimension")
        else:
            if len(vec) != self.ambient:
                raise DimensionMismatch("vector length differs from ambient dimension")
            items = [(k, x) for k, x in enumerate(vec) if x]
        mult = 1
        for _, x in items:
            if type(x) is not int:
                mult = lcm(mult, rational(x).denominator)
        if mult == 1:
            return _primitive({k: x.numerator for k, x in items})
        return _primitive({k: (x * mult).numerator for k, x in items})

    def reduce(self, row: dict) -> dict:
        """The remainder of an integer row after elimination at the pivots, primitive."""
        rows = self.rows
        hits = [p for p in row if p in rows]
        for p in hits:
            row = _eliminate(row, rows[p], p)
        return _primitive(row) if hits else row

    def add(self, vec) -> bool:
        """Add a vector to the span; True when the rank grew."""
        v = self.reduce(self.integer_row(vec))
        if not v:
            return False
        p = min(v)
        if v[p] < 0:
            v = {k: -x for k, x in v.items()}
        rows = self.rows
        for q, r in rows.items():
            if p in r:
                rows[q] = _primitive(_eliminate(r, v, p))
        rows[p] = v
        return True


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form.

    Returns ``(reduced, pivot_columns, rank)``.  Pivoting is positional
    (first nonzero column) so the output is the same on every run and
    never depends on entry magnitudes.
    """
    space = Subspace.from_rows(m.ncols, m.rows)
    return Matrix(list(space.basis), ncols=m.ncols), space.pivots, space.dim


def nullspace(m: Matrix) -> "Subspace":
    """Right kernel of ``m``, as a canonical subspace of Q^ncols."""
    return Subspace.from_rows(m.ncols, m.rows).annihilator()


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear subspace held as its unique reduced row-echelon basis.

    ``pivots`` are the pivot columns in increasing order and ``int_rows``
    the basis rows as primitive integer ``{column: value}`` dicts in the
    same order (see :class:`Echelon`).  ``basis`` shows the same rows
    densely over Q, with pivot entries 1, built row by row on access.
    Vectors passed in may be dense sequences or ``{index: value}`` dicts.
    """

    __slots__ = ("ambient", "pivots", "_echelon", "_hash")

    def __init__(self, echelon: Echelon):
        self.ambient = echelon.ambient
        self.pivots = tuple(sorted(echelon.rows))
        self._echelon = echelon
        self._hash = None

    @classmethod
    def from_rows(cls, ambient: int, rows: Iterable) -> "Subspace":
        ech = Echelon(ambient)
        for r in rows:
            ech.add(r)
        return cls(ech)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def int_rows(self) -> tuple[dict, ...]:
        rows = self._echelon.rows
        return tuple(rows[p] for p in self.pivots)

    @property
    def basis(self) -> "_DenseRows":
        return _DenseRows(self)

    def sparse_basis(self) -> list[dict[int, Fraction]]:
        """The reduced row-echelon basis as ``{column: Fraction}`` dicts."""
        out = []
        for p, row in zip(self.pivots, self.int_rows):
            lead = row[p]
            out.append({k: Fraction(x, lead) for k, x in sorted(row.items())})
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._echelon.rows == other._echelon.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.ambient, tuple(frozenset(r.items()) for r in self.int_rows))
            )
        return self._hash

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def contains_vector(self, vec) -> bool:
        ech = self._echelon
        return not ech.reduce(ech.integer_row(vec))

    def leq(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        return all(other.contains_vector(r) for r in self.int_rows)

    def contains(self, other: "Subspace") -> bool:
        return other.leq(self)

    def annihilator(self) -> "Subspace":
        """All vectors whose plain dot product with every vector here is 0.

        One spanning vector per free column f: e_f minus, for each basis
        row with a nonzero entry in column f, that entry over the row's
        pivot entry at the row's pivot column.
        """
        entries: dict[int, list] = {}
        for p, row in zip(self.pivots, self.int_rows):
            lead = row[p]
            for c, x in row.items():
                if c != p:
                    entries.setdefault(c, []).append((p, lead, x))
        pivot_set = set(self.pivots)
        ech = Echelon(self.ambient)
        for f in range(self.ambient):
            if f in pivot_set:
                continue
            hits = entries.get(f, ())
            scale = lcm(*(lead for _, lead, _ in hits))
            vec = {f: scale}
            for p, lead, x in hits:
                vec[p] = -x * (scale // lead)
            ech.add(vec)
        return Subspace(ech)


class _DenseRows(Sequence):
    """The basis rows of a subspace as dense tuples of Fractions, built on access."""

    __slots__ = ("_space",)

    def __init__(self, space: Subspace):
        self._space = space

    def __len__(self):
        return self._space.dim

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        space = self._space
        p = space.pivots[k]
        row = space._echelon.rows[p]
        lead = row[p]
        out = [_ZERO] * space.ambient
        for c, x in row.items():
            out[c] = Fraction(x, lead)
        return tuple(out)


def subspace_query(a: Subspace, b, mode: str) -> bool:
    """Exact membership / comparison queries.

    ``contains``: does ``a`` contain ``b`` (a vector or a subspace)?
    ``leq``: is ``a`` a subspace of ``b``?  ``equal``: mutual inclusion.
    """
    if mode == "contains":
        if isinstance(b, Subspace):
            return a.contains(b)
        return a.contains_vector(b)
    if not isinstance(b, Subspace):
        raise TypeError(f"mode {mode!r} needs two subspaces")
    if mode == "equal":
        return a == b
    if mode == "leq":
        return a.leq(b)
    raise ValueError(f"unknown mode {mode!r}")
