"""Exact scalars and sparse integer linear algebra over Q.

Everything downstream (relation subspaces, annihilators, push-forwards,
the operator verifier's certificates) reduces to linear algebra over the
rationals.  Every stored scalar is in one canonical form, made by
:func:`canonical`: an ``int`` when it is integral, else a
:class:`fractions.Fraction`; no floating point is used anywhere.  The
product, sum and difference of two such scalars are exact, but ``a / b``
on two ints is a float, so a quotient is written ``Fraction(a, b)``.

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

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from collections.abc import Iterable, Mapping, Sequence


class ExactAlgebraError(Exception):
    """Base class for errors raised by this package."""


class ScalarKindMismatch(ExactAlgebraError):
    pass


class DimensionMismatch(ExactAlgebraError):
    pass


# ---------------------------------------------------------------------------
# scalars and their serialization: "p/q" or "p"


def canonical(x):
    """An exact scalar in canonical form: an ``int`` when it is integral,
    else a Fraction.  An int subclass such as ``bool`` reads as its int;
    anything but an int or a Fraction is refused."""
    kind = type(x)
    if kind is int:
        return x
    if kind is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, (int, Fraction)):
        return canonical(Fraction(x))
    raise ScalarKindMismatch(f"scalar kind mismatch: {x!r}")


def format_scalar(x) -> str:
    """A scalar as ``p/q``, or ``p`` when it is integral."""
    return str(canonical(x))


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the forms format_scalar writes


def rational_from_text(text: str):
    """Text in a form :func:`format_scalar` writes, ``p`` or ``p/q``, as a
    canonical scalar.  Other text (``0.5``, ``1e5``, ``+2``, `` 3 ``,
    ``1_0``) raises ValueError, and a zero ``q`` ZeroDivisionError."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"expected a rational p or p/q such as -1/2, found {text!r}")
    return canonical(Fraction(text))


# ---------------------------------------------------------------------------
# matrices


_UNSET = object()  # a lazily built attribute not built yet


class Matrix:
    """Immutable dense rational matrix; its entries are canonical scalars."""

    __slots__ = ("rows", "nrows", "ncols", "_columns", "_monomial")

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
        self.rows = tuple(tuple(canonical(x) for x in r) for r in rows)
        self.nrows = len(rows)
        self.ncols = width
        self._columns = None
        self._monomial = _UNSET

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def monomial(cls, images: Sequence[int], signs: Sequence | None = None) -> "Matrix":
        """The square matrix whose column j holds ``signs[j]`` (default 1) at row ``images[j]``.

        A generator map given as an index map: ``images`` must be a
        permutation of ``range(len(images))``.
        """
        n = len(images)
        if sorted(images) != list(range(n)):
            raise DimensionMismatch("monomial images must be a permutation of the columns")
        rows = [[0] * n for _ in range(n)]
        for j, i in enumerate(images):
            rows[i][j] = 1 if signs is None else signs[j]
        return cls(rows, ncols=n)

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

    @property
    def nonzero_columns(self) -> tuple[tuple[tuple[int, object], ...], ...]:
        """Each column's nonzero ``(row, entry)`` pairs, in row order; built once."""
        if self._columns is None:
            self._columns = tuple(
                tuple((a, r[j]) for a, r in enumerate(self.rows) if r[j])
                for j in range(self.ncols)
            )
        return self._columns

    @property
    def monomial_form(self) -> tuple[tuple[int, ...], tuple] | None:
        """``(images, signs)`` when the matrix is monomial, else None; built once.

        Monomial means square with one nonzero per column, in pairwise
        distinct rows: column j holds ``signs[j]`` at row ``images[j]``,
        and the matrix is ``Matrix.monomial(images, signs)``.  For a
        square matrix that is the same as one nonzero per row, in
        pairwise distinct columns, so the test reads each row once with
        list calls (its count of zeros, then its nonzero and that
        entry's column): m steps, not a scan of all m^2 entries.
        """
        if self._monomial is _UNSET:
            self._monomial = None
            m = self.ncols
            if self.nrows == m:
                images, signs = [None] * m, [None] * m
                for i, r in enumerate(self.rows):
                    if r.count(0) != m - 1:
                        break
                    x = next(filter(None, r))
                    j = r.index(x)
                    if images[j] is not None:
                        break
                    images[j], signs[j] = i, x
                else:
                    self._monomial = tuple(images), tuple(signs)
        return self._monomial

    def is_invertible(self) -> bool:
        """Whether the matrix is square of full rank (a rank test, no inverse built).

        A monomial matrix (see :attr:`monomial_form`, one pass over the
        rows) is a permutation times a nonsingular diagonal, so it is
        invertible with nothing eliminated; every other matrix takes the
        rank test.
        """
        if self.nrows != self.ncols:
            return False
        if self.monomial_form is not None:
            return True
        return Subspace.from_rows(self.ncols, self.rows).dim == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices invert")
        n = self.nrows
        augmented = Echelon(2 * n)
        for i, r in enumerate(self.rows):
            row = {j: x for j, x in enumerate(r) if x}
            row[n + i] = 1
            augmented.add(row)
        rows = augmented.rows
        if any(k not in rows for k in range(n)):
            raise ExactAlgebraError("matrix is singular")
        return Matrix(
            [[Fraction(rows[k].get(n + j, 0), rows[k][k]) for j in range(n)] for k in range(n)],
            ncols=n,
        )


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


_INT_ONLY = frozenset((int,))
_DICT_ONLY = frozenset((dict,))


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


def _plain_integer_rows(rows: list, ambient: int) -> bool:
    """Whether every row is a dict whose indices are ints in
    ``range(ambient)`` and whose values are nonzero ints (not bools), read
    in a few passes over all rows at once."""
    if not set(map(type, rows)) <= _DICT_ONLY:
        return False
    keys = list(chain.from_iterable(rows))
    values = list(chain.from_iterable(map(dict.values, rows)))
    return (
        set(map(type, keys + values)) <= _INT_ONLY
        and all(values)
        and (not keys or (0 <= min(keys) and max(keys) < ambient))
    )


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

    def checked_row(self, vec) -> Mapping:
        """A rational vector, dense or as {index: value}, as an integer row
        with no zeros, its indices checked against the ambient dimension.

        A mapping whose values are all nonzero ints comes back as itself;
        otherwise the row is new.  The caller's vector is never changed."""
        if type(vec) is dict or isinstance(vec, Mapping):
            row = vec if all(vec.values()) else {k: x for k, x in vec.items() if x}
            if row and not 0 <= min(row) <= max(row) < self.ambient:
                raise DimensionMismatch("vector index outside the ambient dimension")
        else:
            if len(vec) != self.ambient:
                raise DimensionMismatch("vector length differs from ambient dimension")
            row = {k: x for k, x in enumerate(vec) if x}
        if not set(map(type, row.values())) <= _INT_ONLY:
            mult = lcm(*(canonical(x).denominator for x in row.values()))
            row = {k: (x * mult).numerator for k, x in row.items()}
        return row

    def integer_row(self, vec) -> dict:
        """A rational vector, dense or as {index: value}, as a primitive integer row.

        The row is always a new dict, never the caller's."""
        row = self.checked_row(vec)
        return _primitive(dict(row) if row is vec else row)

    def reduce(self, row: dict) -> dict:
        """The remainder of an integer row after elimination at the pivots, primitive.

        Lemma.  The echelon is fully reduced: rows[p] is zero at every
        other pivot column.  So an elimination at pivot p changes the row
        at p and at non-pivot columns only, and the pivot columns where
        the row is nonzero, read once, are exactly the steps to take.
        Each step scales the row by a positive factor (rows[p][p] > 0
        over a gcd), so the remainder is a positive multiple of the
        rational remainder whatever the order of the steps, and its
        primitive form is unique.
        """
        rows = self.rows
        hits = rows.keys() & row.keys()
        for p in hits:
            row = _eliminate(row, rows[p], p)
        return _primitive(row) if hits else row

    def add(self, vec) -> bool:
        """Add a vector to the span; True when the rank grew."""
        return self._insert(self.integer_row(vec))

    def _insert(self, row: dict) -> bool:
        """Reduce a primitive integer row, a dict no caller holds, and store
        its remainder as a new pivot row; True when the rank grew."""
        v = self.reduce(row)
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


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear subspace held as its unique reduced row-echelon basis.

    ``pivots`` are the pivot columns in increasing order and ``int_rows``
    the basis rows as primitive integer ``{column: value}`` dicts in the
    same order (see :class:`Echelon`).  ``basis`` shows the same rows
    densely over Q, with pivot entries 1, built row by row on access.
    Vectors passed in may be dense sequences or ``{index: value}`` dicts.

    The queries are ``leq`` (inclusion), ``==`` (equality),
    ``contains_vector`` (membership) and ``annihilator``.
    """

    __slots__ = ("ambient", "pivots", "_echelon", "_hash")

    def __init__(self, echelon: Echelon):
        self.ambient = echelon.ambient
        self.pivots = tuple(sorted(echelon.rows))
        self._echelon = echelon
        self._hash = None

    @classmethod
    def from_rows(cls, ambient: int, rows: Iterable) -> "Subspace":
        """The span of the rows, each as :meth:`Echelon.add` takes it.

        When there are two rows or more and every row is a dict from ints
        in ``range(ambient)`` to nonzero ints (checked once for all rows,
        see :func:`_plain_integer_rows`), the intake of ``add`` would only
        copy each row and trim it by its gcd, so each row goes straight
        to the step after the intake.  Any other list of rows, and a
        single row, whose intake makes the same checks once, takes ``add``
        row by row, so scaling and every error come out of the one
        intake.
        """
        ech = Echelon(ambient)
        rows = list(rows)
        if len(rows) > 1 and _plain_integer_rows(rows, ambient):
            for r in rows:
                ech._insert(_primitive(dict(r)))
        else:
            for r in rows:
                ech.add(r)
        return cls(ech)

    @classmethod
    def from_echelon(cls, ambient: int, rows: dict) -> "Subspace":
        """The subspace with the given echelon, nothing eliminated.

        ``rows`` maps each pivot column to an integer row that is a
        positive multiple of its :class:`Echelon` row; the caller vouches
        for that, and each row is divided by the gcd of its entries here.
        """
        ech = Echelon(ambient)
        ech.rows = {p: _primitive(row) for p, row in rows.items()}
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

    def sparse_basis(self) -> list[dict]:
        """The reduced row-echelon basis as ``{column: scalar}`` dicts of
        canonical scalars: an int wherever the pivot entry divides."""
        out = []
        for p, row in zip(self.pivots, self.int_rows):
            lead = row[p]
            out.append(
                {k: x // lead if x % lead == 0 else Fraction(x, lead) for k, x in sorted(row.items())}
            )
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
        """Whether the vector lies in the space.

        :meth:`Echelon.reduce`'s loop on the checked row
        (:meth:`Echelon.checked_row`), with no copy and no gcd trim: by
        reduce's lemma the remainder is zero exactly when the primitive
        row's is, and each step builds a new row, so the caller's is
        never changed or kept.  Inlined, not a call to reduce: it is the
        hot query of every morphism check.
        """
        ech = self._echelon
        row, rows = ech.checked_row(vec), ech.rows
        for p in rows.keys() & row.keys():
            row = _eliminate(row, rows[p], p)
        return not row

    def leq(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        return all(other.contains_vector(r) for r in self.int_rows)

    def annihilator(self) -> "Subspace":
        """All vectors whose plain dot product with every vector here is 0,
        read off the echelon of this space with the columns reversed.

        Lemma.  The reversed echelon's rows rho_q end at distinct columns
        q in Q (its pivots, read back), and each is zero at every other
        q' in Q.  For each g not in Q let

            n_g = e_g - sum over q of (rho_q[g] / rho_q[q]) e_q.

        Then n_g . rho_q = rho_q[g] - rho_q[g] = 0 for every q, so n_g
        lies in the annihilator.  n_g starts at g, because rho_q[g] != 0
        only when g < q, and it is zero at every other g' not in Q.  So
        the ambient - dim vectors n_g are independent, span the
        annihilator, and, scaled to primitive integers, are exactly its
        canonical rows (see :class:`Echelon`), with pivots the columns
        outside Q.  Only the dim rows of this space are eliminated, not
        one vector per free column.
        """
        last = self.ambient - 1
        reversed_rows = Subspace.from_rows(
            self.ambient, [{last - c: x for c, x in row.items()} for row in self.int_rows]
        )._echelon.rows
        entries: dict[int, list] = {}
        for p, row in reversed_rows.items():
            q, lead = last - p, row[p]
            for c, x in row.items():
                if c != p:
                    entries.setdefault(last - c, []).append((q, lead, x))
        rows = {}
        for g in range(self.ambient):
            if last - g in reversed_rows:
                continue
            hits = entries.get(g, ())
            scale = lcm(*(lead for _, lead, _ in hits))
            vec = {g: scale}
            for q, lead, x in hits:
                vec[q] = -x * (scale // lead)
            rows[g] = vec
        return Subspace.from_echelon(self.ambient, rows)


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
        out = [Fraction(0)] * space.ambient
        for c, x in row.items():
            out[c] = Fraction(x, lead)
        return tuple(out)

