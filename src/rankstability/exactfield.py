"""Exact scalar fields and sparse-row matrices with exact rank computation.

Scalars live in one of three domains: the rationals, the Gaussian rationals
Q(i), or a prime field GF(p).  All arithmetic is exact.  Floating point is
deliberately rejected everywhere: matrix rank is a discontinuous function of
the entries, so approximate pivoting could silently change every quantity
this package certifies.

``DenseMatrix`` stores each row as its nonzero entries only, unboxed: a list
of (column, value) pairs sorted by column, over one positive denominator per
row.  Over GF(p) a value is its residue in [1, p), and every denominator is
1; over Q a value is an int numerator; over Q(i) it is a pair (re, im) of int
numerators.  A row is canonical (its denominator and numerators have gcd 1),
so equal matrices store equal rows.  Every kernel runs on these ints.  Sums
merge rows over the lcm of their denominators.  Products, and sums of them
(``product_sum``), run Gustavson's row-wise scheme, each right factor over
one common denominator.  The accumulator is a dense list or a column dict
per row, or for hypersparse sums one (row, column) dict for the whole sum.
Rank and Gauss-Jordan feed the numerators straight into a modular or a
fraction-free (Bareiss) elimination, which keeps intermediate entries as
minors of the input.  Q(i) runs the Q kernels on the real form, which sends
a + bi to the block [[a, -b], [b, a]]: a ring map that doubles the rank.
Rank runs the forward half of each elimination, and Gauss-Jordan (behind
``rref``, ``inverse``, ``kernel_basis``, ``column_space_basis`` and
``solve_right``) the reduced form.

Field elements are made only at the boundary.  ``entry``, ``row``,
``column``, ``row_lists``, ``nonzeros`` and ``to_text`` box what they return.
``DenseMatrix(field, rows)``, ``from_entries``, ``map_entries`` and
``from_text`` coerce their input straight into storage through the field's
``_row``, which turns an int or a ``Fraction`` into numerators without
making a field element first.
"""

from __future__ import annotations

import bisect
import functools
import math
from itertools import accumulate
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    PrimeDenominatorError,
    SingularMatrixError,
)

__all__ = [
    "GaussianRational",
    "FpElement",
    "ExactField",
    "RationalField",
    "GaussianRationalField",
    "PrimeField",
    "QQ",
    "QQI",
    "GF",
    "field_from_tag",
    "DenseMatrix",
    "modular_rank_certificate",
    "hstack",
    "vstack",
    "product_sum",
]


def _as_fraction(x) -> Fraction:
    if type(x) is Fraction:  # immutable: shared, not copied
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact arithmetic")
    return Fraction(x)


def _parse_fraction(text: str) -> Fraction:
    """A rational scalar from text; a zero denominator is malformed input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


class GaussianRational:
    """An element re + im*i of Q(i), stored as a pair of reduced fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Matches hash(Fraction) on the real axis so mixed comparisons stay sane.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class FpElement:
    """An element of GF(p), stored as the canonical representative in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"FpElement({self.p}, {self.v})"

    def __str__(self):
        return str(self.v)


# Miller-Rabin to the bases 2..41 proves primality below psi_13 (Sorenson and
# Webster, 2017); above it a composite can pass, so GF(p) refuses such p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ExactField:
    """Base class for the supported exact scalar domains."""

    kind = "abstract"

    @functools.cached_property
    def zero(self):
        return self.coerce(0)

    @functools.cached_property
    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        raise NotImplementedError

    def format_scalar(self, x) -> str:
        raise NotImplementedError

    def parse_scalar(self, tokens) -> object:
        """Consume one entry from an iterator of whitespace tokens; `coerce` accepts it."""
        raise NotImplementedError

    # -- matrix storage ----------------------------------------------------------
    # A matrix row is a list of (column, value) pairs, sorted by column and
    # holding the nonzero entries only, over one positive row denominator.
    # The defaults below serve int values: Q numerators, and GF(p) residues,
    # whose rows all have denominator 1.

    _one = 1  # the stored value of 1 over denominator 1

    def _row(self, items) -> tuple:
        """(row, den): the canonical storage of (column, scalar) pairs sorted by column."""
        raise NotImplementedError

    def _box(self, value, den):
        """The field element `value / den`."""
        raise NotImplementedError

    def _mul(self, row, c) -> list:
        """The row with each value times the stored value or int c."""
        return [(j, a * c) for j, a in row]

    def _canon(self, row, den) -> tuple:
        """(row / g, den / g) for g = gcd(den, the row's values): canonical storage."""
        if den == 1:
            return row, 1
        g = math.gcd(den, *[a for _, a in row])
        return (row, den) if g == 1 else ([(j, a // g) for j, a in row], den // g)

    def __repr__(self):
        return self.tag


class RationalField(ExactField):
    kind = "rational"
    tag = "rational"
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return _parse_fraction(x)
        if isinstance(x, GaussianRational):
            if x.im:
                raise ValueError(f"{x} has a nonzero imaginary part")
            return x.re
        if isinstance(x, FpElement):
            raise FieldMismatch(f"GF({x.p}) element used in Q")
        raise TypeError(f"cannot coerce {x!r} into Q")

    def format_scalar(self, x) -> str:
        return str(x)

    def parse_scalar(self, tokens):
        return _parse_fraction(next(tokens))

    def _row(self, items):
        row, dens = [], []
        for j, x in items:
            if not isinstance(x, (int, Fraction)):
                x = self.coerce(x)
            if x:
                row.append((j, x.numerator))
                dens.append(x.denominator)
        # reduced entries over the lcm of their denominators: already canonical
        den = math.lcm(*dens)
        if den > 1:
            row = [(j, a * (den // d)) for (j, a), d in zip(row, dens)]
        return row, den

    def _box(self, value, den):
        return Fraction(value, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class GaussianRationalField(ExactField):
    kind = "gaussian"
    tag = "gaussian"
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, tuple) and len(x) == 2:
            return GaussianRational(*x)
        if isinstance(x, str):
            return self._parse_token(x)
        return GaussianRational(QQ.coerce(x))  # a rational scalar, or Q's error

    @staticmethod
    def _parse_token(tok: str) -> GaussianRational:
        # "re+im" or "re-im" with the sign separating the two reduced fractions.
        for pos in range(1, len(tok)):
            if tok[pos] in "+-" and tok[pos - 1] not in "+-":
                return GaussianRational(_parse_fraction(tok[:pos]), _parse_fraction(tok[pos:]))
        return GaussianRational(_parse_fraction(tok))

    def format_scalar(self, x) -> str:
        sign = "+" if x.im >= 0 else "-"
        return f"{x.re}{sign}{abs(x.im)} i"

    def parse_scalar(self, tokens):
        body = next(tokens)
        marker = next(tokens)
        if marker != "i":
            raise ValueError(f"malformed Gaussian entry: {body} {marker}")
        return self._parse_token(body)

    # A stored value is the pair (re, im) of ints; a row's pairs share its
    # denominator.  Rows are built and reduced as the rows 2i of the real form.
    _one = (1, 0)

    def _row(self, items):
        real = []
        for j, x in items:
            if isinstance(x, (int, Fraction)):
                real.append((2 * j, x))
            else:
                x = self.coerce(x)
                real += ((2 * j, x.re), (2 * j + 1, -x.im))
        row, den = QQ._row(real)
        return _complex_row(row), den

    def _box(self, value, den):
        return GaussianRational(Fraction(value[0], den), Fraction(value[1], den))

    def _mul(self, row, c):
        if isinstance(c, int):
            return [(j, (a * c, b * c)) for j, (a, b) in row]
        x, y = c
        return [(j, (a * x - b * y, a * y + b * x)) for j, (a, b) in row]

    def _canon(self, row, den):
        row, den = QQ._canon(_real_form([row], False)[0], den)
        return _complex_row(row), den

    def __eq__(self, other):
        return isinstance(other, GaussianRationalField)

    def __hash__(self):
        return hash("gaussian")


class PrimeField(ExactField):
    kind = "gf"

    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise ValueError(f"GF({p}): primality is proven only below {_MR_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime; GF({p}) is not a field")
        self.p = p
        self.tag = f"gf{p}"
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, FpElement) and x.p == self.p:
            return x
        return FpElement(self.p, self._residue(x))

    def _residue(self, x) -> int:
        """The representative in [0, p) of a value `coerce` accepts."""
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({x.p}) element used in GF({self.p})")
            return x.v
        if isinstance(x, str):
            x = _parse_fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise PrimeDenominatorError(
                    f"denominator {x.denominator} vanishes mod {self.p}"
                )
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def format_scalar(self, x) -> str:
        return str(x.v)

    def parse_scalar(self, tokens):
        return int(next(tokens))

    # A stored value is the residue in [1, p); every row has denominator 1.

    def _row(self, items):
        row, residue = [], self._residue
        for j, x in items:
            v = residue(x)
            if v:
                row.append((j, v))
        return row, 1

    def _box(self, value, den):
        return FpElement(self.p, value)

    def _mul(self, row, c):
        p = self.p
        return [(j, a * c % p) for j, a in row]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))


QQ = RationalField()
QQI = GaussianRationalField()

@functools.cache
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_tag(tag: str) -> ExactField:
    t = tag.strip().lower()
    if t in ("rational", "qq", "q"):
        return QQ
    if t in ("gaussian", "qqi", "qi"):
        return QQI
    if t.startswith("gf"):
        return GF(int(t[2:]))
    raise ValueError(f"unknown field tag {tag!r}")


# ---------------------------------------------------------------------------
# Matrices with sparse rows of unboxed scalars


class DenseMatrix:
    """Immutable matrix over an exact field, stored as sparse rows of unboxed scalars.

    ``_data`` holds one list per row of (column, value) pairs, sorted by
    column, for the nonzero entries only, and ``_den`` one positive
    denominator per row: entry (i, j) is value / _den[i].  A value is an int
    in [1, p) over GF(p), whose denominators are all 1, an int numerator over
    Q, and a pair (re, im) of int numerators over Q(i).  Every row is
    canonical: gcd(den, its numerators) = 1, so an empty row has den 1, and
    equality and hashing compare the storage directly.  No method mutates a
    row; operations return new matrices, and instances are safe to share
    between threads.  ``DenseMatrix(field, rows)`` takes dense rows and
    ``from_entries`` the nonzeros of a structured matrix; ``_from_rows``
    wraps canonical (row, den) pairs unchecked and keeps the column count of
    matrices without rows.  Rows are lists: CPython caches freed tuples
    shorter than 20 until a full collection, which cost 2 MB of peak RSS.
    """

    __slots__ = ("field", "rows", "cols", "_data", "_den")

    def __init__(self, field: ExactField, rows):
        rows = [list(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise DimensionMismatch("ragged rows")
        self._fill(field, [field._row(enumerate(row)) for row in rows], ncols)

    def _fill(self, field: ExactField, pairs: list, cols: int):
        self.field, self.rows, self.cols = field, len(pairs), cols
        self._data = tuple([row for row, _ in pairs])
        self._den = tuple([den for _, den in pairs])

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_rows(cls, field: ExactField, pairs, cols: int) -> "DenseMatrix":
        """Wrap canonical (row, den) pairs of `field` storage, unchecked."""
        m = object.__new__(cls)
        m._fill(field, list(pairs), cols)
        return m

    @classmethod
    def from_entries(cls, field: ExactField, rows: int, cols: int, entries) -> "DenseMatrix":
        """The rows-by-cols matrix with the {(i, j): value} entries, zero elsewhere."""
        data = [[] for _ in range(rows)]
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            data[i].append((j, value))
        for row in data:
            row.sort()  # distinct columns: values are never compared
        return cls._from_rows(field, map(field._row, data), cols)

    @classmethod
    def identity(cls, field: ExactField, n: int) -> "DenseMatrix":
        return cls._from_rows(field, [([(i, field._one)], 1) for i in range(n)], n)

    @classmethod
    def zeros(cls, field: ExactField, rows: int, cols: int) -> "DenseMatrix":
        return cls._from_rows(field, [([], 1)] * rows, cols)

    @classmethod
    def diagonal(cls, field: ExactField, entries) -> "DenseMatrix":
        return cls.from_entries(field, len(entries), len(entries), {(i, i): a for i, a in enumerate(entries)})

    @classmethod
    def elementary(cls, field: ExactField, rows: int, cols: int, i: int, j: int, value=1):
        return cls.from_entries(field, rows, cols, {(i, j): value})

    # -- access --------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        row, j = self._data[i], range(self.cols)[j]
        k = bisect.bisect_left(row, (j,))  # (j,) sorts just before (j, value)
        if k < len(row) and row[k][0] == j:
            return self.field._box(row[k][1], self._den[i])
        return self.field.zero

    def _boxed(self, i: int) -> list:
        """The dense list of the field elements of row i."""
        f, den = self.field, self._den[i]
        out = [f.zero] * self.cols
        for j, a in self._data[i]:
            out[j] = f._box(a, den)
        return out

    def row(self, i: int):
        return tuple(self._boxed(i))

    def column(self, j: int):
        return tuple(self.entry(i, j) for i in range(self.rows))

    def row_lists(self):
        """Mutable dense copy of the entries."""
        return [self._boxed(i) for i in range(self.rows)]

    def nonzeros(self) -> dict:
        """The {(i, j): value} of the nonzero entries, as ``from_entries`` takes them."""
        box = self.field._box
        return {(i, j): box(a, den) for i, (row, den) in enumerate(zip(self._data, self._den)) for j, a in row}

    # -- algebra -------------------------------------------------------------

    def _check_same(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError(f"expected a matrix, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _merge(self, other, sub: bool):
        """self - other or self + other, merging their sparse rows."""
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} {'-' if sub else '+'} {other.shape}")
        f = self.field
        if f.kind == "gaussian":  # merge the rows 2i of the real forms
            merged = _merge_rows(0, _real_form(self._data, False), self._den,
                                 _real_form(other._data, False), other._den, sub)
            return self._from_rows(f, [(_complex_row(row), den) for row, den in merged], self.cols)
        merged = _merge_rows(f.characteristic, self._data, self._den, other._data, other._den, sub)
        return self._from_rows(f, merged, self.cols)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        f = self.field
        return self._from_rows(f, [(f._mul(row, -1), den) for row, den in zip(self._data, self._den)], self.cols)

    def scale(self, c):
        f = self.field
        stored, cden = f._row(((0, c),))  # c = stored value / cden
        if not stored:
            return self.zeros(f, self.rows, self.cols)
        c = stored[0][1]
        pairs = [f._canon(f._mul(row, c), den * cden) for row, den in zip(self._data, self._den)]
        return self._from_rows(f, pairs, self.cols)

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            self._check_same(other)
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} * {other.shape}")
            pairs = _product(self.field, [(self._data, self._den, other._data, other._den)], other.cols)
            return self._from_rows(self.field, pairs, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self):
        f = self.field
        den = math.lcm(*self._den)  # every row over one denominator first
        out = [[] for _ in range(self.cols)]
        for i, (row, d) in enumerate(zip(self._data, self._den)):
            for j, a in row if d == den else f._mul(row, den // d):
                out[j].append((i, a))
        return self._from_rows(f, [f._canon(row, den) for row in out], self.rows)

    def is_zero(self) -> bool:
        return not any(self._data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and self._den == other._den
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.field, self._den, tuple(map(tuple, self._data))))

    def direct_sum(self, *others: "DenseMatrix") -> "DenseMatrix":
        pairs, c = [*zip(self._data, self._den)], self.cols
        for other in others:
            self._check_same(other)
            pairs += [([(j + c, a) for j, a in row], den) for row, den in zip(other._data, other._den)]
            c += other.cols
        return self._from_rows(self.field, pairs, c)

    def pad(self, rows: int, cols: int) -> "DenseMatrix":
        """Embed into the top-left corner of a rows-by-cols zero matrix."""
        if rows < self.rows or cols < self.cols:
            raise DimensionMismatch("pad target is smaller than the matrix")
        pairs = [*zip(self._data, self._den), *[([], 1)] * (rows - self.rows)]
        return self._from_rows(self.field, pairs, cols)

    def submatrix(self, rows, cols) -> "DenseMatrix":
        """The entries at the given row and column indices, in the given order."""
        cols = list(cols)
        moved = {}  # old column -> its new columns
        for k, j in enumerate(cols):
            moved.setdefault(range(self.cols)[j], []).append(k)
        f = self.field
        out = [
            f._canon(sorted((k, a) for j, a in self._data[i] if j in moved for k in moved[j]), self._den[i])
            for i in rows
        ]
        return self._from_rows(f, out, len(cols))

    def map_entries(self, fn, field: ExactField | None = None) -> "DenseMatrix":
        f = field or self.field
        return self._from_rows(f, [f._row(enumerate(map(fn, row))) for row in self.row_lists()], self.cols)

    # -- elimination kernels ---------------------------------------------------

    def rank(self) -> int:
        rows = [row for row in self._data if row]  # row denominators do not change the rank
        if not rows:
            return 0
        f = self.field
        if f.kind == "gaussian":
            rows = _real_form(rows)
        keep = sorted({j for row in rows for j, _ in row})
        if keep[-1] >= len(keep):  # drop the zero columns
            where = {j: k for k, j in enumerate(keep)}
            rows = [[(where[j], a) for j, a in row] for row in rows]
        ints = [_dense(row, len(keep)) for row in rows]
        if f.characteristic:
            return len(_eliminate_gf(ints, f.characteristic, reduced=False))
        rank = len(_eliminate_int(ints, reduced=False))
        return rank // 2 if f.kind == "gaussian" else rank

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple)."""
        pairs, pivots = _rref(self.field, self._data, self.cols)
        pairs += [([], 1)] * (self.rows - len(pairs))
        return self._from_rows(self.field, pairs, self.cols), tuple(pivots)

    def inverse(self) -> "DenseMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n, f = self.rows, self.field
        aug = [row for row, _ in _hstack_rows([self, self.identity(f, n)])]
        pairs, pivots = _rref(f, aug, 2 * n)
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        # an RREF row less its pivot 1, whose denominator is 1, stays canonical
        return self._from_rows(f, [([(j - n, a) for j, a in row if j >= n], den) for row, den in pairs], n)

    def kernel_basis(self) -> "DenseMatrix":
        """Matrix whose columns span the right null space.

        The column count equals cols - rank; a full-rank square input yields
        a matrix with zero columns.
        """
        f = self.field
        pairs, pivots = _rref(f, self._data, self.cols)
        pivot_set = set(pivots)
        free = {fc: k for k, fc in enumerate(j for j in range(self.cols) if j not in pivot_set)}
        # free column fc gives the kernel vector e_fc - sum_r rref[r][fc] e_pivot(r);
        # an RREF row less its pivot 1, whose denominator is 1, stays canonical
        out = [([(free[j], f._one)], 1) if j in free else ([], 1) for j in range(self.cols)]
        for (row, den), pc in zip(pairs, pivots):
            out[pc] = f._mul([(free[j], a) for j, a in row if j in free], -1), den
        return self._from_rows(f, out, len(free))

    def column_space_basis(self) -> "DenseMatrix":
        """Original columns indexed by the pivot columns of the RREF."""
        return self.submatrix(range(self.rows), _rref(self.field, self._data, self.cols)[1])

    def solve_right(self, rhs: "DenseMatrix") -> "DenseMatrix":
        """Some X with self * X = rhs, or ValueError when inconsistent."""
        self._check_same(rhs)
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"{self.shape} X = {rhs.shape}")
        f, n = self.field, self.cols
        pairs, pivots = _rref(f, [row for row, _ in _hstack_rows([self, rhs])], n + rhs.cols)
        if pivots and pivots[-1] >= n:
            raise ValueError("inconsistent linear system")
        out = [([], 1)] * n
        for (row, den), pc in zip(pairs, pivots):
            out[pc] = f._canon([(j - n, a) for j, a in row if j >= n], den)
        return self._from_rows(f, out, rhs.cols)

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        f = self.field
        zero, box = f.format_scalar(f.zero), f._box
        lines = [f"{self.rows} {self.cols} {f.tag}"]
        for row, den in zip(self._data, self._den):
            line = [zero] * self.cols
            for j, a in row:
                line[j] = f.format_scalar(box(a, den))
            lines.append(" ".join(line))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DenseMatrix":
        tokens = iter(text.split())
        try:
            rows = int(next(tokens))
            cols = int(next(tokens))
            if rows < 0 or cols < 0:
                raise ValueError(f"matrix text has a negative shape {rows}x{cols}")
            field = field_from_tag(next(tokens))
            # parse_scalar and _row are the text format's coercion
            data = [field._row(enumerate([field.parse_scalar(tokens) for _ in range(cols)]))
                    for _ in range(rows)]
        except StopIteration:
            raise ValueError("matrix text is truncated") from None
        if next(tokens, None) is not None:
            raise ValueError("matrix text has tokens after its last entry")
        return cls._from_rows(field, data, cols)

    def __repr__(self):
        f = self.field
        body = "; ".join(
            " ".join(f.format_scalar(a) for a in self.row(i)) for i in range(min(self.rows, 6))
        )
        if self.rows > 6:
            body += "; ..."
        return f"DenseMatrix({f.tag}, {self.rows}x{self.cols}: {body})"


def hstack(mats) -> DenseMatrix:
    mats = list(mats)
    field = mats[0].field
    nrows = mats[0].rows
    for m in mats:
        if m.rows != nrows:
            raise DimensionMismatch("hstack row counts differ")
        if m.field != field:
            raise FieldMismatch("hstack over mixed fields")
    return DenseMatrix._from_rows(field, _hstack_rows(mats), sum(m.cols for m in mats))


def product_sum(pairs) -> DenseMatrix:
    """A_1 B_1 + ... + A_t B_t for (A_t, B_t) pairs with one product shape, all
    terms summed in place: no product or partial sum is made.  The estimated
    flops pick the accumulator: a dense list per row for dense sums, one
    {(row, column): int} dict for the whole sum for hypersparse ones (at most
    3 flops per row and term), and a {column: int} dict per row otherwise."""
    pairs = list(pairs)
    a0, b0 = pairs[0]
    for a, b in pairs:
        a0._check_same(a)
        a0._check_same(b)
        if a.cols != b.rows or (a.rows, b.cols) != (a0.rows, b0.cols):
            raise DimensionMismatch(f"{a.shape} * {b.shape} in a sum of {a0.rows}x{b0.cols} products")
    terms = [(a._data, a._den, b._data, b._den) for a, b in pairs]
    return DenseMatrix._from_rows(a0.field, _product(a0.field, terms, b0.cols), b0.cols)


def vstack(mats) -> DenseMatrix:
    mats = list(mats)
    field = mats[0].field
    ncols = mats[0].cols
    pairs = []
    for m in mats:
        if m.cols != ncols:
            raise DimensionMismatch("vstack column counts differ")
        if m.field != field:
            raise FieldMismatch("vstack over mixed fields")
        pairs += zip(m._data, m._den)
    return DenseMatrix._from_rows(field, pairs, ncols)


# -- kernel internals ------------------------------------------------------------


def _dense(row, width: int) -> list:
    """The dense list of `width` ints of a sparse row of ints."""
    out = [0] * width
    for j, a in row:
        out[j] = a
    return out


def _hstack_rows(mats) -> list:
    """The (row, den) pairs of same-height matrices side by side.

    Each row goes over the lcm of its parts' denominators.  It is canonical:
    a prime to its highest power in that lcm divides the denominator of a
    part, whose numerators it does not all divide, and that part is scaled
    by a factor prime to it.
    """
    f = mats[0].field
    offsets = [0, *accumulate(m.cols for m in mats)]
    out = []
    for i in range(mats[0].rows):
        dens = [m._den[i] for m in mats]
        den = math.lcm(*dens)
        row = [(j + off, a) for m, off, d in zip(mats, offsets, dens)
               for j, a in (m._data[i] if d == den else f._mul(m._data[i], den // d))]
        out.append((row, den))
    return out


def _merge_rows(p: int, arows, adens, brows, bdens, sub: bool) -> list:
    """The (row, den) pairs of A - B or A + B for rows of ints, mod p when p > 0."""
    out = []
    for ra, da, rb, db in zip(arows, adens, brows, bdens):
        if not rb or sub and ra == rb and da == db:  # b adds nothing, or equal rows cancel
            out.append(([], 1) if rb else (ra, da))
            continue
        den = math.lcm(da, db)
        sa, sb = den // da, den // db
        if sub:
            sb = -sb
        acc = dict(ra) if sa == 1 else {j: a * sa for j, a in ra}
        for j, b in rb:
            a = acc.get(j, 0) + b * sb
            if p:
                a %= p
            if a:
                acc[j] = a
            else:
                del acc[j]
        out.append(QQ._canon(sorted(acc.items()), den))  # distinct columns: values are never compared
    return out


def _real_form(rows, odd: bool = True) -> list:
    """The sparse int rows of the real form of sparse Q(i) rows of pairs: a + bi
    at (i, j) becomes the block [[a, -b], [b, a]] at rows 2i, 2i + 1 and
    columns 2j, 2j + 1.  Without `odd` only the rows 2i are made.

    This is a ring map, and the real form of M has twice the rank of M.  Row
    scaling commutes with it, so the rows keep their denominators.
    """
    out = []
    for row in rows:
        out.append([(k, x) for j, (a, b) in row for k, x in ((2 * j, a), (2 * j + 1, -b)) if x])
        if odd:
            out.append([(k, x) for j, (a, b) in row for k, x in ((2 * j, b), (2 * j + 1, a)) if x])
    return out


def _complex_row(row) -> list:
    """The Q(i) row of pairs z_j = x_2j - i x_2j+1 of a sparse real row sorted by column."""
    parts = {}
    for k, x in row:
        parts.setdefault(k >> 1, [0, 0])[k & 1] = x
    return [(j, (a, -b)) for j, (a, b) in parts.items()]


def _product(field, terms, ncols: int) -> list:
    """The (row, den) pairs of A_1 B_1 + ... + A_t B_t for terms (A rows, A dens,
    B rows, B dens) (Gustavson): each (k, a) of row i of an A adds
    a * (row k of its B) into an int accumulator.  Each B goes over one common
    denominator d_B, and row i over the lcm of the A den[i] * d_B.  From the
    estimated flops, the accumulator is
      - a dense list per row when an average row does at least ncols / 4,
      - one {(row, column): int} dict for the whole sum when an average row
        does at most 3 per term (hypersparse: most rows are empty or nearly
        so, and per-row bookkeeping would cost more than the arithmetic),
      - a {column: int} dict per row (Gilbert-Moler-Schreiber's sparse
        accumulator) in between.
    GF(p) reduces mod p; Q(i) runs Q on the real forms.
    """
    if field.kind == "gaussian":
        real = [(_real_form(ar, False), ad, _real_form(br), [d for d in bd for _ in (0, 1)])
                for ar, ad, br, bd in terms]
        return [(_complex_row(row), den) for row, den in _product(QQ, real, 2 * ncols)]
    parts, flops = [], 0  # parts: (A rows, B rows over d_B, the term's den_A[i] * d_B)
    for arows, adens, brows, bdens in terms:
        den_b = math.lcm(*bdens)
        parts.append((arows, [row if d == den_b else [(j, b * (den_b // d)) for j, b in row]
                              for row, d in zip(brows, bdens)],
                      adens if den_b == 1 else [d * den_b for d in adens]))
        flops += sum(map(len, arows)) * sum(map(len, brows)) // (len(brows) or 1)  # estimated
    rdens = parts[0][2] if len(parts) == 1 else [math.lcm(*ds) for ds in zip(*[ds for _, _, ds in parts])]
    dense, p, out = 4 * flops >= len(rdens) * ncols, field.characteristic, []
    if not dense and flops <= 3 * len(rdens) * len(parts):
        acc = {}
        get = acc.get
        for arows, bints, ds in parts:
            for i, arow in enumerate(arows):
                if arow:
                    s = rdens[i] // ds[i]  # scales the term's A row to the row's denominator
                    for k, a in arow:
                        a *= s
                        for j, b in bints[k]:
                            acc[i, j] = get((i, j), 0) + a * b
        rows = [[] for _ in rdens]
        for (i, j), v in sorted(acc.items()):  # distinct keys: values are never compared
            if p:
                v %= p
            if v:
                rows[i].append((j, v))
        return [(row, 1) if den == 1 or not row else QQ._canon(row, den) for row, den in zip(rows, rdens)]
    for i, den in enumerate(rdens):  # a term's A row is scaled to the row's denominator as it is used
        if dense:
            acc = [0] * ncols
            for arows, bints, ds in parts:
                for k, a in arows[i] if ds[i] == den else [(k, a * (den // ds[i])) for k, a in arows[i]]:
                    for j, b in bints[k]:
                        acc[j] += a * b
            items = enumerate(acc)
        else:
            acc = {}
            get = acc.get
            for arows, bints, ds in parts:
                for k, a in arows[i] if ds[i] == den else [(k, a * (den // ds[i])) for k, a in arows[i]]:
                    for j, b in bints[k]:
                        acc[j] = get(j, 0) + a * b
            items = sorted(acc.items())  # distinct columns: values are never compared
        row = [(j, r) for j, v in items if (r := v % p)] if p else [(j, v) for j, v in items if v]
        out.append((row, 1) if den == 1 else QQ._canon(row, den))
    return out


def _rref(field, rows, ncols: int):
    """The RREF of sparse rows of stored values: (its nonzero rows as (row, den)
    pairs, pivot columns).  Row denominators do not change the RREF, so only
    the values are given.

    GF(p) eliminates ints mod p and Q runs fraction-free on the numerators.
    Q(i) runs Q on the real form, whose RREF is the real form of the Q(i)
    RREF: its pivots come in pairs (2p, 2p + 1), and its row with pivot 2p
    reads back as the row with pivot p.
    """
    if not rows:
        return [], []
    if field.kind == "gaussian":
        real, pivots = _rref(QQ, _real_form(rows), 2 * ncols)
        return [(_complex_row(row), den) for row, den in real[::2]], [pc // 2 for pc in pivots[::2]]
    ints = [_dense(row, ncols) for row in rows]
    p = field.characteristic
    if p:
        pivots = _eliminate_gf(ints, p, reduced=True)
        return [([(j, a) for j, a in enumerate(row) if a], 1) for row in ints[: len(pivots)]], pivots
    pivots = _eliminate_int(ints, reduced=True)
    out = []
    for row, pc in zip(ints, pivots):  # row r over its pivot entry is row r of the RREF
        sign = 1 if row[pc] > 0 else -1
        out.append(QQ._canon([(j, sign * a) for j, a in enumerate(row) if a], sign * row[pc]))
    return out, pivots


def _eliminate_int(rows, reduced: bool) -> list[int]:
    """Fraction-free (Bareiss) elimination of integer rows in place; returns the pivots.

    Bareiss sets row_i = (piv*row_i - m*row_r) / prev for the pivot piv of row
    r, m = row_i[c] and the previous pivot prev; the division is exact and
    entries stay minors of the input.  Here a row with m = 0 is left alone,
    standing for its Bareiss row times den[i] / prev, with den[i] the pivot
    at which it last changed: its next step divides by den[i].  A pivot row
    with a row to clear is first scaled by prev / den[r] if stale, and its
    pivot becomes prev; one with none is left out of the sequence, as if
    moved last, so a scaled permutation stays as it is.  Without `reduced`
    only rows below r are cleared (enough for the rank); with it every other
    row is too, and each pivot row over its pivot entry is a row of the RREF.
    """
    nrows, ncols = len(rows), len(rows[0])
    den = [1] * nrows
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        den[r], den[p] = den[p], den[r]
        rowr = None
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            m = row[c]
            if m and i != r:
                if rowr is None:  # row r has a row to clear: it joins the Bareiss sequence
                    rowr = rows[r]
                    if den[r] != prev:
                        rowr = rows[r] = [a * prev // den[r] for a in rowr]
                    piv = prev = den[r] = rowr[c]
                d = den[i]
                # rows below r are zero left of c, as row r is
                for j in range(0 if i < r else c + 1, ncols):
                    row[j] = (piv * row[j] - m * rowr[j]) // d
                row[c] = 0
                den[i] = piv
        pivots.append(c)
    return pivots


def _eliminate_gf(rows, p: int, reduced: bool) -> list[int]:
    """Modular elimination of rows of ints in [0, p) in place; returns the pivots.

    Each pivot row is scaled to a leading 1.  Without `reduced` only the rows
    below it are cleared (enough for the rank); with it every other row is,
    which leaves the RREF.
    """
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for piv_row in range(r, nrows):
            if rows[piv_row][c]:
                break
        else:
            continue
        rows[r], rows[piv_row] = rows[piv_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rowr = rows[r] = [a * inv % p for a in rows[r]]
        for i in range(0 if reduced else r + 1, nrows):
            m = rows[i][c]
            if m and i != r:
                rows[i] = [(a - m * b) % p for a, b in zip(rows[i], rowr)]
        pivots.append(c)
    return pivots


def modular_rank_certificate(matrix: DenseMatrix, primes) -> int:
    """Lower bound for the rank of a rational matrix via mod-p reductions.

    Returns max_p rank(M mod p).  The result never exceeds rank(M) and equals
    it for all but finitely many primes.  A prime dividing the denominator of
    any entry is rejected with PrimeDenominatorError: a row's denominator is
    the lcm of its entries' denominators, so it is the row's that is tested.
    """
    if not isinstance(matrix.field, RationalField):
        raise FieldMismatch("modular rank certificate needs a rational matrix")
    primes = list(primes)
    if not primes:
        raise ValueError("no primes supplied")
    return max(_reduce_mod(matrix, p).rank() for p in primes)


def _reduce_mod(matrix: DenseMatrix, p: int) -> DenseMatrix:
    """The GF(p) image of a rational matrix: each row's numerators times den^-1 mod p."""
    field = GF(p)
    pairs = []
    for row, den in zip(matrix._data, matrix._den):
        if den % p == 0:
            raise PrimeDenominatorError(f"denominator {den} vanishes mod {p}")
        inv = pow(den, -1, p)
        pairs.append(field._row([(j, a * inv) for j, a in row]))
    return DenseMatrix._from_rows(field, pairs, matrix.cols)
