"""Exact scalar fields and sparse-row matrices with exact rank computation.

Scalars live in one of three domains: the rationals, the Gaussian rationals
Q(i), or a prime field GF(p).  All arithmetic is exact.  Floating point is
deliberately rejected everywhere: matrix rank is a discontinuous function of
the entries, so approximate pivoting could silently change every quantity
this package certifies.

``DenseMatrix`` stores each row as its nonzero entries only: a list of
(column, field element) pairs sorted by column, so every kernel touches the
nonzeros alone.  Sums merge rows, and products run row by row (Gustavson).
Products and eliminations unbox the nonzeros to plain Python ints and box
each nonzero result entry once.  GF(p) works on representatives modulo p.  Q
puts rows over common denominators: a product accumulates integer
numerators, and elimination is fraction-free (Bareiss), which keeps
intermediate entries as minors of the input.  Q(i) runs the Q kernels on the
real form, which sends a + bi to the block [[a, -b], [b, a]]: a ring map
that doubles the rank.  Rank runs the forward half of each elimination, and
Gauss-Jordan (behind ``rref``, ``inverse``, ``kernel_basis``,
``column_space_basis`` and ``solve_right``) the reduced form.

``DenseMatrix(field, rows)``, ``map_entries`` and ``from_text`` take dense
rows, and ``DenseMatrix.from_entries`` takes the nonzeros of a sparse one;
these are the coercion boundary.  Kernel results are wrapped from field
elements without coercing them again.
"""

from __future__ import annotations

import bisect
import functools
import math
from itertools import accumulate, compress
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
]


def _as_fraction(x) -> Fraction:
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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
        return self.from_int(0)

    @functools.cached_property
    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def format_scalar(self, x) -> str:
        raise NotImplementedError

    def parse_scalar(self, tokens) -> object:
        """Consume one entry from an iterator of whitespace tokens."""
        raise NotImplementedError

    def __repr__(self):
        return self.tag


class RationalField(ExactField):
    kind = "rational"
    tag = "rational"
    characteristic = 0

    def from_int(self, k: int):
        return Fraction(k)

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
        raise TypeError(f"cannot coerce {x!r} into Q")

    def format_scalar(self, x) -> str:
        return str(x)

    def parse_scalar(self, tokens):
        return _parse_fraction(next(tokens))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class GaussianRationalField(ExactField):
    kind = "gaussian"
    tag = "gaussian"
    characteristic = 0

    def from_int(self, k: int):
        return GaussianRational(k)

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        if isinstance(x, tuple) and len(x) == 2:
            return GaussianRational(Fraction(x[0]), Fraction(x[1]))
        if isinstance(x, str):
            return self._parse_token(x)
        raise TypeError(f"cannot coerce {x!r} into Q(i)")

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

    def __eq__(self, other):
        return isinstance(other, GaussianRationalField)

    def __hash__(self):
        return hash("gaussian")


class PrimeField(ExactField):
    kind = "gf"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime; GF({p}) is not a field")
        self.p = p
        self.tag = f"gf{p}"
        self.characteristic = p

    def from_int(self, k: int):
        return FpElement(self.p, k)

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({x.p}) element used in GF({self.p})")
            return x
        if isinstance(x, int):
            return FpElement(self.p, x)
        if isinstance(x, str):
            x = _parse_fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise PrimeDenominatorError(
                    f"denominator {x.denominator} vanishes mod {self.p}"
                )
            return FpElement(self.p, x.numerator * pow(x.denominator, -1, self.p))
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def format_scalar(self, x) -> str:
        return str(x.v)

    def parse_scalar(self, tokens):
        return FpElement(self.p, int(next(tokens)))

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
# Matrices with sparse rows


class DenseMatrix:
    """Immutable matrix over an exact field, stored as sparse rows.

    Each row is a list of (column, value) pairs, sorted by column, holding
    the nonzero entries only; no method mutates one.  The storage is
    canonical, so equality and hashing compare it directly.  Operations
    return new matrices, and instances are safe to share between threads.
    ``DenseMatrix(field, rows)`` takes dense rows and ``from_entries`` the
    nonzeros of a structured matrix.  ``_from_rows`` wraps kernel results
    unchecked and keeps the column count of matrices without rows.  Rows are
    lists: CPython caches freed tuples shorter than 20 until a full
    collection, which cost 2 MB of peak RSS.
    """

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: ExactField, rows):
        dense = [[field.coerce(x) for x in row] for row in rows]
        ncols = len(dense[0]) if dense else 0
        if any(len(row) != ncols for row in dense):
            raise DimensionMismatch("ragged rows")
        self.field, self.rows, self.cols = field, len(dense), ncols
        self._data = tuple(map(_sparse, dense))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_rows(cls, field: ExactField, rows, cols: int) -> "DenseMatrix":
        """Wrap sparse rows of nonzero `field` elements, sorted by column, unchecked."""
        m = object.__new__(cls)
        m.field, m.cols, m._data = field, cols, tuple(map(list, rows))
        m.rows = len(m._data)
        return m

    @classmethod
    def from_entries(cls, field: ExactField, rows: int, cols: int, entries) -> "DenseMatrix":
        """The rows-by-cols matrix with the {(i, j): value} entries, zero elsewhere."""
        data = [[] for _ in range(rows)]
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            value = field.coerce(value)
            if value:
                data[i].append((j, value))
        for row in data:
            row.sort()  # distinct columns: values are never compared
        return cls._from_rows(field, data, cols)

    @classmethod
    def identity(cls, field: ExactField, n: int) -> "DenseMatrix":
        one = field.one
        return cls._from_rows(field, [((i, one),) for i in range(n)], n)

    @classmethod
    def zeros(cls, field: ExactField, rows: int, cols: int) -> "DenseMatrix":
        return cls._from_rows(field, [()] * rows, cols)

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
            return row[k][1]
        return self.field.zero

    def row(self, i: int):
        return tuple(_dense(self._data[i], self.cols, self.field.zero))

    def column(self, j: int):
        return tuple(self.entry(i, j) for i in range(self.rows))

    def row_lists(self):
        """Mutable dense copy of the entries."""
        zero = self.field.zero
        return [_dense(row, self.cols, zero) for row in self._data]

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
        out = []
        for ra, rb in zip(self._data, other._data):
            acc = dict(ra)
            for j, b in rb:
                a = acc.get(j)
                if a is None:
                    acc[j] = -b if sub else b
                    continue
                a = a - b if sub else a + b
                if a:
                    acc[j] = a
                else:
                    del acc[j]
            out.append(sorted(acc.items()))  # distinct columns: values are never compared
        return self._from_rows(self.field, out, self.cols)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        rows = [[(j, -a) for j, a in row] for row in self._data]
        return self._from_rows(self.field, rows, self.cols)

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zeros(self.field, self.rows, self.cols)
        rows = [[(j, c * a) for j, a in row] for row in self._data]
        return self._from_rows(self.field, rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            self._check_same(other)
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} * {other.shape}")
            return self._from_rows(
                self.field, _product(self.field, self._data, other._data, other.cols), other.cols
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self):
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, a in row:
                out[j].append((i, a))
        return self._from_rows(self.field, out, self.rows)

    def is_zero(self) -> bool:
        return not any(self._data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.field, tuple(map(tuple, self._data))))

    def direct_sum(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same(other)
        c = self.cols
        shifted = [[(j + c, a) for j, a in row] for row in other._data]
        return self._from_rows(self.field, self._data + tuple(shifted), c + other.cols)

    def pad(self, rows: int, cols: int) -> "DenseMatrix":
        """Embed into the top-left corner of a rows-by-cols zero matrix."""
        if rows < self.rows or cols < self.cols:
            raise DimensionMismatch("pad target is smaller than the matrix")
        return self._from_rows(self.field, self._data + ((),) * (rows - self.rows), cols)

    def submatrix(self, rows, cols) -> "DenseMatrix":
        """The entries at the given row and column indices, in the given order."""
        cols = list(cols)
        moved = {}  # old column -> its new columns
        for k, j in enumerate(cols):
            moved.setdefault(range(self.cols)[j], []).append(k)
        out = [
            sorted((k, a) for j, a in self._data[i] if j in moved for k in moved[j])
            for i in rows
        ]
        return self._from_rows(self.field, out, len(cols))

    def map_entries(self, fn, field: ExactField | None = None) -> "DenseMatrix":
        f = field or self.field
        rows = [[f.coerce(fn(a)) for a in row] for row in self.row_lists()]
        return self._from_rows(f, map(_sparse, rows), self.cols)

    # -- elimination kernels ---------------------------------------------------

    def rank(self) -> int:
        rows = [row for row in self._data if row]
        if not rows:
            return 0
        keep = sorted({j for row in rows for j, _ in row})
        if len(keep) < self.cols:
            where = {j: k for k, j in enumerate(keep)}
            rows = [[(where[j], a) for j, a in row] for row in rows]
        width = len(keep)
        f = self.field
        if isinstance(f, PrimeField):
            return len(_eliminate_gf([_gf_row(row, width) for row in rows], f.p, reduced=False))
        if isinstance(f, RationalField):
            return len(_eliminate_int([_scale_rational_row(row, width) for row in rows], reduced=False))
        real = [_scale_rational_row(row, 2 * width) for row in _real_form(rows)]
        return len(_eliminate_int(real, reduced=False)) // 2

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple)."""
        rows, pivots = _rref(self.field, self._data, self.cols)
        return self._from_rows(self.field, rows, self.cols), tuple(pivots)

    def inverse(self) -> "DenseMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n, one = self.rows, self.field.one
        aug = [row + [(n + i, one)] for i, row in enumerate(self._data)]
        rows, pivots = _rref(self.field, aug, 2 * n)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return self._from_rows(self.field, [[(j - n, a) for j, a in row if j >= n] for row in rows], n)

    def kernel_basis(self) -> "DenseMatrix":
        """Matrix whose columns span the right null space.

        The column count equals cols - rank; a full-rank square input yields
        a matrix with zero columns.
        """
        rows, pivots = _rref(self.field, self._data, self.cols)
        pivot_set = set(pivots)
        free = {fc: k for k, fc in enumerate(j for j in range(self.cols) if j not in pivot_set)}
        # free column fc gives the kernel vector e_fc - sum_r rref[r][fc] e_pivot(r)
        out = [((free[j], self.field.one),) if j in free else () for j in range(self.cols)]
        for row, pc in zip(rows, pivots):
            out[pc] = [(free[j], -a) for j, a in row if j in free]
        return self._from_rows(self.field, out, len(free))

    def column_space_basis(self) -> "DenseMatrix":
        """Original columns indexed by the pivot columns of the RREF."""
        return self.submatrix(range(self.rows), _rref(self.field, self._data, self.cols)[1])

    def solve_right(self, rhs: "DenseMatrix") -> "DenseMatrix":
        """Some X with self * X = rhs, or ValueError when inconsistent."""
        self._check_same(rhs)
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"{self.shape} X = {rhs.shape}")
        n, w = self.cols, rhs.cols
        aug = [ra + [(n + j, b) for j, b in rb] for ra, rb in zip(self._data, rhs._data)]
        rows, pivots = _rref(self.field, aug, n + w)
        if any(pc >= n for pc in pivots):
            raise ValueError("inconsistent linear system")
        out = [()] * n
        for row, pc in zip(rows, pivots):
            out[pc] = [(j - n, a) for j, a in row if j >= n]
        return self._from_rows(self.field, out, w)

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        f = self.field
        lines = [f"{self.rows} {self.cols} {f.tag}"]
        for row in self.row_lists():
            lines.append(" ".join(f.format_scalar(a) for a in row))
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
            # parse_scalar is the text format's coercion: it yields field elements
            data = [_sparse([field.parse_scalar(tokens) for _ in range(cols)]) for _ in range(rows)]
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
    offsets = [0, *accumulate(m.cols for m in mats)]
    data = [[(j + off, a) for m, off in zip(mats, offsets) for j, a in m._data[i]] for i in range(nrows)]
    return DenseMatrix._from_rows(field, data, offsets[-1])


def vstack(mats) -> DenseMatrix:
    mats = list(mats)
    field = mats[0].field
    ncols = mats[0].cols
    data = []
    for m in mats:
        if m.cols != ncols:
            raise DimensionMismatch("vstack column counts differ")
        if m.field != field:
            raise FieldMismatch("vstack over mixed fields")
        data.extend(m._data)
    return DenseMatrix._from_rows(field, data, ncols)


# -- kernel internals ------------------------------------------------------------


def _sparse(row):
    """The (column, value) pairs of the nonzero entries of a dense row."""
    return [(j, a) for j, a in enumerate(row) if a]


def _dense(row, width: int, zero) -> list:
    """The dense list of `width` entries of a row of (column, value) pairs."""
    out = [zero] * width
    for j, a in row:
        out[j] = a
    return out


def _real_form(rows) -> list:
    """The sparse real rows of sparse Q(i) rows: a + bi at (i, j) becomes the
    block [[a, -b], [b, a]] at rows 2i, 2i + 1 and columns 2j, 2j + 1.

    This is a ring map, and the real form of M has twice the rank of M.
    """
    out = []
    for row in rows:
        out.append([(k, x) for j, z in row for k, x in ((2 * j, z.re), (2 * j + 1, -z.im)) if x])
        out.append([(k, x) for j, z in row for k, x in ((2 * j, z.im), (2 * j + 1, z.re)) if x])
    return out


def _complex_row(row) -> list:
    """The Q(i) row z_j = x_2j - i x_2j+1 of a sparse real row sorted by column."""
    parts = {}
    for k, x in row:
        parts.setdefault(k >> 1, [0, 0])[k & 1] = x
    return [(j, GaussianRational(a, -b)) for j, (a, b) in parts.items()]


def _gf_row(row, width: int) -> list:
    """The dense list of representatives of a sparse row over GF(p)."""
    ints = [0] * width
    for j, a in row:
        ints[j] = a.v
    return ints


def _scale_rational_row(row, width: int) -> list:
    """The dense primitive integer row proportional to a sparse row of fractions."""
    den = math.lcm(*[a.denominator for _, a in row])
    ints = [0] * width
    for j, a in row:
        ints[j] = a.numerator * (den // a.denominator)
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _product(field, arows, brows, ncols):
    """The sparse rows of A * B: each pair (k, a) of a row of A adds a * (row k
    of B) into a dense accumulator, whose nonzeros are boxed into the result.

    GF(p) accumulates the ints a.v * b.v.  Q puts B over one common denominator
    and each row of A over its own and accumulates integer numerators.  Q(i)
    reads the even rows of the Q product of the real forms.
    """
    if isinstance(field, GaussianRationalField):
        return list(map(_complex_row, _product(QQ, _real_form(arows)[::2], _real_form(brows), 2 * ncols)))
    out = []
    if isinstance(field, PrimeField):
        p = field.p
        bints = [[(j, b.v) for j, b in row] for row in brows]
        for arow in arows:
            acc = [0] * ncols
            for k, a in arow:
                a = a.v
                for j, b in bints[k]:
                    acc[j] += a * b
            out.append([(j, FpElement(p, v)) for j, v in enumerate(acc) if v % p])
        return out
    den_b = math.lcm(*[b.denominator for row in brows for _, b in row])
    bints = [[(j, b.numerator * (den_b // b.denominator)) for j, b in row] for row in brows]
    for arow in arows:
        terms = [(a, bints[k]) for k, a in arow if bints[k]]
        den_a = math.lcm(*[a.denominator for a, _ in terms])
        acc = [0] * ncols
        for a, row in terms:
            a = a.numerator * (den_a // a.denominator)
            for j, b in row:
                acc[j] += a * b
        den = den_a * den_b
        out.append([(j, Fraction(acc[j], den)) for j in compress(range(ncols), acc)])
    return out


def _rref(field, rows, ncols: int):
    """The RREF of sparse rows of field elements: (sparse rows, pivot columns).

    GF(p) eliminates ints mod p and Q runs fraction-free on integer rows, each
    boxing every nonzero entry once at the end.  Q(i) runs Q on the real form,
    whose RREF is the real form of the Q(i) RREF: its pivots come in pairs
    (2p, 2p + 1), and its row with pivot 2p reads back as the row with pivot p.
    """
    if not rows:
        return [], []
    if isinstance(field, GaussianRationalField):
        real, pivots = _rref(QQ, _real_form(rows), 2 * ncols)
        out = list(map(_complex_row, real[: len(pivots) : 2]))
        return out + [()] * (len(rows) - len(out)), [pc // 2 for pc in pivots[::2]]
    if isinstance(field, PrimeField):
        p = field.p
        ints = [_gf_row(row, ncols) for row in rows]
        pivots = _eliminate_gf(ints, p, reduced=True)
        return [[(j, FpElement(p, v)) for j, v in enumerate(row) if v] for row in ints], pivots
    ints = [_scale_rational_row(row, ncols) for row in rows]
    pivots = _eliminate_int(ints, reduced=True)
    out = [[(j, Fraction(v, row[pc])) for j, v in enumerate(row) if v] for row, pc in zip(ints, pivots)]
    return out + [()] * (len(rows) - len(pivots)), pivots  # rows past the rank are zero


def _eliminate_int(rows, reduced: bool) -> list[int]:
    """Fraction-free (Bareiss) elimination of integer rows in place; returns the pivots.

    Bareiss sets row_i = (piv*row_i - m*row_r) / prev for the pivot piv of row
    r, m = row_i[c] and the previous pivot prev; the division is exact and
    entries stay minors of the input.  Here a row with m = 0 is left alone,
    standing for its Bareiss row times den[i] / prev, with den[i] the pivot
    at which it last changed: its next step divides by den[i], and a stale
    pivot row is first scaled by prev / den[r].  Without `reduced` only rows
    below r are cleared (enough for the rank); with it every other row is
    too, and each pivot row over its pivot entry is a row of the RREF.
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
        rowr = rows[r]
        if den[r] != prev:
            rowr = rows[r] = [a * prev // den[r] for a in rowr]
        piv = den[r] = rowr[c]
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            m = row[c]
            if m and i != r:
                d = den[i]
                # rows below r are zero left of c, as row r is
                for j in range(0 if i < r else c + 1, ncols):
                    row[j] = (piv * row[j] - m * rowr[j]) // d
                row[c] = 0
                den[i] = piv
        prev = piv
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
    any entry is rejected with PrimeDenominatorError.
    """
    if not isinstance(matrix.field, RationalField):
        raise FieldMismatch("modular rank certificate needs a rational matrix")
    primes = list(primes)
    if not primes:
        raise ValueError("no primes supplied")
    return max(matrix.map_entries(lambda a: a, GF(p)).rank() for p in primes)
