"""Exact scalar fields and dense matrices with exact rank computation.

Scalars live in one of three domains: the rationals, the Gaussian rationals
Q(i), or a prime field GF(p).  All arithmetic is exact.  Floating point is
deliberately rejected everywhere: matrix rank is a discontinuous function of
the entries, so approximate pivoting could silently change every quantity
this package certifies.

Rank over Q runs fraction-free (Bareiss) elimination on row-scaled integer
matrices, which keeps intermediate entries as minors of the input instead of
letting numerators and denominators compound.  Rank over Q(i) runs the same
kernel on the real form: M = A + iB has half the rank over Q of the block
matrix [[A, -B], [B, A]].  Rank over GF(p) is ordinary modular elimination.

The public ``DenseMatrix(field, rows)``, ``map_entries`` and ``from_text`` are
the coercion boundary.  Every matrix a kernel method builds itself is wrapped
from entries that are already field elements, without coercing them again,
and sums, differences and eliminations skip zero operands.
"""

from __future__ import annotations

import math
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

    @property
    def zero(self):
        return self.from_int(0)

    @property
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

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    f = _GF_CACHE.get(p)
    if f is None:
        f = PrimeField(p)
        _GF_CACHE[p] = f
    return f


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
# Dense matrices


class DenseMatrix:
    """Immutable dense matrix over an exact field.

    Entries are stored row-major as a tuple of row tuples.  All operations
    return new matrices; instances are safe to share between threads.  The
    constructor coerces every entry into the field; kernel results come from
    ``_from_rows``, which trusts its field elements and keeps the column
    count of matrices without rows.
    """

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: ExactField, rows):
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.rows = len(data)
        self.cols = ncols
        self._data = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_rows(cls, field: ExactField, rows, cols: int) -> "DenseMatrix":
        """Wrap rows of `cols` elements of `field` without coercing or checking."""
        m = object.__new__(cls)
        m.field, m.cols, m._data = field, cols, tuple(map(tuple, rows))
        m.rows = len(m._data)
        return m

    @classmethod
    def identity(cls, field: ExactField, n: int) -> "DenseMatrix":
        one, zero = field.one, field.zero
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls._from_rows(field, rows, n)

    @classmethod
    def zeros(cls, field: ExactField, rows: int, cols: int) -> "DenseMatrix":
        return cls._from_rows(field, [(field.zero,) * cols] * rows, cols)

    @classmethod
    def diagonal(cls, field: ExactField, entries) -> "DenseMatrix":
        entries = [field.coerce(x) for x in entries]
        n = len(entries)
        zero = field.zero
        return cls._from_rows(
            field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)], n
        )

    @classmethod
    def elementary(cls, field: ExactField, rows: int, cols: int, i: int, j: int, value=1):
        zero = field.zero
        data = [[zero] * cols for _ in range(rows)]
        data[i][j] = field.coerce(value)
        return cls._from_rows(field, data, cols)

    # -- access --------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        return self._data[i][j]

    def row(self, i: int):
        return self._data[i]

    def column(self, j: int):
        return tuple(row[j] for row in self._data)

    def row_lists(self):
        """Mutable copy of the entries, for elimination routines."""
        return [list(row) for row in self._data]

    # -- algebra -------------------------------------------------------------

    def _check_same(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError(f"expected a matrix, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return self._from_rows(
            self.field,
            [
                [a + b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            self.cols,
        )

    def __sub__(self, other):
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return self._from_rows(
            self.field,
            [
                [a - b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            self.cols,
        )

    def __neg__(self):
        rows = [[-a if a else a for a in row] for row in self._data]
        return self._from_rows(self.field, rows, self.cols)

    def scale(self, c):
        c = self.field.coerce(c)
        rows = [[c * a if a else a for a in row] for row in self._data]
        return self._from_rows(self.field, rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            self._check_same(other)
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} * {other.shape}")
            zero = self.field.zero
            nonzeros = [[(j, b) for j, b in enumerate(brow) if b] for brow in other._data]
            out = []
            for arow in self._data:
                acc = [zero] * other.cols
                for a, bnz in zip(arow, nonzeros):
                    if a:
                        for j, b in bnz:
                            acc[j] = acc[j] + a * b
                out.append(acc)
            return self._from_rows(self.field, out, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self):
        return self._from_rows(self.field, list(zip(*self._data)) or [()] * self.cols, self.rows)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._data)

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
        return hash((self.field, self._data))

    def direct_sum(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same(other)
        zero = self.field.zero
        out = []
        for row in self._data:
            out.append(row + (zero,) * other.cols)
        for row in other._data:
            out.append((zero,) * self.cols + row)
        return self._from_rows(self.field, out, self.cols + other.cols)

    def pad(self, rows: int, cols: int) -> "DenseMatrix":
        """Embed into the top-left corner of a rows-by-cols zero matrix."""
        if rows < self.rows or cols < self.cols:
            raise DimensionMismatch("pad target is smaller than the matrix")
        zero = self.field.zero
        out = [row + (zero,) * (cols - self.cols) for row in self._data]
        out += [(zero,) * cols] * (rows - self.rows)
        return self._from_rows(self.field, out, cols)

    def submatrix(self, rows, cols) -> "DenseMatrix":
        """The entries at the given row and column indices, in the given order."""
        cols = list(cols)
        return self._from_rows(self.field, [[self._data[i][j] for j in cols] for i in rows], len(cols))

    def map_entries(self, fn, field: ExactField | None = None) -> "DenseMatrix":
        f = field or self.field
        return self._from_rows(f, [[f.coerce(fn(a)) for a in row] for row in self._data], self.cols)

    # -- elimination kernels ---------------------------------------------------

    def rank(self) -> int:
        rows = [row for row in self._data if any(row)]
        if not rows:
            return 0
        keep = [j for j in range(self.cols) if any(row[j] for row in rows)]
        if len(keep) < self.cols:
            rows = [[row[j] for j in keep] for row in rows]
        else:
            rows = [list(row) for row in rows]
        f = self.field
        if isinstance(f, PrimeField):
            return _rank_gf([[a.v for a in row] for row in rows], f.p)
        if isinstance(f, RationalField):
            return _rank_bareiss_int([_scale_rational_row(row) for row in rows])
        # M = A + iB acts on x + iy as (Ax - By) + i(Bx + Ay): the real form
        # [[A, -B], [B, A]] has twice the Q(i)-rank of M.
        real = []
        for row in rows:
            re, im = [a.re for a in row], [a.im for a in row]
            real += [re + [-b for b in im], im + re]
        return _rank_bareiss_int([_scale_rational_row(row) for row in real]) // 2

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple)."""
        rows = self.row_lists()
        pivots = _rref_in_place(rows, self.field)
        return self._from_rows(self.field, rows, self.cols), tuple(pivots)

    def inverse(self) -> "DenseMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        one, zero = self.field.one, self.field.zero
        aug = [
            list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(self._data)
        ]
        pivots = _rref_in_place(aug, self.field)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return self._from_rows(self.field, [row[n:] for row in aug], n)

    def kernel_basis(self) -> "DenseMatrix":
        """Matrix whose columns span the right null space.

        The column count equals cols - rank; a full-rank square input yields
        a matrix with zero columns.
        """
        rows = self.row_lists()
        pivots = _rref_in_place(rows, self.field)
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        one, zero = self.field.one, self.field.zero
        cols = []
        for fc in free:
            vec = [zero] * self.cols
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            cols.append(vec)
        return self._from_rows(self.field, list(zip(*cols)) or [()] * self.cols, len(cols))

    def column_space_basis(self) -> "DenseMatrix":
        """Original columns indexed by the pivot columns of the RREF."""
        rows = self.row_lists()
        pivots = _rref_in_place(rows, self.field)
        basis = [[row[j] for j in pivots] for row in self._data]
        return self._from_rows(self.field, basis, len(pivots))

    def solve_right(self, rhs: "DenseMatrix") -> "DenseMatrix":
        """Some X with self * X = rhs, or ValueError when inconsistent."""
        self._check_same(rhs)
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"{self.shape} X = {rhs.shape}")
        n, w = self.cols, rhs.cols
        aug = [list(ra) + list(rb) for ra, rb in zip(self._data, rhs._data)]
        pivots = _rref_in_place(aug, self.field)
        for r, pc in enumerate(pivots):
            if pc >= n:
                raise ValueError("inconsistent linear system")
        zero = self.field.zero
        out = [[zero] * w for _ in range(n)]
        for r, pc in enumerate(pivots):
            for j in range(w):
                out[pc][j] = aug[r][n + j]
        return self._from_rows(self.field, out, w)

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        f = self.field
        lines = [f"{self.rows} {self.cols} {f.tag}"]
        for row in self._data:
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
            data = [[field.parse_scalar(tokens) for _ in range(cols)] for _ in range(rows)]
        except StopIteration:
            raise ValueError("matrix text is truncated") from None
        if next(tokens, None) is not None:
            raise ValueError("matrix text has tokens after its last entry")
        return cls._from_rows(field, data, cols)

    def __repr__(self):
        f = self.field
        body = "; ".join(
            " ".join(f.format_scalar(a) for a in row) for row in self._data[:6]
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
    data = [sum((m.row(i) for m in mats), ()) for i in range(nrows)]
    return DenseMatrix._from_rows(field, data, sum(m.cols for m in mats))


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


# -- elimination internals ------------------------------------------------------


def _rref_in_place(rows, field) -> list[int]:
    """Reduce to RREF with exact division; returns the pivot column list."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        if piv != field.one:
            rows[r] = [a / piv if a else a for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [a - m * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _scale_rational_row(row):
    den = 1
    for a in row:
        den = den * a.denominator // math.gcd(den, a.denominator)
    ints = [a.numerator * (den // a.denominator) for a in row]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _rank_bareiss_int(rows) -> int:
    """Fraction-free elimination over Z; entries stay minors of the input."""
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        if r >= nrows:
            break
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rowr = rows[r]
        for i in range(r + 1, nrows):
            rowi = rows[i]
            ric = rowi[c]
            for j in range(c + 1, ncols):
                rowi[j] = (piv * rowi[j] - ric * rowr[j]) // prev
            rowi[c] = 0
        prev = piv
        r += 1
    return r


def _rank_gf(rows, p: int) -> int:
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv_row = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                piv_row = i
                break
        if piv_row is None:
            continue
        rows[r], rows[piv_row] = rows[piv_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rowr = [a * inv % p for a in rows[r]]
        rows[r] = rowr
        for i in range(r + 1, nrows):
            m = rows[i][c] % p
            if m:
                rowi = rows[i]
                rows[i] = [(a - m * b) % p for a, b in zip(rowi, rowr)]
        r += 1
    return r


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
