"""Exact scalar fields and dense matrices with exact rank computation.

Scalars live in one of three domains: the rationals, the Gaussian rationals
Q(i), or a prime field GF(p).  All arithmetic is exact.  Floating point is
deliberately rejected everywhere: matrix rank is a discontinuous function of
the entries, so approximate pivoting could silently change every quantity
this package certifies.

Products and eliminations over GF(p) and Q run on plain Python ints and box
each result entry once.  GF(p) accumulates products of representatives and
eliminates modulo p.  Q puts rows over common denominators: a product
accumulates integer numerators, and elimination is fraction-free (Bareiss)
on row-scaled integer rows, which keeps intermediate entries as minors of
the input instead of letting numerators and denominators compound.  Rank
runs the forward half of each elimination, and Gauss-Jordan (behind ``rref``,
``inverse``, ``kernel_basis``, ``column_space_basis`` and ``solve_right``)
the reduced form.  Q(i) products and Gauss-Jordan eliminations stay on boxed
``GaussianRational`` scalars; Q(i) rank runs the integer kernel on the real
form: M = A + iB has half the rank over Q of the block matrix [[A, -B], [B, A]].

The public ``DenseMatrix(field, rows)``, ``map_entries`` and ``from_text`` are
the coercion boundary.  Every matrix a kernel method builds itself is wrapped
from entries that are already field elements, without coercing them again,
and sums, differences, products and eliminations skip zero operands.
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

    Entries are stored row-major as a tuple of row tuples of field elements.
    All operations return new matrices; instances are safe to share between
    threads.  The constructor coerces every entry into the field; kernel
    results come from ``_from_rows``, which trusts its field elements and
    keeps the column count of matrices without rows.  Over GF(p) and Q,
    ``*``, ``rank`` and the Gauss-Jordan methods unbox the entries to ints,
    compute on those and box each result entry once; over Q(i) they compute
    on the boxed scalars, apart from ``rank``.
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
            return self._from_rows(
                self.field, _product(self.field, self._data, other._data, other.cols), other.cols
            )
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
            return len(_eliminate_gf([[a.v for a in row] for row in rows], f.p, reduced=False))
        if isinstance(f, RationalField):
            return len(_eliminate_int([_scale_rational_row(row) for row in rows], reduced=False))
        # M = A + iB acts on x + iy as (Ax - By) + i(Bx + Ay): the real form
        # [[A, -B], [B, A]] has twice the Q(i)-rank of M.
        real = []
        for row in rows:
            re, im = [a.re for a in row], [a.im for a in row]
            real += [re + [-b for b in im], im + re]
        return len(_eliminate_int([_scale_rational_row(row) for row in real], reduced=False)) // 2

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


# -- kernel internals ------------------------------------------------------------


def _product(field, arows, brows, ncols):
    """The rows of A * B, skipping zero operands.

    GF(p) accumulates the ints a.v * b.v and boxes each entry once.  Q puts B
    over one common denominator and each row of A over its own, accumulates
    integer numerators and builds one Fraction per nonzero entry.  Q(i)
    accumulates boxed scalars.
    """
    zero = field.zero
    out = []
    if isinstance(field, PrimeField):
        p = field.p
        bnz = [[(j, b.v) for j, b in enumerate(row) if b.v] for row in brows]
        for arow in arows:
            acc = [0] * ncols
            for a, nz in zip(arow, bnz):
                a = a.v
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append([FpElement(p, v) for v in acc])
        return out
    bnz = [[(j, b) for j, b in enumerate(row) if b] for row in brows]
    if isinstance(field, RationalField):
        den_b = math.lcm(*[b.denominator for nz in bnz for _, b in nz])
        bnz = [[(j, b.numerator * (den_b // b.denominator)) for j, b in nz] for nz in bnz]
        for arow in arows:
            terms = [(a, nz) for a, nz in zip(arow, bnz) if nz and a]
            if not terms:
                out.append((zero,) * ncols)
                continue
            den_a = math.lcm(*[a.denominator for a, _ in terms])
            acc = [0] * ncols
            for a, nz in terms:
                a = a.numerator * (den_a // a.denominator)
                for j, b in nz:
                    acc[j] += a * b
            den = den_a * den_b
            out.append([Fraction(v, den) if v else zero for v in acc])
        return out
    for arow in arows:
        acc = [zero] * ncols
        for a, nz in zip(arow, bnz):
            if a:
                for j, b in nz:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out


def _rref_in_place(rows, field) -> list[int]:
    """Reduce lists of field elements to RREF in place; returns the pivot columns.

    GF(p) eliminates ints mod p and Q runs fraction-free on integer rows,
    each boxing every entry once at the end; Q(i) divides boxed scalars.
    """
    if not rows:
        return []
    if isinstance(field, PrimeField):
        p = field.p
        ints = [[a.v for a in row] for row in rows]
        pivots = _eliminate_gf(ints, p, reduced=True)
        rows[:] = [[FpElement(p, v) for v in row] for row in ints]
        return pivots
    if isinstance(field, RationalField):
        ints = [_scale_rational_row(row) for row in rows]
        pivots = _eliminate_int(ints, reduced=True)
        zero = field.zero
        for i, row in enumerate(ints):
            piv = row[pivots[i]] if i < len(pivots) else 1  # rows past the rank are zero
            rows[i] = [Fraction(v, piv) if v else zero for v in row]
        return pivots
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
    """The primitive integer row proportional to a row of fractions."""
    den = math.lcm(*[a.denominator for a in row])
    ints = [a.numerator * (den // a.denominator) for a in row]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


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
