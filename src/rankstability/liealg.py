"""Chevalley bases of sl_r, structure constants, and almost-representation defects.

The basis of sl_r is realized concretely by elementary matrices:

    y_a = E_{ji}   (negative root vectors, one per pair i < j),
    h_t = E_{tt} - E_{t+1,t+1}   (coroots of the simple roots),
    x_a = E_{ij}   (positive root vectors),

ordered y_1..y_m, h_1..h_ell, x_1..x_m with the positive roots sorted by
(height, leftmost index).  Structure constants come from actual matrix
commutators re-read off the elementary-matrix coordinates, and the root values
alpha_a(h_t) are read off that table, which eliminates sign-convention
bookkeeping and works over any field (no trace pairing).

An AlmostRep assigns one square matrix per basis element.  Its pointwise
defect is the exact maximum, over basis pairs, of the normalized rank of

    [phi(z_i), phi(z_j)] - phi([z_i, z_j]);

by linearity the defect over the whole algebra is at most dim(g)^2 times the
pointwise value, so the pair (pointwise, scaled bound) brackets the true
supremum, which no finite enumeration can reach.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import DimensionMismatch, FieldMismatch
from .exactfield import QQ, QQI, DenseMatrix, ExactField, GaussianRational, product_sum
from .prng import XorShift64Star
from .rankmetric import RankDistance, report_json

__all__ = [
    "ChevalleyBasis",
    "build_sl",
    "AlmostRep",
    "DefectReport",
    "pointwise_defect",
    "sampled_defect",
    "complexify",
    "irreducible_sl2",
    "direct_sum_rep",
    "adjoint_rep",
    "almostrep_to_text",
    "almostrep_from_text",
]


class ChevalleyBasis:
    """The ordered basis of sl_r together with its structure constant table."""

    def __init__(self, r: int):
        if r < 2:
            raise ValueError("sl_r needs r >= 2")
        self.r = r
        self.ell = r - 1
        # positive roots e_i - e_j (i < j), sorted by (height, leftmost index)
        self.root_pairs = sorted(
            ((i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)),
            key=lambda p: (p[1] - p[0], p[0]),
        )
        self.m = len(self.root_pairs)
        self.dim = 2 * self.m + self.ell

        def E(i, j):
            return tuple(
                tuple(1 if (a == i and b == j) else 0 for b in range(1, r + 1))
                for a in range(1, r + 1)
            )

        def H(t):
            return tuple(
                tuple(
                    (1 if (a == b == t) else -1 if (a == b == t + 1) else 0)
                    for b in range(1, r + 1)
                )
                for a in range(1, r + 1)
            )

        mats = [E(j, i) for (i, j) in self.root_pairs]
        mats += [H(t) for t in range(1, r)]
        mats += [E(i, j) for (i, j) in self.root_pairs]
        self.matrices = tuple(mats)

        labels = [f"y{a + 1}" for a in range(self.m)]
        labels += [f"h{t + 1}" for t in range(self.ell)]
        labels += [f"x{a + 1}" for a in range(self.m)]
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}
        if r == 2:  # the classical aliases
            self._index.setdefault("f", 0)
            self._index.setdefault("h", 1)
            self._index.setdefault("e", 2)

        self._table: dict[tuple[int, int], dict[int, int]] = {}
        mats = [DenseMatrix(QQ, m) for m in self.matrices]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entry = self.coordinates_of(mats[i] * mats[j] - mats[j] * mats[i])
                self._table[(i, j)] = entry
                self._table[(j, i)] = {k: -c for k, c in entry.items()}
            self._table[(i, i)] = {}

        # alpha_a(h_t), read off the bracket [h_t, x_a] = alpha_a(h_t) x_a
        m, ell = self.m, self.ell
        self.root_on_coroot = tuple(
            tuple(self._table[(m + t, m + ell + a)].get(m + ell + a, 0) for t in range(ell))
            for a in range(m)
        )

    # -- index helpers -------------------------------------------------------

    def index_of(self, label: str) -> int:
        return self._index[label]

    def label(self, idx: int) -> str:
        return self.labels[idx]

    @property
    def negative_indices(self):
        return range(0, self.m)

    @property
    def cartan_indices(self):
        return range(self.m, self.m + self.ell)

    @property
    def positive_indices(self):
        return range(self.m + self.ell, self.dim)

    def classify(self, idx: int) -> tuple[str, int]:
        """('y'|'h'|'x', position within its block)."""
        if idx < self.m:
            return ("y", idx)
        if idx < self.m + self.ell:
            return ("h", idx - self.m)
        return ("x", idx - self.m - self.ell)

    # -- coordinates and brackets ---------------------------------------------

    def _coords_int(self, mat) -> dict[int, int]:
        r = self.r
        if sum(mat[i][i] for i in range(r)) != 0:
            raise ValueError("matrix has nonzero trace, not in sl_r")
        coords: dict[int, int] = {}
        pair_pos = {p: a for a, p in enumerate(self.root_pairs)}
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                v = mat[i - 1][j - 1]
                if i == j or not v:
                    continue
                if i < j:
                    coords[self.m + self.ell + pair_pos[(i, j)]] = v
                else:
                    coords[pair_pos[(j, i)]] = v
        partial = 0
        for t in range(1, r):
            partial += mat[t - 1][t - 1]
            if partial:
                coords[self.m + t - 1] = partial
        return coords

    def coordinates_of(self, matrix) -> dict[int, int]:
        """Coordinates of an integer r-by-r trace-zero matrix in the basis."""
        def as_int(x):
            fx = Fraction(x)
            if fx.denominator != 1:
                raise ValueError(f"entry {x} is not an integer")
            return fx.numerator

        if isinstance(matrix, DenseMatrix):
            rows = tuple(
                tuple(as_int(x) for x in matrix.row(i)) for i in range(matrix.rows)
            )
        else:
            rows = tuple(tuple(as_int(x) for x in row) for row in matrix)
        if len(rows) != self.r or any(len(row) != self.r for row in rows):
            raise DimensionMismatch(f"expected a {self.r}x{self.r} matrix")
        return self._coords_int(rows)

    def bracket_table(self, i: int, j: int) -> dict[int, int]:
        return self._table[(i, j)]

    def bracket_coords(self, a, b) -> dict[int, object]:
        """Commutator in basis coordinates; inputs are indices or coordinate maps."""
        ca = self._normalize_coords(a)
        cb = self._normalize_coords(b)
        out: dict[int, object] = {}
        for i, va in ca.items():
            if not va:
                continue
            for j, vb in cb.items():
                if not vb:
                    continue
                for k, c in self._table[(i, j)].items():
                    cur = out.get(k)
                    term = va * vb * c
                    out[k] = term if cur is None else cur + term
        return {k: v for k, v in out.items() if v}

    def _normalize_coords(self, a) -> dict[int, object]:
        return {a: 1} if isinstance(a, int) else a

    def realization(self, idx: int, field: ExactField) -> DenseMatrix:
        return DenseMatrix(field, self.matrices[idx])

    def __repr__(self):
        return f"ChevalleyBasis(sl_{self.r})"


@functools.cache
def build_sl(r: int) -> ChevalleyBasis:
    return ChevalleyBasis(r)


@dataclass(eq=False)
class AlmostRep:
    """A linear map from a fixed Chevalley basis into n-by-n matrices."""

    algebra: ChevalleyBasis
    field: ExactField
    dim: int
    images: tuple
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(self.images) != self.algebra.dim:
            raise DimensionMismatch(
                f"need {self.algebra.dim} images, got {len(self.images)}"
            )
        for img in self.images:
            if img.shape != (self.dim, self.dim):
                raise DimensionMismatch("image dimensions disagree")
            if img.field != self.field:
                raise FieldMismatch("image field disagrees")
        self.images = tuple(self.images)

    def apply_coords(self, coords) -> DenseMatrix:
        """Image of a coordinate vector under the linear extension."""
        coords = self.algebra._normalize_coords(coords)
        out = DenseMatrix.zeros(self.field, self.dim, self.dim)
        for i, c in coords.items():
            if c:
                out = out + self.images[i].scale(c)
        return out


@dataclass(frozen=True)
class DefectReport:
    """Pointwise defect plus the linearity-scaled bound for the full supremum."""

    pointwise: RankDistance
    uniform_bound: Fraction
    worst_pair: tuple
    dim: int = dc_field(metadata={"json": None})

    to_json = report_json


def _commutator_defect(x, y, neg_x, neg_bracket, ident) -> DenseMatrix:
    """x y - y x - phi([x, y]), given -x and the images summing to -phi([x, y])."""
    return product_sum([(x, y), (y, neg_x), *[(m, ident) for m in neg_bracket]])


def pointwise_defect(rep: AlmostRep) -> DefectReport:
    """Exact max over basis pairs of rk([phi(z_i), phi(z_j)] - phi([z_i, z_j]))."""
    alg = rep.algebra
    ident = DenseMatrix.identity(rep.field, rep.dim)
    best = 0
    worst = ("", "")
    for i in range(alg.dim):
        mi, neg_i = rep.images[i], -rep.images[i]  # one negated image alive at a time
        for j in range(i + 1, alg.dim):
            neg_bracket = [rep.images[k].scale(-c) for k, c in alg.bracket_table(i, j).items()]
            r = _commutator_defect(mi, rep.images[j], neg_i, neg_bracket, ident).rank()
            if r > best:
                best = r
                worst = (alg.label(i), alg.label(j))
    pw = RankDistance(best, rep.dim)
    return DefectReport(pw, Fraction(alg.dim**2) * pw.value, worst, rep.dim)


def sampled_defect(rep: AlmostRep, trials: int, seed: int) -> DefectReport:
    """Defect maximized over random coordinate pairs.

    Always a lower bound for the supremum over the algebra; unlike the
    pointwise defect it carries no guarantee relative to the basis maximum.
    """
    alg = rep.algebra
    ident = DenseMatrix.identity(rep.field, rep.dim)
    rng = XorShift64Star(seed)
    best = 0
    worst = ("sample", "sample")
    for _ in range(trials):
        x = {i: rng.randint(-3, 3) for i in range(alg.dim)}
        y = {i: rng.randint(-3, 3) for i in range(alg.dim)}
        mx, my = rep.apply_coords(x), rep.apply_coords(y)
        neg_bracket = [-rep.apply_coords(alg.bracket_coords(x, y))]
        best = max(best, _commutator_defect(mx, my, -mx, neg_bracket, ident).rank())
    pw = RankDistance(best, rep.dim)
    return DefectReport(pw, Fraction(alg.dim**2) * pw.value, worst, rep.dim)


def complexify(rep: AlmostRep) -> AlmostRep:
    """Reinterpret a rational almost-representation over Q(i).

    The images are unchanged entrywise, so the basis defect is unchanged;
    over complex linear combinations the defect grows by at most a factor 4,
    and distances between extended maps grow by at most a factor 2.
    """
    if rep.field != QQ:
        raise FieldMismatch("complexify starts from a rational representation")
    images = tuple(
        img.map_entries(lambda a: GaussianRational(a), QQI) for img in rep.images
    )
    meta = dict(rep.meta)
    meta["complexified"] = True
    return AlmostRep(rep.algebra, QQI, rep.dim, images, meta)


def irreducible_sl2(d: int, field: ExactField = QQ) -> AlmostRep:
    """The (d+1)-dimensional simple highest-weight representation of sl_2.

    Weight basis v_0..v_d with h v_k = (d-2k) v_k, f v_k = v_{k+1} and
    e v_k = k(d-k+1) v_{k-1}; a true representation, so its defect is zero.
    """
    if d < 0:
        raise ValueError("the highest weight must be a nonnegative integer")
    alg = build_sl(2)
    n = d + 1
    fmat = DenseMatrix.from_entries(field, n, n, {(k + 1, k): 1 for k in range(d)})
    hmat = DenseMatrix.diagonal(field, [d - 2 * k for k in range(n)])
    emat = DenseMatrix.from_entries(field, n, n, {(k - 1, k): k * (d - k + 1) for k in range(1, n)})
    return AlmostRep(alg, field, n, (fmat, hmat, emat), {"tag": "irreducible_sl2", "d": d})


def direct_sum_rep(partition, field: ExactField = QQ) -> AlmostRep:
    """Block-diagonal sum of irreducible sl_2 representations L(d_i)."""
    parts = list(partition)
    if not parts:
        raise ValueError("empty partition")
    reps = [irreducible_sl2(d, field) for d in parts]
    images = tuple(first.direct_sum(*rest) for first, *rest in zip(*[rep.images for rep in reps]))
    return AlmostRep(
        build_sl(2), field, images[0].rows, images, {"tag": "direct_sum", "partition": tuple(parts)}
    )


def adjoint_rep(algebra: ChevalleyBasis, field: ExactField = QQ) -> AlmostRep:
    """The adjoint representation assembled from the structure constants."""
    d = algebra.dim
    images = []
    for i in range(d):
        entries = {(k, j): c for j in range(d) for k, c in algebra.bracket_table(i, j).items()}
        images.append(DenseMatrix.from_entries(field, d, d, entries))
    return AlmostRep(algebra, field, d, tuple(images), {"tag": "adjoint"})


# -- serialization ---------------------------------------------------------------


def almostrep_to_text(rep: AlmostRep) -> str:
    import json

    header = {
        "algebra": f"sl{rep.algebra.r}",
        "field": rep.field.tag,
        "dim": rep.dim,
        "tag": rep.meta.get("tag"),
    }
    if "weight" in rep.meta:
        header["lambda"] = [str(w) for w in rep.meta["weight"]]
    if "n" in rep.meta:
        header["n"] = rep.meta["n"]
    blocks = [json.dumps(header, sort_keys=True)]
    for img in rep.images:
        blocks.append(img.to_text().rstrip("\n"))
    return "\n\n".join(blocks) + "\n"


def almostrep_from_text(text: str) -> AlmostRep:
    import json

    blocks = [b for b in text.split("\n\n") if b.strip()]
    try:
        header = json.loads(blocks[0])
        algebra = build_sl(int(header["algebra"][2:]))
        dim = int(header["dim"])
    except (IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"AlmostRep text lacks a header with algebra and dim: {exc!r}") from None
    images = tuple(DenseMatrix.from_text(b) for b in blocks[1:])
    if len(images) != algebra.dim:
        raise ValueError(f"AlmostRep text has {len(images)} matrix blocks, not {algebra.dim}")
    field = images[0].field
    meta = {"tag": header.get("tag")}
    if "lambda" in header:
        meta["weight"] = tuple(field.coerce(s) for s in header["lambda"])
    if "n" in header:
        meta["n"] = header["n"]
    return AlmostRep(algebra, field, dim, images, meta)
