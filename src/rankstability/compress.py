"""Compressions of matrices onto subspaces, and their rank certificates.

A compression frame is a subspace U of F^n given by a basis (the columns of
an inclusion matrix) together with a projection of F^n onto U written in
that basis.  Compressing M through the frame keeps the corner of M seen by
U.  Three inequalities are certified for every frame:

    rank(compress(M))                          >= rank(M) - 2(n-k)
    rank(compress(M1 M2) - compress(M1) compress(M2)) <= n - k
    rank(compress_1(M) - A compress_2(M) A^-1) <= 4(n-k)

for an explicit change of basis A built from the intersection of the two
subspaces.  All three hold for every matrix, so a reported failure aborts
with diagnostics rather than returning a verdict.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field as dc_field

from .errors import BoundViolation, DimensionMismatch, SingularMatrixError
from .exactfield import DenseMatrix, hstack
from .prng import XorShift64Star, random_matrix
from .rankmetric import report_json

__all__ = [
    "CompressionFrame",
    "corner_frame",
    "random_frame",
    "compress",
    "verify_rank_lower",
    "verify_mult_defect",
    "align_compressions",
    "CompressionReport",
    "AlignmentReport",
]


@dataclass(frozen=True)
class CompressionFrame:
    """Inclusion iota (n-by-k, full column rank) and projection proj (k-by-n).

    The pair must satisfy proj * iota = I_k, which makes iota * proj an
    idempotent projector of F^n onto the column space of iota.
    """

    iota: DenseMatrix
    proj: DenseMatrix

    def __post_init__(self):
        n, k = self.iota.shape
        if k == 0:
            raise ValueError("degenerate frame: k = 0 has no normalized metric")
        if self.proj.shape != (k, n):
            raise DimensionMismatch(
                f"projection shape {self.proj.shape} does not match inclusion {self.iota.shape}"
            )
        if self.proj * self.iota != DenseMatrix.identity(self.iota.field, k):
            raise ValueError("proj * iota is not the identity")
        if self.iota.rank() != k:
            raise ValueError("inclusion does not have full column rank")

    @property
    def ambient_dim(self) -> int:
        return self.iota.rows

    @property
    def subspace_dim(self) -> int:
        return self.iota.cols

    @property
    def field(self):
        return self.iota.field


def corner_frame(field, n: int, k: int) -> CompressionFrame:
    """The first-k-coordinates frame: iota = standard basis, proj = coordinate map."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    ident = DenseMatrix.identity(field, n)
    iota = ident.submatrix(range(n), range(k))
    proj = ident.submatrix(range(k), range(n))
    return CompressionFrame(iota, proj)


def random_frame(field, n: int, k: int, rng: XorShift64Star) -> CompressionFrame:
    """A random frame whose projection is generally not orthogonal.

    The inclusion is a random full-column-rank matrix; the projection is the
    left inverse that kills a random complement, obtained by completing iota
    to an invertible matrix and inverting.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    while True:
        iota = random_matrix(field, rng, n, k)
        if iota.rank() == k:
            full = hstack([iota, random_matrix(field, rng, n, n - k)]) if n > k else iota
            with contextlib.suppress(SingularMatrixError):  # redraw both
                inv = full.inverse()
                break
    proj = inv.submatrix(range(k), range(n))
    return CompressionFrame(iota, proj)


def compress(matrix: DenseMatrix, frame: CompressionFrame) -> DenseMatrix:
    """proj * M * iota, the corner of M seen through the frame."""
    if matrix.shape != (frame.ambient_dim, frame.ambient_dim):
        raise DimensionMismatch(
            f"matrix {matrix.shape} does not fit ambient dimension {frame.ambient_dim}"
        )
    return frame.proj * matrix * frame.iota


@dataclass(frozen=True)
class CompressionReport:
    law: str
    n: int
    k: int
    lhs: int
    rhs: int
    passed: bool = dc_field(metadata={"json": "pass"})

    to_json = report_json


def verify_rank_lower(matrix: DenseMatrix, frame: CompressionFrame) -> CompressionReport:
    """Certify rank(compress(M)) >= rank(M) - 2(n-k); abort on failure."""
    n, k = frame.ambient_dim, frame.subspace_dim
    lhs = compress(matrix, frame).rank()
    rhs = matrix.rank() - 2 * (n - k)
    if lhs < rhs:
        raise BoundViolation(
            f"compression rank {lhs} fell below {rhs} = rank(M) - 2(n-k)",
            details={"matrix": matrix.to_text(), "iota": frame.iota.to_text(), "proj": frame.proj.to_text()},
        )
    return CompressionReport("rank_lower", n, k, lhs, rhs, True)


def verify_mult_defect(m1: DenseMatrix, m2: DenseMatrix, frame: CompressionFrame) -> CompressionReport:
    """Certify rank(compress(M1 M2) - compress(M1) compress(M2)) <= n - k."""
    n, k = frame.ambient_dim, frame.subspace_dim
    defect = compress(m1 * m2, frame) - compress(m1, frame) * compress(m2, frame)
    lhs = defect.rank()
    rhs = n - k
    if lhs > rhs:
        raise BoundViolation(
            f"multiplicative defect {lhs} exceeded n-k = {rhs}",
            details={"m1": m1.to_text(), "m2": m2.to_text(), "iota": frame.iota.to_text()},
        )
    return CompressionReport("mult_defect", n, k, lhs, rhs, True)


@dataclass(frozen=True)
class AlignmentReport:
    n: int
    k: int
    intersection_dim: int
    per_matrix: tuple = dc_field(metadata={"json": "ranks"})
    bound: int

    to_json = report_json


def _complete_to_invertible(partial: DenseMatrix) -> DenseMatrix:
    """Extend independent columns to a basis using standard basis vectors."""
    k = partial.rows
    basis, rank = partial, partial.rank()
    for j in range(k):
        if rank == k:
            break
        trial = hstack([basis, DenseMatrix.elementary(partial.field, k, 1, j, 0)])
        r = trial.rank()
        if r > rank:
            basis, rank = trial, r
    if rank != k:
        raise ValueError("could not complete columns to a basis")
    return basis


def align_compressions(frame1: CompressionFrame, frame2: CompressionFrame, matrices):
    """Change of basis A making two equal-dimension compressions agree up to rank 4(n-k).

    A basis of W = U1 (intersect) U2 is computed from the kernel of
    [iota1 | -iota2]; completing it inside each subspace produces bases of U1
    and U2 sharing the W part, and A is the resulting change of basis.  For
    every supplied matrix the certified inequality

        rank(compress_1(M) - A compress_2(M) A^-1) <= 4(n-k)

    is checked exactly.  A depends only on the frames, never on the matrices.
    """
    n = frame1.ambient_dim
    k = frame1.subspace_dim
    if frame2.ambient_dim != n or frame2.subspace_dim != k:
        raise DimensionMismatch("frames must share ambient and subspace dimensions")
    field = frame1.field

    stacked = hstack([frame1.iota, -frame2.iota])
    ker = stacked.kernel_basis()  # 2k x w
    w = ker.cols
    u_coords = ker.submatrix(range(k), range(w)) if w else None
    v_coords = ker.submatrix(range(k, 2 * k), range(w)) if w else None

    c1 = _complete_to_invertible(u_coords) if w else DenseMatrix.identity(field, k)
    c2 = _complete_to_invertible(v_coords) if w else DenseMatrix.identity(field, k)
    a = c1 * c2.inverse()
    a_inv = a.inverse()

    bound = 4 * (n - k)
    ranks = []
    for m in matrices:
        d = compress(m, frame1) - a * compress(m, frame2) * a_inv
        r = d.rank()
        if r > bound:
            raise BoundViolation(
                f"alignment rank {r} exceeded 4(n-k) = {bound}",
                details={"matrix": m.to_text(), "A": a.to_text()},
            )
        ranks.append(r)
    return a, AlignmentReport(n, k, w, tuple(ranks), bound)
