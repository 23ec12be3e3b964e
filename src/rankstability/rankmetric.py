"""Normalized rank distances: strict, flexible (corner-embedded), and map-level.

For square matrices A (n-by-n) and B (m-by-m) the flexible distance embeds
both as top-left corners of a common ambient zero matrix and measures

    rank(A_hat - B_hat) / min(n, m).

The value can exceed 1 when the dimensions differ a lot; for invertible
inputs it is always at least |n - m| / min(n, m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, SingularMatrixError
from .exactfield import DenseMatrix

__all__ = ["RankDistance", "strict_distance", "flexible_distance", "map_distance", "MapDistance",
           "report_json"]


def report_json(report) -> dict:
    """The JSON form of a report dataclass, one key per field.

    A field is written under the `json` name in its metadata, if it has one,
    or else under its own name; a `json` name of None leaves it out.  None,
    bools, ints and strings stay as they are, tuples become lists, nested
    reports go through their own `to_json`, and exact scalars become strings.
    """
    out = {}
    # not dataclasses.fields(), which also skips ClassVars (no report has one):
    # the tuple it builds per call changed when the cyclic collector ran, and
    # with that the benchmark's peak RSS
    for f in report.__dataclass_fields__.values():
        name = f.metadata.get("json", f.name)
        if name is not None:
            out[name] = _json_value(getattr(report, f.name))
    return out


def _json_value(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return str(value)


@dataclass(frozen=True)
class RankDistance:
    """An exact normalized rank: numerator = rank, denominator = min dimension."""

    numerator: int
    denominator: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_json(self) -> dict:
        return {"num": self.numerator, "den": self.denominator, "value": str(self.value)}

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


def strict_distance(a: DenseMatrix, b: DenseMatrix, require_invertible: bool = False) -> RankDistance:
    """rank(a - b)/n for same-dimension square matrices.

    Invertibility of the inputs is only checked on request: differences of
    invertible matrices are arbitrary matrices, and callers routinely take
    distances between those.
    """
    if not (a.is_square() and b.is_square()):
        raise DimensionMismatch("strict distance needs square matrices")
    if a.rows == 0 or b.rows == 0:
        raise DimensionMismatch("the normalized metric is undefined in dimension zero")
    if a.shape != b.shape:
        raise DimensionMismatch(f"strict distance across {a.shape} vs {b.shape}")
    if require_invertible:
        n = a.rows
        if a.rank() != n or b.rank() != n:
            raise SingularMatrixError("strict distance requested between invertible matrices")
    return RankDistance((a - b).rank(), a.rows)


def flexible_distance(a: DenseMatrix, b: DenseMatrix) -> RankDistance:
    """Corner-embed both matrices and take rank of the difference over min(n, m)."""
    if not (a.is_square() and b.is_square()):
        raise DimensionMismatch("flexible distance needs square matrices")
    if a.rows == 0 or b.rows == 0:
        raise DimensionMismatch("the normalized metric is undefined in dimension zero")
    n, m = a.rows, b.rows
    big = max(n, m)
    diff = a.pad(big, big) - b.pad(big, big)
    return RankDistance(diff.rank(), min(n, m))


@dataclass(frozen=True)
class MapDistance:
    """Basis-level distance between two maps given on a common basis.

    `pointwise` is the exact maximum over basis elements.  The supremum over
    the whole algebra is not enumerable, but it is bounded above by
    `basis_count * pointwise`; that product is reported as `uniform_bound` so
    the pair brackets the true supremum.
    """

    per_element: tuple
    pointwise: RankDistance
    uniform_bound: Fraction
    mode: str

    to_json = report_json


def _images_of(rep):
    images = getattr(rep, "images", rep)
    return list(images)


def map_distance(phi, psi, mode: str = "strict") -> MapDistance:
    """Max distance over a shared basis, with the linearity-scaled upper bound."""
    imgs_a = _images_of(phi)
    imgs_b = _images_of(psi)
    if len(imgs_a) != len(imgs_b):
        raise DimensionMismatch(
            f"basis lengths differ: {len(imgs_a)} vs {len(imgs_b)}"
        )
    if mode == "strict":
        dists = tuple(strict_distance(a, b) for a, b in zip(imgs_a, imgs_b))
    elif mode == "flexible":
        dists = tuple(flexible_distance(a, b) for a, b in zip(imgs_a, imgs_b))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    worst = max(dists, key=lambda d: d.value)
    m = len(dists)
    return MapDistance(dists, worst, Fraction(m) * worst.value, mode)
