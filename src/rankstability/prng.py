"""Seeded pseudo-random generation for reproducible experiment sweeps.

The generator is xorshift64* with the multiplier 2685821657736338717.  The
algorithm is pinned (rather than deferring to the standard library) so that
sample sets can be reproduced bit-for-bit from the seed in any language:

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;  return x * 2685821657736338717

with all arithmetic modulo 2**64 and a nonzero 64-bit state.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717


class XorShift64Star:
    """xorshift64* stream; the zero seed is remapped to a fixed constant."""

    def __init__(self, seed: int):
        self._state = (int(seed) & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _MASK

    def below(self, n: int) -> int:
        """Uniform integer in [0, n).  Uses rejection to avoid modulo bias."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = _MASK - (_MASK + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


def random_matrix(field, rng: XorShift64Star, rows: int, cols: int, lo: int = -4, hi: int = 4):
    """Small random entries, drawn row by row as ints in [lo, hi], (re, im)
    pairs of them over Q(i) or residues over GF(p), and stored as drawn."""
    from .exactfield import DenseMatrix

    draw = {"gaussian": lambda: (rng.randint(lo, hi), rng.randint(lo, hi)),
            "gf": lambda: rng.below(field.p)}.get(field.kind, lambda: rng.randint(lo, hi))
    pairs = [field._row([(j, draw()) for j in range(cols)]) for _ in range(rows)]
    return DenseMatrix._from_rows(field, pairs, cols)


def random_invertible(field, rng: XorShift64Star, n: int, lo: int = -4, hi: int = 4):
    """Rejection-sample an invertible n-by-n matrix over `field`."""
    while True:
        m = random_matrix(field, rng, n, n, lo, hi)
        if m.rank() == n:
            return m


def random_unimodular(field, rng: XorShift64Star, n: int):
    """A product of 2n random transvections, returned with its exact inverse.

    Determinant-one integer conjugators keep entry sizes small under exact
    arithmetic, unlike inverses of dense random matrices whose denominators
    carry the full determinant.  The transvections act on plain ints, and
    the two products are coerced into `field` once at the end: reduction
    from the integers is a ring map, so this equals the product over `field`.
    """
    from .exactfield import DenseMatrix

    fwd = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i = rng.below(n)
        j = rng.below(n)
        if i == j:
            continue
        c = 1 if rng.below(2) else -1
        # left-multiply fwd by (I + c E_ij); right-multiply inv by (I - c E_ij)
        fwd[i] = [a + c * b for a, b in zip(fwd[i], fwd[j])]
        for row in inv:
            row[j] -= c * row[i]
    return DenseMatrix(field, fwd), DenseMatrix(field, inv)
