"""Shared oracles for the test suite.

The rank oracle below is deliberately independent of the package's
elimination kernels: it enumerates square minors by Laplace expansion and
reports the largest size with a nonvanishing determinant.
"""

import re
from itertools import combinations

from rankstability.exactfield import DenseMatrix


def det_laplace(rows):
    """Determinant by first-row cofactor expansion; rows of field elements."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        minor = [
            [row[c] for c in range(n) if c != j]
            for row in rows[1:]
        ]
        term = a * det_laplace(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]  # the field's zero
    return total


def rank_by_minors(matrix) -> int:
    """Largest k such that some k-by-k minor of the matrix is nonzero."""
    rows, cols = matrix.rows, matrix.cols
    data = [list(matrix.row(i)) for i in range(rows)]
    for k in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[data[i][j] for j in csel] for i in rsel]
                if det_laplace(sub):
                    return k
    return 0


def deltas(mapping) -> dict:
    """The {j: {(i, k): value}} nonzeros of tau(j) - I that TauFamily takes, from {j: tau(j)}."""
    return {j: (m - DenseMatrix.identity(m.field, m.rows)).nonzeros() for j, m in mapping.items()}


def token_prefixes(text: str) -> list:
    """The text cut just before each of its whitespace-separated tokens."""
    return [text[: m.start()] for m in re.finditer(r"\S+", text)]
