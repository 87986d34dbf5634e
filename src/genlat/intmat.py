"""Exact linear algebra over the integers.

Matrices are tuples of tuples of Python ints, so all arithmetic is
arbitrary precision.  Nothing in this package touches floating point:
determinant signs and inertia counts are certificates and must be exact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import mul

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


@lru_cache(maxsize=8)
def identity(n: int) -> Matrix:
    """The identity, one shared object per n: a certificate's rows that are
    these very objects are known to be unit rows without a scan."""
    return tuple(map(tuple, identity_rows(n)))


def identity_rows(n: int) -> list[list[int]]:
    """The identity as mutable rows, for building a matrix in place."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def _nonzeros(row) -> list[tuple[int, int]]:
    """(index, entry) for each non-zero entry; the scan runs in C."""
    return [(j, row[j]) for j in compress(range(len(row)), row)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Row i of the product adds up the rows of b weighted by the
    non-zero entries of row i of a, touching only non-zero entries of b.

    Finding the non-zeros is a C-level scan, so the Python-level work
    is the count of non-zero products: certificates are the identity
    plus a low-rank term and mostly zero.  A row of b is scanned when a
    non-zero entry of a first reaches it.
    """
    cols = len(b[0]) if b else 0
    rows = [None] * len(b)
    out = []
    for row in a:
        acc = [0] * cols
        for k in compress(range(len(row)), row):
            nz = rows[k]
            if nz is None:
                nz = rows[k] = _nonzeros(b[k])
            x = row[k]
            for j, y in nz:
                acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def matvec(a: Matrix, v) -> Vector:
    return tuple([sum(map(mul, row, v)) for row in a])


def vecmat(v, a: Matrix) -> Vector:
    """Row vector times matrix, over the non-zero entries only."""
    if not a:
        return ()
    acc = [0] * len(a[0])
    for k in compress(range(len(v)), v):
        x = v[k]
        for j, y in _nonzeros(a[k]):
            acc[j] += x * y
    return tuple(acc)


def identity_plus(n: int, terms) -> Matrix:
    """I + sum of a b^T over the (a, b) pairs in terms, visiting only the
    supports of a and b."""
    m = identity_rows(n)
    for a, b in terms:
        b_nz = _nonzeros(b)
        for r in compress(range(len(a)), a):
            row, x = m[r], a[r]
            for j, y in b_nz:
                row[j] += x * y
    return tuple(map(tuple, m))


def dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division is exact
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]

