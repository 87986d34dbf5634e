"""Independent arithmetic for the benchmark's output checks and inputs.

Nothing here calls genlat.  The Gram matrices are rebuilt from the
block tokens, products are taken over non-zero entries only, and the
expected canonical forms and genera come straight from their formulas,
so a check can fail even when the library agrees with itself.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """An output did not match its independently computed expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- block Gram matrices -------------------------------------------------------

def e8_cartan() -> list[list[int]]:
    # chain 1-2-3-4-5-6-7 with node 8 attached to node 5
    c = [[0] * 8 for _ in range(8)]
    for i in range(8):
        c[i][i] = 2
    for i, j in [(t, t + 1) for t in range(6)] + [(4, 7)]:
        c[i][j] = c[j][i] = -1
    return c


_BLOCK_GRAMS = {
    "H": [[0, 1], [1, 0]],
    "H'": [[0, 1], [1, 1]],
    "E8-": [[-x for x in row] for row in e8_cartan()],
}


class SparseGram:
    """Rows of the block-diagonal Gram as (column, value) pairs."""

    def __init__(self, tokens):
        self.rows: list[list[tuple[int, int]]] = []
        for tok in tokens:
            off = len(self.rows)
            for row in _BLOCK_GRAMS[tok]:
                self.rows.append([(off + j, v) for j, v in enumerate(row) if v])
        self.rank = len(self.rows)

    def dense(self) -> tuple[tuple[int, ...], ...]:
        out = [[0] * self.rank for _ in range(self.rank)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                out[i][j] = v
        return tuple(tuple(r) for r in out)

    def apply(self, x) -> list[int]:
        return [sum(v * x[j] for j, v in row) for row in self.rows]

    def pair(self, x, y) -> int:
        gy = self.apply(y)
        return sum(a * b for a, b in zip(x, gy) if a)

    def square(self, x) -> int:
        return self.pair(x, x)


def lattice_tokens(lattice) -> list[str]:
    return [b.value for b in lattice.blocks]


# -- matrix checks -------------------------------------------------------------

def matvec(m, x) -> list[int]:
    nz = [(j, c) for j, c in enumerate(x) if c]
    return [sum(row[j] * c for j, c in nz) for row in m]


def max_bits(m) -> int:
    return max(abs(v).bit_length() for row in m for v in row)


def is_isometry(gram: SparseGram, m) -> bool:
    """M^T G M == G, entry by entry, over the non-zeros of M."""
    n = gram.rank
    if len(m) != n or any(len(row) != n for row in m):
        return False
    cols = [[] for _ in range(n)]    # column j: (row r, value)
    by_row = [[] for _ in range(n)]  # row r: (column i, value)
    for r, row in enumerate(m):
        for j, v in enumerate(row):
            if v:
                cols[j].append((r, v))
                by_row[r].append((j, v))
    for j in range(n):
        gcol: dict[int, int] = {}
        for r, v in cols[j]:
            for s, gv in gram.rows[r]:  # G is symmetric: column r == row r
                gcol[s] = gcol.get(s, 0) + gv * v
        acc: dict[int, int] = {}
        for s, w in gcol.items():
            if w:
                for i, v in by_row[s]:
                    acc[i] = acc.get(i, 0) + v * w
        want = {i: v for i, v in gram.rows[j]}  # column j of G
        got = {i: v for i, v in acc.items() if v}
        if got != want:
            return False
    return True


def fixes_basis(m, index: int) -> bool:
    return all(row[index] == int(r == index) for r, row in enumerate(m))


# -- expected results ----------------------------------------------------------

K, W, R, T = 0, 1, 2, 3  # coordinate indices on every surface model


def expected_canonical(gram: SparseGram, a_coords) -> list[int]:
    """a k + gamma R + delta T for A = a k + B, with 2 gamma delta = B^2
    and gcd(gamma, delta) = div(B); gamma carries the composite factor
    when B^2 > 0."""
    b = list(a_coords)
    b[K] = 0
    out = [0] * gram.rank
    out[K] = a_coords[K]
    if not any(b):
        return list(a_coords)
    d = math.gcd(*b)
    sq = gram.square(b)
    expect(sq % (2 * d * d) == 0, "B^2 is not 2 d^2 s")
    s = sq // (2 * d * d)
    gamma, delta = (d * s, d) if s > 0 else (d, d * s)
    out[R], out[T] = gamma, delta
    return out


def sphere_class(rank: int) -> list[int]:
    out = [0] * rank
    out[R], out[T] = -1, 1
    return out


def adjunction_genus(sq: int, k_dot: int, d: int) -> tuple[int, bool]:
    """Lower bound from 2g - 2 >= A^2 + |K.A| with K = d k, and whether
    A^2 < 0 (then the bound does not exclude genus 0)."""
    total = sq + abs(d * k_dot)
    expect(total % 2 == 0, "A^2 + K.A is odd")
    return max(0, total // 2 + 1), sq < 0


def surface_d(n: int, p: int, q: int) -> int:
    return n * p * q - p - q


def surface_tokens(n: int, p: int, q: int) -> list[str]:
    d = surface_d(n, p, q)
    return ["H" if d % 2 == 0 else "H'"] + ["H"] * (2 * n - 2) + ["E8-"] * n


# -- seeded inputs -------------------------------------------------------------

def e8_roots(max_coeff: int) -> list[tuple[int, ...]]:
    """Roots of E8 in simple-root coordinates with entries bounded by
    max_coeff, from the Weyl orbit of a simple root."""
    c = e8_cartan()
    start = tuple(int(i == 0) for i in range(8))
    seen = {start}
    todo = [start]
    while todo:
        x = todo.pop()
        for i in range(8):
            t = sum(c[i][j] * x[j] for j in range(8))
            y = tuple(x[j] - t * int(j == i) for j in range(8))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    expect(len(seen) == 240, "E8 root count")
    return sorted(r for r in seen if max(map(abs, r)) <= max_coeff)


def small_class(rng, n: int, target_square: int, k_coeff: int, roots) -> list[int]:
    """A class on E(n)_{p,q} with W = 0, entries in [-3, 3], k = k_coeff
    and the given even square.  Every negated-E8 block holds a root or
    zero; half of the hyperbolic blocks are random and the other half
    absorb the remaining square with (1, t) pairs."""
    l = 2 * n - 2
    rank = 2 + 2 * l + 8 * n
    for _ in range(1000):
        x = [0] * rank
        x[K] = k_coeff
        half = 0  # running square / 2
        for j in range(n):
            if rng.random() < 0.4:
                off = 2 + 2 * l + 8 * j
                x[off:off + 8] = rng.choice(roots)
                half -= 1
        blocks = list(range(l))
        rng.shuffle(blocks)
        free, fix = blocks[: l // 2], blocks[l // 2:]
        for b in free:
            e, f = rng.randint(-3, 3), rng.randint(-3, 3)
            x[2 + 2 * b], x[3 + 2 * b] = e, f
            half += e * f
        rest = target_square // 2 - half
        for b in fix:
            t = max(-3, min(3, rest))
            if t:
                x[2 + 2 * b], x[3 + 2 * b] = 1, t
            else:
                x[2 + 2 * b] = rng.choice((0, 1)) * rng.randint(-3, 3)
            rest -= t
        if rest == 0 and any(x[1:]):
            return x
    raise RuntimeError("could not place the requested square")


def big_class(rng, n: int, bits: int) -> list[int]:
    """Random signed coordinates of the given bit size, W = 0."""
    rank = 2 + 2 * (2 * n - 2) + 8 * n
    x = [rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1)) for _ in range(rank)]
    x[W] = 0
    return x


def is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24 with these bases
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def random_prime(rng, lo: int, span: int) -> int:
    """A random prime in [lo, lo + span)."""
    while True:
        p = lo + rng.randrange(span) | 1
        if is_probable_prime(p):
            return p
