"""Isometry certificates, generator constructions and exact spinor norms.

Matrices act on coordinate columns; ``compose(A, B)`` applies B first.
Every Isometry is checked exactly against M^T G M = G by its
constructor, so no certificate, whether composed, inverted or built
outside the package, holds a matrix that fails it.  It keeps only the
non-zero entries of D = M - I, so the check, ``apply`` and the spinor
norm cost what D holds, not n^2.  The spinor norm of
M is the sign of det(P^T G M P) for the fixed integer frame P of
canonical_frame, one column e_s + f_s per rank-2 block, spanning a
maximal positive-definite subspace; the orientation bookkeeping is done
entirely in exact integer arithmetic.
Reflections and Eichler transvections are known here only, as terms
I + sum a b^T that the reduction engine applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, compress

from . import intmat
from .errors import (
    BadTransvectionData,
    NonIntegralReflection,
    NotAnIsometry,
)
from .lattice import (
    Block,
    HClass,
    Lattice,
    as_tuple,
    check_ints,
    check_json_lattice,
    check_same_lattice,
    json_field,
    json_int_rows,
)


@dataclass(frozen=True)
class Isometry:
    """An integer matrix certificate M with M^T G M = G, checked exactly
    when it is made; the rows are stored as a tuple of tuples.

    The check is exact and deterministic; nothing is sampled.  Write
    M = I + D.  A row that is the shared row object of intmat.identity is
    not read; every other row must hold exact ints, and its entries of D
    are kept by row and by column.  E = M^T G M - G is symmetric, and its
    row i is h^T + (g_i + h)^T D with g_i = G e_i and h = G d_i, d_i
    column i of D.  An unmoved column has d_i = 0 and row g_i^T D, the
    mirror of the rows of moved columns; so only those are computed, from
    the sparse Gram rows and D, and must vanish.  A non-square shape, a
    non-int entry or a failed check is NotAnIsometry, naming the first
    wrong entry of M^T G M.
    """

    lattice: Lattice
    matrix: intmat.Matrix

    def __post_init__(self):
        m = tuple(map(tuple, self.matrix))
        n = self.lattice.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise NotAnIsometry(f"matrix must be {n}x{n}")
        eye = intmat.identity(n)
        rows, cols = {}, {}  # the non-zero entries of D = M - I, by row and by column
        for r, row in enumerate(m):
            if row is eye[r]:
                continue
            check_ints(row, NotAnIsometry, "the matrix")
            if row != eye[r]:
                d = list(row)
                d[r] -= 1
                rows[r] = [(j, d[j]) for j in compress(range(n), d)]
                for j, x in rows[r]:
                    cols.setdefault(j, []).append((r, x))
        grows = self.lattice._gram_rows
        wrong = []
        for i in sorted(cols):
            h = {}  # G d_i
            for r, x in cols[i]:
                for j, g in grows[r]:
                    h[j] = h.get(j, 0) + g * x
            e = dict(h)  # row i of E: h^T, plus g_i^T D and h^T D
            for r, x in chain(grows[i], h.items()):
                for j, y in rows.get(r, ()):
                    e[j] = e.get(j, 0) + x * y
            if any(e.values()):
                j = min(j for j, x in e.items() if x)
                # the first wrong entry in row-major order is the first of
                # (i, j) and its mirror (j, i) over the moved rows
                wrong.append((min((i, j), (j, i)), e[j]))
        if wrong:
            (i, j), diff = min(wrong)
            want = self.lattice.gram[i][j]
            raise NotAnIsometry(f"(M^T G M)[{i}][{j}] = {want + diff}, expected {want}", entry=(i, j))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_moved", cols)

    def apply(self, coords) -> intmat.Vector:
        """M x = x + D x, over the moved columns only."""
        out = list(coords)
        for i, col in self._moved.items():
            for r, x in col:
                out[r] += coords[i] * x
        return tuple(out)

    def __call__(self, x: HClass) -> HClass:
        check_same_lattice(self.lattice, x.lattice)
        return HClass(self.lattice, self.apply(x.coords))

    def inverse(self) -> "Isometry":
        # M^-1 = G^-1 M^T G; integral because G is unimodular
        lat = self.lattice
        mt_g = intmat.matmul(intmat.transpose(self.matrix), lat.gram)
        return Isometry(lat, intmat.matmul(lat.gram_inverse, mt_g))

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.spec,
            "matrix": [list(row) for row in self.matrix],
        }

    def __repr__(self) -> str:
        return f"Isometry({self.lattice.spec!r}, rank={self.lattice.rank})"


def verify_isometry(lattice: Lattice, matrix) -> Isometry:
    """The certificate for rows from outside the package: NotAnIsometry unless
    they are an n x n matrix of exact ints passing the constructor's check."""
    return Isometry(lattice, matrix)


def compose(a: Isometry, b: Isometry) -> Isometry:
    """Apply b first, then a."""
    check_same_lattice(a.lattice, b.lattice)
    return Isometry(a.lattice, intmat.matmul(a.matrix, b.matrix))


def fixes_class(m: Isometry, x: HClass) -> bool:
    check_same_lattice(m.lattice, x.lattice)
    return m.apply(x.coords) == x.coords


def reflection(lattice: Lattice, v: HClass) -> Isometry:
    """The reflection x -> x - 2(x.v)/v^2 * v, when it is integral."""
    check_same_lattice(lattice, v.lattice)
    m = intmat.identity_plus(lattice.rank, _reflection_terms(lattice, v.coords))
    return Isometry(lattice, m)


def _reflection_terms(lattice: Lattice, v) -> list:
    """The reflection in the coordinate vector v as [(v, c)], for
    I + v c^T with c = -2 G v / v^2; NonIntegralReflection unless c is integral."""
    v2 = lattice.pair(v, v)
    if v2 == 0:
        raise NonIntegralReflection("cannot reflect in a vector of square zero")
    gv = lattice.gram_apply(v)
    bad = next((i for i, p in enumerate(gv) if 2 * p % v2), None)
    if bad is not None:
        raise NonIntegralReflection(f"2(x.v)/v^2 is not integral on basis vector {bad}")
    return [(v, [-(2 * p // v2) for p in gv])]


def eichler_transvection(lattice: Lattice, u: HClass, v: HClass) -> Isometry:
    """E_{u,v}: x -> x + (x.v)u - (x.u)v - v^2/2 (x.u)u.

    Needs u isotropic, u orthogonal to v and v of even square; the
    result is unipotent with spinor norm +1.
    """
    for y in (u, v):
        check_same_lattice(lattice, y.lattice)
    m = intmat.identity_plus(lattice.rank, _transvection_terms(lattice, u.coords, v.coords))
    return Isometry(lattice, m)


def _transvection_terms(lattice: Lattice, u, v) -> list:
    """E_{u,v} = I + u (Gv)^T - (v + (v^2/2) u) (Gu)^T as its two terms (a, b),
    for coordinate vectors; BadTransvectionData unless u.u = u.v = 0, v.v even."""
    pair = lattice.pair
    if pair(u, u) != 0:
        raise BadTransvectionData("u must be isotropic")
    if pair(u, v) != 0:
        raise BadTransvectionData("u and v must be orthogonal")
    v2 = pair(v, v)
    if v2 % 2 != 0:
        raise BadTransvectionData("v must have even square")
    h = v2 // 2
    minus_z = tuple(-(a + h * b) for a, b in zip(v, u))
    return [(u, lattice.gram_apply(v)), (minus_z, lattice.gram_apply(u))]


def minus_identity_on_blocks(lattice: Lattice, block_indices) -> Isometry:
    """-id on the chosen blocks, identity elsewhere."""
    m = intmat.identity_rows(lattice.rank)
    for b in as_tuple(block_indices, "block indices"):
        for r in lattice.block_range(b):
            m[r][r] = -1
    return Isometry(lattice, m)


# -- spinor norm --------------------------------------------------------------

@lru_cache(maxsize=None)
def canonical_frame(lattice: Lattice) -> tuple[tuple[int, int], ...]:
    """The frame P with one column p = e_s + f_s per rank-2 block at offset
    s, as the pairs (s, c) with G p = e_s + c e_{s+1}: c = 1 on H, 2 on H'.

    The columns are mutually orthogonal, of square 1 + c, so D = P^T G P
    is a positive diagonal and P spans a maximal positive-definite
    subspace by construction.
    """
    return tuple(
        (s, sum(b.gram[1]))  # c = (G p)[s + 1], row 1 of the block Gram times (1, 1)
        for b, s in zip(lattice.blocks, lattice.block_offsets)
        if b is not Block.MINUS_E8
    )


def spinor_norm(m: Isometry) -> int:
    """+1 iff m preserves the orientation of the positive part: the sign
    of det B, B = P^T G M P over canonical_frame.

    Column b of B pairs each G p_a = e_s + c e_{s+1} with M p_b = p_b +
    d_s + d_{s+1}, d_s column s of M - I: it is (1 + c) e_b, from p_b^2,
    plus the pairings of G p_a with the non-zero entries of d_s and
    d_{s+1}.  Expanding det B along a column equal to d e_b with d > 0
    leaves d times the minor without row and column b, so every such
    index is dropped, and one determinant over the rest gives the sign.
    A frame column that M fixes gives (1 + c) e_b and is dropped without
    being computed.
    """
    moved = m._moved
    frame = canonical_frame(m.lattice)
    kept = {}  # b -> column b of B
    for b, (s, cb) in enumerate(frame):
        if s not in moved and s + 1 not in moved:
            continue
        z = [0] * m.lattice.rank  # d_s + d_{s+1}
        for r, x in moved.get(s, []) + moved.get(s + 1, []):
            z[r] += x
        col = [z[t] + c * z[t + 1] for t, c in frame]
        col[b] += 1 + cb
        if col[b] <= 0 or col.count(0) < len(col) - 1:
            kept[b] = col
    det = intmat.det([[col[a] for a in kept] for col in kept.values()])
    return 1 if det > 0 else -1  # det B != 0: M is an isometry


class Realizability(Enum):
    REALIZABLE = "REALIZABLE"
    NOT_REALIZABLE = "NOT_REALIZABLE"
    UNKNOWN = "UNKNOWN"


def realizability(surface, m: Isometry) -> Realizability:
    """Is m induced by an orientation-preserving self-diffeomorphism?

    For the K3 surface the image of the diffeomorphism group equals the
    spinor-norm-1 subgroup, so the answer is two-valued.  For every
    other elliptic surface the image is only known to contain the
    k-fixing spinor-norm-1 subgroup, so a miss returns UNKNOWN.
    """
    check_same_lattice(surface.lattice, m.lattice)
    nu = spinor_norm(m)
    if surface.is_k3:
        return Realizability.REALIZABLE if nu == 1 else Realizability.NOT_REALIZABLE
    if nu == 1 and fixes_class(m, surface.k):
        return Realizability.REALIZABLE
    return Realizability.UNKNOWN


def isometry_from_json_dict(doc: dict, lattice: Lattice) -> Isometry:
    check_json_lattice(doc, lattice)
    return verify_isometry(lattice, json_int_rows(json_field(doc, "matrix"), "matrix"))
