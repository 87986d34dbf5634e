"""Isometry certificates, generator constructions and exact spinor norms.

Matrices act on coordinate columns; ``compose(A, B)`` applies B first.
Every Isometry is checked exactly against M^T G M = G by its
constructor, so no certificate, whether composed, inverted or built
outside the package, holds a matrix that fails it.  The spinor norm of
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

    The check is exact and deterministic; nothing is sampled.  The
    difference E = M^T G M - G is symmetric, and its entry
    E[i][j] = m_i^T G m_j - G[i][j] vanishes identically when the columns
    m_i and m_j are the unit columns e_i and e_j.  So every entry of E
    that can be non-zero lies in a row i, or by symmetry a column i,
    whose column m_i is not e_i.  Those rows are computed in full, as
    (G m_i)^T M, and compared with G[i]; the cost follows the columns
    the certificate moves, not n^2, and their indices are kept for
    spinor_norm.  A non-square shape or a failed
    check is NotAnIsometry, naming the first wrong entry.
    """

    lattice: Lattice
    matrix: intmat.Matrix

    def __post_init__(self):
        m = _square_rows(self.lattice, self.matrix)
        cols = intmat.transpose(m)
        # column i is moved unless it is e_i; both scans run in C
        moved = [i for i, c in enumerate(cols) if c[i] != 1 or c.count(0) != len(c) - 1]
        rows = intmat.matmul([self.lattice.gram_apply(cols[i]) for i in moved], m)
        g = self.lattice.gram
        wrong = []
        for i, row in zip(moved, rows):
            if row != g[i]:
                j = next(j for j in range(len(row)) if row[j] != g[i][j])
                # the first wrong entry in row-major order is the first of
                # (i, j) and its mirror (j, i) over the moved rows
                wrong.append((min((i, j), (j, i)), row[j], g[i][j]))
        if wrong:
            (i, j), got, want = min(wrong)
            raise NotAnIsometry(f"(M^T G M)[{i}][{j}] = {got}, expected {want}", entry=(i, j))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_columns", cols)
        object.__setattr__(self, "_moved", frozenset(moved))

    def apply(self, coords) -> intmat.Vector:
        """M x, computed as x^T M^T over the support of x."""
        return intmat.vecmat(coords, self._columns)

    def __call__(self, x: HClass) -> HClass:
        check_same_lattice(self.lattice, x.lattice)
        return HClass(self.lattice, self.apply(x.coords))

    def inverse(self) -> "Isometry":
        # M^-1 = G^-1 M^T G; integral because G is unimodular
        lat = self.lattice
        mt_g = intmat.matmul(self._columns, lat.gram)
        return Isometry(lat, intmat.matmul(lat.gram_inverse, mt_g))

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.spec,
            "matrix": [list(row) for row in self.matrix],
        }

    def __repr__(self) -> str:
        return f"Isometry({self.lattice.spec!r}, rank={self.lattice.rank})"


def _square_rows(lattice: Lattice, matrix) -> intmat.Matrix:
    """The rows of matrix as a tuple of tuples; NotAnIsometry unless n x n."""
    m = tuple(map(tuple, matrix))
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise NotAnIsometry(f"matrix must be {n}x{n}")
    return m


def verify_isometry(lattice: Lattice, matrix) -> Isometry:
    """The certificate for rows from outside the package: NotAnIsometry unless
    they are an n x n matrix of exact ints passing the constructor's check."""
    m = _square_rows(lattice, matrix)
    for row in m:
        check_ints(row, NotAnIsometry, "the matrix")
    return Isometry(lattice, m)


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

    Column b of B pairs each G p_a = e_s + c e_{s+1} with M p_b = m_s +
    m_{s+1}, the sum of two columns of M.  Expanding det B along a column
    equal to d e_b with d > 0 leaves d times the minor without row and
    column b, so every such index is dropped, and one determinant over
    the rest gives the sign.  A frame column that M fixes gives D_bb e_b
    and is dropped without being computed.
    """
    cols, moved = m._columns, m._moved
    frame = canonical_frame(m.lattice)
    kept = {}  # b -> column b of B
    for b, (s, _) in enumerate(frame):
        if s not in moved and s + 1 not in moved:
            continue
        x, y = cols[s], cols[s + 1]
        col = [x[t] + y[t] + c * (x[t + 1] + y[t + 1]) for t, c in frame]
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
