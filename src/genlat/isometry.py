"""Isometry certificates, generator constructions and exact spinor norms.

Matrices act on coordinate columns; ``compose(A, B)`` applies B first.
The spinor norm of M is the sign of det(P^T G M P) for a fixed integer
frame P spanning a maximal positive-definite subspace, so the
orientation bookkeeping is done entirely in exact integer arithmetic.
Reflections and Eichler transvections are known here only, as terms
I + sum a b^T that the reduction engine applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import compress

from . import intmat
from .errors import (
    BadTransvectionData,
    DegenerateFrame,
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
    """An integer matrix certificate M with M^T G M = G."""

    lattice: Lattice
    matrix: intmat.Matrix

    @cached_property
    def _columns(self) -> intmat.Matrix:
        return intmat.transpose(self.matrix)

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


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, intmat.identity(lattice.rank))


def verify_isometry(lattice: Lattice, matrix) -> Isometry:
    """Return the certificate iff M^T G M = G holds exactly.

    The check is exact and deterministic; nothing is sampled.  The
    difference E = M^T G M - G is symmetric, and its entry
    E[i][j] = m_i^T G m_j - G[i][j] vanishes identically when the columns
    m_i and m_j are the unit columns e_i and e_j.  So every entry of E
    that can be non-zero lies in a row i, or by symmetry a column i,
    whose column m_i is not e_i.  Those rows are computed in full, as
    (G m_i)^T M, and compared with G[i]; the cost follows the columns
    the certificate moves, not n^2.
    """
    m = tuple(map(tuple, matrix))
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise NotAnIsometry(f"matrix must be {n}x{n}")
    for row in m:
        check_ints(row, NotAnIsometry, "the matrix")
    return _checked_isometry(lattice, m)


def _checked_isometry(lattice: Lattice, m: intmat.Matrix) -> Isometry:
    """The exact check of verify_isometry, for an n x n tuple of int rows.

    Certificates built in this package come here directly: they need no
    entry conversion or shape check.
    """
    n = lattice.rank
    cols = intmat.transpose(m)
    moved = [i for i, col in enumerate(cols) if not _is_unit(col, i)]
    rows = intmat.matmul([lattice.gram_apply(cols[i]) for i in moved], m)
    g = lattice.gram
    wrong = []
    for i, row in zip(moved, rows):
        if row != g[i]:
            j = next(j for j in range(n) if row[j] != g[i][j])
            # the first wrong entry in row-major order is the first of
            # (i, j) and its mirror (j, i) over the moved rows
            wrong.append((min((i, j), (j, i)), row[j], g[i][j]))
    if wrong:
        (i, j), got, want = min(wrong)
        raise NotAnIsometry(
            f"(M^T G M)[{i}][{j}] = {got}, expected {want}", entry=(i, j)
        )
    iso = Isometry(lattice, m)
    iso.__dict__["_columns"] = cols  # seeds the cached_property
    return iso


def _is_unit(col, i: int) -> bool:
    """Is col the unit column e_i?  Both scans run in C."""
    return col[i] == 1 and col.count(0) == len(col) - 1


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
    return _checked_isometry(lattice, m)


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
    return _checked_isometry(lattice, m)


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
    flip = set()
    for b in as_tuple(block_indices, "block indices"):
        flip.update(lattice.block_range(b))
    n = lattice.rank
    m = tuple(
        tuple((-1 if r in flip else 1) * int(i == r) for i in range(n))
        for r in range(n)
    )
    return _checked_isometry(lattice, m)


# -- spinor norm --------------------------------------------------------------

@dataclass(frozen=True)
class SpinorFrame:
    """Integer columns spanning a fixed maximal positive-definite subspace.

    make_frame checks a caller's columns; canonical_frame is positive
    definite by construction.
    """

    lattice: Lattice
    matrix: intmat.Matrix  # rank x sig_pos

    @cached_property
    def _sparse(self) -> tuple[tuple, tuple]:
        """(index, entry) pairs of each frame column p and of each G p."""
        cols = intmat.transpose(self.matrix)
        return (
            tuple(map(intmat._nonzeros, cols)),
            tuple(intmat._nonzeros(self.lattice.gram_apply(p)) for p in cols),
        )

    @cached_property
    def _gram(self) -> intmat.Matrix:
        """D = P^T G P, whose entry (a, b) pairs G p_a with p_b."""
        p_cols, gp_rows = self._sparse
        p, k = self.matrix, range(len(p_cols))
        return tuple(tuple(sum(g * p[j][b] for j, g in gp) for b in k) for gp in gp_rows)


def make_frame(lattice: Lattice, columns) -> SpinorFrame:
    """The frame with the given columns, classes or integer coordinate
    sequences over the lattice, once they are checked to span a
    positive-definite subspace of dimension sig_pos."""
    cols = []
    for c in as_tuple(columns, "frame columns"):
        if not isinstance(c, HClass):
            c = lattice.hclass(c)
        check_same_lattice(lattice, c.lattice)
        cols.append(c.coords)
    if len(cols) != lattice.sig_pos:
        raise DegenerateFrame(f"frame needs {lattice.sig_pos} columns, got {len(cols)}")
    p = tuple(tuple(col[r] for col in cols) for r in range(lattice.rank))
    frame = SpinorFrame(lattice, p)
    # Sylvester: positive definite iff every leading principal minor is > 0
    minors = intmat.leading_minors(frame._gram)
    if any(d <= 0 for d in minors):
        raise DegenerateFrame("frame is not positive definite")
    return frame


@lru_cache(maxsize=None)
def canonical_frame(lattice: Lattice) -> SpinorFrame:
    """One column e_i + f_i per rank-2 block.

    The columns are mutually orthogonal, of square 2 on H and 3 on H',
    so D = P^T G P is a positive diagonal matrix by construction; unlike
    make_frame, nothing is left to check at run time.
    """
    starts = [s for b, s in zip(lattice.blocks, lattice.block_offsets) if b is not Block.MINUS_E8]
    p = [[0] * len(starts) for _ in range(lattice.rank)]
    for b, s in enumerate(starts):
        p[s][b] = p[s + 1][b] = 1
    return SpinorFrame(lattice, tuple(map(tuple, p)))


def spinor_norm(frame: SpinorFrame, m: Isometry) -> int:
    """+1 iff m preserves the orientation of the positive part.

    B = P^T G M P is built a column at a time, as P^T G (M p) from the
    columns of M; a frame column p that M fixes gives the column of
    D = P^T G P.  Expanding det B along a column equal to c e_b with
    c > 0 leaves c times the minor without row and column b, so every
    such index is dropped, whatever the frame, and one determinant over
    the rest gives the sign.  On canonical_frame, D is a positive
    diagonal, so every frame column that M fixes is dropped.
    """
    check_same_lattice(frame.lattice, m.lattice)
    n = m.lattice.rank
    cols = m._columns
    d = frame._gram
    p_cols, gp_rows = frame._sparse
    bt = []  # the columns of B, i.e. the rows of B^T
    for b, p in enumerate(p_cols):
        if all(_is_unit(cols[k], k) for k, _ in p):
            bt.append(d[b])  # M p = p; D is symmetric
            continue
        mp = [0] * n
        for k, c in p:
            col = cols[k]
            for r in compress(range(n), col):
                mp[r] += c * col[r]
        bt.append(tuple(sum(g * mp[j] for j, g in gp) for gp in gp_rows))
    keep = [b for b, col in enumerate(bt) if col[b] <= 0 or col.count(0) < len(col) - 1]
    det = intmat.det([[bt[c][a] for a in keep] for c in keep])
    if det == 0:
        raise DegenerateFrame("det(P^T G M P) = 0; input is not an isometry")
    return 1 if det > 0 else -1


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
    nu = spinor_norm(canonical_frame(surface.lattice), m)
    if surface.is_k3:
        return Realizability.REALIZABLE if nu == 1 else Realizability.NOT_REALIZABLE
    if nu == 1 and fixes_class(m, surface.k):
        return Realizability.REALIZABLE
    return Realizability.UNKNOWN


def isometry_from_json_dict(doc: dict, lattice: Lattice) -> Isometry:
    check_json_lattice(doc, lattice)
    return verify_isometry(lattice, json_int_rows(json_field(doc, "matrix"), "matrix"))
