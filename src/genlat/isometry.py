"""Isometry certificates, generator constructions and exact spinor norms.

Matrices act on coordinate columns; ``compose(A, B)`` applies B first.
The spinor norm of M is the sign of det(P^T G M P) for a fixed integer
frame P spanning a maximal positive-definite subspace, so the
orientation bookkeeping is done entirely in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from . import intmat
from .errors import (
    BadTransvectionData,
    DegenerateFrame,
    LatticeMismatch,
    NonIntegralReflection,
    NotAnIsometry,
)
from .lattice import (
    Block,
    HClass,
    Lattice,
    json_field,
    json_int_rows,
    lattice_from_spec,
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
        if self.lattice is not x.lattice and self.lattice != x.lattice:
            raise LatticeMismatch("class and isometry live over different lattices")
        return HClass(self.lattice, self.apply(x.coords))

    def determinant(self) -> int:
        return intmat.det(self.matrix)

    def inverse(self) -> "Isometry":
        # M^-1 = G^-1 M^T G; integral because G is unimodular
        ginv = _gram_inverse(self.lattice)
        m = intmat.matmul(ginv, intmat.matmul(intmat.transpose(self.matrix), self.lattice.gram))
        return Isometry(self.lattice, m)

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.spec,
            "matrix": [list(row) for row in self.matrix],
        }

    def __repr__(self) -> str:
        return f"Isometry({self.lattice.spec!r}, rank={self.lattice.rank})"


@lru_cache(maxsize=None)
def _gram_inverse(lattice: Lattice) -> intmat.Matrix:
    return intmat.inverse_unimodular(lattice.gram)


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, intmat.identity(lattice.rank))


def verify_isometry(lattice: Lattice, matrix) -> Isometry:
    """Return the certificate iff M^T G M = G holds exactly.

    Every entry of M^T G M is computed and compared with G; the sparse
    products only skip terms with a zero factor.
    """
    m = tuple(tuple(map(int, row)) for row in matrix)
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise NotAnIsometry(f"matrix must be {n}x{n}")
    g = lattice.gram
    # G is symmetric, so the rows of M^T G are (G m_j)^T for the columns m_j
    mt_g = tuple(lattice.gram_apply(col) for col in intmat.transpose(m))
    check = intmat.matmul(mt_g, m)
    if check != g:
        i, j = next(
            (i, j) for i in range(n) for j in range(n) if check[i][j] != g[i][j]
        )
        raise NotAnIsometry(
            f"(M^T G M)[{i}][{j}] = {check[i][j]}, expected {g[i][j]}",
            entry=(i, j),
        )
    return Isometry(lattice, m)


def compose(a: Isometry, b: Isometry) -> Isometry:
    """Apply b first, then a."""
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatch("cannot compose isometries over different lattices")
    return Isometry(a.lattice, intmat.matmul(a.matrix, b.matrix))


def fixes_class(m: Isometry, x: HClass) -> bool:
    if m.lattice is not x.lattice and m.lattice != x.lattice:
        raise LatticeMismatch("class and isometry live over different lattices")
    return m.apply(x.coords) == x.coords


def reflection(lattice: Lattice, v: HClass) -> Isometry:
    """The reflection x -> x - 2(x.v)/v^2 * v, when it is integral."""
    if v.lattice is not lattice and v.lattice != lattice:
        raise LatticeMismatch("vector lives over a different lattice")
    v2 = v.square()
    if v2 == 0:
        raise NonIntegralReflection("cannot reflect in a vector of square zero")
    gv = lattice.gram_apply(v.coords)
    coeffs = []
    for i, pairing in enumerate(gv):
        num = 2 * pairing
        if num % v2 != 0:
            raise NonIntegralReflection(
                f"2(x.v)/v^2 is not integral on basis vector {i}"
            )
        coeffs.append(-(num // v2))
    m = intmat.identity_plus(lattice.rank, [(v.coords, coeffs)])
    return verify_isometry(lattice, m)


def eichler_transvection(lattice: Lattice, u: HClass, v: HClass) -> Isometry:
    """E_{u,v}: x -> x + (x.v)u - (x.u)v - v^2/2 (x.u)u.

    Needs u isotropic, u orthogonal to v and v of even square; the
    result is unipotent with spinor norm +1.
    """
    for y in (u, v):
        if y.lattice is not lattice and y.lattice != lattice:
            raise LatticeMismatch("vector lives over a different lattice")
    if u.square() != 0:
        raise BadTransvectionData("u must be isotropic")
    if u.dot(v) != 0:
        raise BadTransvectionData("u and v must be orthogonal")
    v2 = v.square()
    if v2 % 2 != 0:
        raise BadTransvectionData("v must have even square")
    gu = lattice.gram_apply(u.coords)
    gv = lattice.gram_apply(v.coords)
    h = v2 // 2
    minus_z = tuple(-(a + h * b) for a, b in zip(v.coords, u.coords))
    m = intmat.identity_plus(lattice.rank, [(u.coords, gv), (minus_z, gu)])
    return verify_isometry(lattice, m)


def minus_identity_on_blocks(lattice: Lattice, block_indices) -> Isometry:
    """-id on the chosen blocks, identity elsewhere."""
    flip = set()
    for b in block_indices:
        flip.update(lattice.block_range(b))
    n = lattice.rank
    m = tuple(
        tuple((-1 if r in flip else 1) * int(i == r) for i in range(n))
        for r in range(n)
    )
    return verify_isometry(lattice, m)


# -- spinor norm --------------------------------------------------------------

@dataclass(frozen=True)
class SpinorFrame:
    """Integer columns spanning a fixed maximal positive-definite subspace."""

    lattice: Lattice
    matrix: intmat.Matrix  # rank x sig_pos

    @cached_property
    def _pt_gram(self) -> intmat.Matrix:
        """P^T G, one row G p per frame column p (G is symmetric)."""
        return tuple(
            self.lattice.gram_apply(col) for col in intmat.transpose(self.matrix)
        )


def make_frame(lattice: Lattice, columns) -> SpinorFrame:
    cols = [tuple(c.coords) if isinstance(c, HClass) else tuple(c) for c in columns]
    if len(cols) != lattice.sig_pos:
        raise DegenerateFrame(
            f"frame needs {lattice.sig_pos} columns, got {len(cols)}"
        )
    p = tuple(tuple(col[r] for col in cols) for r in range(lattice.rank))
    frame = SpinorFrame(lattice, p)
    # Sylvester: positive definite iff every leading principal minor is > 0
    minors = intmat.leading_minors(intmat.matmul(frame._pt_gram, p))
    if any(d <= 0 for d in minors):
        raise DegenerateFrame("frame is not positive definite")
    return frame


@lru_cache(maxsize=None)
def canonical_frame(lattice: Lattice) -> SpinorFrame:
    """One positive column e_i + f_i per rank-2 block; mutually orthogonal."""
    cols = []
    for i, b in enumerate(lattice.blocks):
        if b is not Block.MINUS_E8:
            start = lattice.block_offsets[i]
            col = [0] * lattice.rank
            col[start] = 1
            col[start + 1] = 1
            cols.append(tuple(col))
    return make_frame(lattice, cols)


def spinor_norm(frame: SpinorFrame, m: Isometry) -> int:
    """+1 iff m preserves the orientation of the positive part."""
    if frame.lattice is not m.lattice and frame.lattice != m.lattice:
        raise LatticeMismatch("frame and isometry live over different lattices")
    b = intmat.matmul(frame._pt_gram, intmat.matmul(m.matrix, frame.matrix))
    d = intmat.det(b)
    if d == 0:
        raise DegenerateFrame("det(P^T G M P) = 0; input is not an isometry")
    return 1 if d > 0 else -1


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
    if m.lattice != surface.lattice:
        raise LatticeMismatch("isometry is not over the surface model lattice")
    nu = spinor_norm(canonical_frame(surface.lattice), m)
    if surface.is_k3:
        return Realizability.REALIZABLE if nu == 1 else Realizability.NOT_REALIZABLE
    if nu == 1 and fixes_class(m, surface.k):
        return Realizability.REALIZABLE
    return Realizability.UNKNOWN


def isometry_from_json_dict(doc: dict) -> Isometry:
    lat = lattice_from_spec(json_field(doc, "lattice"))
    return verify_isometry(lat, json_int_rows(json_field(doc, "matrix"), "matrix"))
