"""Constructive reduction of classes to canonical representatives.

Every certificate built here is a product of Eichler transvections,
with at most one reflection in a vector of negative square appended, so
it has spinor norm +1 by construction.  It is built in one engine pass
and checked once before release, in _result: exactly as an isometry,
with its image, its spinor norm and the basis classes it must fix.

The core engine works on an even acting sublattice containing a target
hyperbolic pair (e1, f1) and a helper pair (e2, f2); the remaining
acting blocks form L0.  Writing x = a e1 + b f1 + c e2 + g f2 + w with
w in L0, x^2 = 2 det N + w^2 for the 2x2 integer matrix
N = [[a, c], [-g, b]].  The four transvections of the pair block act on
N as elementary row and column additions, which generate exactly
N -> L N R with L, R in SL2(Z), and leave w alone; two more shapes
trade material between (a, b) and w.  The reduction is staged, and
builds its certificate as it goes:

1. if all four pair coordinates vanish, one transvection pulls a
   non-zero pairing of w into a;
2. Euclid in SL2(Z) diagonalizes N, one Bezout step per clear;
3. one transvection with v built from gcds alone (no factoring) makes
   gcd(a, b) = 1 without disturbing anything else;
4. with the gcd equal to 1, one closed-form pair (L, R) reaches
   N = diag(1, ab);
5. a single transvection E_{f1, w} absorbs the leftover w.

Stages 2 and 4 are each applied as one pair-block step: their SL2(Z)
steps multiply out to N -> L N R, applied once to the class and to the
pair rows of the certificate.  Every other step left-multiplies the
class and the certificate by a low-rank term I + sum a b^T from
isometry.py: a transvection, and on elliptic surfaces the reflection in
R - T that swaps R and T and, on the sphere path, phi = E_{k, -a R},
the last step.  The engine keeps only the certificate rows a step has
changed, as dicts; the other rows are the shared identity row objects.

The class ends at e1 + s f1 with 2s its square; scaling by the
divisibility d gives the canonical form d(e1 + s' f1) in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from . import intmat
from .errors import (
    InvariantViolation,
    NeedTwoHyperbolicPlanes,
    NotOrthogonalToK,
    ParseError,
    PreconditionFailed,
    ZeroClass,
)
from .isometry import (
    Isometry,
    _reflection_terms,
    _transvection_terms,
    eichler_transvection,
    fixes_class,
    spinor_norm,
    verify_isometry,
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
    json_ints,
)


@dataclass(frozen=True)
class ReductionResult:
    """A verified reduction: certificate maps input to canonical.  The
    spinor norm and the k/W flags are read off the certificate; a
    lattice with no basis vector named k (or W) counts as fixing it."""

    input: HClass
    canonical: HClass
    certificate: Isometry

    @cached_property
    def spinor(self) -> int:
        return spinor_norm(self.certificate)

    @cached_property
    def fixes_k(self) -> bool:
        return self._fixes("k")

    @cached_property
    def fixes_W(self) -> bool:
        return self._fixes("W")

    def _fixes(self, name: str) -> bool:
        lat = self.certificate.lattice
        return name not in lat.basis_names or fixes_class(self.certificate, lat.basis_class(name))

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.input.lattice.spec,
            "input": list(self.input.coords),
            "canonical": list(self.canonical.coords),
            "certificate": [list(row) for row in self.certificate.matrix],
            "spinor": self.spinor,
            "fixes_k": self.fixes_k,
            "fixes_W": self.fixes_W,
        }


def reduction_result_from_json_dict(doc: dict, lattice: Lattice) -> ReductionResult:
    """Load a result over lattice, checking its claims: the certificate is
    an isometry mapping input to canonical, with the stated spinor and
    fixes_k/W."""
    check_json_lattice(doc, lattice)
    cert = verify_isometry(lattice, json_int_rows(json_field(doc, "certificate"), "certificate"))
    spinor = json_field(doc, "spinor")
    fixes = [json_field(doc, key) for key in ("fixes_k", "fixes_W")]
    if type(spinor) is not int or not all(type(f) is bool for f in fixes):
        raise ParseError("spinor must be an integer, fixes_k and fixes_W JSON booleans")
    x = lattice.hclass(json_ints(json_field(doc, "input"), "input"))
    canonical = lattice.hclass(json_ints(json_field(doc, "canonical"), "canonical"))
    if cert.apply(x.coords) != canonical.coords:
        raise ParseError("the certificate does not map input to canonical")
    res = ReductionResult(x, canonical, cert)
    if (res.spinor, res.fixes_k, res.fixes_W) != (spinor, *fixes):
        raise ParseError("spinor, fixes_k or fixes_W disagrees with the certificate")
    return res


# -- 2x2 steps in SL2(Z) --------------------------------------------------------

def _mul2(x, y):
    """The 2x2 integer product x y."""
    (a, b), (c, d) = x
    (p, q), (r, s) = y
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _clear(p: int, q: int):
    """The SL2(Z) matrix sending the column (p, q) != 0 to (g, 0), g =
    gcd(p, q): ((u, v), (-q/g, p/g)) with u p + v q = g, or, when p
    divides q, the lower-triangular +-((1, 0), (-q/p, 1)), which on the
    left changes row 1 by the sign of p alone."""
    if p and q % p == 0:
        s = 1 if p > 0 else -1
        return ((s, 0), (-s * (q // p), s))
    g = math.gcd(p, q)
    p, q = p // g, q // g
    u = pow(p, -1, abs(q))
    return ((u, (1 - u * p) // q), (-q, p))


def diagonalize_ops(matrix):
    """SL2(Z) steps ("L", E) for N -> E N and ("R", E) for N -> N E that
    take the 2x2 matrix N to diagonal form, and that form.

    The steps preserve the determinant and the gcd of the entries, and
    leave the corner non-zero unless N = 0.  If column 1 is zero, one
    rotation moves column 2 into it; then n10 is cleared from the left
    and n01 from the right in turn.  That loop ends without a round cap:
    the first clear makes the corner c positive, and a later clear either
    finds c dividing the entry, when its lower-triangular step leaves
    the other off-diagonal entry at zero, or replaces c by a proper
    divisor of c.
    """
    n = (tuple(matrix[0]), tuple(matrix[1]))
    steps = []

    def put(side, e):
        nonlocal n
        steps.append((side, e))
        n = _mul2(e, n) if side == "L" else _mul2(n, e)

    if n[0][0] == n[1][0] == 0 and (n[0][1] or n[1][1]):
        put("R", ((0, -1), (1, 0)))
    while n[1][0] or n[0][1]:
        if n[1][0]:
            put("L", _clear(n[0][0], n[1][0]))
        if n[0][1]:
            # the transpose of a clear clears row 1 from the right
            (u, v), (x, y) = _clear(*n[0])
            put("R", ((u, x), (v, y)))
    return steps, n


def _unit_corner(a: int, b: int):
    """The SL2(Z) steps taking diag(a, b), gcd(a, b) = 1, to diag(1, ab):
    none when a = 1, else, with s a + t b = 1, L = _clear(a, b) and
    R = ((1, -t b), (1, s a))."""
    if a == 1:
        return []
    (s, t), row = _clear(a, b)
    return [("L", ((s, t), row)), ("R", ((1, -t * b), (1, s * a)))]


# -- the transvection engine ---------------------------------------------------

class _Reducer:
    """Drives one class to e1 + s f1, building its certificate as it goes."""

    def __init__(self, lattice: Lattice, coords, target_block: int, acting):
        self.lattice = lattice
        blocks = lattice.blocks
        acting = as_tuple(acting, "acting blocks")
        acting_idx = set()
        for i in acting:
            acting_idx.update(lattice.block_range(i))  # range-checks i
            if not blocks[i].is_even:
                raise PreconditionFailed("acting sublattice must consist of even blocks")
        hyper = {i for i in acting if blocks[i] is Block.HYPERBOLIC}
        if target_block in acting:
            lattice.block_range(target_block)  # refuses 1.0 and True
        if target_block not in acting or blocks[target_block] is not Block.HYPERBOLIC:
            raise PreconditionFailed(
                "target block must be a hyperbolic block inside the acting sublattice"
            )
        if len(hyper) < 2:
            raise NeedTwoHyperbolicPlanes(
                "the acting sublattice must contain two hyperbolic planes"
            )
        helper = min(i for i in hyper if i != target_block)
        self.e1 = lattice.block_offsets[target_block]
        self.f1 = self.e1 + 1
        self.e2 = lattice.block_offsets[helper]
        self.f2 = self.e2 + 1
        self.rest = sorted(acting_idx - {self.e1, self.f1, self.e2, self.f2})
        if any(coords[i] for i in range(lattice.rank) if i not in acting_idx):
            raise PreconditionFailed("class is not supported in the acting sublattice")
        self.y = list(coords)
        self.rows = {}  # r -> row r of the certificate as {j: entry}, for rows not e_r

    def step(self, terms) -> None:
        """Left-multiply the running class and the certificate by
        I + sum of a b^T over the (a, b) pairs in terms."""
        rows, y = self.rows, self.y
        updates = []
        for a, b in terms:
            bm = {}  # b^T M over the support of b
            for r in compress(range(len(b)), b):
                for j, z in rows.get(r, {r: 1}).items():
                    bm[j] = bm.get(j, 0) + b[r] * z
            updates.append((a, bm, intmat.dot(b, y)))
        for a, bm, t in updates:
            for r in compress(range(len(a)), a):
                row = rows.setdefault(r, {r: 1})
                for j, z in bm.items():
                    row[j] = row.get(j, 0) + a[r] * z
                y[r] += t * a[r]

    def move(self, u, v) -> None:
        """Apply E_{u,v} to the running class and to the certificate."""
        self.step(_transvection_terms(self.lattice, u, v))

    def block(self, steps) -> None:
        """Apply the SL2(Z) steps as one step N -> L N R, L the product of
        the "L" steps and R that of the "R" steps: to the class and to
        each certificate column the four pair rows reach.

        It is a product of transvections, because SL2(Z) is generated by
        [[1, t], [0, 1]] and [[1, 0], [t, 1]].  As row additions on the
        left (R1: row1 += t row2, R2: row2 += t row1) and column additions
        on the right (C1: col1 += t col2, C2: col2 += t col1) they stand
        for E_{e1, -t e2}, E_{f1, t f2}, E_{e1, t f2} and E_{f1, -t e2}.
        """
        if not steps:
            return
        l = r = ((1, 0), (0, 1))
        for side, e in steps:
            if side == "L":
                l = _mul2(e, l)
            else:
                r = _mul2(r, e)
        (l00, l01), (l10, l11) = l
        (r00, r01), (r10, r11) = r

        def lnr(a, b, c, g):
            # (a, b, c, g) of L N R
            x00, x01 = l00 * a - l01 * g, l00 * c + l01 * b
            x10, x11 = l10 * a - l11 * g, l10 * c + l11 * b
            return (x00 * r00 + x01 * r10, x10 * r01 + x11 * r11,
                    x00 * r01 + x01 * r11, -(x10 * r00 + x11 * r10))

        e1, f1, e2, f2 = self.e1, self.f1, self.e2, self.f2
        y = self.y
        y[e1], y[f1], y[e2], y[f2] = lnr(y[e1], y[f1], y[e2], y[f2])
        rows = ra, rb, rc, rg = [self.rows.setdefault(i, {i: 1}) for i in (e1, f1, e2, f2)]
        for j in set().union(*rows):
            ra[j], rb[j], rc[j], rg[j] = lnr(ra.get(j, 0), rb.get(j, 0), rc.get(j, 0), rg.get(j, 0))

    def pair_matrix(self) -> intmat.Matrix:
        y = self.y
        return ((y[self.e1], y[self.e2]), (-y[self.f2], y[self.f1]))

    # the five stages

    def run(self) -> None:
        y = self.y
        if not (y[self.e1] or y[self.f1] or y[self.e2] or y[self.f2]):
            # stage 1: pull a pairing of w into the e1 coordinate
            gy = self.lattice.gram_apply(y)
            i = next(i for i in self.rest if gy[i] != 0)
            self.move(self.lattice.unit_coords(self.e1), self.lattice.unit_coords(i))
        # stage 2: diagonalize the pair matrix
        steps, _ = diagonalize_ops(self.pair_matrix())
        self.block(steps)
        if y[self.e2] != 0 or y[self.f2] != 0 or y[self.e1] == 0:
            raise InvariantViolation("stage 2 left the pair matrix off diagonal")
        # stage 3: force gcd(a, b) = 1, borrowing from w
        a, b = y[self.e1], y[self.f1]
        if math.gcd(a, b) != 1:
            self.move(self.lattice.unit_coords(self.f1), self._coprime_vector(a, b))
            if math.gcd(y[self.e1], y[self.f1]) != 1:
                raise InvariantViolation("stage 3 left gcd(a, b) != 1")
        # stage 4: reach a = 1 exactly
        self.block(_unit_corner(y[self.e1], y[self.f1]))
        if y[self.e1] != 1 or y[self.e2] != 0 or y[self.f2] != 0:
            raise InvariantViolation("stage 4 did not reach a = 1")
        # stage 5: absorb w
        w = list(y)  # stage 4 left y = e1 + b f1 + w
        w[self.e1] = w[self.f1] = 0
        if any(w):
            self.move(self.lattice.unit_coords(self.f1), w)
        if any(y[i] for i in range(self.lattice.rank) if i not in (self.e1, self.f1)):
            raise InvariantViolation("stage 5 left the class outside the target block")

    def _coprime_vector(self, a: int, b: int) -> list[int]:
        # One move E_{f1, v} sends b to b + w.v - (v^2/2) a, so
        # gcd(a, b') = gcd(a, b + w.v).  Fold the pairings w.e_i into
        # cur = b + w.v one at a time, adding s (w.e_i) with s the
        # largest divisor of a coprime to cur: primes of a that do not
        # divide cur stay out, and those that do are cleared unless
        # they also divide w.e_i.
        v = [0] * self.lattice.rank
        gy = self.lattice.gram_apply(self.y)
        cur = b
        for i in self.rest:
            if not gy[i]:
                continue
            s = a
            g = math.gcd(s, cur)
            while g != 1:
                s //= g
                g = math.gcd(s, cur)
            cur += s * gy[i]
            v[i] = s
            if math.gcd(a, cur) == 1:
                return v
        # a prime dividing a, b and all pairings of w would divide the
        # whole (primitive) class, since the pairings determine w
        raise InvariantViolation("class is not primitive")

    def certificate_matrix(self) -> intmat.Matrix:
        """The rows the engine changed, and the shared identity rows elsewhere."""
        m = list(intmat.identity(self.lattice.rank))
        for r, row in self.rows.items():
            dense = [0] * len(m)
            for j, x in row.items():
                dense[j] = x
            m[r] = tuple(dense)
        return tuple(m)


def reduce_even(
    lattice: Lattice,
    x: HClass,
    target_block: int,
    acting_blocks=None,
) -> ReductionResult:
    """Map x to d(e + a f) in the target hyperbolic block.

    d is the divisibility of x and 2 d^2 a its square.  The certificate
    is a product of Eichler transvections supported in the acting
    sublattice (all even blocks by default), hence has spinor norm +1
    and is the identity elsewhere.
    """
    check_same_lattice(lattice, x.lattice)
    if x.is_zero:
        raise ZeroClass("cannot reduce the zero class")
    if acting_blocks is None:
        acting_blocks = [i for i, b in enumerate(lattice.blocks) if b.is_even]
    red, d = _run(lattice, x.coords, target_block, acting_blocks)
    return _result(red, x, lattice.hclass(tuple(d * c for c in red.y)))


def _run(lattice: Lattice, coords, target_block: int, acting) -> tuple[_Reducer, int]:
    """The engine on coords divided by their divisibility d, and d.  Zero
    coords take no step, so their certificate is the identity."""
    d = math.gcd(*coords)
    red = _Reducer(lattice, [c // (d or 1) for c in coords], target_block, acting)
    if d:
        red.run()
    return red, d


def _result(red: _Reducer, x: HClass, canonical: HClass, fixed=()) -> ReductionResult:
    """The engine's certificate, checked exactly, as a reduction of x to
    canonical; InvariantViolation unless it maps x there, which keeps the
    square and the divisibility of x, has spinor norm +1 and fixes the
    basis classes named in fixed."""
    cert = Isometry(red.lattice, red.certificate_matrix())
    if cert.apply(x.coords) != canonical.coords:
        raise InvariantViolation("the certificate does not map the class to its canonical form")
    res = ReductionResult(x, canonical, cert)
    if res.spinor != 1 or not all(map(res._fixes, fixed)):
        fix = "".join(f" and fix {name}" for name in fixed)
        raise InvariantViolation(f"the certificate must have spinor norm +1{fix}")
    return res


# -- elliptic-surface entry points --------------------------------------------

_RT_BLOCK = 1  # the (R, T) hyperbolic block of every model lattice


def _run_after_k(surface, a_class: HClass) -> tuple[_Reducer, int]:
    """The engine on B, for a k + B orthogonal to k: it fixes k and W and
    takes B to d(R + s T), d the divisibility of B."""
    lattice = surface.lattice
    return _run(lattice, (0,) + a_class.coords[1:], _RT_BLOCK, range(1, len(lattice.blocks)))


def reduce_in_elliptic(surface, a_class: HClass) -> ReductionResult:
    """Reduce a class of an elliptic-surface model lattice.

    K3: any non-zero class goes to d(R + aT) with a full-lattice
    certificate of spinor norm +1.  Otherwise the class must be
    orthogonal to the canonical class, A = a k + B, and goes to
    a k + gamma R + delta T with 2 gamma delta = B^2 and
    gcd(gamma, delta) = div(B); the certificate fixes k and W.
    """
    lattice = surface.lattice
    check_same_lattice(lattice, a_class.lattice)
    if a_class.is_zero:
        raise ZeroClass("cannot reduce the zero class")
    if surface.is_k3:
        return reduce_even(lattice, a_class, _RT_BLOCK)
    if a_class.dot(surface.k) != 0:
        raise NotOrthogonalToK("class must be orthogonal to the canonical class")
    red, d = _run_after_k(surface, a_class)
    if red.y[red.f1] > 0:
        # swap R and T so that gamma carries the composite factor
        red.step(_reflection_terms(lattice, (surface.R - surface.T).coords))
    # (gamma, delta) is d(s, 1) after the swap, else d(1, s), s <= 0
    canonical = a_class.coords[0] * surface.k + d * lattice.hclass(red.y)
    return _result(red, a_class, canonical, ("k", "W"))


def phi_isometry(surface, alpha: int) -> Isometry:
    """k -> k, W -> W + alpha R, R -> R, T -> T - alpha k, id elsewhere.

    This is the Eichler transvection E_{k, -alpha R}, so it lies in the
    k-fixing spinor-norm-1 subgroup; it moves alpha k + S to S.
    """
    check_ints((alpha,), PreconditionFailed, "alpha")
    return eichler_transvection(surface.lattice, surface.k, -alpha * surface.R)


def sphere_reduction(surface, a_class: HClass) -> ReductionResult:
    """Map a class orthogonal to K with square -2 to the sphere class S.

    The engine takes B to R - T, the reflection in R - T takes that to
    S = T - R, and phi with alpha = a, the last step, takes a k + S to S.
    """
    lattice = surface.lattice
    check_same_lattice(lattice, a_class.lattice)
    if a_class.is_zero:
        raise ZeroClass("cannot reduce the zero class")
    if a_class.dot(surface.k) != 0 or a_class.square() != -2:
        raise PreconditionFailed(
            "sphere reduction needs k.A = 0 and A^2 = -2"
        )
    if a_class == surface.S:
        # S is its own form: the engine is set up but takes no step
        red = _Reducer(lattice, a_class.coords, _RT_BLOCK, range(1, len(lattice.blocks)))
    else:
        red, _ = _run_after_k(surface, a_class)
        minus_a_r = -a_class.coords[0] * surface.R
        red.step(_reflection_terms(lattice, (surface.R - surface.T).coords))
        red.step(_transvection_terms(lattice, surface.k.coords, minus_a_r.coords))
    return _result(red, a_class, surface.S, ("k",))
