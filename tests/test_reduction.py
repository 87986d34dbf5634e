import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlat as g
from genlat import intmat, reduction
from genlat.reduction import diagonalize_ops


# -- 2x2 Euclid in SL2(Z) --------------------------------------------------------

def _mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _lr(steps):
    """(L, R) with the steps taking N to L N R; every step lies in SL2(Z)."""
    l = r = ((1, 0), (0, 1))
    for side, e in steps:
        assert side in ("L", "R") and _det2(e) == 1
        l, r = (_mul(e, l), r) if side == "L" else (l, _mul(r, e))
    return l, r


def _replay(matrix, steps):
    l, r = _lr(steps)
    return _mul(_mul(l, matrix), r)


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _gcd4(m):
    return math.gcd(m[0][0], m[0][1], m[1][0], m[1][1])


def test_diagonalize_exhaustive_small():
    values = range(-3, 4)
    for entries in itertools.product(values, repeat=4):
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        ops, final = diagonalize_ops(m)
        assert _replay(m, ops) == final
        assert final[0][1] == 0 and final[1][0] == 0
        assert _det2(final) == _det2(m)
        assert _gcd4(final) == _gcd4(m)
        if any(entries):
            assert final[0][0] != 0


def _to_unit_corner(m):
    """diagonalize_ops, then stage 4's closed form: the steps taking m,
    with gcd 1 entries, to diag(1, det m), and their image of m."""
    ops, ((a, _), (_, b)) = diagonalize_ops(m)
    ops += reduction._unit_corner(a, b)
    return ops, _replay(m, ops)


def test_diagonalize_corner_one_exhaustive_small():
    values = range(-3, 4)
    for entries in itertools.product(values, repeat=4):
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        if _gcd4(m) != 1:
            continue
        ops, final = _to_unit_corner(m)
        assert final == ((1, 0), (0, _det2(m)))


_UP_TO_4096_BITS = st.integers(0, 4096).flatmap(
    lambda b: st.lists(st.integers(1 - 2**b, 2**b - 1), min_size=4, max_size=4)
)


@given(_UP_TO_4096_BITS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_diagonalize_large_entries(entries, corner_one):
    # b-bit entries take at most 2b + 7 steps: every clear after the first
    # that leaves work behind at least halves the positive corner
    b = max(abs(e).bit_length() for e in entries)
    m = ((entries[0], entries[1]), (entries[2], entries[3]))
    corner_one = corner_one and _gcd4(m) == 1
    ops, final = diagonalize_ops(m)
    assert _replay(m, ops) == final
    assert final[0][1] == 0 and final[1][0] == 0
    assert _det2(final) == _det2(m)
    assert _gcd4(final) == _gcd4(m)
    assert (final[0][0] != 0) == any(entries)
    if corner_one:
        ops, final = _to_unit_corner(m)
        assert final == ((1, 0), (0, _det2(m)))
    assert len(ops) <= 2 * b + 7


# -- one pair-block step against the transvections it stands for ---------------

_L3E8 = g.lattice_from_spec("3H,E8-")  # e1, f1, e2, f2 are basis vectors 0-3
_E1, _F1, _E2, _F2 = (_L3E8.basis_class(i) for i in range(4))
# row (R) and column (C) additions with step t -> (u, v) of E_{u,v}
_OP_UV = {
    "R1": lambda t: (_E1, -t * _E2),
    "R2": lambda t: (_F1, t * _F2),
    "C1": lambda t: (_E1, t * _F2),
    "C2": lambda t: (_F1, -t * _E2),
}
# the same additions as SL2(Z) steps
_OP_STEP = {
    "R1": lambda t: ("L", ((1, t), (0, 1))),
    "R2": lambda t: ("L", ((1, 0), (t, 1))),
    "C1": lambda t: ("R", ((1, 0), (t, 1))),
    "C2": lambda t: ("R", ((1, t), (0, 1))),
}


def _pair_block_isometry(steps):
    """Dense N -> L N R on the pair coordinates (a, b, c, g) of x, with
    N = [[a, c], [-g, b]], the identity elsewhere."""
    l, r = _lr(steps)
    m = [list(row) for row in intmat.identity(_L3E8.rank)]
    for j, (a, b, c, gg) in enumerate(intmat.identity(4)):
        (a, c), (mg, b) = _mul(_mul(l, ((a, c), (-gg, b))), r)
        for i, v in enumerate((a, b, c, -mg)):
            m[i][j] = v
    return g.verify_isometry(_L3E8, m)


@settings(max_examples=100)
@given(
    st.sampled_from(sorted(_OP_UV)),
    st.integers(-10**6, 10**6),
    st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4),
    st.booleans(),
    st.lists(st.integers(-5, 5), min_size=10, max_size=10).filter(any),
    st.lists(st.integers(-50, 50), min_size=14, max_size=14),
)
def test_block_is_the_product_of_its_transvections(op, t, entries, corner_one, rest, coords):
    red = reduction._Reducer(_L3E8, coords, 0, range(len(_L3E8.blocks)))
    # a start certificate whose pair row f1 reaches columns outside the block
    w = _L3E8.hclass([0] * 4 + rest)
    red.move(_F1.coords, w.coords)
    ref = g.eichler_transvection(_L3E8, _F1, w)
    assert red.certificate_matrix() == ref.matrix
    assert any(ref.matrix[1][4:])
    # an elementary step is the transvection it stands for
    red.block([_OP_STEP[op](t)])
    ref = g.compose(g.eichler_transvection(_L3E8, *_OP_UV[op](t)), ref)
    assert red.certificate_matrix() == ref.matrix
    # general steps are N -> L N R on the pair coordinates, of spinor norm +1
    m = ((entries[0], entries[1]), (entries[2], entries[3]))
    steps = _to_unit_corner(m)[0] if corner_one and _gcd4(m) == 1 else diagonalize_ops(m)[0]
    q = _pair_block_isometry(steps)
    assert g.spinor_norm(q) == 1
    red.block(steps)
    ref = g.compose(q, ref)
    assert red.certificate_matrix() == ref.matrix
    assert tuple(red.y) == ref.apply(coords)


# -- reduce_even -----------------------------------------------------------------

def _check_reduction(lattice, res, acting_indices=None):
    cert = res.certificate
    assert intmat.matvec(cert.matrix, res.input.coords) == res.canonical.coords
    assert res.canonical.square() == res.input.square()
    assert res.canonical.divisibility() == res.input.divisibility()
    assert res.spinor == 1
    assert g.spinor_norm(cert) == 1
    if acting_indices is not None:
        outside = set(range(lattice.rank)) - set(acting_indices)
        for i in outside:
            col = tuple(cert.matrix[r][i] for r in range(lattice.rank))
            row = cert.matrix[i]
            assert col == lattice.unit_coords(i)
            assert row == lattice.unit_coords(i)


def test_reduce_even_already_canonical(H2):
    x = H2.hclass([1, 3, 0, 0])
    res = g.reduce_even(H2, x, 0)
    assert res.canonical == x
    assert res.certificate.matrix == intmat.identity(4)


def test_reduce_even_spec_example(H2):
    x = H2.hclass([1, 1, 1, 1])
    res = g.reduce_even(H2, x, 0)
    assert res.canonical == H2.hclass([1, 2, 0, 0])
    _check_reduction(H2, res)
    # independent witness: a bounded exhaustive search also finds a
    # spinor-one isometry doing the same thing
    witness = g.exhaustive_isometry_search(H2, x, res.canonical, 2)
    assert witness is not None
    assert g.spinor_norm(witness) == 1


def test_reduce_even_divisible(H2):
    x = H2.hclass([2, 2, 0, 0])
    res = g.reduce_even(H2, x, 0)
    assert res.canonical == x  # primitive part e1 + f1 already canonical
    x = H2.hclass([0, 0, 2, 2])
    res = g.reduce_even(H2, x, 0)
    assert res.canonical == H2.hclass([2, 2, 0, 0])
    _check_reduction(H2, res)


def test_reduce_even_canonical_form_is_normalized(H2):
    # canonical d(e + a f): positive e coefficient, any sign on a
    for coords in [(-1, 0, 0, 0), (0, -3, 0, 0), (0, 0, 1, -1), (-2, 4, 0, 0)]:
        x = H2.hclass(coords)
        res = g.reduce_even(H2, x, 0)
        d = x.divisibility()
        a = x.square() // (2 * d * d)
        assert res.canonical == H2.hclass([d, d * a, 0, 0])
        _check_reduction(H2, res)


def test_reduce_even_with_e8_and_gcd_stage(H2E8):
    # the a = 2, b = 0 shape forces the coprime stage through the E8 block
    x = H2E8.hclass([2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    res = g.reduce_even(H2E8, x, 0)
    assert res.canonical == H2E8.hclass([1, -1] + [0] * 10)
    _check_reduction(H2E8, res)


def test_reduce_even_supports_second_target(H2):
    x = H2.hclass([1, 1, 1, 1])
    res = g.reduce_even(H2, x, 1)
    assert res.canonical == H2.hclass([0, 0, 1, 2])
    _check_reduction(H2, res)


def test_reduce_even_errors(H, H2, e3):
    with pytest.raises(g.ZeroClass):
        g.reduce_even(H2, H2.hclass((0,) * H2.rank), 0)
    with pytest.raises(g.NeedTwoHyperbolicPlanes):
        g.reduce_even(H, H.basis_class("e1"), 0)
    with pytest.raises(g.PreconditionFailed):
        g.reduce_even(H2, H2.basis_class("e1"), 5)
    # support outside the acting sublattice
    with pytest.raises(g.PreconditionFailed):
        g.reduce_even(e3.lattice, e3.k, 1, acting_blocks=range(1, 8))
    # H' is odd
    lat = g.lattice_from_spec("H',2H")
    with pytest.raises(g.PreconditionFailed, match="even blocks"):
        g.reduce_even(lat, lat.hclass([0, 0, 1, 1, 0, 0]), 1, [0, 1, 2])


@pytest.mark.parametrize("block", [99, -1, 1.0, True])
def test_reduce_even_refuses_a_bad_acting_block_index(e3, block):
    with pytest.raises(g.BadParameters):
        g.reduce_even(e3.lattice, e3.R + e3.T, 1, [1, 2, block])


def test_reduce_even_counts_each_acting_block_once(H2E8):
    # a repeated block is one hyperbolic plane, and a bare index is no list
    x = H2E8.hclass([1, 2, 3, 4] + [0] * 8)
    with pytest.raises(g.NeedTwoHyperbolicPlanes):
        g.reduce_even(H2E8, x, 0, [0, 0])
    with pytest.raises(g.BadParameters, match="must be a sequence"):
        g.reduce_even(H2E8, x, 0, 5)


def test_reduce_even_exhaustive_small_orbit(H2):
    # every in-bound vector of square 0 or 2 lands on the same canonical
    for sq in (0, 2):
        canon = None
        for x in g.enumerate_vectors(H2, sq, 1, 2):
            res = g.reduce_even(H2, x, 0)
            _check_reduction(H2, res)
            if canon is None:
                canon = res.canonical
            assert res.canonical == canon


def test_orbit_soundness_random_pairs(H2E8):
    # equal square and divisibility implies equal canonical form
    rng = random.Random(42)
    buckets = {}
    for _ in range(160):
        coords = [rng.randint(-3, 3) for _ in range(12)]
        x = H2E8.hclass(coords)
        if x.is_zero:
            continue
        res = g.reduce_even(H2E8, x, 0)
        _check_reduction(H2E8, res)
        key = (x.square(), x.divisibility())
        if key in buckets:
            assert buckets[key] == res.canonical, key
        else:
            buckets[key] = res.canonical


# -- stage 3: the coprime move --------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin; deterministic for n < 3.3e24, which covers 64 bits."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


SEMIPRIME_62 = 2147483647 * 2147483629
PRIME_120 = 2**119 + 9


def test_stage3_inputs_are_as_stated():
    assert _is_prime(2147483647) and _is_prime(2147483629)
    assert SEMIPRIME_62.bit_length() == 62 and not _is_prime(SEMIPRIME_62)
    assert PRIME_120.bit_length() == 120 and _is_prime(PRIME_120)


@pytest.mark.parametrize("n", [SEMIPRIME_62, PRIME_120], ids=["semiprime62", "prime120"])
def test_stage3_large_gcd_is_polynomial(e3, monkeypatch, n):
    # after stage 2, a = b = n: stage 3 must make them coprime, and
    # trial division up to sqrt(n) would take hours
    calls = []
    coprime_vector = reduction._Reducer._coprime_vector

    def spy(self, a, b):
        calls.append((a, b))
        return coprime_vector(self, a, b)

    monkeypatch.setattr(reduction._Reducer, "_coprime_vector", spy)
    x = e3.parse_class(f"e1={n},f1={n},e3=1")
    start = time.perf_counter()
    res = g.reduce_in_elliptic(e3, x)
    elapsed = time.perf_counter() - start
    assert calls and math.gcd(*calls[0]) == n
    assert elapsed < 0.5, f"reduction took {elapsed:.3f} s"
    # B^2 = 2 n^2 with d = 1, so gamma = n^2 and delta = 1
    assert res.canonical == n * n * e3.R + e3.T
    g.verify_isometry(e3.lattice, res.certificate.matrix)
    assert res.spinor == 1 and res.fixes_k and res.fixes_W


@settings(max_examples=40)
@given(
    st.integers(40, 64).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)),
    st.lists(st.integers(-30, 30), min_size=4, max_size=4).filter(any),
    st.lists(st.integers(-3, 3), min_size=28, max_size=28).filter(any),
)
def test_stage3_shared_large_prime(e3, start, pair, rest):
    # the four pair coordinates (e1, f1, e2, f2) share a large prime p
    # that no other coordinate has, so stage 2 leaves p | gcd(a, b)
    p = _next_prime(start)
    lat = e3.lattice
    x = lat.hclass([0, 0] + [p * c for c in pair] + rest)
    res = g.reduce_even(lat, x, 1, acting_blocks=range(1, len(lat.blocks)))
    d = x.divisibility()
    s = x.square() // (2 * d * d)
    expected = d * (lat.basis_class("e1") + s * lat.basis_class("f1"))
    assert res.canonical == expected
    cert = g.verify_isometry(lat, res.certificate.matrix)
    assert intmat.matvec(cert.matrix, x.coords) == expected.coords
    assert g.spinor_norm(cert) == 1
    assert g.fixes_class(cert, e3.k) and g.fixes_class(cert, e3.W)


# -- reduce_in_elliptic ------------------------------------------------------------

def test_reduce_in_elliptic_k_itself(e3):
    res = g.reduce_in_elliptic(e3, e3.k)
    assert res.canonical == e3.k
    assert res.certificate.matrix == intmat.identity(e3.lattice.rank)
    assert res.fixes_k and res.fixes_W


def test_reduce_in_elliptic_square_two(e3):
    a = e3.parse_class("e1=1,f1=2,e2=1,f2=-1")
    assert a.square() == 2 and a.divisibility() == 1
    res = g.reduce_in_elliptic(e3, a)
    assert res.canonical == e3.R + e3.T
    assert res.fixes_k and res.fixes_W
    _check_reduction(e3.lattice, res, acting_indices=range(2, e3.lattice.rank))


def test_reduce_in_elliptic_gamma_delta_split(e3):
    # square 4, divisibility 1: gamma carries the composite factor
    a = e3.parse_class("k=3,e2=1,f2=2")
    res = g.reduce_in_elliptic(e3, a)
    assert res.canonical == 3 * e3.k + 2 * e3.R + e3.T
    assert res.fixes_k and res.fixes_W
    _check_reduction(e3.lattice, res)


def test_reduce_in_elliptic_square_zero_and_negative(e3):
    a = e3.parse_class("k=2,e2=3")
    res = g.reduce_in_elliptic(e3, a)
    assert res.canonical == 2 * e3.k + 3 * e3.R  # delta = 0 branch
    b = e3.parse_class("x1_1=1")
    res = g.reduce_in_elliptic(e3, b)
    gamma, delta = res.canonical.coords[2], res.canonical.coords[3]
    assert 2 * gamma * delta == b.square()
    assert math.gcd(gamma, delta) == b.divisibility()


def test_reduce_in_elliptic_k3_full_lattice(k3):
    s_class = k3.S
    res = g.reduce_in_elliptic(k3, s_class)
    assert res.canonical == k3.R - k3.T  # d(R + aT) with a = -1
    assert res.spinor == 1
    a = k3.parse_class("k=1,W=2,x1_3=1")
    res = g.reduce_in_elliptic(k3, a)
    d = a.divisibility()
    s = a.square() // (2 * d * d)
    assert res.canonical == d * (k3.R + s * k3.T)
    _check_reduction(k3.lattice, res)


def test_reduce_in_elliptic_errors(e3):
    with pytest.raises(g.ZeroClass):
        g.reduce_in_elliptic(e3, e3.lattice.hclass((0,) * e3.lattice.rank))
    with pytest.raises(g.NotOrthogonalToK):
        g.reduce_in_elliptic(e3, e3.W)


# -- phi -----------------------------------------------------------------------------

def test_phi_zero_is_identity(e3):
    assert g.phi_isometry(e3, 0).matrix == intmat.identity(e3.lattice.rank)


def test_phi_certificate_properties(e3):
    phi = g.phi_isometry(e3, 2)
    assert g.spinor_norm(phi) == 1
    assert g.fixes_class(phi, e3.k)
    assert phi(e3.W) == e3.W + 2 * e3.R
    assert phi(e3.T) == e3.T - 2 * e3.k


def test_phi_maps_alpha_k_plus_s_to_s(e3):
    phi = g.phi_isometry(e3, 3)
    assert phi(3 * e3.k + e3.S) == e3.S


def test_phi_one_parameter_group(e3):
    for a in range(-3, 4):
        for b in range(-3, 4):
            lhs = g.compose(g.phi_isometry(e3, a), g.phi_isometry(e3, b))
            assert lhs.matrix == g.phi_isometry(e3, a + b).matrix


def test_phi_on_k3(k3):
    phi = g.phi_isometry(k3, 4)
    assert g.spinor_norm(phi) == 1
    assert phi(4 * k3.k + k3.S) == k3.S


# -- sphere_reduction ------------------------------------------------------------------

def test_sphere_reduction_identity_on_s(e3):
    res = g.sphere_reduction(e3, e3.S)
    assert res.canonical == e3.S
    assert res.certificate.matrix == intmat.identity(e3.lattice.rank)


def test_sphere_reduction_alpha_k_plus_s(e3):
    a = 5 * e3.k + e3.S
    res = g.sphere_reduction(e3, a)
    assert res.canonical == e3.S
    assert res.spinor == 1 and res.fixes_k
    assert not res.fixes_W  # the phi leg moves W
    assert intmat.matvec(res.certificate.matrix, a.coords) == e3.S.coords


def test_sphere_reduction_e8_class(e3):
    a = 2 * e3.k + e3.lattice.basis_class("x1_1")
    assert a.square() == -2 and a.dot(e3.k) == 0
    res = g.sphere_reduction(e3, a)
    assert res.canonical == e3.S
    assert res.spinor == 1 and res.fixes_k
    assert intmat.matvec(res.certificate.matrix, a.coords) == e3.S.coords


def test_sphere_reduction_preconditions(e3):
    with pytest.raises(g.PreconditionFailed):
        g.sphere_reduction(e3, e3.R)  # square 0
    with pytest.raises(g.PreconditionFailed):
        g.sphere_reduction(e3, e3.W)  # not orthogonal to k
    with pytest.raises(g.ZeroClass):
        g.sphere_reduction(e3, e3.lattice.hclass((0,) * e3.lattice.rank))


# -- the elliptic certificates against their composed pieces -----------------------------

def _composed_reference(surface, x, sphere):
    """The certificate and canonical form of x composed from separately
    checked pieces: the reduction of B in the blocks after (k, W), then
    the reflection in R - T when B^2 > 0 or on the sphere path, then phi
    on the sphere path."""
    lattice = surface.lattice
    a = x.coords[0]
    b = x - a * surface.k
    if b.is_zero or (sphere and x == surface.S):
        return g.Isometry(lattice, intmat.identity(lattice.rank)), x
    inner = g.reduce_even(lattice, b, 1, range(1, len(lattice.blocks))).certificate
    flip = g.reflection(lattice, surface.R - surface.T)
    if sphere:
        return g.compose(g.phi_isometry(surface, a), g.compose(flip, inner)), surface.S
    d = b.divisibility()
    s = b.square() // (2 * d * d)
    if s > 0:
        return g.compose(flip, inner), a * surface.k + d * s * surface.R + d * surface.T
    return inner, a * surface.k + d * surface.R + d * s * surface.T


def _seeded_k_orthogonal(surface, rng):
    """Classes a k + B by kind: B^2 > 0, B^2 <= 0 (B != 0), B = 0 and
    square -2; B has 2- to 40-bit entries in the hyperbolic blocks and
    a few unit ones in the E8 blocks."""
    lattice = surface.lattice
    n = lattice.rank
    e8 = 2 + 2 * surface.l  # the first E8 coordinate
    kinds = {"positive": [], "non-positive": [], "zero B": [], "sphere": []}
    while len(kinds["positive"]) < 6 or len(kinds["non-positive"]) < 6:
        bits = rng.choice([2, 8, 40])
        c = [rng.randint(-2**bits, 2**bits) if rng.random() < 0.3 else 0 for _ in range(e8)]
        c[1] = 0
        c += [rng.choice([-1, 1]) if rng.random() < 0.05 else 0 for _ in range(e8, n)]
        x = lattice.hclass(c)
        if any(c[2:]):
            kind = kinds["positive" if x.square() > 0 else "non-positive"]
            if len(kind) < 6:
                kind.append(x)
    kinds["non-positive"].append(5 * surface.k + 3 * surface.R)  # B^2 = 0
    kinds["zero B"] += [surface.k, -7 * surface.k]
    for _ in range(6):
        # B = R + y T + c e2 + m f2 + u, u in the first E8 block, y set so B^2 = -2
        v = [0] * n
        v[0], v[2], v[4], v[5] = rng.randint(-20, 20), 1, rng.randint(-30, 30), rng.randint(-30, 30)
        for j in range(8):
            v[e8 + j] = rng.randint(-3, 3)
        v[3] = (-2 - lattice.pair(v, v)) // 2
        kinds["sphere"].append(lattice.hclass(v))
    kinds["sphere"] += [surface.S, 4 * surface.k + surface.S]
    return kinds


@pytest.mark.parametrize("spec", ["E(3)", "E(6)", "E(2;2,3)"])
def test_elliptic_certificates_match_the_composed_reference(spec):
    surface = g.parse_surface(spec)
    kinds = _seeded_k_orthogonal(surface, random.Random(spec))
    for kind, classes in kinds.items():
        for x in classes:
            sphere = kind == "sphere"
            assert x.dot(surface.k) == 0 and (not sphere or x.square() == -2)
            res = (g.sphere_reduction if sphere else g.reduce_in_elliptic)(surface, x)
            cert, canonical = _composed_reference(surface, x, sphere)
            assert res.certificate.matrix == cert.matrix, (kind, x)
            assert res.canonical == canonical, (kind, x)


def test_each_reduction_is_checked_exactly_once(e3, H2E8, monkeypatch):
    calls = []
    checked = g.Isometry.__post_init__

    def spy(iso):
        calls.append(iso)
        checked(iso)

    monkeypatch.setattr(g.Isometry, "__post_init__", spy)
    cases = [
        lambda: g.reduce_even(H2E8, H2E8.hclass([3, 5, 2, -1] + [0] * 8), 0),
        lambda: g.reduce_in_elliptic(e3, e3.parse_class("k=3,e2=1,f2=2")),  # B^2 > 0
        lambda: g.reduce_in_elliptic(e3, e3.parse_class("k=2,x1_1=1")),  # B^2 < 0
        lambda: g.reduce_in_elliptic(e3, 4 * e3.k),  # B = 0
        lambda: g.sphere_reduction(e3, 5 * e3.k + e3.S),
        lambda: g.sphere_reduction(e3, e3.S),
    ]
    for case in cases:
        calls.clear()
        res = case()
        assert len(calls) == 1 and calls[0] is res.certificate


def test_reductions_never_build_the_dense_gram():
    # the engine, the certificate check, apply and the spinor norm read
    # the sparse Gram rows only; a fresh E(16) lattice (rank 190) keeps
    # its dense Gram unbuilt through every reduction path
    s = g.make_surface(16)
    s23 = g.make_surface(16, 2, 3)
    x = s.parse_class("k=2,e1=3,f1=5,e2=2,f2=-1,e7=1,f7=2,x3_1=1,x16_8=-2")
    cases = [
        lambda: g.reduce_in_elliptic(s, x),
        lambda: g.sphere_reduction(s, 3 * s.k + s.R - s.T + s.parse_class("e5=1")),
        lambda: g.min_genus(s23, s23.parse_class("e1=2,f1=3,e4=1,x2_3=1")).certificate,
    ]
    for case in cases:
        assert case() is not None
        assert "gram" not in vars(s.lattice) and "gram" not in vars(s23.lattice)


def test_untouched_certificate_rows_are_the_identity_rows(e3):
    # rows that no engine step reaches are the shared identity row objects,
    # which the Isometry check passes over with an is test
    lat = e3.lattice
    red, _ = reduction._run_after_k(e3, e3.parse_class("k=2,e1=3,f1=5,e2=2,f2=-1,x1_1=1"))
    m, eye = red.certificate_matrix(), intmat.identity(lat.rank)
    assert 0 < len(red.rows) < lat.rank
    for r in range(lat.rank):
        assert (m[r] is eye[r]) == (r not in red.rows)
    assert all(a is b for a, b in zip(g.Isometry(lat, m).matrix, m))


def _reflect_in_helper(red):
    # e2 + f2 of the helper H block has square 2, so its reflection has
    # spinor norm -1; it fixes the reduced class, which has no e2, f2 part
    v = [0] * red.lattice.rank
    v[red.e2] = v[red.f2] = 1
    return reduction._reflection_terms(red.lattice, v)


def _move_k(red):
    # E_{e2, 2W} has spinor norm +1, takes k to k + 2 e2 and fixes the
    # reduced class, which pairs with neither e2 nor W
    lat = red.lattice
    two_w = (2 * lat.basis_class("W")).coords
    return reduction._transvection_terms(lat, lat.unit_coords(red.e2), two_w)


def _move_the_class(red):
    # E_{e2, e1} has spinor norm +1 and fixes k, but takes e1 + s f1 to
    # e1 + s f1 + s e2
    lat = red.lattice
    return reduction._transvection_terms(lat, lat.unit_coords(red.e2), lat.unit_coords(red.e1))


_BAD_LAST_STEP = {
    "reduce_even spinor": (
        "E(2)", _reflect_in_helper,
        lambda s: g.reduce_even(s.lattice, s.parse_class("e1=2,f1=3,e2=1"), 1),
        "spinor norm \\+1$",
    ),
    "reduce_in_elliptic K3 spinor": (
        "E(2)", _reflect_in_helper,
        lambda s: g.reduce_in_elliptic(s, s.parse_class("e1=2,f1=3,e2=1")),
        "spinor norm \\+1$",
    ),
    "reduce_in_elliptic spinor": (
        "E(3)", _reflect_in_helper,
        lambda s: g.reduce_in_elliptic(s, s.parse_class("k=2,e1=2,f1=3,e2=1")),
        "spinor norm \\+1 and fix k and fix W",
    ),
    "reduce_in_elliptic k": (
        "E(3)", _move_k,
        lambda s: g.reduce_in_elliptic(s, s.parse_class("e1=2,f1=3,e2=1")),
        "fix k and fix W$",
    ),
    "sphere_reduction k": (
        "E(3)", _move_k, lambda s: g.sphere_reduction(s, s.R - s.T), "fix k$",
    ),
    "sphere_reduction image": (
        "E(3)", _move_the_class, lambda s: g.sphere_reduction(s, s.R - s.T),
        "does not map the class to its canonical form",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_LAST_STEP))
def test_every_reduction_refuses_a_bad_certificate(monkeypatch, case):
    # one more step after the engine's run breaks a claim, or on the sphere
    # path the image: _result refuses the certificate instead of returning it
    spec, last_step, reduce, message = _BAD_LAST_STEP[case]
    surface = g.parse_surface(spec)
    run = reduction._Reducer.run

    def run_then_step(red):
        run(red)
        red.step(last_step(red))

    monkeypatch.setattr(reduction._Reducer, "run", run_then_step)
    with pytest.raises(g.InvariantViolation, match=message):
        reduce(surface)


# -- JSON round trip ----------------------------------------------------------------------

def test_reduction_result_json_round_trip(H2):
    res = g.reduce_even(H2, H2.hclass([1, 1, 1, 1]), 0)
    doc = res.to_json_dict()
    back = g.reduction_result_from_json_dict(doc, H2)
    assert back.to_json_dict() == doc


@pytest.mark.parametrize(
    "key, value",
    [
        ("certificate", [[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ("certificate", [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ("certificate", [["x", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ("input", [1.5, 1, 1, 1]),
        ("canonical", "1,2,0,0"),
        ("spinor", "x"),
        ("spinor", 1.0),
        ("spinor", True),
        ("spinor", 0),
        ("fixes_k", 1),
        ("fixes_W", "true"),
        ("lattice", None),
    ],
)
def test_reduction_result_json_malformed_is_parse_error(H2, key, value):
    doc = g.reduce_even(H2, H2.hclass([1, 1, 1, 1]), 0).to_json_dict()
    doc[key] = value
    with pytest.raises(g.ParseError):
        g.reduction_result_from_json_dict(doc, H2)
    del doc[key]
    with pytest.raises(g.ParseError):
        g.reduction_result_from_json_dict(doc, H2)


def test_reduction_result_json_with_false_claims_is_parse_error(H2):
    # a well-formed document whose canonical, spinor and fixes_k are all
    # wrong for its certificate, which maps the input to (1, 2, 0, 0)
    doc = g.reduce_even(H2, H2.hclass([1, 1, 1, 1]), 0).to_json_dict()
    assert doc["canonical"] == [1, 2, 0, 0]
    doc.update(canonical=[7, 7, 7, 7], spinor=-1, fixes_k=False)
    with pytest.raises(g.ParseError):
        g.reduction_result_from_json_dict(doc, H2)


def _reflection_doc(e3):
    # reflection in -k - W - e1 + f1: spinor -1, moves both k and W
    lat = e3.lattice
    v = lat.hclass((-1, -1, -1, 1) + (0,) * (lat.rank - 4))
    r = g.reflection(lat, v)
    x = e3.parse_class("e1=1,f1=2")
    return {
        "lattice": lat.spec,
        "input": list(x.coords),
        "canonical": list(r(x).coords),
        "certificate": [list(row) for row in r.matrix],
        "spinor": -1,
        "fixes_k": False,
        "fixes_W": False,
    }


def test_reduction_result_json_true_claims_load(e3):
    doc = _reflection_doc(e3)
    assert g.reduction_result_from_json_dict(doc, e3.lattice).to_json_dict() == doc


@pytest.mark.parametrize(
    "key, value",
    [
        ("canonical", "input"),
        ("spinor", 1),
        ("fixes_k", True),
        ("fixes_W", True),
    ],
)
def test_reduction_result_json_one_false_claim_is_parse_error(e3, key, value):
    doc = _reflection_doc(e3)
    doc[key] = doc[value] if value == "input" else value
    with pytest.raises(g.ParseError):
        g.reduction_result_from_json_dict(doc, e3.lattice)


def test_surface_reduction_json_round_trip(k3, e3):
    # the document records only the lattice spec; loaded over the surface
    # lattice, k and W keep their names, so false fixes claims still load
    results = [
        g.reduce_in_elliptic(k3, k3.parse_class("k=1,W=1")),
        g.sphere_reduction(e3, e3.parse_class("k=1,e1=1,f1=-1")),
    ]
    assert [(r.fixes_k, r.fixes_W) for r in results] == [(False, False), (True, False)]
    for res in results:
        assert g.reduction_result_from_json_dict(res.to_json_dict(), res.input.lattice) == res


def test_documents_over_a_surface_load_back_equal(e3):
    lat = e3.lattice
    x = e3.parse_class("k=2,e1=3,f1=-4,e2=1,f2=5,x1_1=1")
    res = g.reduce_in_elliptic(e3, x)

    def trip(obj):
        return json.loads(json.dumps(obj.to_json_dict()))

    assert g.hclass_from_json_dict(trip(x), lat) == x
    assert g.isometry_from_json_dict(trip(res.certificate), lat) == res.certificate
    assert g.reduction_result_from_json_dict(trip(res), lat) == res


def test_documents_over_another_lattice_are_parse_errors(H2):
    res = g.reduce_even(H2, H2.hclass([1, 1, 1, 1]), 0)
    loaders = {
        res.input: g.hclass_from_json_dict,
        res.certificate: g.isometry_from_json_dict,
        res: g.reduction_result_from_json_dict,
    }
    for obj, load in loaders.items():
        doc = obj.to_json_dict()
        for other in ("H',H", "2H,E8-"):
            with pytest.raises(g.ParseError):
                load(doc, g.lattice_from_spec(other))
        # the spec must be the lattice's own spelling
        for spec in ("H,H", "H',H", None):
            with pytest.raises(g.ParseError):
                load(dict(doc, lattice=spec), H2)


def test_reduction_json_on_a_surface_shaped_spec_with_default_names():
    # 3H,2E8- is laid out like the E(2) model, but this lattice has the
    # default names e1, f1, ...: the certificate moves e1, which the
    # surface reading would call k, and the true document must load back
    lat = g.lattice_from_spec("3H,2E8-")
    res = g.reduce_even(lat, lat.hclass((1, 1, 1, 1) + (0,) * (lat.rank - 4)), 0)
    assert (res.spinor, res.fixes_k, res.fixes_W) == (1, True, True)
    assert not g.fixes_class(res.certificate, lat.basis_class(0))
    assert g.reduction_result_from_json_dict(res.to_json_dict(), lat) == res
