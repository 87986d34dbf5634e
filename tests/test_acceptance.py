"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.  Runtime
caps are asserted where the criterion states one.
"""

import math
import random
import time
from contextlib import contextmanager

import genlat as g
from genlat import intmat

from conftest import (
    assert_positive_frame,
    block_frame,
    frame_spinor_sign,
    generator_pool,
    random_isometry,
)


@contextmanager
def criterion(num, name, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {num} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.2f}s)")


def test_acceptance_1_spinor_fixtures(e3):
    with criterion(1, "spinor norm fixtures", max_seconds=1.0):
        lat = e3.lattice
        # blocks 1 and 2 are the first two hyperbolic planes of the model
        one = g.minus_identity_on_blocks(lat, [1])
        two = g.minus_identity_on_blocks(lat, [1, 2])
        assert g.spinor_norm(one) == -1
        assert g.spinor_norm(two) == 1


def test_acceptance_2_phi_certificates(e3):
    with criterion(2, "phi isometry certificates", max_seconds=1.0):
        lat = e3.lattice
        for alpha in range(-5, 6):
            phi = g.phi_isometry(e3, alpha)
            g.verify_isometry(lat, phi.matrix)
            assert g.spinor_norm(phi) == 1
            assert g.fixes_class(phi, e3.k)
            assert phi(alpha * e3.k + e3.S) == e3.S


def test_acceptance_3_constructive_wall_desk_scale(H2):
    with criterion(3, "constructive transitivity at desk scale", max_seconds=120.0):
        gens = g.default_generators(H2)
        for sq in (0, 2):
            seeds = g.enumerate_vectors(H2, sq, 1, 2)
            report = g.orbit_bfs(H2, seeds, gens, 2)
            assert report.orbit_count_spinor1 == 1, (sq, report)
            for x in seeds:
                res = g.reduce_even(H2, x, 0)
                assert res.canonical == H2.hclass([1, sq // 2, 0, 0])
                assert res.spinor == 1
                m = res.certificate.matrix
                assert intmat.matvec(m, x.coords) == res.canonical.coords
                g.verify_isometry(H2, m)


def test_acceptance_4_reduction_soundness_fuzz(e3):
    with criterion(4, "reduction soundness fuzz", max_seconds=60.0):
        lat = e3.lattice
        rng = random.Random(20240817)
        done = 0
        while done < 200:
            coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
            coords[1] = 0  # k.A = 0
            a = lat.hclass(coords)
            if a.is_zero:
                continue
            done += 1
            res = g.reduce_in_elliptic(e3, a)
            cert = res.certificate
            g.verify_isometry(lat, cert.matrix)
            assert g.spinor_norm(cert) == 1
            assert g.fixes_class(cert, e3.k)
            assert g.fixes_class(cert, e3.W)
            assert res.canonical.square() == a.square()
            assert res.canonical.divisibility() == a.divisibility()
            # a k + gamma R + delta T with the stated arithmetic
            ca = res.canonical.coords
            assert ca[1] == 0 and not any(ca[4:])
            b_coords = list(coords)
            b_coords[0] = 0
            b = lat.hclass(b_coords)
            assert ca[0] == coords[0]
            gamma, delta = ca[2], ca[3]
            assert 2 * gamma * delta == b.square()
            assert math.gcd(gamma, delta) == b.divisibility()


def test_acceptance_5_basic_classes_and_k(k3, e3, e23):
    with criterion(5, "basic classes and canonical class"):
        assert g.basic_classes(k3) == [k3.lattice.hclass((0,) * k3.lattice.rank)]
        assert g.canonical_class(k3).is_zero
        assert g.basic_classes(e3) == [-e3.k, e3.k]
        assert g.canonical_class(e3) == e3.k
        expected = [r * e23.k for r in (-7, -5, -3, -1, 1, 3, 5, 7)]
        assert g.basic_classes(e23) == expected
        assert g.canonical_class(e23) == 7 * e23.k
        for surf in (k3, e3, e23):
            classes = g.basic_classes(surf)
            assert [-c for c in reversed(classes)] == classes
            big_k = g.canonical_class(surf)
            assert classes[0] == -big_k and classes[-1] == big_k


def test_acceptance_6_minimal_genus_dispatch(k3, e23):
    with criterion(6, "minimal-genus dispatch"):
        # K3, squares 2c-2 for c in [0, 10]: primitive in the (R, T)
        # block, plus divisible instances where they exist
        for c in range(0, 11):
            cases = [k3.R + (c - 1) * k3.T]
            if c == 1:
                cases.append(3 * k3.R)
            if (c - 1) % 4 == 0 and c > 1:
                cases.append(2 * k3.R + ((c - 1) // 2) * k3.T)
            if (c - 1) % 9 == 0 and c > 1:
                cases.append(3 * k3.R + ((c - 1) // 3) * k3.T)
            for a in cases:
                assert a.square() == 2 * c - 2
                v = g.min_genus(k3, a)
                assert v.status is g.Status.EXACT
                assert v.realized == c == v.lower_bound
                assert v.rule is g.Rule.COR_K3
        # E(n) for n = 2..4: K-orthogonal classes of square 2c - 2
        for n in (2, 3, 4):
            surf = g.make_surface(n)
            for c in range(0, 7):
                a = 2 * surf.k + surf.R + (c - 1) * surf.T
                if surf.is_k3:
                    a = surf.R + (c - 1) * surf.T + 2 * surf.k
                assert a.dot(g.canonical_class(surf)) == 0
                assert a.square() == 2 * c - 2
                v = g.min_genus(surf, a)
                assert v.status is g.Status.EXACT
                assert v.realized == c == v.lower_bound
        # the open case stays open
        a = e23.parse_class("k=2,e1=1")
        v = g.min_genus(e23, a)
        assert v.status is g.Status.LOWER_BOUND_ONLY
        assert v.lower_bound == 1


def test_acceptance_7_scaling_construction():
    with criterion(7, "genus scaling construction"):
        for gg in range(1, 7):
            for sq in range(0, 11):
                base = 2 * gg - 2 - sq
                for r in range(1, 7):
                    g2 = g.km_scaled_genus(gg, sq, r)
                    assert 2 * g2 - 2 - r * r * sq == r * base
                assert g.km_scaled_genus(gg, sq, 1) == gg


def test_acceptance_8_invariant_suites(e3, H2E8):
    with criterion(8, "invariant suites"):
        # spinor multiplicativity over 500 random generator products
        rng = random.Random(11)
        pool = generator_pool(H2E8)
        for _ in range(500):
            a = g.compose(rng.choice(pool), rng.choice(pool))
            b = rng.choice(pool)
            assert g.spinor_norm(g.compose(a, b)) == g.spinor_norm(a) * g.spinor_norm(b)
        # -id has spinor norm (-1)^{b2+} on the model lattices, n <= 4
        for n in (2, 3, 4):
            surf = g.make_surface(n)
            lat = surf.lattice
            neg = g.minus_identity_on_blocks(lat, range(len(lat.blocks)))
            assert g.spinor_norm(neg) == (-1) ** lat.sig_pos
        # every Eichler transvection: spinor +1, determinant +1
        e1 = H2E8.basis_class("e1")
        f1 = H2E8.basis_class("f1")
        e2 = H2E8.basis_class("e2")
        f2 = H2E8.basis_class("f2")
        x1 = H2E8.basis_class("x1_1")
        x2 = H2E8.basis_class("x1_2")
        for u, v in [
            (e1, e2), (e1, f2), (f1, e2), (f1, f2), (e2, e1), (f2, f1),
            (e1, x1), (f1, x2), (e2, x1 + 2 * x2), (e1 + e2, x1),
            (e1, 3 * e2), (e1, e2 - f2),
        ]:
            t = g.eichler_transvection(H2E8, u, v)
            assert g.spinor_norm(t) == 1
            assert intmat.det(t.matrix) == 1
        # canonical class is characteristic over the whole grid
        for n in range(2, 6):
            for p in range(1, 6):
                for q in range(1, 6):
                    if math.gcd(p, q) != 1:
                        continue
                    surf = g.make_surface(n, p, q)
                    assert g.canonical_class(surf).is_characteristic()
        # frame independence on 100 random isometries: the norm is the
        # sign of det(P^T G M P) over another positive frame, built here
        lat3 = e3.lattice
        frame_b = []
        for i, b in enumerate(lat3.blocks):
            if b.rank == 2:
                start = lat3.block_offsets[i]
                col = [0] * lat3.rank
                col[start] = 1
                col[start + 1] = 1 if i < 4 else 2
                frame_b.append(tuple(col))
        assert_positive_frame(lat3, frame_b)
        assert frame_b != block_frame(lat3)
        pool3 = generator_pool(lat3)
        for _ in range(100):
            m = random_isometry(lat3, rng, pool3, steps=3)
            assert g.spinor_norm(m) == frame_spinor_sign(lat3, frame_b, m)
