import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlat as g

from conftest import generator_pool


def coprime_grid(max_n=5, max_pq=5):
    for n in range(2, max_n + 1):
        for p in range(1, max_pq + 1):
            for q in range(1, max_pq + 1):
                if math.gcd(p, q) == 1:
                    yield n, p, q


# -- construction -----------------------------------------------------------------

def test_make_surface_k3(k3):
    assert (k3.n, k3.p, k3.q) == (2, 1, 1)
    assert k3.d == 0 and k3.spin and k3.is_k3
    assert k3.lattice.spec == "3H,2E8-"
    assert k3.lattice.rank == 22
    assert (k3.lattice.sig_pos, k3.lattice.sig_neg) == (3, 19)


def test_make_surface_e3(e3):
    assert e3.d == 1 and not e3.spin and not e3.is_k3
    assert e3.lattice.spec == "H',4H,3E8-"
    assert (e3.l, e3.m) == (4, 3)
    assert e3.lattice.rank == 12 * 3 - 2
    assert e3.lattice.sig_pos == 2 * 3 - 1


def test_make_surface_e23(e23):
    assert e23.d == 7 and not e23.spin
    assert e23.lattice.spec == "H',2H,2E8-"


def test_rank_and_plus_part_bookkeeping():
    for n, p, q in coprime_grid(max_n=5, max_pq=3):
        x = g.make_surface(n, p, q)
        assert x.lattice.rank == 12 * n - 2
        assert x.lattice.sig_pos == 2 * n - 1
        assert x.l == 2 * n - 2 and x.l >= 2 and x.m == n > 0


def test_make_surface_rejects_bad_parameters():
    for bad in [(1, 1, 1), (2, 2, 4), (2, 0, 1), (2, 1, -3)]:
        with pytest.raises(g.BadParameters):
            g.make_surface(*bad)


def test_surface_rank_cap():
    # E(100) has rank 1198 and is built without a dense Gram
    big = g.make_surface(100, 2, 3)
    assert big.lattice.rank == 1198 <= g.lattice.MAX_RANK
    assert "gram" not in vars(big.lattice)
    for n in (101, 10**12):
        with pytest.raises(g.BadParameters):
            g.make_surface(n)
    huge = "9" * 5000
    for spec in (f"E({huge})", f"E(2;{huge},1)", f"E(2;1,{huge})"):
        with pytest.raises(g.LatticeError):
            g.parse_surface(spec)


def test_distinguished_classes(e3, e23, k3):
    for x in (e3, e23, k3):
        assert x.k.square() == 0 and x.k.divisibility() == 1
        assert x.k.dot(x.W) == 1
        assert x.W.square() == (0 if x.spin else 1)
        assert x.R.square() == 0 and x.T.square() == 0 and x.R.dot(x.T) == 1
        assert x.S == x.T - x.R
        assert x.S.square() == -2 and x.R.dot(x.S) == 1


def test_spin_matches_gram_parity():
    for n, p, q in coprime_grid(max_n=4, max_pq=3):
        x = g.make_surface(n, p, q)
        gram_even = all(x.lattice.gram[i][i] % 2 == 0 for i in range(x.lattice.rank))
        assert x.spin == (x.d % 2 == 0) == gram_even


def test_parse_surface():
    assert g.parse_surface("E(2)").spec == "E(2)"
    assert g.parse_surface("E(3;2,5)").spec == "E(3;2,5)"
    for bad in ["E(2", "E2", "E(2;2)", "E(a)", ""]:
        with pytest.raises(g.ParseError):
            g.parse_surface(bad)
    with pytest.raises(g.BadParameters):
        g.parse_surface("E(1;2,3)")


# -- canonical class / basic classes ------------------------------------------------

def test_canonical_class_examples(k3, e3, e23):
    assert g.canonical_class(k3).is_zero
    assert g.canonical_class(e3) == e3.k
    assert g.canonical_class(e23) == 7 * e23.k


def test_canonical_class_characteristic_on_grid():
    for n, p, q in coprime_grid():
        x = g.make_surface(n, p, q)
        assert g.canonical_class(x).is_characteristic()


def test_basic_classes_examples(k3, e3, e23):
    assert g.basic_classes(k3) == [k3.lattice.hclass((0,) * k3.lattice.rank)]
    assert g.basic_classes(e3) == [-e3.k, e3.k]
    assert g.basic_classes(e23) == [r * e23.k for r in (-7, -5, -3, -1, 1, 3, 5, 7)]


def test_basic_classes_cap():
    cap = g.elliptic.MAX_BASIC_CLASSES
    # E(2;1,q) has d = q - 1, so q basic classes
    assert len(g.basic_classes(g.make_surface(2, 1, cap))) == cap
    big = "9" * 1999
    for s in (g.make_surface(2, 1, cap + 1), g.parse_surface(f"E(2;{big}8,{big}9)")):
        with pytest.raises(g.BadParameters):
            g.basic_classes(s)


def test_surface_parameters_and_phi_alpha_must_be_ints(e3):
    for bad in [(2, True, 3), (2, 1.0, 1), (3.0, 1, 1)]:
        with pytest.raises(g.BadParameters):
            g.make_surface(*bad)
    for alpha in (2.7, True, "2"):
        with pytest.raises(g.PreconditionFailed):
            g.phi_isometry(e3, alpha)


def test_records_store_only_independent_fields():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(g.Lattice) == ["blocks", "basis_names"]
    assert names(g.EllipticSurface) == ["n", "p", "q"]
    assert names(g.ReductionResult) == ["input", "canonical", "certificate"]
    assert names(g.GenusVerdict) == [
        "lower_bound", "realized", "rule", "negative_square_note", "certificate"
    ]


def test_basic_classes_symmetry_and_extremes():
    for n, p, q in coprime_grid(max_n=4, max_pq=3):
        x = g.make_surface(n, p, q)
        classes = g.basic_classes(x)
        assert [-c for c in reversed(classes)] == classes
        big_k = g.canonical_class(x)
        assert classes[0] == -big_k and classes[-1] == big_k
        assert all(c.is_characteristic() for c in classes)


# -- adjunction --------------------------------------------------------------------

def test_adjunction_examples(k3, e3, e23):
    a = k3.parse_class("e1=1,f1=2")  # square 4
    assert a.square() == 4
    assert g.adjunction_bound(k3, a) == (3, False)
    assert g.adjunction_bound(e23, e23.W) == (5, False)
    assert g.adjunction_bound(e3, e3.S) == (0, True)


def test_adjunction_zero_class(e3):
    with pytest.raises(g.ZeroClass):
        g.adjunction_bound(e3, e3.lattice.hclass((0,) * e3.lattice.rank))


# -- min_genus ----------------------------------------------------------------------

def test_min_genus_k3_rule(k3):
    v = g.min_genus(k3, k3.R)
    assert v.status is g.Status.EXACT
    assert v.realized == 1 and v.rule is g.Rule.COR_K3
    assert v.certificate is not None and v.certificate.spinor == 1


def test_min_genus_thm_main(e3):
    a = e3.parse_class("k=4,e1=2,f1=2")
    v = g.min_genus(e3, a)
    assert v.status is g.Status.EXACT
    assert v.realized == 5 and v.rule is g.Rule.THM_MAIN_EN
    assert v.lower_bound == 5


def test_min_genus_sphere_rule(e23):
    a = e23.parse_class("k=1,x1_1=1")
    assert a.square() == -2
    v = g.min_genus(e23, a)
    assert v.status is g.Status.EXACT and v.realized == 0
    assert v.rule is g.Rule.PROP_MINUS2
    assert v.certificate is not None and v.certificate.canonical == e23.S


def test_min_genus_orth_kv_rule(e23):
    a = e23.parse_class("e1=1,f1=3")  # orthogonal to k and W, square 6
    v = g.min_genus(e23, a)
    assert v.status is g.Status.EXACT and v.realized == 4
    assert v.rule is g.Rule.COR_ORTH_KV
    assert v.certificate is not None and v.certificate.fixes_k and v.certificate.fixes_W


def test_min_genus_open_case(e23):
    a = e23.parse_class("k=2,e1=1")
    v = g.min_genus(e23, a)
    assert v.status is g.Status.LOWER_BOUND_ONLY
    assert v.lower_bound == 1 and v.rule is g.Rule.ADJUNCTION_ONLY
    assert v.realized is None


def test_min_genus_negative_square_note(k3, e23):
    a = k3.parse_class("e1=1,f1=-2")  # square -4 < -2
    v = g.min_genus(k3, a)
    assert v.status is g.Status.LOWER_BOUND_ONLY
    assert v.lower_bound == 0
    assert v.negative_square_note is not None
    b = e23.parse_class("x1_1=1,x1_3=1")  # square -4, orthogonal to k
    v = g.min_genus(e23, b)
    assert v.status is g.Status.LOWER_BOUND_ONLY
    assert v.negative_square_note is not None


def test_min_genus_zero_class(e3):
    with pytest.raises(g.ZeroClass):
        g.min_genus(e3, e3.lattice.hclass((0,) * e3.lattice.rank))


def test_min_genus_exact_meets_adjunction(k3, e3):
    for c in range(0, 8):
        a = k3.R + (c - 1) * k3.T
        v = g.min_genus(k3, a)
        assert v.status is g.Status.EXACT
        assert v.realized == c == v.lower_bound
    for c in range(0, 6):
        a = 2 * e3.k + e3.R + (c - 1) * e3.T
        v = g.min_genus(e3, a)
        assert v.status is g.Status.EXACT and v.realized == c


def test_min_genus_invariant_under_k_fixing_spinor_one(e3, k3):
    # exact invariance of the dispatch holds on K3 and on E(n) without
    # multiple fibres; certificates may differ
    rng = random.Random(99)
    phi2 = g.phi_isometry(e3, 2)
    t = g.eichler_transvection(e3.lattice, e3.k, 2 * e3.T)
    for a in [e3.parse_class("k=1"), e3.parse_class("k=2,e1=1,f1=1"),
              e3.parse_class("e2=1,f2=-1"), e3.parse_class("k=1,x1_1=1,W=0")]:
        base = g.min_genus(e3, a)
        for m in (phi2, t, g.compose(phi2, t)):
            assert g.fixes_class(m, e3.k)
            moved = g.min_genus(e3, m(a))
            assert moved.status == base.status
            assert moved.lower_bound == base.lower_bound
            assert moved.realized == base.realized
    pool = generator_pool(k3.lattice)
    for _ in range(10):
        m = g.compose(rng.choice(pool), rng.choice(pool))
        if g.spinor_norm(m) != 1:
            continue
        a = k3.parse_class("k=1,e1=2,f1=1")
        base = g.min_genus(k3, a)
        moved = g.min_genus(k3, m(a))
        assert (moved.status, moved.lower_bound, moved.realized) == (
            base.status, base.lower_bound, base.realized
        )


def test_k_orthogonal_square_is_even(e23):
    rng = random.Random(3)
    for _ in range(50):
        coords = [rng.randint(-3, 3) for _ in range(e23.lattice.rank)]
        coords[1] = 0  # k.A is the W coordinate
        a = e23.lattice.hclass(coords)
        if a.is_zero:
            continue
        assert a.dot(e23.k) == 0
        assert a.square() % 2 == 0


# -- scaling construction --------------------------------------------------------------

def test_km_scaled_genus_examples():
    assert g.km_scaled_genus(1, 0, 5) == 1
    assert g.km_scaled_genus(2, 2, 3) == 10
    assert g.km_scaled_genus(3, 1, 2) == 6


@given(st.integers(1, 6), st.integers(0, 10), st.integers(1, 6))
def test_km_scaling_law(gg, sq, r):
    # a(rh) = r a(h) with a(S) = 2 genus - 2 - square
    g2 = g.km_scaled_genus(gg, sq, r)
    a1 = 2 * gg - 2 - sq
    a2 = 2 * g2 - 2 - r * r * sq
    assert a2 == r * a1
    assert g.km_scaled_genus(gg, sq, 1) == gg


def test_km_preconditions():
    with pytest.raises(g.PreconditionFailed):
        g.km_scaled_genus(1, -2, 2)
    with pytest.raises(g.PreconditionFailed):
        g.km_scaled_genus(0, 0, 2)
    with pytest.raises(g.PreconditionFailed):
        g.km_scaled_genus(1, 0, 0)
    with pytest.raises(g.PreconditionFailed):
        g.km_scaled_genus(-1, 2, 1)


# -- nucleus ----------------------------------------------------------------------------

def test_nucleus_examples():
    assert g.nucleus_min_genus(1, 0).realized == 1  # the fibre torus
    for gg in range(2, 7):
        v = g.nucleus_min_genus(gg, 1)
        assert v.realized == gg and v.status is g.Status.EXACT
    assert g.nucleus_min_genus(2, 2).realized == 1  # divisible, square 0
    assert g.nucleus_min_genus(0, 1).realized == 0  # the sphere itself


def test_nucleus_rule_and_bounds():
    v = g.nucleus_min_genus(3, 1)
    assert v.rule is g.Rule.COR_NUCLEUS and v.lower_bound == v.realized == 3
    v = g.nucleus_min_genus(1, 3)  # square 6 - 18 = -12
    assert v.status is g.Status.LOWER_BOUND_ONLY
    assert v.rule is g.Rule.ADJUNCTION_ONLY and v.lower_bound == 0
    with pytest.raises(g.ZeroClass):
        g.nucleus_min_genus(0, 0)


# -- verdict JSON -------------------------------------------------------------------------

def test_genus_verdict_json(e23):
    v = g.min_genus(e23, e23.parse_class("e1=1,f1=3"))
    doc = v.to_json_dict()
    assert doc["status"] == "EXACT" and doc["rule"] == "COR_ORTH_KV"
    assert doc["realized"] == doc["lower_bound"] == 4
    assert doc["certificate"]["spinor"] == 1
