import random
from operator import mul

import pytest

import genlat as g
from genlat import intmat

from conftest import (
    assert_positive_frame,
    block_frame,
    frame_spinor_sign,
    generator_pool,
    pair_columns,
    random_isometry,
)


# -- verify_isometry -------------------------------------------------------------

def test_identity_is_isometry(H2):
    iso = g.verify_isometry(H2, intmat.identity(4))
    assert iso.matrix == intmat.identity(4)


def test_minus_identity_on_two_planes(H2):
    m = [[-1 if i == j else 0 for j in range(4)] for i in range(4)]
    iso = g.verify_isometry(H2, m)
    assert intmat.det(iso.matrix) == 1


def test_swap_basis_is_isometry(H2):
    # e1 <-> f1, all else fixed
    m = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    iso = g.verify_isometry(H2, m)
    assert iso(H2.basis_class("e1")) == H2.basis_class("f1")


def test_verify_rejects_with_offending_entry(H2):
    m = [
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    with pytest.raises(g.NotAnIsometry) as exc:
        g.verify_isometry(H2, m)
    assert exc.value.entry is not None


def test_constructor_refuses_doubling_r_on_e3(e3):
    # R -> 2R keeps k and W fixed and has det(P^T G M P) > 0, so the
    # certificate would pass as realizable if it were not checked
    lat = e3.lattice
    m = [list(row) for row in intmat.identity(lat.rank)]
    m[2][2] = 2
    with pytest.raises(g.NotAnIsometry, match=r"^\(M\^T G M\)\[2\]\[3\] = 2, expected 1$") as exc:
        g.Isometry(lat, m)
    assert exc.value.entry == (2, 3)


def test_constructor_refuses_a_non_square_shape(H2):
    for m in ([[1, 0], [0, 1]], [[1, 0, 0, 0]] * 3 + [[0, 0, 0]]):
        with pytest.raises(g.NotAnIsometry, match="^matrix must be 4x4$"):
            g.Isometry(H2, m)


def test_constructor_stores_tuple_rows(H2):
    iso = g.Isometry(H2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert iso.matrix == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert iso == g.verify_isometry(H2, iso.matrix)


def test_verify_rejects_wrong_size(H2):
    with pytest.raises(g.NotAnIsometry):
        g.verify_isometry(H2, [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.9, 0], [0, 1.5]],  # int() would truncate this to the identity
        [[True, False], [False, True]],
        [[1, 0], [0, "1"]],
    ],
)
def test_verify_refuses_non_integer_entries(H, matrix):
    with pytest.raises(g.NotAnIsometry):
        g.verify_isometry(H, matrix)


def test_random_generator_products_verify(H2E8):
    # closure under composition: every random word in the generator
    # pool passes the Gram check, and any single-entry corruption fails
    rng = random.Random(17)
    for _ in range(25):
        word = random_isometry(H2E8, rng, steps=5)
        checked = g.verify_isometry(H2E8, word.matrix)
        assert checked.matrix == word.matrix
        bad = [list(row) for row in word.matrix]
        i = rng.randrange(H2E8.rank)
        bad[i][i] += 1
        with pytest.raises(g.NotAnIsometry):
            g.verify_isometry(H2E8, bad)


# -- compose / inverse ------------------------------------------------------------

def test_compose_identity_and_inverse(H2):
    rng = random.Random(7)
    ident = g.Isometry(H2, intmat.identity(H2.rank))
    for _ in range(10):
        a = random_isometry(H2, rng)
        assert g.compose(ident, a).matrix == a.matrix
        assert g.compose(a, a.inverse()).matrix == ident.matrix
        assert g.compose(a.inverse(), a).matrix == ident.matrix


@pytest.mark.parametrize("spec", ["H'", "2H,E8-", "E(2;2,3)", "E(3)"])
def test_inverse_of_generator_words_and_reduction_certificates(spec):
    # M^-1 = G^-1 M^T G with G^-1 taken block by block
    if spec.startswith("E("):
        s = g.parse_surface(spec)
        lat = s.lattice
        classes = ["e1=3,f1=5,e2=2,f2=-1", "k=2,e1=6,f1=4,x1_1=2", "e2=12,f2=-18,x2_5=6"]
        certs = [g.reduce_in_elliptic(s, s.parse_class(c)).certificate for c in classes]
    else:
        lat = g.lattice_from_spec(spec)
        certs = []
    pool = generator_pool(lat) or g.default_generators(lat)
    rng = random.Random(spec)
    words = pool + [random_isometry(lat, rng, pool, steps=rng.randint(1, 6)) for _ in range(8)]
    ident = intmat.identity(lat.rank)
    for a in words + certs:
        inv = a.inverse()
        assert g.compose(a, inv).matrix == ident
        assert g.compose(inv, a).matrix == ident
        assert g.verify_isometry(lat, inv.matrix).matrix == inv.matrix


def test_compose_block_negations(H2):
    a = g.minus_identity_on_blocks(H2, [0])
    b = g.minus_identity_on_blocks(H2, [1])
    full = g.minus_identity_on_blocks(H2, [0, 1])
    assert g.compose(a, b).matrix == full.matrix


def test_compose_order_applies_right_first(H2):
    rng = random.Random(11)
    x = H2.hclass([1, 2, -1, 0])
    for _ in range(5):
        a = random_isometry(H2, rng)
        b = random_isometry(H2, rng)
        assert g.compose(a, b)(x) == a(b(x))


def test_compose_lattice_mismatch(H, H2):
    with pytest.raises(g.LatticeMismatch):
        g.compose(g.Isometry(H, intmat.identity(2)), g.Isometry(H2, intmat.identity(4)))


# -- reflection -------------------------------------------------------------------

def test_reflection_in_negative_root_swaps(H):
    e, f = H.basis_class("e1"), H.basis_class("f1")
    s = g.reflection(H, e - f)
    assert s(e) == f and s(f) == e


def test_reflection_in_positive_root(H):
    e, f = H.basis_class("e1"), H.basis_class("f1")
    s = g.reflection(H, e + f)
    assert s(e) == -f and s(f) == -e


def test_reflection_rejects_isotropic(H):
    with pytest.raises(g.NonIntegralReflection):
        g.reflection(H, H.basis_class("e1"))


def test_reflection_in_odd_unit_vector(HODD):
    # f has square 1 in H'; the reflection is still integral
    f = HODD.basis_class("f1")
    s = g.reflection(HODD, f)
    assert s(f) == -f
    assert intmat.det(s.matrix) == -1


def test_reflection_fixes_orthogonal_complement(H2E8):
    v = H2E8.basis_class("x1_1")
    s = g.reflection(H2E8, v)
    assert s(v) == -v
    assert g.fixes_class(s, H2E8.basis_class("e1"))


# -- Eichler transvection -----------------------------------------------------------

def test_transvection_images(H2):
    e1, f1 = H2.basis_class("e1"), H2.basis_class("f1")
    e2, f2 = H2.basis_class("e2"), H2.basis_class("f2")
    t = g.eichler_transvection(H2, e1, e2)
    assert t(f1) == f1 - e2
    assert t(e1) == e1
    assert t(e2) == e2
    assert t(f2) == f2 + e1


def test_transvection_with_zero_v_is_identity(H2):
    t = g.eichler_transvection(H2, H2.basis_class("e1"), H2.hclass((0,) * H2.rank))
    assert t.matrix == intmat.identity(4)


def test_transvection_preconditions(H2):
    e1, f1 = H2.basis_class("e1"), H2.basis_class("f1")
    with pytest.raises(g.BadTransvectionData):
        g.eichler_transvection(H2, e1, f1)  # u.v = 1
    with pytest.raises(g.BadTransvectionData):
        g.eichler_transvection(H2, e1 + f1, H2.basis_class("e2"))  # u^2 = 2


def test_transvection_odd_square_v_rejected(e3):
    lat = e3.lattice
    with pytest.raises(g.BadTransvectionData):
        g.eichler_transvection(lat, e3.R, e3.W)  # W^2 = 1 odd


# -- spinor norm ---------------------------------------------------------------------

def test_spinor_norm_fixtures(H2):
    assert g.spinor_norm(g.Isometry(H2, intmat.identity(H2.rank))) == 1
    assert g.spinor_norm(g.minus_identity_on_blocks(H2, [0])) == -1
    assert g.spinor_norm(g.minus_identity_on_blocks(H2, [0, 1])) == 1


@pytest.mark.parametrize("spec", ["H", "2H", "H',2H,E8-", "3H,2E8-"])
def test_spinor_norm_of_minus_identity(spec):
    lat = g.lattice_from_spec(spec)
    neg = g.minus_identity_on_blocks(lat, range(len(lat.blocks)))
    assert g.spinor_norm(neg) == (-1) ** lat.sig_pos


def test_reflection_spinor_sign_by_square(H2E8):
    e1, f1 = H2E8.basis_class("e1"), H2E8.basis_class("f1")
    assert g.spinor_norm(g.reflection(H2E8, e1 + f1)) == -1  # square 2
    assert g.spinor_norm(g.reflection(H2E8, e1 - f1)) == 1   # square -2
    assert g.spinor_norm(g.reflection(H2E8, H2E8.basis_class("x1_1"))) == 1


def test_transvections_have_spinor_one_and_det_one(H2E8):
    e1 = H2E8.basis_class("e1")
    f1 = H2E8.basis_class("f1")
    e2 = H2E8.basis_class("e2")
    x1 = H2E8.basis_class("x1_1")
    x2 = H2E8.basis_class("x1_2")
    for u, v in [(e1, e2), (e1, x1), (f1, x1 + 2 * x2), (e2, e1)]:
        t = g.eichler_transvection(H2E8, u, v)
        assert g.spinor_norm(t) == 1
        assert intmat.det(t.matrix) == 1


def test_spinor_norm_multiplicative(H2E8):
    rng = random.Random(23)
    pool = generator_pool(H2E8)
    for _ in range(60):
        a = random_isometry(H2E8, rng, pool)
        b = random_isometry(H2E8, rng, pool)
        assert g.spinor_norm(g.compose(a, b)) == g.spinor_norm(a) * g.spinor_norm(b)


def test_spinor_norm_frame_independent(H2):
    rng = random.Random(5)
    # a second positive frame, not orthogonal, not canonical
    frame = [(1, 1, 0, 0), (1, 0, 2, 1)]
    assert_positive_frame(H2, frame)
    assert pair_columns(H2, frame, frame)[0][1] != 0
    pool = generator_pool(H2)
    for _ in range(40):
        m = random_isometry(H2, rng, pool)
        assert g.spinor_norm(m) == frame_spinor_sign(H2, frame, m)


@pytest.mark.parametrize("spec", ["H", "H'", "2H,E8-", "E(3)", "E(2;2,3)", "E(16)"])
def test_canonical_frame_describes_a_positive_diagonal_frame(spec):
    lat = g.parse_surface(spec).lattice if spec.startswith("E(") else g.lattice_from_spec(spec)
    p = []
    for s, c in g.canonical_frame(lat):
        col = [0] * lat.rank
        col[s] = col[s + 1] = 1
        gp = [0] * lat.rank
        gp[s], gp[s + 1] = 1, c
        assert [sum(map(mul, row, col)) for row in lat.gram] == gp  # G p = e_s + c e_{s+1}
        p.append(tuple(col))
    assert p == block_frame(lat) and len(p) == lat.sig_pos
    d = pair_columns(lat, p, p)
    assert all(d[a][b] == 0 for a in range(len(p)) for b in range(len(p)) if a != b)
    assert all(d[a][a] > 0 for a in range(len(p)))


@pytest.mark.parametrize("block", [99, -1, 1.0, True])
def test_minus_identity_refuses_a_bad_block_index(e3, block):
    with pytest.raises(g.BadParameters):
        g.minus_identity_on_blocks(e3.lattice, [block])


def test_constructor_refuses_a_zero_matrix(H2):
    # so spinor_norm is never handed a matrix with det(P^T G M P) = 0
    with pytest.raises(g.NotAnIsometry, match=r"^\(M\^T G M\)\[0\]\[1\] = 0, expected 1$") as exc:
        g.Isometry(H2, tuple(tuple(0 for _ in range(4)) for _ in range(4)))
    assert exc.value.entry == (0, 1)


# -- fixes_class / realizability ------------------------------------------------------

def test_fixes_class(H2, e3):
    ident = g.Isometry(H2, intmat.identity(H2.rank))
    assert g.fixes_class(ident, H2.hclass([1, 2, 3, 4]))
    neg = g.minus_identity_on_blocks(H2, [0, 1])
    assert not g.fixes_class(neg, H2.basis_class("e1"))
    phi = g.phi_isometry(e3, 2)
    assert g.fixes_class(phi, e3.k)
    assert not g.fixes_class(phi, e3.W)


def test_realizability_k3(k3):
    one = g.minus_identity_on_blocks(k3.lattice, [1])
    two = g.minus_identity_on_blocks(k3.lattice, [1, 2])
    assert g.realizability(k3, two) is g.Realizability.REALIZABLE
    assert g.realizability(k3, one) is g.Realizability.NOT_REALIZABLE


def test_realizability_non_k3(e3):
    phi = g.phi_isometry(e3, 1)
    assert g.realizability(e3, phi) is g.Realizability.REALIZABLE
    # spinor -1: outside the known subgroup, but containment cannot rule it out
    neg = g.minus_identity_on_blocks(e3.lattice, range(len(e3.lattice.blocks)))
    assert g.spinor_norm(neg) == -1
    assert g.realizability(e3, neg) is g.Realizability.UNKNOWN
    # spinor +1 but k moves: also undecided
    swap = g.minus_identity_on_blocks(e3.lattice, [0, 1])
    assert g.spinor_norm(swap) == 1
    assert not g.fixes_class(swap, e3.k)
    assert g.realizability(e3, swap) is g.Realizability.UNKNOWN


def test_isometry_json_round_trip(H2):
    iso = g.minus_identity_on_blocks(H2, [0])
    doc = iso.to_json_dict()
    back = g.isometry_from_json_dict(doc, H2)
    assert back.matrix == iso.matrix
    assert back.to_json_dict() == doc


@pytest.mark.parametrize(
    "doc",
    [
        # int() would truncate this to the identity certificate
        {"lattice": "H", "matrix": [[1.9, 0], [0, 1.5]]},
        {"lattice": "H", "matrix": [[True, False], [False, True]]},
        {"lattice": "H", "matrix": [["x", 0], [0, 1]]},
        {"lattice": "H", "matrix": [[None, 0], [0, 1]]},
        {"lattice": "H", "matrix": [1, 0, 0, 1]},
        {"lattice": "H", "matrix": "identity"},
        {"lattice": "H"},
        {"matrix": [[1, 0], [0, 1]]},
        {"lattice": ["H"], "matrix": [[1, 0], [0, 1]]},
        [[1, 0], [0, 1]],
    ],
)
def test_isometry_json_malformed_is_parse_error(H, doc):
    with pytest.raises(g.ParseError):
        g.isometry_from_json_dict(doc, H)


def test_isometry_json_non_isometry_still_rejected(H):
    with pytest.raises(g.NotAnIsometry):
        g.isometry_from_json_dict({"lattice": "H", "matrix": [[1, 1], [0, 1]]}, H)
