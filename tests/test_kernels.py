"""The sparse exact kernels against naive dense references.

The references below are the textbook triple loops, kept here so the
library's structure-aware products are always compared with code that
has no shortcut to get wrong.
"""

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlat as g
from genlat import intmat

from conftest import (
    assert_positive_frame,
    block_frame,
    frame_spinor_sign,
    generator_pool,
    pair_columns,
    random_isometry,
    skew_frame,
)

# -- dense references ------------------------------------------------------------


def dense_matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols))
        for i in range(len(a))
    )


def dense_vecmat(v, a):
    cols = len(a[0]) if a else 0
    return tuple(sum(v[t] * a[t][j] for t in range(len(a))) for j in range(cols))


def dense_matvec(a, v):
    return tuple(sum(row[t] * v[t] for t in range(len(v))) for row in a)


def dense_mt_g_m(gram, m):
    return dense_matmul(dense_matmul(tuple(zip(*m)), gram), m)


# -- strategies --------------------------------------------------------------------

BIG = 2**200
# zeros dominate, as in certificates; 200-bit entries exercise big ints
ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-BIG, BIG))


def vectors(length):
    return st.one_of(st.just((0,) * length), st.tuples(*[ENTRY] * length))


def matrices(rows, cols):
    # whole rows are sometimes zero
    return st.tuples(*[vectors(cols)] * rows)


@st.composite
def product_operands(draw):
    r = draw(st.integers(0, 5))
    k = draw(st.integers(1, 5))
    c = draw(st.integers(1, 5))
    return draw(matrices(r, k)), draw(matrices(k, c))


@st.composite
def lattices(draw):
    blocks = draw(st.lists(st.sampled_from(list(g.Block)), min_size=1, max_size=4))
    return g.make_lattice(blocks)


# -- intmat ------------------------------------------------------------------------


@given(product_operands())
def test_matmul_matches_dense(ab):
    a, b = ab
    assert intmat.matmul(a, b) == dense_matmul(a, b)


@settings(max_examples=30)
@pytest.mark.parametrize("r,k,c", [(1, 6, 1), (6, 1, 6), (1, 1, 1), (1, 6, 6), (6, 6, 1)])
@given(data=st.data())
def test_matmul_thin_shapes(r, k, c, data):
    a = data.draw(matrices(r, k))
    b = data.draw(matrices(k, c))
    assert intmat.matmul(a, b) == dense_matmul(a, b)


def test_matmul_empty_shapes():
    assert intmat.matmul((), ((1, 2), (3, 4))) == ()
    assert intmat.matmul(((), ()), ()) == ((), ())
    assert intmat.matmul(((0, 0),), ((5, 6), (7, 8))) == ((0, 0),)


@given(product_operands())
def test_vecmat_matches_dense(ab):
    a, b = ab
    for v in a:
        assert intmat.vecmat(v, b) == dense_vecmat(v, b)


def test_vecmat_empty_and_zero():
    assert intmat.vecmat((), ()) == ()
    assert intmat.vecmat((0, 0), ((1, 2), (3, 4))) == (0, 0)
    assert intmat.vecmat((BIG,), ((1, -1, 0),)) == (BIG, -BIG, 0)


@given(st.integers(0, 6), st.data())
def test_identity_plus_matches_dense(n, data):
    u = data.draw(vectors(n))
    w = data.draw(vectors(n))
    want = tuple(
        tuple(int(i == j) + u[i] * w[j] for j in range(n)) for i in range(n)
    )
    assert intmat.identity_plus(n, [(u, w)]) == want


def test_identity_shape():
    for n in range(5):
        assert intmat.identity(n) == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )


@pytest.mark.parametrize("m", [((1, 2), (2, 4)), ((0, 1), (0, 2))])
def test_det_of_a_singular_matrix(m):
    assert intmat.det(m) == 0


# -- the lattice pairing ------------------------------------------------------------


@given(lattices(), st.data())
def test_gram_apply_and_pair_match_dense(lat, data):
    u = data.draw(vectors(lat.rank))
    v = data.draw(vectors(lat.rank))
    gv = intmat.matvec(lat.gram, v)
    assert lat.gram_apply(v) == gv
    assert lat.pair(u, v) == intmat.dot(u, gv)
    assert lat.hclass(u).dot(lat.hclass(v)) == intmat.dot(u, gv)


def test_lattice_equality_ignores_the_dense_gram():
    a = g.lattice_from_spec("H',2H,E8-")
    b = g.lattice_from_spec("H',2H,E8-")
    assert a == b and hash(a) == hash(b)
    renamed = g.make_lattice(a.blocks, [f"b{i}" for i in range(a.rank)])
    assert renamed != a
    assert g.lattice_from_spec("2H,H'") != g.lattice_from_spec("H',2H")


# -- isometries ----------------------------------------------------------------------


@given(st.integers(0, 2**32), st.data())
def test_apply_matches_dense_matvec(seed, data):
    lat = g.lattice_from_spec("2H,E8-")
    iso = random_isometry(lat, random.Random(seed), steps=5)
    x = data.draw(vectors(lat.rank))
    assert iso.apply(x) == dense_matvec(iso.matrix, x)
    assert iso(lat.hclass(x)).coords == dense_matvec(iso.matrix, x)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["E(3)", "E(6)", "E(2;2,3)"]),
    st.lists(st.integers(-4, 4), min_size=70, max_size=70).filter(lambda c: any(c[2:22])),
    st.data(),
)
def test_apply_matches_dense_matvec_on_reduction_certificates(spec, coords, data):
    # apply reads only the moved columns of M - I; the class has W = 0,
    # so it is orthogonal to k on every surface here
    s = _surface(spec)
    lat = s.lattice
    iso = g.reduce_in_elliptic(s, lat.hclass([coords[0], 0] + coords[2:lat.rank])).certificate
    x = data.draw(vectors(lat.rank))
    assert iso.apply(x) == dense_matvec(iso.matrix, x) == intmat.matvec(iso.matrix, x)


@cache
def _surface(spec):
    return g.parse_surface(spec)


@cache
def _certificate(spec):
    # a reduction that moves the E8 part, so the certificate is not
    # supported on the hyperbolic blocks alone
    s = g.parse_surface(spec)
    a = s.parse_class("e1=3,f1=5,e2=2,f2=-1,x1_1=1,x1_3=-2,x2_5=1")
    return s.lattice, g.reduce_in_elliptic(s, a).certificate.matrix


@settings(max_examples=60)
@pytest.mark.parametrize("spec", ["E(3)", "E(2;2,3)"])
@given(data=st.data())
def test_verify_rejects_single_entry_perturbation(spec, data):
    lat, m = _certificate(spec)
    n = lat.rank
    i = data.draw(st.integers(0, n - 1), label="row")
    j = data.draw(st.integers(0, n - 1), label="col")
    delta = data.draw(st.integers(-BIG, BIG).filter(bool), label="delta")
    bad = [list(row) for row in m]
    bad[i][j] += delta
    check = dense_mt_g_m(lat.gram, bad)
    if check == lat.gram:
        # a rank-one change can be a reflection in rare cases; then the
        # check must accept it like the dense reference does
        assert g.verify_isometry(lat, bad).matrix == tuple(map(tuple, bad))
        return
    with pytest.raises(g.NotAnIsometry) as exc:
        g.verify_isometry(lat, bad)
    r, c = exc.value.entry
    assert check[r][c] != lat.gram[r][c]


def test_verify_accepts_the_unperturbed_certificates():
    for spec in ("E(3)", "E(2;2,3)"):
        lat, m = _certificate(spec)
        assert dense_mt_g_m(lat.gram, m) == lat.gram
        assert g.verify_isometry(lat, m).matrix == m


def _moved_columns(m):
    n = len(m)
    return [j for j in range(n) if any(m[i][j] != (i == j) for i in range(n))]


@settings(max_examples=25)
@pytest.mark.parametrize("spec", ["E(6)", "E(2;2,3)"])
@pytest.mark.parametrize("where", ["moved", "unit"])
@given(data=st.data())
def test_verify_matches_dense_in_moved_and_unit_columns(spec, where, data):
    # the check computes only the rows of moved columns; a perturbation
    # in a unit column moves that column, and must still be found
    lat, m = _certificate(spec)
    n = lat.rank
    moved = _moved_columns(m)
    cols = moved if where == "moved" else sorted(set(range(n)) - set(moved))
    j = data.draw(st.sampled_from(cols), label="col")
    i = data.draw(st.integers(0, n - 1), label="row")
    delta = data.draw(st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)).filter(bool), label="delta")
    bad = [list(row) for row in m]
    bad[i][j] += delta
    check = dense_mt_g_m(lat.gram, bad)
    wrong = [(r, c) for r in range(n) for c in range(n) if check[r][c] != lat.gram[r][c]]
    if not wrong:
        assert g.verify_isometry(lat, bad).matrix == tuple(map(tuple, bad))
        return
    with pytest.raises(g.NotAnIsometry) as exc:
        g.verify_isometry(lat, bad)
    # the first wrong entry in row-major order, as a full check finds it
    assert exc.value.entry == wrong[0]


@cache
def _spinor_setup(spec):
    """The surface, its generator pool, and two positive frames as dense
    columns: e_s + f_s per rank-2 block, and a skew frame whose Gram is
    not diagonal."""
    s = g.parse_surface(spec)
    lat = s.lattice
    frames = (block_frame(lat), skew_frame(lat))
    for p in frames:
        assert_positive_frame(lat, p)
    d_skew = pair_columns(lat, frames[1], frames[1])
    assert any(x for i, row in enumerate(d_skew) for j, x in enumerate(row) if i != j)
    return s, generator_pool(lat), frames


@settings(max_examples=40)
@pytest.mark.parametrize("spec", ["E(3)", "E(2;2,3)"])
@given(
    seed=st.integers(0, 2**32),
    steps=st.integers(0, 5),
    flip=st.booleans(),
    negate=st.lists(st.integers(0, 2**32), max_size=2),
)
def test_spinor_norm_matches_dense_determinant(spec, seed, steps, flip, negate):
    s, pool, frames = _spinor_setup(spec)
    lat = s.lattice
    iso = random_isometry(lat, random.Random(seed), pool, steps=steps)
    pairs = [i for i, b in enumerate(lat.blocks) if b.rank == 2]
    for k in negate:  # -id on random rank-2 blocks gives columns -c e_b of B
        rng = random.Random(k)
        blocks = rng.sample(pairs, rng.randint(1, len(pairs)))
        iso = g.compose(g.minus_identity_on_blocks(lat, blocks), iso)
    if flip:  # the reflection in R + T, of square 2, has spinor norm -1
        iso = g.compose(g.reflection(lat, s.R + s.T), iso)
    # the sign does not depend on the positive frame
    for p in frames:
        assert g.spinor_norm(iso) == frame_spinor_sign(lat, p, iso)


def test_spinor_norm_of_the_reflection_in_r_plus_t():
    for spec in ("E(3)", "E(2;2,3)"):
        s, _, frames = _spinor_setup(spec)
        r = g.reflection(s.lattice, s.R + s.T)
        assert g.spinor_norm(r) == -1
        assert [frame_spinor_sign(s.lattice, p, r) for p in frames] == [-1, -1]
