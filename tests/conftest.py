import random
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import settings

import genlat as g

settings.register_profile("exact", deadline=None, derandomize=True)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def H():
    return g.lattice_from_spec("H")


@pytest.fixture(scope="session")
def HODD():
    return g.lattice_from_spec("H'")


@pytest.fixture(scope="session")
def H2():
    return g.lattice_from_spec("2H")


@pytest.fixture(scope="session")
def H2E8():
    return g.lattice_from_spec("2H,E8-")


@pytest.fixture(scope="session")
def k3():
    return g.make_surface(2)


@pytest.fixture(scope="session")
def e3():
    return g.make_surface(3)


@pytest.fixture(scope="session")
def e4():
    return g.make_surface(4)


@pytest.fixture(scope="session")
def e23():
    return g.make_surface(2, 2, 3)


def generator_pool(lattice):
    """A small deterministic pool of verified isometries for sampling
    random products: transvections, reflections and block sign flips."""
    pool = []
    pairs = [i for i, b in enumerate(lattice.blocks) if b.rank == 2]
    hyper = [i for i, b in enumerate(lattice.blocks) if b is g.Block.HYPERBOLIC]
    for i in hyper:
        e = lattice.basis_class(lattice.block_offsets[i])
        f = lattice.basis_class(lattice.block_offsets[i] + 1)
        pool.append(g.reflection(lattice, e - f))
        pool.append(g.reflection(lattice, e + f))
        for j in hyper:
            if j == i:
                continue
            e2 = lattice.basis_class(lattice.block_offsets[j])
            f2 = lattice.basis_class(lattice.block_offsets[j] + 1)
            pool.append(g.eichler_transvection(lattice, e, e2))
            pool.append(g.eichler_transvection(lattice, e, f2))
            pool.append(g.eichler_transvection(lattice, f, e2 - f2))
    for i, b in enumerate(lattice.blocks):
        if b is g.Block.MINUS_E8:
            x1 = lattice.basis_class(lattice.block_offsets[i])
            x2 = lattice.basis_class(lattice.block_offsets[i] + 1)
            pool.append(g.reflection(lattice, x1))
            if hyper:
                e = lattice.basis_class(lattice.block_offsets[hyper[0]])
                pool.append(g.eichler_transvection(lattice, e, x1 + 2 * x2))
            break
    if len(pairs) >= 2:
        pool.append(g.minus_identity_on_blocks(lattice, pairs[:2]))
    return pool


def random_isometry(lattice, rng: random.Random, pool=None, steps=4):
    pool = pool if pool is not None else generator_pool(lattice)
    iso = g.identity_isometry(lattice)
    for _ in range(steps):
        iso = g.compose(rng.choice(pool), iso)
    return iso


# -- a dense spinor-norm reference over any frame -----------------------------------
#
# The library reads its frame from canonical_frame only; these build frames
# as dense coordinate columns and compute det(P^T G M P) with no shortcut.


def fraction_det(a):
    """Textbook Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def pair_columns(lattice, p, q):
    """The dense matrix of p_a^T G q_b over the columns p_a of p and q_b of q."""
    gq = [[sum(map(mul, row, col)) for row in lattice.gram] for col in q]
    return [[sum(map(mul, pa, gqb)) for gqb in gq] for pa in p]


def block_frame(lattice):
    """The columns e_s + f_s, one per rank-2 block at offset s."""
    cols = []
    for b, s in zip(lattice.blocks, lattice.block_offsets):
        if b.rank == 2:
            col = [0] * lattice.rank
            col[s] = col[s + 1] = 1
            cols.append(tuple(col))
    return cols


def skew_frame(lattice):
    """Columns p_0, p_1 + p_0, p_2 + p_1, ... from block_frame: the
    Gram P^T G P is not diagonal."""
    p = block_frame(lattice)
    return p[:1] + [tuple(map(add, p[b], p[b - 1])) for b in range(1, len(p))]


def assert_positive_frame(lattice, p):
    """sig_pos columns whose Gram has every dense leading minor > 0
    (Sylvester), so they span a maximal positive-definite subspace."""
    assert len(p) == lattice.sig_pos
    d = pair_columns(lattice, p, p)
    assert all(fraction_det([row[:k] for row in d[:k]]) > 0 for k in range(1, len(d) + 1))


def frame_spinor_sign(lattice, p, iso):
    """The sign of the dense det(P^T G M P)."""
    mp = [tuple(sum(map(mul, row, col)) for row in iso.matrix) for col in p]
    d = fraction_det(pair_columns(lattice, p, mp))
    assert d != 0
    return 1 if d > 0 else -1
