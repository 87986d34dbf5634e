import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlat as g
from genlat import intmat


def is_symmetric(a) -> bool:
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i))


def signature(a) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix.

    Computed by congruence diagonalization over the rationals; a zero
    diagonal with a non-zero off-diagonal entry is repaired with the
    standard x_i -> x_i + x_j substitution.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    pos = neg = zero = 0
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][i] != 0:
                piv = i
                break
        if piv is None:
            found = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                zero += n - k
                break
            i, j = found
            # all trailing diagonal entries vanish, so this makes
            # m[i][i] = 2*m[i][j] != 0
            for t in range(n):
                m[i][t] += m[j][t]
            for t in range(n):
                m[t][i] += m[t][j]
            piv = i
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m:
                row[k], row[piv] = row[piv], row[k]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
        for i in range(k + 1, n):
            m[i][k] = Fraction(0)
            m[k][i] = Fraction(0)
    return pos, neg, zero


def coords_strategy(rank, lo=-6, hi=6):
    return st.tuples(*[st.integers(lo, hi) for _ in range(rank)])


# -- blocks -------------------------------------------------------------------

def test_block_grams_fixed():
    assert g.Block.HYPERBOLIC.gram == ((0, 1), (1, 0))
    assert g.Block.HYPERBOLIC_ODD.gram == ((0, 1), (1, 1))
    me8 = g.Block.MINUS_E8.gram
    assert len(me8) == 8
    assert all(me8[i][i] == -2 for i in range(8))
    # chain 1..7 plus the branch node attached at position 5
    offdiag = {(i, j) for i in range(8) for j in range(8) if i != j and me8[i][j]}
    expected = set()
    for i in range(6):
        expected |= {(i, i + 1), (i + 1, i)}
    expected |= {(4, 7), (7, 4)}
    assert offdiag == expected
    assert all(me8[i][j] == 1 for i, j in offdiag)


def test_block_grams_unimodular_and_symmetric():
    for b in g.Block:
        assert is_symmetric(b.gram)
        assert intmat.det(b.gram) in (1, -1)
    # the E8 form itself has determinant one
    e8 = tuple(tuple(-x for x in row) for row in g.Block.MINUS_E8.gram)
    assert intmat.det(e8) == 1


def test_block_gram_inverse():
    for b in g.Block:
        ident = intmat.identity(b.rank)
        assert intmat.matmul(b.gram, b.gram_inverse) == ident
        assert intmat.matmul(b.gram_inverse, b.gram) == ident
    assert g.Block.HYPERBOLIC.gram_inverse == g.Block.HYPERBOLIC.gram
    assert g.Block.HYPERBOLIC_ODD.gram_inverse == ((-1, 1), (1, 0))


def _direct_sum(mats):
    n = sum(len(m) for m in mats)
    rows, offset = [], 0
    for m in mats:
        rows += [(0,) * offset + tuple(r) + (0,) * (n - offset - len(m)) for r in m]
        offset += len(m)
    return tuple(rows)


@pytest.mark.parametrize("spec", ["H", "H'", "E8-", "H',2H,2E8-", "E8-,H,E8-,H'"])
def test_gram_and_inverse_built_from_the_blocks_on_first_read(spec):
    assert "gram" not in {f.name for f in dataclasses.fields(g.Lattice)}
    lat = g.lattice_from_spec(spec)
    assert "gram" not in vars(lat) and "gram_inverse" not in vars(lat)
    assert lat.gram == _direct_sum([b.gram for b in lat.blocks])
    assert lat.gram_inverse == _direct_sum([b.gram_inverse for b in lat.blocks])
    assert intmat.matmul(lat.gram, lat.gram_inverse) == intmat.identity(lat.rank)
    assert lat.gram is lat.gram  # cached


# -- make_lattice --------------------------------------------------------------

def test_make_lattice_examples():
    lat = g.make_lattice([g.Block.HYPERBOLIC])
    assert (lat.rank, lat.sig_pos, lat.sig_neg) == (2, 1, 1)

    k3form = g.make_lattice(
        [g.Block.HYPERBOLIC] * 3 + [g.Block.MINUS_E8] * 2
    )
    assert (k3form.rank, k3form.sig_pos, k3form.sig_neg) == (22, 3, 19)

    odd = g.make_lattice([g.Block.HYPERBOLIC_ODD])
    assert (odd.rank, odd.sig_pos, odd.sig_neg) == (2, 1, 1)


def test_rank_cap():
    cap = g.lattice.MAX_RANK
    assert cap >= g.make_surface(100).lattice.rank == 1198
    assert len(g.parse_lattice_spec(f"{cap // 2}H")) == cap // 2
    # the running count is checked before the blocks are listed
    for spec in (f"{cap // 2 + 1}H", f"{cap // 2}H,H'", f"{cap // 2 - 3}H,E8-", f"{10**12}H"):
        with pytest.raises(g.BadParameters):
            g.parse_lattice_spec(spec)
    with pytest.raises(g.BadParameters):
        g.make_lattice([g.Block.HYPERBOLIC] * (cap // 2 + 1))


def test_counts_longer_than_int_converts():
    for spec in ("9" * 5000 + "H", "H," + "1" * 5000 + "E8-"):
        with pytest.raises(g.LatticeError):
            g.parse_lattice_spec(spec)


@pytest.mark.parametrize(
    "spec", ["H", "H'", "E8-", "2H", "H',2H,E8-", "3H,2E8-"]
)
def test_signature_matches_exact_diagonalization(spec):
    lat = g.lattice_from_spec(spec)
    pos, neg, zero = signature(lat.gram)
    assert zero == 0
    assert (pos, neg) == (lat.sig_pos, lat.sig_neg)
    assert intmat.det(lat.gram) in (1, -1)


def test_make_lattice_rejects_bad_input():
    with pytest.raises(g.BadParameters):
        g.make_lattice([])
    with pytest.raises(g.BadParameters):
        g.make_lattice([g.Block.HYPERBOLIC], basis_names=["a"])
    with pytest.raises(g.BadParameters):
        g.make_lattice([g.Block.HYPERBOLIC], basis_names=["a", "a"])


# -- square / divisibility / characteristic ------------------------------------

def test_square_examples(H):
    e, f = H.basis_class("e1"), H.basis_class("f1")
    assert (e + f).square() == 2
    for a in range(-5, 6):
        assert (e + a * f).square() == 2 * a
    assert H.hclass((0,) * H.rank).square() == 0


def test_divisibility_examples(H):
    e, f = H.basis_class("e1"), H.basis_class("f1")
    assert (2 * e + 4 * f).divisibility() == 2
    assert (e + 3 * f).divisibility() == 1
    assert H.hclass((0,) * H.rank).divisibility() == 0
    assert H.hclass((0,) * H.rank).divisibility() != 1


@pytest.mark.parametrize("spec", ["H", "H'", "2H,E8-"])
def test_divisibility_equals_content_of_pairings(spec):
    # gcd of coordinates = gcd{x.y : y basis vector}, by unimodularity
    lat = g.lattice_from_spec(spec)
    rng_coords = itertools.product((-2, 0, 1, 3), repeat=min(lat.rank, 4))
    for head in rng_coords:
        coords = list(head) + [0] * (lat.rank - len(head))
        x = lat.hclass(coords)
        pairings = [x.dot(lat.basis_class(i)) for i in range(lat.rank)]
        assert x.divisibility() == math.gcd(*pairings)


def test_characteristic_examples(H, HODD):
    assert H.hclass((0,) * H.rank).is_characteristic()
    k = HODD.basis_class("e1")  # first basis vector of the odd plane
    assert k.is_characteristic()
    assert not H.basis_class("e1").is_characteristic()


def test_characteristic_against_brute_force(HODD):
    lat = HODD
    for coords in itertools.product(range(-2, 3), repeat=2):
        x = lat.hclass(coords)
        brute = all(
            x.dot(lat.hclass(y)) % 2 == lat.hclass(y).square() % 2
            for y in itertools.product(range(-2, 3), repeat=2)
        )
        assert x.is_characteristic() == brute


# -- algebraic properties -------------------------------------------------------

@given(coords_strategy(4), coords_strategy(4), coords_strategy(4))
def test_pairing_symmetric_bilinear(a, b, c):
    lat = g.lattice_from_spec("2H")
    x, y, z = lat.hclass(a), lat.hclass(b), lat.hclass(c)
    assert x.dot(y) == y.dot(x)
    assert (x + y).dot(z) == x.dot(z) + y.dot(z)


@given(coords_strategy(4), st.integers(-9, 9))
def test_scaling_laws(a, r):
    lat = g.lattice_from_spec("2H")
    x = lat.hclass(a)
    assert (r * x).square() == r * r * x.square()
    assert (r * x).divisibility() == abs(r) * x.divisibility()


@given(coords_strategy(12, -3, 3))
def test_even_lattice_squares(a):
    lat = g.lattice_from_spec("H,E8-,H")
    assert lat.hclass(a).square() % 2 == 0


def test_lattice_mismatch(H, H2):
    with pytest.raises(g.LatticeMismatch):
        H.hclass((0,) * H.rank).dot(H2.hclass((0,) * H2.rank))


# E(3)'s lattice and a lattice with the same blocks and spec but default
# basis names: equal shapes, so only the lattice check can refuse
_E3 = g.make_surface(3)
_OTHER = g.make_lattice(_E3.lattice.blocks)


def _theirs(x):
    return _OTHER.hclass(x.coords)


_ID = g.Isometry(_E3.lattice, intmat.identity(_E3.lattice.rank))
_ID_OTHER = g.Isometry(_OTHER, intmat.identity(_OTHER.rank))
_MISMATCHED = {
    "HClass.dot": lambda: _E3.R.dot(_theirs(_E3.T)),
    "HClass.__add__": lambda: _E3.R + _theirs(_E3.T),
    "HClass.__sub__": lambda: _E3.R - _theirs(_E3.T),
    "Isometry.__call__": lambda: _ID(_theirs(_E3.R)),
    "compose": lambda: g.compose(_ID, _ID_OTHER),
    "fixes_class": lambda: g.fixes_class(_ID, _theirs(_E3.R)),
    "reflection": lambda: g.reflection(_E3.lattice, _theirs(_E3.S)),
    "eichler_transvection_u": lambda: g.eichler_transvection(_E3.lattice, _theirs(_E3.R), _E3.k),
    "eichler_transvection_v": lambda: g.eichler_transvection(_E3.lattice, _E3.R, _theirs(_E3.k)),
    "realizability": lambda: g.realizability(_E3, _ID_OTHER),
    "adjunction_bound": lambda: g.adjunction_bound(_E3, _theirs(_E3.R)),
    "min_genus": lambda: g.min_genus(_E3, _theirs(_E3.R)),
    "reduce_even": lambda: g.reduce_even(_E3.lattice, _theirs(_E3.R + _E3.T), 1),
    "reduce_in_elliptic": lambda: g.reduce_in_elliptic(_E3, _theirs(_E3.R + _E3.T)),
    "sphere_reduction": lambda: g.sphere_reduction(_E3, _theirs(_E3.R - _E3.T)),
    "orbit_bfs": lambda: g.orbit_bfs(_E3.lattice, [_theirs(_E3.R)], [_ID], 1),
    "orbit_bfs_generators": lambda: g.orbit_bfs(_E3.lattice, [_E3.R], [_ID_OTHER], 1),
    "exhaustive_isometry_search_x": lambda: g.exhaustive_isometry_search(
        _E3.lattice, _theirs(_E3.R), _E3.R, 1
    ),
    "exhaustive_isometry_search_y": lambda: g.exhaustive_isometry_search(
        _E3.lattice, _E3.R, _theirs(_E3.R), 1
    ),
}


@pytest.mark.parametrize("entry", sorted(_MISMATCHED))
def test_every_entry_point_refuses_an_operand_over_another_lattice(entry):
    with pytest.raises(g.LatticeMismatch):
        _MISMATCHED[entry]()


# -- spec strings ----------------------------------------------------------------

def test_spec_string_round_trip():
    for spec in ["H", "H'", "E8-", "H',2H,3E8-", "3H,2E8-", "H,H',H"]:
        blocks = g.parse_lattice_spec(spec)
        assert g.format_lattice_spec(blocks) == spec


def test_spec_string_counts():
    blocks = g.parse_lattice_spec("H',2H,3E8-")
    assert blocks == (
        g.Block.HYPERBOLIC_ODD,
        g.Block.HYPERBOLIC,
        g.Block.HYPERBOLIC,
        g.Block.MINUS_E8,
        g.Block.MINUS_E8,
        g.Block.MINUS_E8,
    )


@pytest.mark.parametrize("bad", ["", "Q", "H,", "0H", "E8", "H''", "2"])
def test_spec_string_errors(bad):
    with pytest.raises(g.ParseError):
        g.parse_lattice_spec(bad)


@pytest.mark.parametrize("bad", ["", ","])
def test_an_empty_spec_token_is_a_bad_token(bad):
    with pytest.raises(g.ParseError, match="^bad lattice token ''$"):
        g.parse_lattice_spec(bad)


# -- class parsing ----------------------------------------------------------------

def test_parse_class_dense_and_sparse(H2):
    assert g.parse_class(H2, "1,0,-2,3").coords == (1, 0, -2, 3)
    assert g.parse_class(H2, "e2=-2,f2=3,e1=1").coords == (1, 0, -2, 3)
    assert g.parse_class(H2, "e1=1", aliases={"R": "e1"}).coords == (1, 0, 0, 0)
    assert g.parse_class(H2, "R=5", aliases={"R": "e1"}).coords == (5, 0, 0, 0)


@pytest.mark.parametrize("coords", [(1.7, 2.2), (1.0, 0), (True, 0), ("1", 0)])
def test_hclass_refuses_non_integer_coordinates(H, coords):
    # int() would turn (1.7, 2.2) into (1, 2)
    with pytest.raises(g.BadParameters):
        H.hclass(coords)


def test_non_sequence_coordinates_are_bad_parameters():
    # not a bare TypeError from tuple()
    H2 = g.lattice_from_spec("2H")
    for build in (
        lambda: H2.hclass(5),
        lambda: g.HClass(H2, None),
    ):
        with pytest.raises(g.BadParameters, match="must be a sequence"):
            build()


_H2 = g.lattice_from_spec("2H")
_H3 = g.lattice_from_spec("3H")
_X3 = _H3.hclass((1, 1, 0, 0, 0, 0))
_ID3 = g.Isometry(_H3, intmat.identity(6))
_NON_INTEGER_ARGUMENTS = {
    "nucleus_min_genus float": (lambda: g.nucleus_min_genus(1.5, 1), g.PreconditionFailed),
    "nucleus_min_genus str": (lambda: g.nucleus_min_genus("a", 1), g.PreconditionFailed),
    "km_scaled_genus str": (lambda: g.km_scaled_genus("1", 2, 1), g.PreconditionFailed),
    "km_scaled_genus float": (lambda: g.km_scaled_genus(1.5, 2, 1), g.PreconditionFailed),
    "minus_identity_on_blocks": (lambda: g.minus_identity_on_blocks(_H2, 5), g.BadParameters),
    "reduce_even target float": (lambda: g.reduce_even(_H3, _X3, 1.0), g.BadParameters),
    "reduce_even target bool": (lambda: g.reduce_even(_H3, _X3, True), g.BadParameters),
    "enumerate_vectors bound": (lambda: g.enumerate_vectors(_H3, 2, 1, 1.5), g.PreconditionFailed),
    "enumerate_vectors square": (lambda: g.enumerate_vectors(_H3, 2.0, 1, 1), g.PreconditionFailed),
    "enumerate_vectors divisibility": (
        lambda: g.enumerate_vectors(_H3, 2, True, 1), g.PreconditionFailed
    ),
    "exhaustive_isometry_search": (
        lambda: g.exhaustive_isometry_search(_H3, _X3, _X3, 1.5), g.PreconditionFailed
    ),
    "orbit_bfs bound": (lambda: g.orbit_bfs(_H3, [_X3], [_ID3], 1.5), g.PreconditionFailed),
    "basis_class bool": (lambda: _H3.basis_class(True), g.BadParameters),
    "basis_class out of range": (lambda: _H3.basis_class(6), g.BadParameters),
    "hclass length": (lambda: _H3.hclass((1, 2, 3)), g.BadParameters),
    "parse_class int": (lambda: g.parse_class(_H3, 5), g.ParseError),
    "parse_surface int": (lambda: g.parse_surface(5), g.ParseError),
    "EllipticSurface.parse_class None": (lambda: _E3.parse_class(None), g.ParseError),
    "make_lattice blocks": (lambda: g.make_lattice(5), g.BadParameters),
    "make_lattice block str": (
        lambda: g.make_lattice([g.Block.HYPERBOLIC, "H"]), g.BadParameters
    ),
    "make_lattice basis_names int": (
        lambda: g.make_lattice(_H3.blocks, basis_names=5), g.BadParameters
    ),
    "make_lattice basis_names str": (
        lambda: g.make_lattice([g.Block.HYPERBOLIC], basis_names="ab"), g.BadParameters
    ),
    "make_lattice basis_names non-str": (
        lambda: g.make_lattice([g.Block.HYPERBOLIC], basis_names=[1, 2]), g.BadParameters
    ),
    "orbit_bfs seeds": (lambda: g.orbit_bfs(_H3, 5, [_ID3], 1), g.BadParameters),
    "orbit_bfs generators": (lambda: g.orbit_bfs(_H3, [_X3], 5, 1), g.BadParameters),
}


@pytest.mark.parametrize("call", sorted(_NON_INTEGER_ARGUMENTS))
def test_non_integer_arguments_are_typed_errors(call):
    # not a bare TypeError, a verdict of genus 1.0 or an internal fault
    build, error = _NON_INTEGER_ARGUMENTS[call]
    with pytest.raises(error):
        build()


def test_parse_class_errors(H2):
    with pytest.raises(g.ParseError):
        g.parse_class(H2, "nope=1")
    with pytest.raises(g.ParseError):
        g.parse_class(H2, "1,2,3")
    with pytest.raises(g.ParseError):
        g.parse_class(H2, "e1=1,e1=2")
    with pytest.raises(g.ParseError):
        g.parse_class(H2, "e1=x")
    with pytest.raises(g.ParseError):
        g.parse_class(H2, "1,2,3,x")
    with pytest.raises(g.ParseError):
        g.parse_class(H2, "e1=1,f1")


# -- JSON -------------------------------------------------------------------------

def test_lattice_json_round_trip(H2E8):
    doc = json.loads(json.dumps(H2E8.to_json_dict()))
    lat = g.lattice_from_json_dict(doc)
    assert lat == H2E8


def test_hclass_json_round_trip(H2):
    x = H2.hclass([1, -2, 0, 7])
    doc = json.loads(json.dumps(x.to_json_dict()))
    y = g.hclass_from_json_dict(doc, H2)
    assert y.coords == x.coords
    assert y.lattice.gram == x.lattice.gram


@pytest.mark.parametrize(
    "doc",
    [
        {"blocks": ["X"]},
        {"blocks": [["H"]]},
        {"blocks": "H"},
        {"spec": "H"},
        {"blocks": ["H"], "basis_names": 5},
        {"blocks": ["H"], "gram": [[0, 1.0], [1, 0]]},
        {"blocks": ["H"], "gram": [[0, 1], [1, 1]]},
        {"blocks": ["H"], "gram": [[False, True], [True, False]]},
        {"blocks": ["H"], "gram": [[0, "1"], [1, 0]]},
        {"blocks": ["H"], "gram": "[[0,1],[1,0]]"},
        ["H"],
        {"blocks": ["H"], "basis_names": [None, "x"]},
        {"blocks": ["H"], "basis_names": []},
        {"blocks": ["H"], "basis_names": ["a"]},
        {"blocks": ["H"], "basis_names": ["a", "b", "c"]},
        {"blocks": ["H"], "basis_names": ["a", "a"]},
        {"blocks": ["H"], "basis_names": "ab"},
        {"blocks": ["H"], "basis_names": None},
    ],
)
def test_lattice_json_malformed_is_parse_error(doc):
    with pytest.raises(g.ParseError):
        g.lattice_from_json_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"coords": [1, 0]},
        {"lattice": "H"},
        {"lattice": 2, "coords": [1, 0]},
        {"lattice": "H", "coords": [1.5, 0]},
        {"lattice": "H", "coords": [True, 0]},
        {"lattice": "H", "coords": "1,0"},
    ],
)
def test_hclass_json_malformed_is_parse_error(H, doc):
    with pytest.raises(g.ParseError):
        g.hclass_from_json_dict(doc, H)
