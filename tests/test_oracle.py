import io
from collections import deque

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import genlat as g
from genlat import intmat


# -- enumerate_vectors ---------------------------------------------------------

def test_enumerate_h_square_zero(H):
    got = {x.coords for x in g.enumerate_vectors(H, 0, 1, 1)}
    assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_enumerate_h_square_two(H):
    got = {x.coords for x in g.enumerate_vectors(H, 2, 1, 1)}
    assert got == {(1, 1), (-1, -1)}


def test_enumerate_h_divisible(H):
    got = {x.coords for x in g.enumerate_vectors(H, 0, 2, 2)}
    assert got == {(2, 0), (-2, 0), (0, 2), (0, -2)}


def test_enumerate_deterministic_order(H2):
    a = g.enumerate_vectors(H2, 2, 1, 1)
    b = g.enumerate_vectors(H2, 2, 1, 1)
    assert [x.coords for x in a] == [x.coords for x in b]
    assert [x.coords for x in a] == sorted(x.coords for x in a)


@pytest.mark.parametrize("div", [0, -1])
def test_enumerate_refuses_divisibility_below_one(H, div):
    # divisibility 0 would admit the zero vector as an orbit
    with pytest.raises(g.PreconditionFailed):
        g.enumerate_vectors(H, 0, div, 1)


def test_enumerate_budget(k3):
    with pytest.raises(g.BudgetExceeded):
        g.enumerate_vectors(k3.lattice, 0, 1, 1)  # 3^22 states


# -- default generators ----------------------------------------------------------

def test_default_generators_verified_and_deduped(H2):
    gens = g.default_generators(H2)
    seen = set()
    for iso in gens:
        assert iso.matrix not in seen
        seen.add(iso.matrix)
        g.verify_isometry(H2, iso.matrix)  # re-check
    assert len(gens) > 10


def test_generator_spinor_signs(H2):
    e1, f1 = H2.basis_class("e1"), H2.basis_class("f1")
    pos = g.reflection(H2, e1 + f1)
    neg = g.reflection(H2, e1 - f1)
    gens = {iso.matrix: iso for iso in g.default_generators(H2)}
    assert pos.matrix in gens and neg.matrix in gens
    assert g.spinor_norm(pos) == -1
    assert g.spinor_norm(neg) == 1


# -- orbit_bfs --------------------------------------------------------------------

def test_orbit_single_plane_splits(H):
    # with one hyperbolic plane the spinor-one subset cannot join the
    # two signed orbits, while the full set can
    seeds = g.enumerate_vectors(H, 0, 1, 1)
    report = g.orbit_bfs(H, seeds, g.default_generators(H), 1)
    assert report.vectors_found == 4
    assert report.orbit_count_full == 1
    assert report.orbit_count_spinor1 == 2
    assert report.orbit_count_spinor1 >= report.orbit_count_full


def test_orbit_two_planes_single_orbit(H2):
    gens = g.default_generators(H2)
    for sq in (0, 2):
        seeds = g.enumerate_vectors(H2, sq, 1, 2)
        report = g.orbit_bfs(H2, seeds, gens, 2)
        assert report.orbit_count_full == 1
        assert report.orbit_count_spinor1 == 1


def test_orbit_deterministic(H2):
    gens = g.default_generators(H2)
    seeds = g.enumerate_vectors(H2, 0, 1, 1)
    a = g.orbit_bfs(H2, seeds, gens, 1).to_json_dict()
    b = g.orbit_bfs(H2, seeds, gens, 1).to_json_dict()
    assert a == b


def test_orbit_witnesses_verify(H2):
    gens = g.default_generators(H2)
    seeds = g.enumerate_vectors(H2, 2, 1, 1)
    report = g.orbit_bfs(H2, seeds, gens, 1, include_witnesses=True)
    assert report.witnesses
    for vec, canonical, cert in report.witnesses:
        g.verify_isometry(H2, cert.matrix)
        assert intmat.matvec(cert.matrix, vec) == canonical


def test_orbit_witnesses_need_generators_closed_under_inverses(H2):
    # one transvection without its inverse: the witness tree, which walks
    # forward steps only, cannot reach every member of a component
    args = (H2, g.enumerate_vectors(H2, 0, 1, 1), [g.default_generators(H2)[0]], 1)
    with pytest.raises(g.PreconditionFailed, match="closed under inverses"):
        g.orbit_bfs(*args, include_witnesses=True)
    report = g.orbit_bfs(*args)
    assert (report.vectors_found, report.orbit_count_full, report.orbit_count_spinor1) == (
        32, 16, 16
    )


def test_orbit_budget(H2):
    seeds = g.enumerate_vectors(H2, 0, 1, 2)
    with pytest.raises(g.BudgetExceeded):
        g.orbit_bfs(H2, seeds, g.default_generators(H2), 2, max_states=50)


def test_orbit_progress_stream(H):
    err = io.StringIO()
    seeds = g.enumerate_vectors(H, 0, 1, 1)
    g.orbit_bfs(H, seeds, g.default_generators(H), 1, progress=err)
    # tiny run: just confirm nothing crashed and stream usable
    assert err.getvalue() == ""


def test_orbit_agreement_with_reduction(H2):
    # reduce_even sends every seed to the canonical vector, which must
    # share the seed's spinor-one component
    gens = g.default_generators(H2)
    seeds = g.enumerate_vectors(H2, 2, 1, 2)
    report = g.orbit_bfs(H2, seeds, gens, 2, include_witnesses=True)
    by_vec = {vec: root for vec, root, _ in report.witnesses}
    for x in seeds:
        res = g.reduce_even(H2, x, 0)
        assert by_vec[res.canonical.coords] == by_vec[x.coords]


# -- orbit_bfs against a two-sweep reference ----------------------------------------

class _RefDSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra

    def component_count(self):
        return sum(1 for x in self.parent if self.find(x) == x)


def _ref_witnesses(lattice, seed_coords, dsu, gens):
    # breadth-first tree from each component's minimum, generators applied
    # again in generator order
    comps = {}
    for x in seed_coords:
        comps.setdefault(dsu.find(x), []).append(x)
    out = []
    members_all = set(seed_coords)
    for members in comps.values():
        root = min(members)
        reach = {root: intmat.identity(lattice.rank)}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for gen in gens:
                y = intmat.matvec(gen.matrix, x)
                if y in members_all and y not in reach:
                    reach[y] = intmat.matmul(gen.matrix, reach[x])
                    queue.append(y)
        for x in members:
            cert = g.verify_isometry(lattice, reach[x]).inverse()
            assert intmat.matvec(cert.matrix, x) == root
            out.append((x, root, cert))
    out.sort(key=lambda item: item[0])
    return tuple(out)


def _ref_orbit_bfs(lattice, seeds, generators, bound, include_witnesses=False):
    # one full sweep per generator set and a witness tree that applies
    # the generators again: slower, but it shares no bookkeeping with
    # orbit_bfs
    seeds = list(seeds)
    seed_coords = sorted({s.coords for s in seeds})
    sq = seeds[0].square() if seeds else None
    div = seeds[0].divisibility() if seeds else None
    spin1 = [gen for gen in generators if g.spinor_norm(gen) == 1]

    def sweep(gens):
        dsu = _RefDSU(seed_coords)
        for x in seed_coords:
            for gen in gens:
                y = intmat.matvec(gen.matrix, x)
                if max(map(abs, y), default=0) <= bound:
                    assert y in dsu.parent
                    dsu.union(x, y)
        return dsu

    full, spin = sweep(generators), sweep(spin1)
    witnesses = None
    if include_witnesses:
        witnesses = _ref_witnesses(lattice, seed_coords, spin, spin1)
    return g.OrbitReport(
        lattice=lattice,
        square=sq,
        divisibility=div,
        coord_bound=bound,
        vectors_found=len(seed_coords),
        orbit_count_full=full.component_count(),
        orbit_count_spinor1=spin.component_count(),
        witnesses=witnesses,
    )


_ALL_CELLS = [(sq, div) for sq in range(-4, 5) for div in (1, 2)]


@pytest.mark.parametrize("witnesses", [False, True])
@pytest.mark.parametrize(
    "spec,bound,cells",
    [("H", 1, _ALL_CELLS), ("H", 2, _ALL_CELLS), ("2H", 1, _ALL_CELLS), ("2H", 2, _ALL_CELLS),
     ("3H", 1, [(2, 1)])],
    ids=["H-1", "H-2", "2H-1", "2H-2", "3H-1"],
)
def test_orbit_matches_two_sweep_reference(spec, bound, cells, witnesses):
    lat = g.lattice_from_spec(spec)
    gens = g.default_generators(lat)
    for sq, div in cells:
        seeds = g.enumerate_vectors(lat, sq, div, bound)
        got = g.orbit_bfs(lat, seeds, gens, bound, include_witnesses=witnesses)
        want = _ref_orbit_bfs(lat, seeds, gens, bound, include_witnesses=witnesses)
        assert got.to_json_dict() == want.to_json_dict(), (sq, div)


def test_orbit_budget_counts_each_application_once(H2):
    gens = g.default_generators(H2)
    seeds = g.enumerate_vectors(H2, 0, 1, 2)
    exact = len(seeds) * len(gens)
    report = g.orbit_bfs(H2, seeds, gens, 2, max_states=exact, include_witnesses=True)
    assert report.vectors_found == len(seeds)
    with pytest.raises(g.BudgetExceeded, match=f"exceeded {exact - 1} generator"):
        g.orbit_bfs(H2, seeds, gens, 2, max_states=exact - 1)


def test_orbit_progress_line_per_50000_applications(H2):
    # 96 seeds times 13 copies of the 44 generators: 54,912 applications
    gens = g.default_generators(H2) * 13
    seeds = g.enumerate_vectors(H2, 0, 1, 2)
    assert 50000 <= len(seeds) * len(gens) < 100000
    err = io.StringIO()
    g.orbit_bfs(H2, seeds, gens, 2, progress=err)
    assert err.getvalue() == "orbit-bfs: 50000 generator applications\n"


@pytest.mark.parametrize("max_states", [49999, 50000, 50010])
def test_orbit_budget_cut_inside_a_generator_batch(H2, max_states):
    # generator 521 covers applications 49,921 to 50,016, so every cut
    # falls inside its batch, with 50,000 inside that batch too
    gens = g.default_generators(H2) * 13
    seeds = g.enumerate_vectors(H2, 0, 1, 2)
    assert len(seeds) == 96 and len(seeds) * len(gens) > max_states
    # a seed-major count: one line per multiple of 50,000 up to the budget
    want = "".join(
        f"orbit-bfs: {k} generator applications\n"
        for k in range(1, max_states + 1)
        if k % 50000 == 0
    )
    err = io.StringIO()
    with pytest.raises(g.BudgetExceeded) as info:
        g.orbit_bfs(H2, seeds, gens, 2, max_states=max_states, progress=err)
    assert str(info.value) == f"orbit sweep exceeded {max_states} generator applications"
    assert err.getvalue() == want


def test_orbit_seeds_outside_the_bound_take_no_union(H2):
    # at bound 0 every seed lies outside the bound, so no image is a
    # target: each seed is its own orbit and its own witness root
    gens = g.default_generators(H2)
    seeds = g.enumerate_vectors(H2, 2, 1, 1)
    report = g.orbit_bfs(H2, seeds, gens, 0, include_witnesses=True)
    assert report.orbit_count_full == report.orbit_count_spinor1 == len(seeds)
    assert all(vec == root for vec, root, _ in report.witnesses)
    want = _ref_orbit_bfs(H2, seeds, gens, 0, include_witnesses=True)
    assert report.to_json_dict() == want.to_json_dict()


_H2 = g.lattice_from_spec("2H")
_H2_GENS = g.default_generators(_H2)
# (bound, in-bound seeds, seeds of the next shell out) per non-empty 2H cell
_H2_CELLS = [
    (
        bound,
        g.enumerate_vectors(_H2, sq, div, bound),
        [x for x in g.enumerate_vectors(_H2, sq, div, bound + 1) if max(map(abs, x.coords)) > bound],
    )
    for bound in (1, 2)
    for sq, div in [(-4, 1), (-2, 1), (0, 1), (2, 1), (4, 1), (0, 2)]
    if g.enumerate_vectors(_H2, sq, div, bound)
]


@st.composite
def _seed_sets(draw):
    """One 2H cell's in-bound seeds, all or a random non-empty subset,
    plus seeds of the same square and divisibility outside the bound."""
    bound, cell, shell = draw(st.sampled_from(_H2_CELLS))
    inside = cell
    if not draw(st.booleans()):
        inside = draw(st.lists(st.sampled_from(cell), min_size=1, unique=True))
    outside = draw(st.lists(st.sampled_from(shell), max_size=8, unique=True)) if shell else []
    return bound, draw(st.permutations(inside + outside))


@settings(max_examples=200)
@given(_seed_sets(), st.booleans())
def test_orbit_matches_reference_on_seed_subsets(case, witnesses):
    # a subset that is not closed under the generators fails the
    # reference's closure assert (a KeyError under python -O) and must
    # raise InvariantViolation here; otherwise the reports agree
    bound, seeds = case
    try:
        want = _ref_orbit_bfs(_H2, seeds, _H2_GENS, bound, include_witnesses=witnesses)
    except (AssertionError, KeyError):
        event("seeds not closed")  # shown by --hypothesis-show-statistics
        with pytest.raises(g.InvariantViolation):
            g.orbit_bfs(_H2, seeds, _H2_GENS, bound, include_witnesses=witnesses)
        return
    event(f"reports compared, {'with' if witnesses else 'no'} witnesses")
    got = g.orbit_bfs(_H2, seeds, _H2_GENS, bound, include_witnesses=witnesses)
    assert got.to_json_dict() == want.to_json_dict()


# -- restricted transitivity, checked by the oracle ----------------------------------

@pytest.mark.parametrize("spec", ["3H", "H',2H"])
@pytest.mark.parametrize("square, orbits", [(-2, 5), (0, 9), (2, 5), (4, 5)])
def test_k_and_w_fixing_orbits_are_told_apart_by_a_w_and_the_reduced_b(spec, square, orbits):
    # Block 0 stands for (k, W).  A k-orthogonal primitive class is
    # A = a k + B with B in the blocks after it, and the paper's restricted
    # transitivity says the k- and W-fixing spinor-+1 isometries move A
    # exactly as far as a = A.W and the canonical form of B allow.  The
    # oracle closes the seeds under the generators that fix k and W, with
    # no reduction code involved.  Bound 1 is too small a box: at square 4
    # its 12 seeds fall into 12 spinor-+1 components against 3 orbits.  A
    # lattice with an E8- block is out of reach: H,2H,E8- has 3^14
    # vectors even at bound 1.
    lattice = g.lattice_from_spec(spec)
    k, w = lattice.basis_class(0), lattice.basis_class(1)
    gens = [m for m in g.default_generators(lattice) if g.fixes_class(m, k) and g.fixes_class(m, w)]
    assert len(gens) == 44
    seeds = [x for x in g.enumerate_vectors(lattice, square, 1, 2) if x.dot(k) == 0]
    invariants = set()
    for x in seeds:
        b = x - x.coords[0] * k
        canonical = b if b.is_zero else g.reduce_even(lattice, b, 1, (1, 2)).canonical
        invariants.add((x.dot(w), canonical.coords))
    report = g.orbit_bfs(lattice, seeds, gens, 2)
    assert report.orbit_count_full == report.orbit_count_spinor1 == len(invariants) == orbits


# -- exhaustive search --------------------------------------------------------------

def test_search_swap(H):
    iso = g.exhaustive_isometry_search(H, H.basis_class("e1"), H.basis_class("f1"), 1)
    assert iso is not None
    assert iso(H.basis_class("e1")) == H.basis_class("f1")


def test_search_cross_check_reduction(H2):
    x = H2.hclass([1, 1, 1, 1])
    y = H2.hclass([1, 2, 0, 0])
    iso = g.exhaustive_isometry_search(H2, x, y, 2)
    assert iso is not None
    assert iso(x) == y
    assert g.spinor_norm(iso) in (1, -1)


def test_search_precondition(H):
    e, f = H.basis_class("e1"), H.basis_class("f1")
    with pytest.raises(g.PreconditionFailed):
        g.exhaustive_isometry_search(H, e, e + f, 1)  # squares differ
    with pytest.raises(g.PreconditionFailed):
        g.exhaustive_isometry_search(H, e, 2 * e, 1)  # divisibility differs


def test_search_finds_nothing_past_the_entry_bound(H2):
    e1, e2 = H2.basis_class("e1"), H2.basis_class("e2")
    assert g.exhaustive_isometry_search(H2, e1, e1 + 2 * e2, 1) is None


def test_search_budget(H2):
    x = H2.hclass([1, 1, 1, 1])
    y = H2.hclass([1, 2, 0, 0])
    with pytest.raises(g.BudgetExceeded):
        g.exhaustive_isometry_search(H2, x, y, 2, max_states=3)
    # 3^4 = 81 candidates pass the enumeration check; the search does not
    x = H2.hclass([-2, -1, -2, 1])
    with pytest.raises(g.BudgetExceeded, match="^search exceeded 81 states$"):
        g.exhaustive_isometry_search(H2, x, x, 1, max_states=81)



_BUDGETED = {
    "enumerate_vectors": lambda H, budget: g.enumerate_vectors(H, 0, 1, 1, max_states=budget),
    "orbit_bfs": lambda H, budget: g.orbit_bfs(
        H, g.enumerate_vectors(H, 0, 1, 1), g.default_generators(H), 1, max_states=budget
    ),
    "exhaustive_isometry_search": lambda H, budget: g.exhaustive_isometry_search(
        H, H.basis_class("e1"), H.basis_class("f1"), 1, max_states=budget
    ),
}


@pytest.mark.parametrize("budget", ["x", None, 1e9, True], ids=["str", "None", "float", "bool"])
@pytest.mark.parametrize("call", sorted(_BUDGETED))
def test_max_states_must_be_an_int(H, call, budget):
    # not a bare TypeError, nor a float or a bool taken as a budget
    with pytest.raises(g.PreconditionFailed, match="max_states"):
        _BUDGETED[call](H, budget)

def test_orbit_report_json(H2):
    gens = g.default_generators(H2)
    seeds = g.enumerate_vectors(H2, 0, 1, 1)
    doc = g.orbit_bfs(H2, seeds, gens, 1).to_json_dict()
    assert doc["lattice"] == "2H"
    assert doc["square"] == 0 and doc["divisibility"] == 1
    assert doc["orbit_count_spinor1"] >= doc["orbit_count_full"]


def test_orbit_report_carries_the_given_query(H2):
    gens = g.default_generators(H2)
    report = g.orbit_bfs(H2, [], gens, 1, square=3, divisibility=2)
    assert (report.square, report.divisibility, report.vectors_found) == (3, 2, 0)
    # with neither seeds nor a query there is nothing to report
    report = g.orbit_bfs(H2, [], gens, 1)
    assert (report.square, report.divisibility) == (None, None)
    seeds = g.enumerate_vectors(H2, 0, 1, 1)
    assert g.orbit_bfs(H2, seeds, gens, 1, square=0, divisibility=1).vectors_found == len(seeds)
    with pytest.raises(g.PreconditionFailed):
        g.orbit_bfs(H2, seeds, gens, 1, square=2, divisibility=1)
