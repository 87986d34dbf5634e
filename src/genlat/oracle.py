"""Desk-scale brute force: vector enumeration, orbit computation under a
fixed generator set, and exhaustive isometry search.

Everything here is an independent cross-check for the reduction engine,
so it deliberately shares no code path with it: orbits come from plain
closure under verified generator matrices, witnesses from path
composition, and search candidates from raw coordinate enumeration.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import partial, reduce
from operator import add, mul

from . import intmat
from .errors import BudgetExceeded, InvariantViolation, LatticeError, PreconditionFailed
from .isometry import Isometry, eichler_transvection, reflection, spinor_norm
from .lattice import HClass, Lattice, as_tuple, check_ints, check_same_lattice

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class OrbitReport:
    """Orbit statistics among the in-bound vectors of one square and
    divisibility (None when neither the caller nor a seed gave them)."""

    lattice: Lattice
    square: int | None
    divisibility: int | None
    coord_bound: int
    vectors_found: int
    orbit_count_full: int
    orbit_count_spinor1: int
    witnesses: tuple | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "lattice": self.lattice.spec,
            "square": self.square,
            "divisibility": self.divisibility,
            "coord_bound": self.coord_bound,
            "vectors_found": self.vectors_found,
            "orbit_count_full": self.orbit_count_full,
            "orbit_count_spinor1": self.orbit_count_spinor1,
            "witnesses": None,
        }
        if self.witnesses is not None:
            doc["witnesses"] = [
                {
                    "vector": list(vec),
                    "canonical": list(can),
                    "certificate": [list(row) for row in cert.matrix],
                }
                for vec, can, cert in self.witnesses
            ]
        return doc


def enumerate_vectors(
    lattice: Lattice,
    square: int,
    divisibility: int,
    bound: int,
    max_states: int = DEFAULT_BUDGET,
) -> list[HClass]:
    """All classes with max-norm <= bound of the given square and
    divisibility, in lexicographic coordinate order."""
    check_ints(
        (square, divisibility, bound, max_states),
        PreconditionFailed,
        "square, divisibility, bound, max_states",
    )
    if bound < 1:
        raise PreconditionFailed("bound must be at least 1")
    if divisibility < 1:
        raise PreconditionFailed("divisibility must be at least 1")
    width = 2 * bound + 1
    if width ** lattice.rank > max_states:
        raise BudgetExceeded(
            f"enumeration of {width}^{lattice.rank} vectors exceeds the budget"
        )
    return [
        lattice.hclass(c)
        for c in itertools.product(range(-bound, bound + 1), repeat=lattice.rank)
        if math.gcd(*c) == divisibility and lattice.pair(c, c) == square
    ]


def default_generators(lattice: Lattice) -> list[Isometry]:
    """The fixed desk-scale generator set: Eichler transvections and
    reflections with u, v drawn from the basis vectors, their negatives
    and pairwise sums and differences."""
    rank = lattice.rank
    cands: list[intmat.Vector] = []
    for i in range(rank):
        for s in (1, -1):
            v = [0] * rank
            v[i] = s
            cands.append(tuple(v))
    for i in range(rank):
        for j in range(i + 1, rank):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                v = [0] * rank
                v[i], v[j] = si, sj
                cands.append(tuple(v))

    pair = lattice.pair
    ident = intmat.identity(rank)
    seen: dict[intmat.Matrix, None] = {}
    gens: list[Isometry] = []
    for u in cands:
        if pair(u, u) != 0:
            continue
        for v in cands:
            if pair(u, v) != 0 or pair(v, v) % 2 != 0:
                continue
            iso = eichler_transvection(lattice, lattice.hclass(u), lattice.hclass(v))
            if iso.matrix == ident or iso.matrix in seen:
                continue
            seen[iso.matrix] = None
            gens.append(iso)
    for v in cands:
        try:
            iso = reflection(lattice, lattice.hclass(v))
        except LatticeError:
            continue
        if iso.matrix in seen:
            continue
        seen[iso.matrix] = None
        gens.append(iso)
    return gens


class _DSU:
    """Union-find that keeps its component count."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> None:
        """Merge the components of a and b."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count -= 1


def _row_images(row, cols):
    """row . x for every seed x, from the seeds held column-wise."""
    terms = [c if a == 1 else map(mul, itertools.repeat(a), c) for a, c in zip(row, cols) if a]
    return reduce(partial(map, add), terms)


def orbit_bfs(
    lattice: Lattice,
    seeds,
    generators,
    bound: int,
    max_states: int = DEFAULT_BUDGET,
    include_witnesses: bool = False,
    progress=None,
    *,
    square: int | None = None,
    divisibility: int | None = None,
) -> OrbitReport:
    """Close the seed set under the generators, truncated at the
    coordinate bound, and count orbits for the full generator set and
    for its spinor-norm-+1 subset.

    Isometries preserve square and divisibility, so the truncated
    closure stays inside the seed set and the orbit counts are counts
    among the seeds reachable through in-bound intermediate vectors.

    The sweep is generator-major: with the seeds held column-wise, each
    generator rebuilds only the image rows where its matrix is not the
    identity, for all seeds at once.  Every image must be an in-bound
    seed or out of bound; fixed points cost no union, and a count at 1
    takes no more.  The budget counts each (seed, generator) application.

    The report's square and divisibility are the given ones, which every
    seed must have, or else those the seeds share (None with no seeds).
    """
    check_ints((bound, max_states), PreconditionFailed, "bound, max_states")
    seeds = as_tuple(seeds, "seeds")
    for s in seeds:
        check_same_lattice(lattice, s.lattice)
    seed_coords = sorted({s.coords for s in seeds})
    if seeds:
        square = seeds[0].square() if square is None else square
        divisibility = seeds[0].divisibility() if divisibility is None else divisibility
    if any(s.square() != square or s.divisibility() != divisibility for s in seeds):
        raise PreconditionFailed("seeds must share the report's square and divisibility")
    gens = []
    for gen in as_tuple(generators, "generators"):
        check_same_lattice(lattice, gen.lattice)
        gens.append((gen, spinor_norm(gen) == 1))

    # an image outside the bound joins nothing, even when it is a seed
    members = {x for x in seed_coords if max(map(abs, x), default=0) <= bound}
    outside = set(seed_coords) - members
    cols = list(zip(*seed_coords))
    unit = intmat.identity(lattice.rank)
    full, spin = _DSU(seed_coords), _DSU(seed_coords)
    # spinor-+1 steps (generator, image) onto other seeds, in generator order
    steps = {x: [] for x in seed_coords} if include_witnesses else None
    applied = 0
    for gen, plus in gens:
        if progress:
            upto = min(applied + len(seed_coords), max_states)
            for k in range(applied // 50000 * 50000 + 50000, upto + 1, 50000):
                print(f"orbit-bfs: {k} generator applications", file=progress)
        applied += len(seed_coords)
        if applied > max_states:
            raise BudgetExceeded(f"orbit sweep exceeded {max_states} generator applications")
        rows = [c if r == e else _row_images(r, cols) for r, e, c in zip(gen.matrix, unit, cols)]
        for x, y in zip(seed_coords, zip(*rows)):
            if y not in members:
                if max(map(abs, y), default=0) <= bound:
                    raise InvariantViolation("generator left the seed set")
                if plus and steps is not None and y in outside:
                    steps[x].append((gen, y))
            elif y != x:
                if full.count > 1:
                    full.union(x, y)
                if plus:
                    if spin.count > 1:
                        spin.union(x, y)
                    if steps is not None:
                        steps[x].append((gen, y))
    witnesses = None
    if include_witnesses:
        witnesses = _witnesses(lattice, seed_coords, spin, steps)
    return OrbitReport(
        lattice=lattice,
        square=square,
        divisibility=divisibility,
        coord_bound=bound,
        vectors_found=len(seed_coords),
        orbit_count_full=full.count,
        orbit_count_spinor1=spin.count,
        witnesses=witnesses,
    )


def _witnesses(lattice, seed_coords, dsu, steps):
    """(vector, canonical, certificate) per seed, from spinor-1 paths.

    The canonical member of each component is its lexicographic
    minimum; certificates come from a breadth-first tree rooted there,
    each edge x -> y by a generator g giving cert[y] = cert[x] g^-1.
    Each generator is inverted once, and each certificate checked once.
    The tree walks the recorded steps of each seed, so no generator is
    applied again, and stops once it spans the component.  It follows
    forward steps only, so it spans every component only when the
    generator set is closed under inverses; otherwise PreconditionFailed.
    """
    comps: dict[intmat.Vector, list[intmat.Vector]] = {}
    for x in seed_coords:
        comps.setdefault(dsu.find(x), []).append(x)
    inverses = {}  # id of a generator -> its inverse matrix
    out = []
    for members in comps.values():
        root = min(members)
        to_root = {root: intmat.identity(lattice.rank)}  # matrices mapping x to root
        queue = deque([root])
        left = set(members) - {root}
        while queue and left:
            x = queue.popleft()
            for gen, y in steps[x]:
                if y not in to_root:
                    if id(gen) not in inverses:
                        inverses[id(gen)] = gen.inverse().matrix
                    to_root[y] = intmat.matmul(to_root[x], inverses[id(gen)])
                    queue.append(y)
                    left.discard(y)
        if left:
            raise PreconditionFailed("witnesses need a generator set closed under inverses")
        for x in members:
            cert = Isometry(lattice, to_root[x])
            if intmat.matvec(cert.matrix, x) != root:
                raise InvariantViolation("witness certificate misses its root")
            out.append((x, root, cert))
    out.sort(key=lambda item: item[0])
    return tuple(out)


def exhaustive_isometry_search(
    lattice: Lattice,
    x: HClass,
    y: HClass,
    entry_bound: int,
    max_states: int = DEFAULT_BUDGET,
) -> Isometry | None:
    """Search for an isometry with entries bounded by entry_bound
    mapping x to y.

    Columns are assigned depth first in a fixed deterministic order:
    the columns hit by x first, so the constraint M x = y forces the
    last of them outright, then the remaining columns under the Gram
    conditions alone.  Visited search nodes count against the budget.
    """
    check_same_lattice(lattice, x.lattice)
    check_same_lattice(lattice, y.lattice)
    check_ints((entry_bound, max_states), PreconditionFailed, "entry_bound, max_states")
    if x.square() != y.square():
        raise PreconditionFailed("x and y must have equal square")
    if x.divisibility() != y.divisibility():
        raise PreconditionFailed("x and y must have equal divisibility")
    rank = lattice.rank
    gram = lattice.gram
    width = 2 * entry_bound + 1
    if width ** rank > max_states:
        raise BudgetExceeded("candidate enumeration exceeds the budget")
    by_square: dict[int, list] = {}
    for v in itertools.product(range(-entry_bound, entry_bound + 1), repeat=rank):
        gv = lattice.gram_apply(v)
        by_square.setdefault(intmat.dot(gv, v), []).append((v, gv))
    for group in by_square.values():
        group.sort(key=lambda item: (max(map(abs, item[0]), default=0), item[0]))
    xc = x.coords
    yc = y.coords
    support = [j for j in range(rank) if xc[j]]
    order = support + [j for j in range(rank) if not xc[j]]
    force_pos = len(support) - 1 if support else None
    tail = [sum(abs(xc[j]) for j in order[t + 1:]) for t in range(rank)]
    states = 0
    cols: dict[int, intmat.Vector] = {}
    gcols: list[tuple[int, intmat.Vector]] = []

    def admissible(j: int, v) -> bool:
        return all(intmat.dot(gj, v) == gram[i][j] for i, gj in gcols)

    def dfs(t: int, partial: intmat.Vector):
        nonlocal states
        states += 1
        if states > max_states:
            raise BudgetExceeded(f"search exceeded {max_states} states")
        if t == rank:
            return tuple(tuple(cols[j][r] for j in range(rank)) for r in range(rank))
        j = order[t]
        if t == force_pos:
            # M x = y pins this column: its slack is 0, so its probe is y
            rem = [b - a for a, b in zip(partial, yc)]
            v = tuple(r // xc[j] for r in rem)
            if any(r % xc[j] for r in rem) or max(map(abs, v), default=0) > entry_bound:
                return None
            gv = lattice.gram_apply(v)
            choices = [(v, gv)] if intmat.dot(gv, v) == gram[j][j] else []
        else:
            choices = by_square.get(gram[j][j], [])
        for v, gv in choices:
            if not admissible(j, v):
                continue
            if xc[j]:
                slack = tail[t] * entry_bound
                probe = tuple(p + xc[j] * c for p, c in zip(partial, v))
                if any(abs(b - a) > slack for a, b in zip(probe, yc)):
                    continue
            else:
                probe = partial
            cols[j] = v
            gcols.append((j, gv))
            found = dfs(t + 1, probe)
            if found:
                return found
            gcols.pop()
            del cols[j]
        return None

    matrix = dfs(0, (0,) * rank)
    if matrix is None:
        return None
    iso = Isometry(lattice, matrix)
    if intmat.matvec(iso.matrix, xc) != yc:
        raise InvariantViolation("search result does not map x to y")
    return iso
