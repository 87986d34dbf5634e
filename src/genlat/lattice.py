"""Based integral unimodular lattices built from hyperbolic and E8 blocks.

A lattice here is a free Z-module with a fixed ordered basis and an
integer Gram matrix assembled as a direct sum of rank-2 hyperbolic
blocks (the even H or the odd H') and negated E8 blocks.  Classes are
integer coordinate vectors over that basis; every invariant (square,
divisibility, characteristic test) is computed exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress

from . import intmat
from .errors import BadParameters, LatticeError, LatticeMismatch, ParseError


# -E8: the negated Cartan matrix of the chain 1-2-3-4-5-6-7 with node 8
# attached to node 5
_MINUS_E8_GRAM: intmat.Matrix = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 1),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 1, 0, 0, -2),
)
# E8 is unimodular, so its Cartan inverse is integral; negated here
_MINUS_E8_GRAM_INVERSE: intmat.Matrix = (
    (-2, -3, -4, -5, -6, -4, -2, -3),
    (-3, -6, -8, -10, -12, -8, -4, -6),
    (-4, -8, -12, -15, -18, -12, -6, -9),
    (-5, -10, -15, -20, -24, -16, -8, -12),
    (-6, -12, -18, -24, -30, -20, -10, -15),
    (-4, -8, -12, -16, -20, -14, -7, -10),
    (-2, -4, -6, -8, -10, -7, -4, -5),
    (-3, -6, -9, -12, -15, -10, -5, -8),
)
# block token -> (Gram, its exact integer inverse); H is its own inverse
_GRAMS: dict[str, tuple[intmat.Matrix, intmat.Matrix]] = {
    "H": (((0, 1), (1, 0)), ((0, 1), (1, 0))),
    "H'": (((0, 1), (1, 1)), ((-1, 1), (1, 0))),
    "E8-": (_MINUS_E8_GRAM, _MINUS_E8_GRAM_INVERSE),
}

# Every size-proportional allocation is refused above this rank.  E(100)
# has rank 1198; a dense certificate at the cap holds 1.44M entries.
MAX_RANK = 1200


class Block(Enum):
    """The three building blocks of every lattice in this package."""

    HYPERBOLIC = "H"
    HYPERBOLIC_ODD = "H'"
    MINUS_E8 = "E8-"

    @property
    def gram(self) -> intmat.Matrix:
        return _GRAMS[self.value][0]

    @property
    def gram_inverse(self) -> intmat.Matrix:
        return _GRAMS[self.value][1]

    @property
    def rank(self) -> int:
        return 8 if self is Block.MINUS_E8 else 2

    @property
    def is_even(self) -> bool:
        return self is not Block.HYPERBOLIC_ODD

    @property
    def token(self) -> str:
        return self.value


@dataclass(frozen=True)
class Lattice:
    """An ordered direct sum of blocks with named basis vectors.

    The rank, signature, dense Gram and Gram inverse are functions of the
    blocks, built on first read; pairings go through ``pair``/``gram_apply``,
    which visit only the non-zero Gram entries (at most 4 per row).
    """

    blocks: tuple[Block, ...]
    basis_names: tuple[str, ...]

    @cached_property
    def rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    @cached_property
    def sig_pos(self) -> int:
        # each rank-2 block has signature (1, 1), each -E8 block (0, 8)
        return sum(b is not Block.MINUS_E8 for b in self.blocks)

    @cached_property
    def sig_neg(self) -> int:
        return self.rank - self.sig_pos

    @cached_property
    def block_offsets(self) -> tuple[int, ...]:
        offs = []
        pos = 0
        for b in self.blocks:
            offs.append(pos)
            pos += b.rank
        return tuple(offs)

    def block_range(self, i: int) -> range:
        """The basis indices of block i; BadParameters unless i is an int
        with 0 <= i < len(blocks)."""
        if type(i) is not int or not 0 <= i < len(self.blocks):
            raise BadParameters(f"bad block index {i!r}")
        start = self.block_offsets[i]
        return range(start, start + self.blocks[i].rank)

    @cached_property
    def gram(self) -> intmat.Matrix:
        return self._block_diagonal("gram")

    @cached_property
    def gram_inverse(self) -> intmat.Matrix:
        return self._block_diagonal("gram_inverse")

    def _block_diagonal(self, part: str) -> intmat.Matrix:
        """The dense direct sum of the blocks' matrices named by part."""
        n = self.rank
        rows = []
        for b, start in zip(self.blocks, self.block_offsets):
            pad = (0,) * (n - start - b.rank)
            rows += [(0,) * start + row + pad for row in getattr(b, part)]
        return tuple(rows)

    @cached_property
    def _gram_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row i holds the pairs (j, G[i][j]) with G[i][j] != 0."""
        rows = []
        for b, start in zip(self.blocks, self.block_offsets):
            for row in b.gram:
                rows.append(tuple((start + j, x) for j, x in enumerate(row) if x))
        return tuple(rows)

    def gram_apply(self, x) -> intmat.Vector:
        """G x for a coordinate vector x, in O(rank)."""
        out = [0] * self.rank
        rows = self._gram_rows
        # G is symmetric: G x adds up x_k times row k over the support of x
        for k in compress(range(self.rank), x):
            c = x[k]
            for j, g in rows[k]:
                out[j] += c * g
        return tuple(out)

    def pair(self, u, v) -> int:
        """The bilinear form u^T G v on coordinate vectors, in O(rank)."""
        rows = self._gram_rows
        total = 0
        for i in compress(range(self.rank), u):
            total += u[i] * sum(g * v[j] for j, g in rows[i])
        return total

    @cached_property
    def spec(self) -> str:
        return format_lattice_spec(self.blocks)

    @cached_property
    def _name_to_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.basis_names)}

    def name_index(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError:
            raise ParseError(f"unknown basis name {name!r}") from None

    def hclass(self, coords) -> "HClass":
        return HClass(self, coords)

    def unit_coords(self, index: int) -> intmat.Vector:
        return tuple(int(j == index) for j in range(self.rank))

    def basis_class(self, ref: int | str) -> "HClass":
        if isinstance(ref, bool):
            raise BadParameters(f"bad basis index {ref!r}")
        index = ref if isinstance(ref, int) else self.name_index(ref)
        if not 0 <= index < self.rank:
            raise BadParameters(f"basis index {index} out of range")
        return HClass(self, self.unit_coords(index))

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "blocks": [b.token for b in self.blocks],
            "basis_names": list(self.basis_names),
            "gram": [list(row) for row in self.gram],
        }

    def __repr__(self) -> str:
        return f"Lattice({self.spec!r})"


def make_lattice(blocks, basis_names=None) -> Lattice:
    """Assemble the direct sum of the given blocks.

    Default basis names are e1,f1,... for rank-2 blocks (in order) and
    x{j}_1..x{j}_8 for the j-th E8 block.
    """
    blocks = as_tuple(blocks, "blocks")
    if not blocks:
        raise BadParameters("a lattice needs at least one block")
    if not all(isinstance(b, Block) for b in blocks):
        raise BadParameters("blocks must be Block values")
    rank = sum(b.rank for b in blocks)
    check_rank(rank)
    if basis_names is None:
        names = []
        n_pairs = 0
        n_e8 = 0
        for b in blocks:
            if b is Block.MINUS_E8:
                n_e8 += 1
                names.extend(f"x{n_e8}_{t}" for t in range(1, 9))
            else:
                n_pairs += 1
                names.extend((f"e{n_pairs}", f"f{n_pairs}"))
        basis_names = tuple(names)
    else:
        names = as_tuple(basis_names, "basis_names")
        if isinstance(basis_names, str) or not all(isinstance(n, str) for n in names):
            raise BadParameters("basis_names must be a sequence of strings")
        if len(names) != rank or len(set(names)) != rank:
            raise BadParameters("basis_names must be distinct, one per basis vector")
        basis_names = names
    return Lattice(blocks, basis_names)


def check_same_lattice(a: Lattice, b: Lattice) -> None:
    """LatticeMismatch unless lattices a and b are equal; the identity
    test comes first, since operands nearly always share one Lattice."""
    if a is not b and a != b:
        raise LatticeMismatch("operands live over different lattices")


def check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise BadParameters(f"rank {rank} exceeds the cap of {MAX_RANK}")


def decimal_int(digits: str, what: str) -> int:
    """int() of a digit string, refusing more digits than int() converts."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} has too many digits ({len(digits)})") from None


@dataclass(frozen=True)
class HClass:
    """A second-homology class: integer coordinates over a lattice basis."""

    lattice: Lattice
    coords: intmat.Vector

    def __post_init__(self):
        try:
            coords = tuple(self.coords)
        except TypeError:
            raise BadParameters(
                f"class coordinates must be a sequence, got {self.coords!r}"
            ) from None
        if len(coords) != self.lattice.rank:
            raise BadParameters(
                f"expected {self.lattice.rank} coordinates, got {len(coords)}"
            )
        check_ints(coords, BadParameters, "class coordinates")
        object.__setattr__(self, "coords", coords)

    def dot(self, other: "HClass") -> int:
        check_same_lattice(self.lattice, other.lattice)
        return self.lattice.pair(self.coords, other.coords)

    def square(self) -> int:
        return self.dot(self)

    def divisibility(self) -> int:
        return math.gcd(*self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_characteristic(self) -> bool:
        gx = self.lattice.gram_apply(self.coords)
        diagonal = (row[i] for b in self.lattice.blocks for i, row in enumerate(b.gram))
        return all((a - d) % 2 == 0 for a, d in zip(gx, diagonal))

    def __add__(self, other: "HClass") -> "HClass":
        check_same_lattice(self.lattice, other.lattice)
        return HClass(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "HClass") -> "HClass":
        check_same_lattice(self.lattice, other.lattice)
        return HClass(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "HClass":
        return HClass(self.lattice, tuple(-a for a in self.coords))

    def __mul__(self, r: int) -> "HClass":
        return HClass(self.lattice, tuple(r * a for a in self.coords))

    __rmul__ = __mul__

    def pretty(self) -> str:
        parts = [
            f"{self.lattice.basis_names[i]}={c}"
            for i, c in enumerate(self.coords)
            if c
        ]
        return ",".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"lattice": self.lattice.spec, "coords": list(self.coords)}

    def __repr__(self) -> str:
        return f"HClass({self.pretty()})"


# -- spec strings and parsing ------------------------------------------------

_SPEC_TOKEN = re.compile(r"^(\d*)(H'|H|E8-)$")
_TOKEN_TO_BLOCK = {b.token: b for b in Block}


def check_text(text, what: str) -> str:
    """text, or ParseError unless it is a string."""
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a string, got {text!r}")
    return text


def parse_lattice_spec(text: str) -> tuple[Block, ...]:
    """Parse a spec such as "H',2H,3E8-" into a block tuple."""
    check_text(text, "lattice spec")
    blocks: list[Block] = []
    rank = 0
    for raw in text.split(","):
        tok = raw.strip()
        m = _SPEC_TOKEN.match(tok)
        if not m:
            raise ParseError(f"bad lattice token {tok!r}")
        count = decimal_int(m.group(1), "repetition count") if m.group(1) else 1
        if count < 1:
            raise ParseError(f"bad repetition count in {tok!r}")
        block = _TOKEN_TO_BLOCK[m.group(2)]
        rank += count * block.rank
        check_rank(rank)
        blocks.extend([block] * count)
    return tuple(blocks)


def format_lattice_spec(blocks) -> str:
    parts = []
    run: list[Block] = []
    for b in blocks:
        if run and run[-1] is not b:
            parts.append(run)
            run = []
        run.append(b)
    if run:
        parts.append(run)
    out = []
    for group in parts:
        n = len(group)
        out.append(f"{n if n > 1 else ''}{group[0].token}")
    return ",".join(out)


def lattice_from_spec(text: str) -> Lattice:
    return make_lattice(parse_lattice_spec(text))


def parse_class(lattice: Lattice, text: str, aliases: dict[str, str] | None = None) -> HClass:
    """Parse a dense "1,0,-2,..." or sparse "k=4,e1=2" class string."""
    text = check_text(text, "class string").strip()
    if not text:
        raise ParseError("empty class string")
    if "=" in text:
        coords = [0] * lattice.rank
        seen: set[int] = set()
        for raw in text.split(","):
            item = raw.strip()
            name, sep, val = item.partition("=")
            if not sep:
                raise ParseError(f"bad class item {item!r}")
            name = name.strip()
            if aliases:
                name = aliases.get(name, name)
            idx = lattice.name_index(name)
            if idx in seen:
                raise ParseError(f"duplicate basis name {name!r}")
            seen.add(idx)
            try:
                coords[idx] = int(val.strip())
            except ValueError:
                raise ParseError(f"bad integer in {item!r}") from None
        return lattice.hclass(coords)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != lattice.rank:
        raise ParseError(
            f"expected {lattice.rank} coordinates, got {len(parts)}"
        )
    try:
        return lattice.hclass(int(p) for p in parts)
    except ValueError:
        bad = next(p for p in parts if not _is_int(p))
        raise ParseError(f"bad integer {bad!r}") from None


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


# -- JSON documents -----------------------------------------------------------

def json_field(doc, key: str):
    """doc[key] of a JSON object, or ParseError when it has no such key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"JSON document has no {key!r} field")
    return doc[key]


def as_tuple(values, what: str) -> tuple:
    """tuple(values), or BadParameters when values is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise BadParameters(f"{what} must be a sequence, got {values!r}") from None


def check_ints(values, error: type[LatticeError], what: str) -> None:
    """Raise error unless every entry of the sequence is exactly an int.

    Floats, strings and booleans are refused rather than converted:
    int() would truncate 1.9 to 1, and bool is an int subclass.
    """
    if not {int}.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise error(f"non-integer entry {bad!r} in {what}")


def json_ints(values, what: str):
    """A JSON array of integers, returned as given; ParseError otherwise."""
    if not isinstance(values, list):
        raise ParseError(f"{what} must be a JSON array of integers")
    check_ints(values, ParseError, what)
    return values


def json_int_rows(rows, what: str):
    """A JSON array of integer rows, returned as given; ParseError otherwise."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a JSON array of integer rows")
    for row in rows:
        json_ints(row, what)
    return rows


def lattice_from_json_dict(doc: dict) -> Lattice:
    tokens = json_field(doc, "blocks")
    if not isinstance(tokens, list) or not all(
        isinstance(t, str) and t in _TOKEN_TO_BLOCK for t in tokens
    ):
        raise ParseError(f"bad block list {tokens!r}")
    blocks = [_TOKEN_TO_BLOCK[t] for t in tokens]
    names = doc.get("basis_names")
    if "basis_names" in doc and not (
        isinstance(names, list)
        and all(isinstance(n, str) for n in names)
        and len(set(names)) == len(names) == sum(b.rank for b in blocks)
    ):
        raise ParseError("basis_names must be distinct strings, one per basis vector")
    lat = make_lattice(blocks, names)
    if "gram" in doc:
        given = json_int_rows(doc["gram"], "gram")
        if tuple(map(tuple, given)) != lat.gram:
            raise ParseError("gram matrix does not match the block structure")
    return lat


def check_json_lattice(doc, lattice: Lattice) -> None:
    """ParseError unless the document's "lattice" spec is the given lattice's."""
    spec = json_field(doc, "lattice")
    if spec != lattice.spec:
        raise ParseError(f"the document is over {spec!r}, not {lattice.spec!r}")


def hclass_from_json_dict(doc: dict, lattice: Lattice) -> HClass:
    check_json_lattice(doc, lattice)
    return lattice.hclass(json_ints(json_field(doc, "coords"), "coords"))
