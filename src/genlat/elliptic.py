"""Elliptic-surface models E(n)_{p,q} with b2+ > 1 and the minimal-genus
decision procedure.

A surface is pure data: the model lattice (one H or H' block spanned by
k and W, then l = 2n-2 hyperbolic blocks, then m = n negated E8
blocks), the canonical class K = d k with d = npq - p - q, and the
distinguished classes R, T, S living in the second hyperbolic block.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    BadParameters,
    InvariantViolation,
    ParseError,
    PreconditionFailed,
    ZeroClass,
)
from .lattice import (
    Block, HClass, Lattice, check_ints, check_rank, check_same_lattice, decimal_int, make_lattice,
    parse_class,
)
from .reduction import ReductionResult, reduce_in_elliptic, sphere_reduction

_CLASS_ALIASES = {"R": "e1", "T": "f1"}

# Listing more basic classes (d + 1, each of rank length) is refused.
MAX_BASIC_CLASSES = 1000


@dataclass(frozen=True)
class EllipticSurface:
    """The surface E(n)_{p,q} as homological data; all but n, p, q is derived."""

    n: int
    p: int
    q: int

    @property
    def d(self) -> int:
        return self.n * self.p * self.q - self.p - self.q

    @property
    def spin(self) -> bool:
        return self.d % 2 == 0

    @property
    def l(self) -> int:
        return 2 * self.n - 2

    @property
    def m(self) -> int:
        return self.n

    @cached_property
    def lattice(self) -> Lattice:
        # k, W, then the default names e1, f1, ..., x1_1, ... of the rest
        rest = [Block.HYPERBOLIC] * self.l + [Block.MINUS_E8] * self.m
        first = Block.HYPERBOLIC if self.spin else Block.HYPERBOLIC_ODD
        return make_lattice([first] + rest, ("k", "W") + make_lattice(rest).basis_names)

    @property
    def is_k3(self) -> bool:
        return self.d == 0

    @cached_property
    def k(self) -> HClass:
        return self.lattice.basis_class("k")

    @cached_property
    def W(self) -> HClass:
        return self.lattice.basis_class("W")

    @cached_property
    def R(self) -> HClass:
        return self.lattice.basis_class("e1")

    @cached_property
    def T(self) -> HClass:
        return self.lattice.basis_class("f1")

    @cached_property
    def S(self) -> HClass:
        return self.T - self.R

    @property
    def spec(self) -> str:
        if self.p == 1 and self.q == 1:
            return f"E({self.n})"
        return f"E({self.n};{self.p},{self.q})"

    def parse_class(self, text: str) -> HClass:
        return parse_class(self.lattice, text, aliases=_CLASS_ALIASES)

    def __repr__(self) -> str:
        return f"EllipticSurface({self.spec!r})"


def make_surface(n: int, p: int = 1, q: int = 1) -> EllipticSurface:
    if not all(type(v) is int for v in (n, p, q)):
        raise BadParameters("n, p, q must be integers")
    if n < 2:
        raise BadParameters("n must be at least 2")
    if p < 1 or q < 1:
        raise BadParameters("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise BadParameters("p and q must be coprime")
    check_rank(12 * n - 2)
    return EllipticSurface(n, p, q)


_SURFACE_RE = re.compile(r"^E\((\d+)(?:;(\d+),(\d+))?\)$")


def parse_surface(text: str) -> EllipticSurface:
    m = _SURFACE_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad surface spec {text!r}; expected E(n) or E(n;p,q)")
    n, p, q = (decimal_int(g, "surface parameter") if g else 1 for g in m.groups())
    return make_surface(n, p, q)


def canonical_class(surface: EllipticSurface) -> HClass:
    return surface.d * surface.k


def basic_range(surface: EllipticSurface) -> range:
    """The r with r = d mod 2 and |r| <= d, ascending; BadParameters when
    there are more than MAX_BASIC_CLASSES of them."""
    d = surface.d
    if d + 1 > MAX_BASIC_CLASSES:
        raise BadParameters(f"{surface.spec} has more than {MAX_BASIC_CLASSES} basic classes")
    return range(-d, d + 1, 2)


def basic_classes(surface: EllipticSurface) -> list[HClass]:
    """All r k over basic_range, ascending in r."""
    return [r * surface.k for r in basic_range(surface)]


# -- genus verdicts ------------------------------------------------------------

class Rule(Enum):
    COR_K3 = "COR_K3"
    COR_ORTH_KV = "COR_ORTH_KV"
    PROP_MINUS2 = "PROP_MINUS2"
    THM_MAIN_EN = "THM_MAIN_EN"
    COR_NUCLEUS = "COR_NUCLEUS"
    ADJUNCTION_ONLY = "ADJUNCTION_ONLY"


class Status(Enum):
    EXACT = "EXACT"
    LOWER_BOUND_ONLY = "LOWER_BOUND_ONLY"


_NEG_SQUARE_NOTE = (
    "negative square: the adjunction bound constrains only surfaces of "
    "positive genus, so genus 0 is not excluded"
)


@dataclass(frozen=True)
class GenusVerdict:
    lower_bound: int
    realized: int | None
    rule: Rule
    negative_square_note: str | None = None
    certificate: ReductionResult | None = None

    @property
    def status(self) -> Status:
        return Status.LOWER_BOUND_ONLY if self.realized is None else Status.EXACT

    def to_json_dict(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "realized": self.realized,
            "status": self.status.value,
            "rule": self.rule.value,
            "negative_square_note": self.negative_square_note,
            "certificate": (
                self.certificate.to_json_dict() if self.certificate else None
            ),
        }


def _check_class(surface: EllipticSurface, a: HClass) -> None:
    check_same_lattice(surface.lattice, a.lattice)
    if a.is_zero:
        raise ZeroClass("the zero class has no genus verdict")


def adjunction_bound(surface: EllipticSurface, a: HClass) -> tuple[int, bool]:
    """Genus lower bound from 2g - 2 >= A^2 + |K.A|.

    The returned flag is True when A^2 < 0, in which case the bound
    only constrains surfaces of positive genus (simple type), so g = 0
    is not excluded by it.
    """
    _check_class(surface, a)
    sq = a.square()
    ka = abs(surface.d * a.dot(surface.k))
    total = sq + ka
    if total % 2 != 0:
        raise InvariantViolation("A^2 + |K.A| is odd, so K is not characteristic")
    return max(0, total // 2 + 1), sq < 0


def min_genus(surface: EllipticSurface, a: HClass) -> GenusVerdict:
    """Decide the minimal genus of an embedded surface representing a.

    Exact answers come from four rules: the K3 rule for any square
    >= -2, the sphere rule for K-orthogonal squares -2, the
    multiple-fibre-free rule for K-orthogonal squares >= 0 on E(n), and
    the (k, W)-orthogonal rule on every surface.  Everything else gets
    the adjunction bound only.
    """
    _check_class(surface, a)
    bound, neg = adjunction_bound(surface, a)
    sq = a.square()
    if surface.is_k3:
        if sq >= -2:
            c = sq // 2 + 1
            cert = reduce_in_elliptic(surface, a)
            return _exact(c, bound, Rule.COR_K3, cert)
    elif a.dot(surface.k) == 0:
        if sq % 2 != 0:
            raise InvariantViolation("a class orthogonal to K has odd square")
        if sq == -2:
            return _exact(0, bound, Rule.PROP_MINUS2, sphere_reduction(surface, a))
        if sq >= 0:
            c = sq // 2 + 1
            if surface.p == 1 and surface.q == 1:
                return _exact(c, bound, Rule.THM_MAIN_EN, None)
            if a.dot(surface.W) == 0:
                return _exact(c, bound, Rule.COR_ORTH_KV, reduce_in_elliptic(surface, a))
    return GenusVerdict(
        lower_bound=bound,
        realized=None,
        rule=Rule.ADJUNCTION_ONLY,
        negative_square_note=_NEG_SQUARE_NOTE if neg else None,
    )


def _exact(c: int, bound: int, rule: Rule, cert: ReductionResult | None) -> GenusVerdict:
    if c != bound:
        raise InvariantViolation("exact rules must meet the adjunction bound")
    return GenusVerdict(
        lower_bound=bound,
        realized=c,
        rule=rule,
        certificate=cert,
    )


def km_scaled_genus(g: int, sq: int, r: int) -> int:
    """Genus of the surface representing r h built from a genus-g
    representative of h, scaling a = 2g - 2 - h^2 linearly in r."""
    check_ints((g, sq, r), PreconditionFailed, "g, sq and r")
    if r < 1:
        raise PreconditionFailed("r must be a positive integer")
    if sq < 0:
        raise PreconditionFailed("the scaling construction needs h^2 >= 0")
    if g < 0:
        raise PreconditionFailed("genus must be non-negative")
    if sq == 0 and g < 1:
        raise PreconditionFailed("square zero needs genus at least 1")
    total = r * (2 * g - 2 - sq) + r * r * sq + 2
    if total % 2 != 0:
        raise InvariantViolation("scaled genus formula gave an odd 2g")
    return total // 2


def nucleus_min_genus(gamma: int, delta: int) -> GenusVerdict:
    """Minimal genus of gamma F + delta S in the rank-2 nucleus lattice
    (F^2 = 0, S^2 = -2, F.S = 1): exact genus c when the square is
    2c - 2 >= -2, a bare bound otherwise."""
    check_ints((gamma, delta), PreconditionFailed, "gamma and delta")
    if gamma == 0 and delta == 0:
        raise ZeroClass("the zero class has no genus verdict")
    sq = 2 * gamma * delta - 2 * delta * delta
    if sq >= -2:
        c = sq // 2 + 1
        return GenusVerdict(
            lower_bound=max(0, c),
            realized=c,
            rule=Rule.COR_NUCLEUS,
        )
    return GenusVerdict(
        lower_bound=0,
        realized=None,
        rule=Rule.ADJUNCTION_ONLY,
        negative_square_note=_NEG_SQUARE_NOTE,
    )
