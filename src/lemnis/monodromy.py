"""Circuit matrices of the Gauss family and their exact unit-ring normal forms.

Two layers live here.  The floating layer (`invariant_hermitian_form`,
`general_m0_m1`, `m0_m1_closed_form`, `base_change_affine`) carries the
circuit matrices of a generic parameter triple as 2x2 complex matrices,
written entry by entry and returned as row-major nested tuples
((a, b), (c, d)).  The exact layer (`CycInt`, `CircuitMatrix`, `AffineMap`)
works over Z[i] or Z[zeta], the ring of a `SchwarzVariant`, with no floats
at all, so group-theoretic statements (orders, closures) are decided
exactly.  Its arithmetic follows from the one relation g^2 = e*g - 1 of the
ring generator g = `SchwarzVariant.unit`, with e = `SchwarzVariant.trace`,
and the units are the powers of g.  Each value object's own __init__
checks its arguments and sets its frozen fields in one step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

from .hypergeometric import SchwarzVariant, _require_variant
from .numerics import DomainError, IterationLimitError, _dist_to_int, e_of

# A 2x2 complex matrix of the floating layer, row-major: ((a, b), (c, d)).
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class CycInt:
    """x + y*g with integer x, y and g = ring.unit: i over Z[i], zeta over Z[zeta]."""

    x: int
    y: int
    ring: SchwarzVariant

    def __init__(self, x: int, y: int, ring: SchwarzVariant) -> None:
        if not isinstance(x, int) or not isinstance(y, int):
            raise DomainError("CycInt coordinates must be integers")
        _require_variant(ring)
        self.__dict__.update(x=x, y=y, ring=ring)

    @property
    def value(self) -> complex:
        return self.x + self.y * self.ring.unit

    def __add__(self, other: "CycInt") -> "CycInt":
        self._same_ring(other)
        return CycInt(self.x + other.x, self.y + other.y, self.ring)

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._same_ring(other)
        return CycInt(self.x - other.x, self.y - other.y, self.ring)

    def __neg__(self) -> "CycInt":
        return CycInt(-self.x, -self.y, self.ring)

    def __mul__(self, other: "CycInt") -> "CycInt":
        self._same_ring(other)
        return CycInt(*_ring_product(self.x, self.y, other.x, other.y, self.ring.trace), self.ring)

    def _same_ring(self, other: "CycInt") -> None:
        if self.ring is not other.ring:
            raise DomainError("mixed-ring arithmetic is not defined")

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_one(self) -> bool:
        return self.x == 1 and self.y == 0

    def is_unit(self) -> bool:
        return _is_unit(self.x, self.y, self.ring.trace)

    def unit_inverse(self) -> "CycInt":
        us = units(self.ring)
        if self not in us:
            raise DomainError(f"{self} is not a unit")
        return us[-us.index(self)]


def _ring_product(x1: int, y1: int, x2: int, y2: int, e: int) -> tuple[int, int]:
    # (x1 + y1 g)(x2 + y2 g) with g^2 = e g - 1: the one product of the exact layer
    yy = y1 * y2
    return x1 * x2 - yy, x1 * y2 + y1 * x2 + e * yy


def _dot(p: CycInt, q: CycInt, r: CycInt, s: CycInt, sign: int = 1) -> tuple[int, int]:
    # p q + sign r s in integer coordinates, with no CycInt built on the way
    e = p.ring.trace
    x1, y1 = _ring_product(p.x, p.y, q.x, q.y, e)
    x2, y2 = _ring_product(r.x, r.y, s.x, s.y, e)
    return x1 + sign * x2, y1 + sign * y2


def _is_unit(x: int, y: int, e: int) -> bool:
    # the norm |x + y g|^2 = x^2 + e x y + y^2 is 1
    return x * x + e * x * y + y * y == 1


def ring_one(ring: SchwarzVariant) -> CycInt:
    return CycInt(1, 0, ring)


def ring_gen(ring: SchwarzVariant) -> CycInt:
    return CycInt(0, 1, ring)


@functools.cache
def units(ring: SchwarzVariant) -> tuple[CycInt, ...]:
    """All units, listed as consecutive powers of the generator."""
    us = [ring_one(ring)]
    while not (u := us[-1] * ring_gen(ring)).is_one():
        us.append(u)
    return tuple(us)


@dataclass(frozen=True)
class CircuitMatrix:
    """2x2 matrix over a unit ring; the determinant must be a unit."""

    e11: CycInt
    e12: CycInt
    e21: CycInt
    e22: CycInt

    def __init__(self, e11: CycInt, e12: CycInt, e21: CycInt, e22: CycInt) -> None:
        for e in (e12, e21, e22):
            if e.ring is not e11.ring:
                raise DomainError("matrix entries must share one ring")
        self.__dict__.update(e11=e11, e12=e12, e21=e21, e22=e22)
        if not _is_unit(*_dot(e11, e22, e12, e21, -1), e11.ring.trace):
            raise DomainError("determinant must be a unit")

    @property
    def ring(self) -> SchwarzVariant:
        return self.e11.ring

    @classmethod
    def identity(cls, ring: SchwarzVariant) -> "CircuitMatrix":
        one, zero = ring_one(ring), CycInt(0, 0, ring)
        return cls(one, zero, zero, one)

    def det(self) -> CycInt:
        return CycInt(*_dot(self.e11, self.e22, self.e12, self.e21, -1), self.ring)

    def __matmul__(self, other: "CircuitMatrix") -> "CircuitMatrix":
        a, b, c, d = self.e11, self.e12, self.e21, self.e22
        p, q, r, s = other.e11, other.e12, other.e21, other.e22
        a._same_ring(p)
        ring = a.ring
        return CircuitMatrix(
            CycInt(*_dot(a, p, b, r), ring),
            CycInt(*_dot(a, q, b, s), ring),
            CycInt(*_dot(c, p, d, r), ring),
            CycInt(*_dot(c, q, d, s), ring),
        )

    def inverse(self) -> "CircuitMatrix":
        dinv = self.det().unit_inverse()
        return CircuitMatrix(
            dinv * self.e22, -(dinv * self.e12), -(dinv * self.e21), dinv * self.e11
        )

    def order(self) -> int:
        """Smallest n >= 1 with M^n = 1, at most 24, decided by exact arithmetic."""
        acc = self
        ident = CircuitMatrix.identity(self.ring)
        for n in range(1, 25):
            if acc == ident:
                return n
            acc = acc @ self
        raise IterationLimitError("order exceeds 24")

    def as_complex(self) -> Matrix2:
        return (self.e11.value, self.e12.value), (self.e21.value, self.e22.value)


@dataclass(frozen=True)
class AffineMap:
    """z |-> unit*z + shift with unit a ring unit."""

    unit: CycInt
    shift: CycInt

    def __init__(self, unit: CycInt, shift: CycInt) -> None:
        if unit.ring is not shift.ring:
            raise DomainError("unit and shift must share one ring")
        if not unit.is_unit():
            raise DomainError("AffineMap unit must be a ring unit")
        self.__dict__.update(unit=unit, shift=shift)

    @property
    def ring(self) -> SchwarzVariant:
        return self.unit.ring

    @classmethod
    def identity(cls, ring: SchwarzVariant) -> "AffineMap":
        return cls(ring_one(ring), CycInt(0, 0, ring))

    def __matmul__(self, other: "AffineMap") -> "AffineMap":
        # Composition "self after other".
        return AffineMap(self.unit * other.unit, self.unit * other.shift + self.shift)

    def inverse(self) -> "AffineMap":
        uinv = self.unit.unit_inverse()
        return AffineMap(uinv, -(uinv * self.shift))

    def apply(self, z: complex) -> complex:
        return self.unit.value * z + self.shift.value


def as_affine(m: CircuitMatrix) -> AffineMap:
    """Read [[u, s], [0, 1]] as the map z |-> u*z + s."""
    if not (m.e21.is_zero() and m.e22.is_one()):
        raise DomainError("matrix is not in affine normal form (bottom row must be (0, 1))")
    return AffineMap(m.e11, m.e12)


def invariant_hermitian_form(alpha: float, beta: float, gamma: float) -> Matrix2:
    """The invariant hermitian matrix of the local-solution basis.

    Requires alpha, alpha - gamma, beta - gamma all non-integral; the
    denominators below vanish otherwise.
    """
    if not all(map(math.isfinite, (alpha, beta, gamma))):
        raise DomainError(f"parameters must be finite, got {(alpha, beta, gamma)}")
    for label, v in (("alpha", alpha), ("alpha-gamma", alpha - gamma), ("beta-gamma", beta - gamma)):
        if _dist_to_int(v) < 1e-9:
            raise DomainError(f"{label} must not be an integer")
    ega = e_of(gamma - alpha)
    d = ega - 1.0
    h11 = (ega - e_of(beta)) / d
    h12 = -ega / d
    h21 = (1.0 - e_of(beta)) / d
    h22 = (1.0 - e_of(gamma)) / (d * (e_of(alpha) - 1.0))
    return (h11, h12), (h21, h22)


def general_m0_m1(alpha: float, beta: float, gamma: float) -> tuple[Matrix2, Matrix2]:
    """Circuit matrices around 0 and 1 via the invariant-form route.

    M0 = lambda0*I - (lambda0 - 1)/h22 * h e2 e2^T updates the second column
    of lambda0*I, M1 = I - (1 - lambda1)/h11 * h e1 e1^T the first column of
    I; both keep the unit second eigenvalue.  The pivot h22 vanishes at an
    integer gamma and h11 at an integer gamma - alpha - beta, where this
    route has no unipotent circuit: within 1e-6 of either, a DomainError.
    """
    (h11, h12), (h21, h22) = invariant_hermitian_form(alpha, beta, gamma)
    # the pivots cancel as they vanish: the matrices are off by about 7e-17
    # over the distance to the integer (6.4e-10 at 1e-7), within 1e-10 at 1e-6
    for label, v in (("gamma", gamma), ("gamma-alpha-beta", gamma - alpha - beta)):
        if _dist_to_int(v) < 1e-6:
            raise DomainError(f"{label} must not be an integer")
    lam0 = e_of(-gamma)
    lam1 = e_of(gamma - alpha - beta)
    c0 = (lam0 - 1.0) / h22
    c1 = (1.0 - lam1) / h11
    m0 = (lam0, -c0 * h12), (0j, lam0 - c0 * h22)
    m1 = (1.0 - c1 * h11, 0j), (-c1 * h21, 1 + 0j)
    return m0, m1


def m0_m1_closed_form(alpha: float, beta: float, gamma: float) -> tuple[Matrix2, Matrix2]:
    """Same two matrices written out entrywise; the dual route for checks."""
    m0 = (e_of(-gamma), 1.0 - e_of(-alpha)), (0j, 1 + 0j)
    m1 = (e_of(gamma - alpha - beta), 0j), (e_of(-beta) - 1.0, 1 + 0j)
    return m0, m1


def base_change_affine(m: Matrix2, alpha: float) -> Matrix2:
    """Conjugate by diag(1, 1 - e_of(alpha)).

    At beta = 0 this takes the circuit pair to the exact normal forms of
    `n_matrices`.  Alpha must not be an integer, where the conjugator is singular.
    """
    s = 1.0 - e_of(alpha)
    if s == 0 or math.isinf(abs(1.0 / s)):
        raise DomainError(f"base_change_affine requires a non-integer alpha, got {alpha}")
    (a, b), (c, d) = m
    return (a, b / s), (s * c, d)


def n_matrices(variant: SchwarzVariant) -> tuple[CircuitMatrix, CircuitMatrix, CircuitMatrix]:
    """Exact normal-form generators (N0, N1, (N0 N1)^-1) for a Schwarz variant.

    Orders are (2, 4, 4) over Z[i] and (2, 6, 3) over Z[zeta].
    """
    one, zero, g = ring_one(variant), CycInt(0, 0, variant), ring_gen(variant)
    n0 = CircuitMatrix(-one, g, zero, one)
    n1 = CircuitMatrix(g, zero, zero, one)
    n01inv = (n0 @ n1).inverse()
    return n0, n1, n01inv


@dataclass(frozen=True)
class ClosureSummary:
    """What the closure search saw before it stopped."""

    units: tuple[CycInt, ...]
    has_translation_basis: bool
    elements_explored: int


def _unit_subgroup(gen_units: Iterable[CycInt], ring: SchwarzVariant) -> tuple[CycInt, ...]:
    # the units g^k1, g^k2, ... of the cyclic group of order n generate the
    # powers of g^d, d = gcd(n, k1, k2, ...)
    us = units(ring)
    return us[:: math.gcd(len(us), *map(us.index, gen_units))]


def group_closure(generators: list[AffineMap], cap: int = 10000) -> ClosureSummary:
    """Breadth-first closure of an affine generator list.

    Stops once the reachable unit set matches the subgroup generated by the
    generator units and both basis translations z |-> z + 1 and
    z |-> z + g have been seen, or once `cap` elements are explored.  Only a
    unit set still growing at the cap is an error; a genuinely infinite
    translation part (such as the single generator z |-> z + 1) just reports
    what was found.
    """
    if not generators:
        raise DomainError("need at least one generator")
    if not (isinstance(cap, int) and 1 <= cap <= 10000):
        raise DomainError(f"cap must be an int in [1, 10000], got {cap!r}")
    ring = generators[0].ring
    for g in generators:
        if g.ring is not ring:
            raise DomainError("generators must share one ring")
    target_units = _unit_subgroup((g.unit for g in generators), ring)
    # The search runs on (unit.x, unit.y, shift.x, shift.y) tuples with
    # `_ring_product` inlined, e = `SchwarzVariant.trace`.
    e = ring.trace
    gens = [
        (h.unit.x, h.unit.y, h.shift.x, h.shift.y)
        for h in list(generators) + [g.inverse() for g in generators]
    ]
    target = {(u.x, u.y) for u in target_units}
    basis = {(1, 0), (0, 1)}
    visited = {(1, 0, 0, 0)}
    frontier = list(visited)
    seen_units = {(1, 0)}
    translations = {(0, 0)}

    def satisfied() -> bool:
        return target <= seen_units and basis <= translations

    while frontier and len(visited) < cap and not satisfied():
        nxt = []
        for fux, fuy, fsx, fsy in frontier:
            for gux, guy, gsx, gsy in gens:
                # g @ f: unit gu*fu, shift gu*fs + gs
                uu = guy * fuy
                us = guy * fsy
                h = (
                    gux * fux - uu,
                    gux * fuy + guy * fux + e * uu,
                    gux * fsx - us + gsx,
                    gux * fsy + guy * fsx + e * us + gsy,
                )
                if h in visited:
                    continue
                visited.add(h)
                nxt.append(h)
                seen_units.add(h[:2])
                if h[0] == 1 and h[1] == 0:
                    translations.add(h[2:])
        frontier = nxt
    if not target <= seen_units:
        raise IterationLimitError("unit set had not stabilized at the exploration cap")
    return ClosureSummary(
        units=target_units,
        has_translation_basis=basis <= translations,
        elements_explored=len(visited),
    )
