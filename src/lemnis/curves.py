"""The two special curves, their Abel-Jacobi maps, and the theta inverses.

A curve is a `SchwarzVariant`: QUARTIC is u^4 = t^2 (t - 1) with lattice
Z + Z i, SEXTIC is u^6 = t^3 (t - 1) with lattice Z + Z zeta,
zeta = (1 + sqrt(3) i)/2.  The forward map is the normalized holomorphic
1-form integrated from the base point t = 1, in closed form: with the
variant's exponent a = 1/4 or 1/6,

    z = (t - 1)^a / a * F(1/2, a; 1 + a; 1 - t) / normalization

on principal branches, which is `hypergeometric.schwarz_map`; the fiber
points over t = 0 and t = infinity have Gauss-sum images.
Branch bookkeeping is stateless: the sheet of a point is read off u.

The inverse maps are ratios of theta values on the corresponding square or
hexagonal torus, and the remaining operations (multiplication formulas,
group equivalence) tie the two descriptions together.  The identities that
check the two descriptions against each other (the ratio identities, both
t-routes of the quartic inverse, the 1-form constant and the closed
inversion of the Schwarz map) live in `lemnis.verify`.  `CurvePoint`'s own
__init__ checks its arguments and sets its frozen fields in one step.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .hypergeometric import GaussParams, SchwarzVariant, _require_variant, gauss_kummer_value, schwarz_map
from .numerics import SQRT3, TWO_PI, ZETA, DomainError, e_of
from .theta import (
    HALF_CHARS,
    Modulus,
    TAU_I,
    TAU_ZETA,
    TorusPoint,
    _nearest_lattice_point,
    canonical_torus_point,
    lattice_distance,
    theta,
)


# The curves' old enum name, still read by perfbench/workloads.py and perfbench/selftest.py.
Curve = SchwarzVariant


@dataclass(frozen=True)
class CurvePoint:
    """A point (t, u) on one of the two curves, or a point over t = infinity.

    `branch` indexes the deck transformation u -> unit^branch * u relative
    to a reference sheet; for finite points it is bookkeeping only (u itself
    is authoritative), for ramification and infinity points it selects the
    fiber element.
    """

    curve: SchwarzVariant
    t: complex
    u: complex
    at_infinity: bool = False
    branch: int = 0

    def __init__(
        self, curve: SchwarzVariant, t: complex, u: complex, at_infinity: bool = False, branch: int = 0
    ) -> None:
        _require_variant(curve)
        self.__dict__.update(curve=curve, t=complex(t), u=complex(u), at_infinity=at_infinity, branch=_branch(branch))
        # written so that a NaN residual (any non-finite t or u) is rejected too
        if not _curve_residual(self) <= 1e-10:
            raise DomainError("(t, u) does not satisfy the curve equation")


def _curve_residual(p: CurvePoint) -> float:
    # |w^(k/2) - (t - 1)| / max(|t|, 1), w = u^2 / t, the equation over t^(k/2):
    # relative to its sides (a floor would pass u = 0 over any small t) except next
    # to t = 1, where t - 1 carries the rounding of t.  It is taken on u / 2^(wu j),
    # t / 2^(wt j), with the weights (wu, wt) = (3, 4) on QUARTIC and (2, 3) on SEXTIC
    # that make it homogeneous and j >= 0 the least that brings both below modulus 2,
    # so no power overflows; power-of-two scaling is exact, and j = 0 for |u|, |t| < 1.
    if p.at_infinity:  # no equation there, but t and u must still be finite
        return 0.0 if cmath.isfinite(p.t) and cmath.isfinite(p.u) else math.nan
    u, t, quartic = p.u, p.t, p.curve is SchwarzVariant.QUARTIC
    if t == 0:  # the fiber over t = 0 is u = 0 alone
        return 0.0 if u == 0 else math.inf
    wu, wt = (3, 4) if quartic else (2, 3)
    j = max(0, -(-_binary_exponent(u) // wu), -(-_binary_exponent(t) // wt))
    one = math.ldexp(1.0, -wt * j)
    u *= math.ldexp(1.0, -wu * j)
    t *= one
    w = u * u / t  # a product, not a power: complex ** raises where it overflows
    return abs((w * w if quartic else w * w * w) - (t - one)) / max(abs(t), one)


def _branch(k: object) -> int:
    # the one check of a sheet index: an int, as unit^k needs an integer power
    if not isinstance(k, int):
        raise DomainError(f"branch must be an int, got {k!r}")
    return k


def _binary_exponent(v: complex) -> int:
    # e with max(|Re v|, |Im v|) < 2^e
    return math.frexp(max(abs(v.real), abs(v.imag)))[1]


def special_point(curve: SchwarzVariant, name: str) -> CurvePoint:
    """Named fiber points over t in {1, 0, infinity}.

    QUARTIC: P1, P01, P02, Pinf.  SEXTIC: P1, P01, P02, P03, Pinf1, Pinf2.
    """
    if not isinstance(name, str):
        raise DomainError(f"special point name must be a str, got {name!r}")
    name = name.strip()
    if name == "P1":
        return CurvePoint(curve, 1.0, 0.0)
    quartic = curve is SchwarzVariant.QUARTIC
    zero_names = ("P01", "P02") if quartic else ("P01", "P02", "P03")
    if name in zero_names:
        return CurvePoint(curve, 0.0, 0.0, branch=zero_names.index(name))
    inf_names = ("Pinf",) if quartic else ("Pinf1", "Pinf2")
    if name in inf_names:
        return CurvePoint(curve, 0.0, 0.0, at_infinity=True, branch=inf_names.index(name))
    raise DomainError(f"unknown special point {name!r} on {'i' if quartic else 'zeta'}")


def lift_branch(curve: SchwarzVariant, t: complex, k: int = 0) -> CurvePoint:
    """The point over t on sheet k, counted from the principal sheet.

    The principal sheet takes principal logarithms of t and t - 1, so u is
    real positive on (1, infinity); on the cut (-infinity, 1] a zero Im t
    of either sign takes the upper side.  Ramification values are rejected.
    """
    _require_variant(curve)
    t = complex(t)
    if _distance(t) < 1e-12 or _distance(t, 1.0) < 1e-12:
        raise DomainError("ramification value; take the fiber point by name (special_point, or --point)")
    k = _branch(k) % curve.root_order
    return CurvePoint(curve, t, curve.unit ** k * _principal_u(curve, t), branch=k)


def _distance(t: complex, c: float = 0.0) -> float:
    # |t - c| by hypot, inf where abs() of a complex beyond binary64 raises
    return math.hypot(t.real - c, t.imag)


def _principal_u(curve: SchwarzVariant, t: complex) -> complex:
    # u = t^(1/2) (t - 1)^(1/k) on principal logarithms, upper side on the cut
    t = complex(t.real, t.imag + 0.0)  # -0.0 + 0.0 is +0.0
    return cmath.exp(0.5 * cmath.log(t) + cmath.log(t - 1) / curve.root_order)


# ---------------------------------------------------------------------------
# Abel-Jacobi map.

def _zero_image(curve: SchwarzVariant) -> complex:
    """Torus image of the first fiber point over t = 0: e(a/2) F(1/2, a; 1 + a; 1) / (a N)."""
    a = curve.exponent
    return e_of(0.5 * a) * gauss_kummer_value(curve.schwarz_params) / (a * curve.normalization)


def _infinity_image(curve: SchwarzVariant) -> complex:
    """Torus image of the first fiber point over t = infinity: F(1/2 + a, a; 1 + a; 1) / (a N).

    That Gauss sum is the coefficient of (t - 1)^(-a) in the 1/z connection
    of F(1/2, a; 1 + a; 1 - t); the prefactor (t - 1)^a cancels the power.
    """
    a = curve.exponent
    return gauss_kummer_value(GaussParams(0.5 + a, a, 1.0 + a)) / (a * curve.normalization)


def abel_jacobi(p: CurvePoint) -> TorusPoint:
    """Integrate the normalized 1-form from the base point to p.

    The closed form of the module docstring gives the integral on the
    principal sheet, u = t^(1/2) (t - 1)^(1/k) on principal branches; on the
    cut t < 1 a zero Im t of either sign takes the upper side, the limit
    from Im t > 0.  The sheet of the target point then multiplies the
    result by the matching unit power, since the deck transformation scales
    the 1-form by exactly that unit.
    """
    curve = p.curve
    mod = curve.modulus
    k = curve.root_order
    if p.at_infinity:
        return canonical_torus_point(mod, curve.unit ** (p.branch % k) * _infinity_image(curve))
    d0, d1 = _distance(p.t), _distance(p.t, 1.0)
    if d1 < 1e-12:
        return canonical_torus_point(mod, 0j)
    if d0 < 1e-12:
        return canonical_torus_point(mod, curve.unit ** (p.branch % k) * _zero_image(curve))
    z_raw = schwarz_map(curve, p.t)
    ratio = p.u / _principal_u(curve, p.t)
    best_m = round(cmath.phase(ratio) * k / TWO_PI) % k  # the unit power e(m/k) nearest to ratio
    best_d = abs(ratio - curve.unit ** best_m)
    # t - 1 is stored with a rounding error up to about eps (|t| + 1), which
    # moves u_ref by that much over |t - 1| relative; sheets sit at least
    # 2 sin(pi/k) apart, so the widened match stays unambiguous
    if best_d > 1e-6 + 8 * sys.float_info.epsilon * (d0 + 1) / d1:
        raise DomainError("u does not match any sheet over t")
    return canonical_torus_point(mod, curve.unit ** best_m * z_raw)


# ---------------------------------------------------------------------------
# Theta inverses.

_POLE_I = (1 + 1j) / 2
_POLE_ZETA_1 = (ZETA + 1) / 3
_POLE_ZETA_2 = 2 * (ZETA + 1) / 3
_SEXTIC_PREFACTOR = e_of(-0.125) * 27 ** 0.25  # e(-1/8) 27^(1/4)


def inverse_quartic(zp: TorusPoint) -> CurvePoint:
    """Theta-quotient inverse of the quartic Abel-Jacobi map."""
    return _quartic_with_thetas(zp)[0]


def inverse_sextic(zp: TorusPoint) -> CurvePoint:
    """Theta-quotient inverse of the sextic Abel-Jacobi map."""
    return _sextic_with_thetas(zp)[0]


# The inverses with the four half-characteristic thetas at z that they are
# built from, None over t = infinity; the ratio identities of `lemnis.verify`
# reuse the thetas.  They take one `theta` call per characteristic, not
# `theta_four`: the benchmark harness's self-test (perfbench/selftest.py)
# pins four theta entries per inverse.

def _four_thetas(z: complex, mod: Modulus) -> tuple[complex, ...]:
    c00, c01, c10, c11 = HALF_CHARS
    return theta(c00, z, mod), theta(c01, z, mod), theta(c10, z, mod), theta(c11, z, mod)


def _quartic_with_thetas(zp: TorusPoint) -> tuple[CurvePoint, tuple | None]:
    _require_modulus(zp, TAU_I)
    if lattice_distance(TAU_I, zp.z, _POLE_I) < 1e-9:
        return CurvePoint(SchwarzVariant.QUARTIC, 0.0, 0.0, at_infinity=True), None
    th = th00, th01, th10, th11 = _four_thetas(zp.z, TAU_I)
    t = 2 * th01 ** 2 * th10 ** 2 / th00 ** 4
    u = -(1 - 1j) * th01 * th10 * th11 / th00 ** 3
    return CurvePoint(SchwarzVariant.QUARTIC, t, u), th


def _sextic_with_thetas(zp: TorusPoint) -> tuple[CurvePoint, tuple | None]:
    _require_modulus(zp, TAU_ZETA)
    if lattice_distance(TAU_ZETA, zp.z, _POLE_ZETA_1) < 1e-9:
        return CurvePoint(SchwarzVariant.SEXTIC, 0.0, 0.0, at_infinity=True, branch=0), None
    if lattice_distance(TAU_ZETA, zp.z, _POLE_ZETA_2) < 1e-9:
        return CurvePoint(SchwarzVariant.SEXTIC, 0.0, 0.0, at_infinity=True, branch=1), None
    th = th00, th01, th10, th11 = _four_thetas(zp.z, TAU_ZETA)
    den = SQRT3 * 1j * th00 ** 2 - th11 ** 2
    t = -3 * SQRT3 * 1j * th00 ** 2 * th01 ** 2 * th10 ** 2 / den ** 3
    u = _SEXTIC_PREFACTOR * th00 * th01 * th10 * th11 / den ** 2
    return CurvePoint(SchwarzVariant.SEXTIC, t, u), th


def _require_modulus(zp: TorusPoint, mod: Modulus) -> None:
    if zp.modulus.value != mod.value:
        raise DomainError(f"torus point lives on tau = {zp.modulus.value}, expected {mod.value}")


# ---------------------------------------------------------------------------
# Multiplication formulas.

def mul_one_plus_i(p: CurvePoint) -> CurvePoint:
    """Image of a quartic point under multiplication of z by 1 + i."""
    if p.curve is not SchwarzVariant.QUARTIC:
        raise DomainError("defined on the quartic curve only")
    if p.at_infinity:
        # (1 + i) doubles the infinity class into the lattice.
        return CurvePoint(SchwarzVariant.QUARTIC, 1.0, 0.0)
    if _distance(p.t) < 1e-12:
        return CurvePoint(SchwarzVariant.QUARTIC, 0.0, 0.0, at_infinity=True)
    # through r = (t - 2) / t on t, u scaled as in mul_one_plus_zeta, so nothing overflows
    one = math.ldexp(1.0, -max(0, _binary_exponent(p.t)))
    t, u = p.t * one, p.u * one
    r = (t - 2 * one) / t
    u_new = -(1 + 1j) * u / t * r
    return CurvePoint(SchwarzVariant.QUARTIC, r ** 2, u_new)


def mul_one_plus_zeta(p: CurvePoint) -> CurvePoint:
    """Image of a sextic point under multiplication of z by 1 + zeta."""
    if p.curve is not SchwarzVariant.SEXTIC:
        raise DomainError("defined on the sextic curve only")
    if p.at_infinity:
        return CurvePoint(SchwarzVariant.SEXTIC, 1.0, 0.0)
    if _distance(4 * p.t, 3.0) < 1e-12:
        return CurvePoint(SchwarzVariant.SEXTIC, 0.0, 0.0, at_infinity=True)
    # through r = (9 - 8t) / (4t - 3), so no power of t overflows; t, u are
    # scaled exactly by 2^-j, j = 0 for |t| < 1, so that 8t cannot overflow
    one = math.ldexp(1.0, -max(0, _binary_exponent(p.t)))
    t, u = p.t * one, p.u * one
    den = 4 * t - 3 * one
    r = (9 * one - 8 * t) / den
    t_new = t / den * r ** 2
    u_new = e_of(1.0 / 12.0) * SQRT3 * u / den * r
    return CurvePoint(SchwarzVariant.SEXTIC, t_new, u_new)


# ---------------------------------------------------------------------------
# Group equivalence.

@dataclass(frozen=True)
class GroupWitness:
    equivalent: bool
    unit: complex | None
    lattice_shift: complex | None
    distance: float


def equivalent_mod_group(zp1: TorusPoint, zp2: TorusPoint, tol: float = 1e-8) -> GroupWitness:
    """Test z1 = unit * z2 + lattice and report the witness pair."""
    if not (isinstance(tol, (int, float)) and 0.0 < tol < math.inf):
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")
    if zp1.modulus.value != zp2.modulus.value:
        raise DomainError("points live on different tori")
    curve = next((c for c in SchwarzVariant if c.modulus.value == zp1.modulus.value), None)
    if curve is None:
        raise DomainError("group equivalence needs the square or hexagonal torus")
    best = None
    for k in range(curve.root_order):
        eps = curve.unit ** k
        lam, dist = _nearest_lattice_point(zp1.modulus, zp1.z - eps * zp2.z)
        if best is None or dist < best[0]:
            best = (dist, eps, lam)
        if dist < tol:
            return GroupWitness(True, eps, lam, dist)
    return GroupWitness(False, None, None, best[0])
