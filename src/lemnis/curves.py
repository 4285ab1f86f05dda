"""The two special curves, their Abel-Jacobi maps, and the theta inverses.

Curve C_I is u^4 = t^2 (t - 1) with lattice Z + Z i; curve C_ZETA is
u^6 = t^3 (t - 1) with lattice Z + Z zeta, zeta = (1 + sqrt(3) i)/2.  The
forward map is the normalized holomorphic 1-form integrated from the base
point t = 1, in closed form: with a = 1/4 on C_I and 1/6 on C_ZETA,

    z = (t - 1)^a / a * F(1/2, a; 1 + a; 1 - t) / normalization

on principal branches, with F from `hypergeometric.gauss_2f1_pair`; the
fiber points over t = 0 and t = infinity have Gauss-sum images.
Branch bookkeeping is stateless: the sheet of a point is read off u.

The inverse maps are ratios of theta values on the corresponding square or
hexagonal torus, and the remaining operations (multiplication formulas,
ratio identities, group equivalence) tie the two descriptions together.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .hypergeometric import GaussParams, SchwarzVariant, gauss_2f1, gauss_2f1_pair, gauss_kummer_value
from .numerics import SQRT3, ZETA, DomainError, e_of
from .theta import (
    HALF_CHARS,
    Modulus,
    TAU_I,
    TAU_ZETA,
    TorusPoint,
    IdentityPair,
    _nearest_lattice_point,
    canonical_torus_point,
    lattice_distance,
    theta,
    theta_four,
)


class Curve(Enum):
    C_I = "i"
    C_ZETA = "zeta"

    @functools.cached_property
    def root_order(self) -> int:
        return self.variant.root_order

    @property
    def unit(self) -> complex:
        return 1j if self is Curve.C_I else ZETA

    @property
    def modulus(self) -> Modulus:
        return TAU_I if self is Curve.C_I else TAU_ZETA

    @property
    def variant(self) -> SchwarzVariant:
        return SchwarzVariant.QUARTIC if self is Curve.C_I else SchwarzVariant.SEXTIC

    @functools.cached_property
    def exponent(self) -> float:
        """a = 1/4 on C_I, 1/6 on C_ZETA: the 1-form is s^(-1/2) (s - 1)^(a - 1) ds.

        It is the first parameter of the variant's series F(a, 1/2; 1 + a).
        """
        return self.variant.series_params.alpha

    @functools.cached_property
    def normalization(self) -> complex:
        return self.variant.normalization


@dataclass(frozen=True)
class CurvePoint:
    """A point (t, u) on one of the two curves, or a point over t = infinity.

    `branch` indexes the deck transformation u -> unit^branch * u relative
    to a reference sheet; for finite points it is bookkeeping only (u itself
    is authoritative), for ramification and infinity points it selects the
    fiber element.
    """

    curve: Curve
    t: complex
    u: complex
    at_infinity: bool = False
    branch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "u", complex(self.u))
        # written so that a NaN residual (any non-finite t or u) is rejected too
        if not _curve_residual(self) <= 1e-10:
            raise DomainError("(t, u) does not satisfy the curve equation")


def _curve_residual(p: CurvePoint) -> float:
    # |lhs - rhs| of the curve equation over the largest of |lhs|, |t|^deg and 1.
    # It is taken on u / 2^(wu j), t / 2^(wt j) with the weights (wu, wt) that
    # make the equation homogeneous, (3, 4) on C_I and (2, 3) on C_ZETA, and j
    # the least j >= 0 that brings both to modulus below 2, so no power
    # overflows; scaling by a power of two is exact, and j = 0 for |u|, |t| < 1.
    if p.at_infinity:
        return 0.0
    wu, wt = (3, 4) if p.curve is Curve.C_I else (2, 3)
    j = max(0, -(-_binary_exponent(p.u) // wu), -(-_binary_exponent(p.t) // wt))
    one = math.ldexp(1.0, -wt * j)
    u = p.u * math.ldexp(1.0, -wu * j)
    t = p.t * one
    if p.curve is Curve.C_I:
        return abs(u ** 4 - t * t * (t - one)) / max(abs(u) ** 4, abs(t) ** 3, one ** 3)
    return abs(u ** 6 - t ** 3 * (t - one)) / max(abs(u) ** 6, abs(t) ** 4, one ** 4)


def _binary_exponent(v: complex) -> int:
    # e with max(|Re v|, |Im v|) < 2^e
    return math.frexp(max(abs(v.real), abs(v.imag)))[1]


def special_point(curve: Curve, name: str) -> CurvePoint:
    """Named fiber points over t in {1, 0, infinity}.

    C_I: P1, P01, P02, Pinf.  C_ZETA: P1, P01, P02, P03, Pinf1, Pinf2.
    """
    name = name.strip()
    if name == "P1":
        return CurvePoint(curve, 1.0, 0.0)
    zero_names = ("P01", "P02") if curve is Curve.C_I else ("P01", "P02", "P03")
    if name in zero_names:
        return CurvePoint(curve, 0.0, 0.0, branch=zero_names.index(name))
    inf_names = ("Pinf",) if curve is Curve.C_I else ("Pinf1", "Pinf2")
    if name in inf_names:
        return CurvePoint(curve, 0.0, 0.0, at_infinity=True, branch=inf_names.index(name))
    raise DomainError(f"unknown special point {name!r} on {curve.value}")


def lift_branch(curve: Curve, t: complex, k: int = 0) -> CurvePoint:
    """The point over t on sheet k, counted from the principal sheet.

    The principal sheet takes principal logarithms of t and t - 1, so u is
    real positive on (1, infinity) and the cut sits on (-infinity, 1]; on
    the cut the upper side is used.  Ramification values are rejected.
    """
    t = complex(t)
    if abs(t) < 1e-12 or abs(t - 1) < 1e-12:
        raise DomainError("ramification value; use special_point")
    u0 = cmath.exp(0.5 * cmath.log(t) + cmath.log(t - 1) / curve.root_order)
    k = k % curve.root_order
    return CurvePoint(curve, t, curve.unit ** k * u0, branch=k)


# ---------------------------------------------------------------------------
# Abel-Jacobi map.

def _zero_image(curve: Curve) -> complex:
    """Torus image of the first fiber point over t = 0: e(a/2) F(1/2, a; 1 + a; 1) / (a N)."""
    a = curve.exponent
    return e_of(0.5 * a) * gauss_kummer_value(GaussParams(0.5, a, 1.0 + a)) / (a * curve.normalization)


def _infinity_image(curve: Curve) -> complex:
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
    cut t <= 0 a zero Im t of either sign takes the upper side, the limit
    from Im t > 0.  The sheet of the target point then multiplies the
    result by the matching unit power, since the deck transformation scales
    the 1-form by exactly that unit.
    """
    curve = p.curve
    mod = curve.modulus
    k = curve.root_order
    if p.at_infinity:
        return canonical_torus_point(mod, curve.unit ** (p.branch % k) * _infinity_image(curve))
    if abs(p.t - 1) < 1e-12:
        return canonical_torus_point(mod, 0j)
    if abs(p.t) < 1e-12:
        return canonical_torus_point(mod, curve.unit ** (p.branch % k) * _zero_image(curve))
    t = complex(p.t.real, p.t.imag + 0.0)  # -0.0 + 0.0 is +0.0
    a = curve.exponent
    w = t - 1
    # F's argument 1 - t and its complement t, each exact; 1 - t on the cut
    # of F, t < 0, lies on its lower side, the limit from Im t > 0
    f = gauss_2f1_pair(GaussParams(0.5, a, 1.0 + a), complex(1.0 - t.real, -t.imag), t)
    z_raw = w ** a / a * f / curve.normalization
    u_ref = t ** 0.5 * w ** (1.0 / k)
    ratio = p.u / u_ref
    best_m, best_d = 0, abs(ratio - 1)
    for m in range(1, k):
        d = abs(ratio - curve.unit ** m)
        if d < best_d:
            best_m, best_d = m, d
    # t - 1 is stored with a rounding error up to about eps (|t| + 1), which
    # moves u_ref by that much over |t - 1| relative; sheets sit at least
    # 2 sin(pi/k) apart, so the widened match stays unambiguous
    if best_d > 1e-6 + 8 * sys.float_info.epsilon * (abs(p.t) + 1) / abs(p.t - 1):
        raise DomainError("u does not match any sheet over t")
    return canonical_torus_point(mod, curve.unit ** best_m * z_raw)


# ---------------------------------------------------------------------------
# Theta inverses.

_POLE_I = (1 + 1j) / 2
_POLE_ZETA_1 = (ZETA + 1) / 3
_POLE_ZETA_2 = 2 * (ZETA + 1) / 3
_SEXTIC_PREFACTOR = e_of(-0.125) * 27 ** 0.25  # e(-1/8) 27^(1/4)


def inverse_quartic_t_routes(zp: TorusPoint) -> tuple[complex, complex]:
    """Both displayed t-expressions; they agree up to roundoff."""
    th00, th01, th10, th11 = theta_four(zp.z, TAU_I)
    t_prod = 2 * th01 ** 2 * th10 ** 2 / th00 ** 4
    t_quot = 1 - th11 ** 4 / th00 ** 4
    return t_prod, t_quot


def inverse_quartic(zp: TorusPoint) -> CurvePoint:
    """Theta-quotient inverse of the quartic Abel-Jacobi map."""
    return _quartic_with_thetas(zp)[0]


def inverse_sextic(zp: TorusPoint) -> CurvePoint:
    """Theta-quotient inverse of the sextic Abel-Jacobi map."""
    return _sextic_with_thetas(zp)[0]


# The inverses with the four half-characteristic thetas at z that they are
# built from, None over t = infinity; the ratio identities reuse the thetas.
# They take one `theta` call per characteristic, not `theta_four`: the
# benchmark harness's self-test (perfbench/selftest.py) pins four theta
# entries per inverse.

def _four_thetas(z: complex, mod: Modulus) -> tuple[complex, ...]:
    return tuple(theta(c, z, mod) for c in HALF_CHARS)


def _quartic_with_thetas(zp: TorusPoint) -> tuple[CurvePoint, tuple | None]:
    _require_modulus(zp, TAU_I)
    if lattice_distance(TAU_I, zp.z, _POLE_I) < 1e-9:
        return CurvePoint(Curve.C_I, 0.0, 0.0, at_infinity=True), None
    th = th00, th01, th10, th11 = _four_thetas(zp.z, TAU_I)
    t = 2 * th01 ** 2 * th10 ** 2 / th00 ** 4
    u = -(1 - 1j) * th01 * th10 * th11 / th00 ** 3
    return CurvePoint(Curve.C_I, t, u), th


def _sextic_with_thetas(zp: TorusPoint) -> tuple[CurvePoint, tuple | None]:
    _require_modulus(zp, TAU_ZETA)
    if lattice_distance(TAU_ZETA, zp.z, _POLE_ZETA_1) < 1e-9:
        return CurvePoint(Curve.C_ZETA, 0.0, 0.0, at_infinity=True, branch=0), None
    if lattice_distance(TAU_ZETA, zp.z, _POLE_ZETA_2) < 1e-9:
        return CurvePoint(Curve.C_ZETA, 0.0, 0.0, at_infinity=True, branch=1), None
    th = th00, th01, th10, th11 = _four_thetas(zp.z, TAU_ZETA)
    den = SQRT3 * 1j * th00 ** 2 - th11 ** 2
    t = -3 * SQRT3 * 1j * th00 ** 2 * th01 ** 2 * th10 ** 2 / den ** 3
    u = _SEXTIC_PREFACTOR * th00 * th01 * th10 * th11 / den ** 2
    return CurvePoint(Curve.C_ZETA, t, u), th


def _require_modulus(zp: TorusPoint, mod: Modulus) -> None:
    if zp.modulus.tag is not mod.tag:
        raise DomainError(f"torus point lives on {zp.modulus.tag}, expected {mod.tag}")


# ---------------------------------------------------------------------------
# Ratio identities.

def ratio_identities_quartic(zp: TorusPoint) -> list[IdentityPair]:
    """The three square-torus identities for r = i u^2 / t.

    Where t vanishes (one of the even thetas has a zero) r is replaced by
    its documented limit -1 or +1; at z = i/2 that limit is -1.
    """
    return _quartic_ratios(*_quartic_with_thetas(zp))


def _quartic_ratios(p: CurvePoint, th: tuple | None) -> list[IdentityPair]:
    if p.at_infinity:
        raise DomainError("ratio identities blow up over t = infinity")
    th00, th01, th10, th11 = th
    scale = max(abs(th00), abs(th01), abs(th10), abs(th11))
    if abs(th01) < 1e-8 * scale:
        r = complex(-1.0)
    elif abs(th10) < 1e-8 * scale:
        r = complex(1.0)
    else:
        r = 1j * p.u ** 2 / p.t
    sq = math.sqrt(2.0)
    return [
        IdentityPair("i_u2_over_t", r, th11 ** 2 / th00 ** 2),
        IdentityPair("one_plus", 1 + r, sq * th01 ** 2 / th00 ** 2),
        IdentityPair("one_minus", 1 - r, sq * th10 ** 2 / th00 ** 2),
    ]


def ratio_identities_sextic(zp: TorusPoint) -> list[IdentityPair]:
    """Hexagonal-torus identities for r = t / u^2 plus the cubed-root product.

    At theta zeros other than the base point the documented limits are
    substituted; at z = zeta/2 the first pair reproduces 1 + r -> 1 - omega.
    The last pair is the internal consistency of the three linear factors
    with 1 + 1/(t - 1).
    """
    return _sextic_ratios(*_sextic_with_thetas(zp))


def _sextic_ratios(p: CurvePoint, th: tuple | None) -> list[IdentityPair]:
    if p.at_infinity:
        raise DomainError("ratio identities blow up over t = infinity")
    th00, th01, th10, th11 = th
    scale = max(abs(th00), abs(th01), abs(th10), abs(th11))
    if abs(th11) < 1e-8 * scale:
        raise DomainError("identities degenerate at the base point z = 0")
    z2, z4 = ZETA ** 2, ZETA ** 4
    degenerate = True
    if abs(th01) < 1e-8 * scale:
        r = -1 / z4
    elif abs(th10) < 1e-8 * scale:
        r = -1 / z2
    elif abs(th00) < 1e-8 * scale:
        r = complex(-1.0)
    else:
        r = p.t / p.u ** 2
        degenerate = False
    cube = 0j if degenerate else p.u ** 3 / (p.t * (p.t - 1))
    return [
        IdentityPair("one_plus_r", 1 + r, SQRT3 * 1j * th00 ** 2 / th11 ** 2),
        IdentityPair("one_plus_z2_r", 1 + z2 * r, -SQRT3 * th10 ** 2 / th11 ** 2),
        IdentityPair("one_plus_z4_r", 1 + z4 * r, SQRT3 * th01 ** 2 / th11 ** 2),
        IdentityPair(
            "cube_over_t_tm1",
            cube,
            _SEXTIC_PREFACTOR * th00 * th01 * th10 / th11 ** 3,
        ),
        IdentityPair(
            "triple_product",
            (1 + r) * (1 + z2 * r) * (1 + z4 * r),
            1 + 1 / (p.t - 1),
        ),
    ]


# ---------------------------------------------------------------------------
# Multiplication formulas.

def mul_one_plus_i(p: CurvePoint) -> CurvePoint:
    """Image of a quartic point under multiplication of z by 1 + i."""
    if p.curve is not Curve.C_I:
        raise DomainError("defined on the quartic curve only")
    if p.at_infinity:
        # (1 + i) doubles the infinity class into the lattice.
        return CurvePoint(Curve.C_I, 1.0, 0.0)
    if abs(p.t) < 1e-12:
        return CurvePoint(Curve.C_I, 0.0, 0.0, at_infinity=True)
    t, u = p.t, p.u
    # through r = (t - 2) / t, so no power of t overflows at large |t|
    r = (t - 2) / t
    u_new = -(1 + 1j) * u / t * r
    return CurvePoint(Curve.C_I, r ** 2, u_new)


def mul_one_plus_zeta(p: CurvePoint) -> CurvePoint:
    """Image of a sextic point under multiplication of z by 1 + zeta."""
    if p.curve is not Curve.C_ZETA:
        raise DomainError("defined on the sextic curve only")
    if p.at_infinity:
        return CurvePoint(Curve.C_ZETA, 1.0, 0.0)
    if abs(4 * p.t - 3) < 1e-12:
        return CurvePoint(Curve.C_ZETA, 0.0, 0.0, at_infinity=True)
    # through r = (9 - 8t) / (4t - 3), so no power of t overflows; t, u are
    # scaled exactly by 2^-j, j = 0 for |t| < 1, so that 8t cannot overflow
    one = math.ldexp(1.0, -max(0, _binary_exponent(p.t)))
    t, u = p.t * one, p.u * one
    den = 4 * t - 3 * one
    r = (9 * one - 8 * t) / den
    t_new = t / den * r ** 2
    u_new = e_of(1.0 / 12.0) * SQRT3 * u / den * r
    return CurvePoint(Curve.C_ZETA, t_new, u_new)


# ---------------------------------------------------------------------------
# Group equivalence and constants.

@dataclass(frozen=True)
class GroupWitness:
    equivalent: bool
    unit: complex | None
    lattice_shift: complex | None
    distance: float


def equivalent_mod_group(zp1: TorusPoint, zp2: TorusPoint, tol: float = 1e-8) -> GroupWitness:
    """Test z1 = unit * z2 + lattice and report the witness pair."""
    if zp1.modulus.tag is not zp2.modulus.tag:
        raise DomainError("points live on different tori")
    curve = next((c for c in Curve if c.modulus.tag is zp1.modulus.tag), None)
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


def one_form_constant_routes(curve: Curve) -> tuple[complex, complex]:
    """The pullback constant of the 1-form, via theta and via beta."""
    th = theta(HALF_CHARS[0], 0j, curve.modulus)
    if curve is Curve.C_I:
        return 2 * (1 - 1j) * math.pi * th ** 2, curve.normalization
    return _SEXTIC_PREFACTOR * 2 * math.pi * th ** 2, curve.normalization


def one_form_constant(curve: Curve) -> complex:
    via_theta, via_beta = one_form_constant_routes(curve)
    if abs(via_theta - via_beta) > 1e-9 * abs(via_beta):
        raise DomainError("1-form constant routes disagree; theta evaluation suspect")
    return via_theta


# ---------------------------------------------------------------------------
# Round trip between the hypergeometric series and the theta quotients.

def hgf_theta_roundtrip(z: complex, curve: Curve) -> float:
    """|LHS(z) - z| for the closed inversion formula near the origin.

    Quartic: a theta-quotient prefactor times F(1/4, 1/2, 5/4; .) recovers
    z directly.  Sextic: same shape with a square root whose sign is pinned
    by the anchor value zeta at z = zeta/2, equivalently by matching the
    leading linear behavior at the origin.
    """
    z = complex(z)
    if abs(z) >= 0.3:
        raise DomainError("round trip is stated for |z| < 0.3")
    if z == 0:
        return 0.0
    th00, _, _, th11 = theta_four(z, curve.modulus)
    a_n = curve.exponent * curve.normalization
    if curve is Curve.C_I:
        ratio = th11 / th00
        f = gauss_2f1(SchwarzVariant.QUARTIC.series_params, ratio ** 4)
        lhs = e_of(0.375) / a_n * ratio * f
        return abs(lhs - z)
    w = 1 - SQRT3 * 1j * th00 ** 2 / th11 ** 2
    pref = e_of(0.25) / a_n
    root = cmath.sqrt(w)
    if (z * root * pref.conjugate()).real < 0:
        root = -root
    f = gauss_2f1(SchwarzVariant.SEXTIC.series_params, 1 / w ** 3)
    lhs = pref / root * f
    return abs(lhs - z)
