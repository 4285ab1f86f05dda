"""The two special curves, their Abel-Jacobi maps, and the theta inverses.

Curve C_I is u^4 = t^2 (t - 1) with lattice Z + Z i; curve C_ZETA is
u^6 = t^3 (t - 1) with lattice Z + Z zeta, zeta = (1 + sqrt(3) i)/2.  The
forward map integrates the normalized holomorphic 1-form along explicit
paths from the base point t = 1; power-substitutions at the two
ramification values keep every leg integrand analytic.  Branch bookkeeping
is stateless: the arguments of t and t - 1 are carried in closed form along
each leg, so repeated calls cannot drift.

The inverse maps are ratios of theta values on the corresponding square or
hexagonal torus, and the remaining operations (multiplication formulas,
ratio identities, group equivalence) tie the two descriptions together.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hypergeometric import SchwarzVariant, gauss_2f1
from .numerics import (
    DEFAULT_TOLERANCE,
    SQRT3,
    ZETA,
    DomainError,
    IterationLimitError,
    PathError,
    Tolerance,
    beta,
    e_of,
    gamma_real,
    principal_arg,
    principal_arg_array,
)
from .theta import (
    HALF_CHARS,
    Modulus,
    TAU_I,
    TAU_ZETA,
    TorusPoint,
    IdentityPair,
    _lattice_coefficients,
    _theta_four,
    canonical_torus_point,
    lattice_distance,
    theta,
)


class Curve(Enum):
    C_I = "i"
    C_ZETA = "zeta"

    @property
    def root_order(self) -> int:
        return 4 if self is Curve.C_I else 6

    @property
    def unit(self) -> complex:
        return 1j if self is Curve.C_I else ZETA

    @property
    def modulus(self) -> Modulus:
        return TAU_I if self is Curve.C_I else TAU_ZETA

    @property
    def w_exponent(self) -> float:
        # Exponent of (t - 1) in the 1-form denominator.
        return 0.75 if self is Curve.C_I else 5.0 / 6.0

    @property
    def normalization(self) -> complex:
        if self is Curve.C_I:
            return (1 - 1j) * beta(0.25, 0.25)
        return (1 - ZETA * ZETA) * beta(1.0 / 3.0, 1.0 / 6.0)


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


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    max_depth: int = 30

    def __post_init__(self) -> None:
        if not 1e-15 < self.abs_tol < 1e-6:
            raise DomainError("abs_tol must lie in (1e-15, 1e-6)")
        if not 1 <= self.max_depth <= 40:
            raise DomainError("max_depth must lie in [1, 40]")


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
# Adaptive quadrature: Gauss-Kronrod G7/K15 panels with bisection.  The
# 15 Kronrod nodes contain the 7 Gauss nodes at odd indices, so one
# integrand call on the node array gives both estimates; the constants are
# QUADPACK's qk15 (Piessens et al. 1983).  Integrands are elementwise numpy
# expressions, called on an (m, 15) array of nodes, m panels at a time.

# Non-negative halves in QUADPACK order, outermost node first, centre last.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
_K15_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_K15_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = np.concatenate([_WG, _WG[-2::-1]])  # weights of the nodes _K15_X[1::2]
# columns K15 and K15 - G7, so one product gives the estimate and its error;
# the Kronecker factor applies them to the (re, im) pairs of a complex row
_PANEL_W = np.stack([_K15_W, _K15_W], axis=1)
_PANEL_W[1::2, 1] -= _G7_W
_PANEL_W = np.kron(_PANEL_W, np.eye(2))


def _adaptive(f, a: float, b: float, tol: float, depth: int) -> complex:
    # Bisection one level at a time: the open panels of a level go through
    # one integrand call on an (m, 15) node array, then each is accepted or
    # split as in depth-first bisection, with tol halved per level.
    panels = [(a, b)]
    total = 0j
    for level in range(depth + 1):
        mid = np.array([0.5 * (lo + hi) for lo, hi in panels])
        half = np.array([0.5 * (hi - lo) for lo, hi in panels])[:, None]
        fx = np.asarray(f(mid[:, None] + half * _K15_X), dtype=complex)
        # one real product on the (re, im) pairs, cheaper than a complex
        # matrix product, which first casts the weights to complex
        est = (half * (fx.view(float) @ _PANEL_W).view(complex)).tolist()
        split = []
        for (lo, hi), (val, diff) in zip(panels, est):
            # halving tol at every split would eventually demand more than
            # double precision can deliver on long legs, so floor it near
            # machine level
            if abs(diff) <= max(tol, 1e-15 * max(1.0, abs(val))):
                total += val
            elif not (cmath.isfinite(val) and cmath.isfinite(diff)):
                # never accepted, and its halves would double the frontier
                # at every level
                raise IterationLimitError("quadrature met a non-finite integrand value")
            else:
                m = 0.5 * (lo + hi)
                split += [(lo, m), (m, hi)]
        if not split:
            return total
        if level == depth:
            raise IterationLimitError("quadrature failed to converge within max_depth")
        panels = split
        tol *= 0.5


# ---------------------------------------------------------------------------
# Path legs.  Every leg returns its integral contribution; the caller keeps
# the running continuous arguments (th_t, th_w) of t and t - 1.

def _leg_start(curve: Curve, t1: complex, th_w: float, tol: float, depth: int) -> complex:
    # From the base point t = 1 out to t1, |t1 - 1| <= 0.9.  The
    # substitution t = 1 + (t1 - 1) sigma^k flattens the (t-1)-power;
    # what survives is k * s_end / sqrt(t) with s_end a k-th root of t1 - 1
    # on the branch fixed by th_w.  Re t >= 0.1 on the leg, so the
    # principal square root of t is the continuous one.
    k = curve.root_order
    d = t1 - 1
    s_end = cmath.exp((math.log(abs(d)) + 1j * th_w) / k)

    def f(sig: np.ndarray) -> np.ndarray:
        return 1 / np.sqrt(1 + d * sig ** k)

    return k * s_end * _adaptive(f, 0.0, 1.0, tol, depth)


def _leg_plain(
    curve: Curve,
    ta: complex,
    tb: complex,
    th_t: float,
    th_w: float,
    tol: float,
    depth: int,
) -> tuple[complex, float, float]:
    # Straight segment clear of both ramification values.  A segment
    # starting at ratio 1 can only cross the negative real axis by passing
    # through 0, which path planning has excluded, so the continuous
    # argument increment along the leg is the principal argument of the
    # endpoint ratio.
    wq = curve.w_exponent
    d = tb - ta
    wa = ta - 1
    # t = ta zt and t - 1 = wa zw, with zt and zw starting at 1; the
    # tracked logarithms of t and t - 1 at ta go into the constant c
    st, sw = d / ta, d / wa
    log_ta = complex(math.log(abs(ta)), th_t)
    log_wa = complex(math.log(abs(wa)), th_w)
    c = d * cmath.exp(-0.5 * log_ta - wq * log_wa)

    def f(tau: np.ndarray) -> np.ndarray:
        zt = 1 + st * tau
        zw = 1 + sw * tau
        re = -0.5 * np.log(np.abs(zt)) - wq * np.log(np.abs(zw))
        im = -0.5 * principal_arg_array(zt) - wq * principal_arg_array(zw)
        return c * np.exp(re + 1j * im)

    val = _adaptive(f, 0.0, 1.0, tol, depth)
    return (
        val,
        th_t + principal_arg(1 + st),
        th_w + principal_arg(1 + sw),
    )


def _leg_end_zero(
    curve: Curve,
    ta: complex,
    th_t: float,
    th_w: float,
    tol: float,
    depth: int,
    sigma_lo: float = 0.0,
) -> complex:
    # Radial run-in toward t = 0 with t = ta sigma^2; the square-root
    # singularity cancels against dt and leaves -2 v_a (t - 1)^(-wq) with
    # v_a the tracked square root of ta.  A nonzero sigma_lo stops the run
    # partway down the ray instead of at 0.
    wq = curve.w_exponent
    va = cmath.exp(complex(0.5 * math.log(abs(ta)), 0.5 * th_t))
    wa = ta - 1
    # t - 1 = wa zw, with zw = 1 at sigma = 1; the tracked logarithm of
    # t - 1 at ta goes into the constant c
    c = -2.0 * va * cmath.exp(-wq * complex(math.log(abs(wa)), th_w))
    slope, shift = ta / wa, 1 / wa

    def f(sig: np.ndarray) -> np.ndarray:
        zw = slope * (sig * sig) - shift
        return c * np.exp(-wq * (np.log(np.abs(zw)) + 1j * principal_arg_array(zw)))

    return _adaptive(f, sigma_lo, 1.0, tol, depth)


def _leg_end_infinity(curve: Curve, ta: complex, tol: float, depth: int) -> complex:
    # Tail along the positive reals; substitute q = t^(-1/4) or t^(-1/3).
    # Only reachable with ta real > 1, where both tracked arguments are 0.
    if abs(ta.imag) > 1e-12 or ta.real <= 1:
        raise PathError("infinity leg requires a real start beyond t = 1")
    if curve is Curve.C_I:
        qa = ta.real ** -0.25

        def f(q: np.ndarray) -> np.ndarray:
            return 4.0 * (1.0 - q ** 4) ** -0.75

    else:
        qa = ta.real ** (-1.0 / 3.0)

        def f(q: np.ndarray) -> np.ndarray:
            return 3.0 * (1.0 - q ** 3) ** (-5.0 / 6.0)

    return _adaptive(f, 0.0, qa, tol, depth)


# ---------------------------------------------------------------------------
# Path planning.

_CLEARANCE = 0.05


def _seg_dist(a: complex, b: complex, p: complex) -> float:
    d = b - a
    if d == 0:
        return abs(a - p)
    s = ((p - a).real * d.real + (p - a).imag * d.imag) / abs(d) ** 2
    s = min(1.0, max(0.0, s))
    return abs(a + s * d - p)


def _plan(t_target: complex) -> list[tuple]:
    if abs(t_target) < 0.15:
        # Close to the other ramification value: descend the ray through 0,
        # where the same sigma^2 substitution as the full zero leg applies,
        # and stop partway.  The approach waypoint sits at radius 1/2.
        ray = 0.5 * t_target / abs(t_target)
        return _plan(ray) + [("pend0", t_target)]
    w = t_target - 1
    r = abs(w)
    if r <= 0.9:
        # Inside the start disk |t - 1| <= 0.9 we always have |t| >= 0.1,
        # so a single substituted leg suffices.
        return [("start", t_target)]
    mid = 1 + 0.9 * w / r
    if min(_seg_dist(mid, t_target, 0), _seg_dist(mid, t_target, 1)) >= _CLEARANCE:
        return [("start", mid), ("plain", t_target)]
    best_score, best_w = -1.0, None
    for j in range(24):
        way = 1 + 0.5 * cmath.exp(2j * math.pi * j / 24)
        score = min(_seg_dist(way, t_target, 0), _seg_dist(way, t_target, 1))
        if score > best_score:
            best_score, best_w = score, way
    if best_score < _CLEARANCE:
        raise PathError("no path with clearance 0.05 from the ramification values")
    return [("start", best_w), ("plain", t_target)]


def _integrate_legs(
    curve: Curve, legs: list[tuple], cfg: QuadratureConfig
) -> tuple[complex, float, float]:
    tol = cfg.abs_tol / max(1, len(legs))
    total = 0j
    th_t, th_w = 0.0, 0.0
    t_cur = 1 + 0j
    # A non-finite panel is never accepted, so it ends in IterationLimitError;
    # numpy's warnings on the way there are noise.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for leg in legs:
            kind = leg[0]
            if kind == "start":
                t1 = leg[1]
                th_w = principal_arg(t1 - 1)
                total += _leg_start(curve, t1, th_w, tol, cfg.max_depth)
                th_t = principal_arg(t1)
                t_cur = t1
            elif kind == "plain":
                tb = leg[1]
                val, th_t, th_w = _leg_plain(curve, t_cur, tb, th_t, th_w, tol, cfg.max_depth)
                total += val
                t_cur = tb
            elif kind == "end0":
                total += _leg_end_zero(curve, t_cur, th_t, th_w, tol, cfg.max_depth)
                t_cur = 0j
            elif kind == "pend0":
                tb = leg[1]
                sig = math.sqrt(abs(tb) / abs(t_cur))
                total += _leg_end_zero(curve, t_cur, th_t, th_w, tol, cfg.max_depth, sig)
                th_t += principal_arg(tb / t_cur)
                th_w += principal_arg((tb - 1) / (t_cur - 1))
                t_cur = tb
            elif kind == "endinf":
                total += _leg_end_infinity(curve, t_cur, tol, cfg.max_depth)
            else:
                raise PathError(f"unknown leg kind {kind!r}")
    return total, th_t, th_w


_SPECIAL_IMAGES: dict[tuple, complex] = {}


def _zero_image(curve: Curve, cfg: QuadratureConfig) -> complex:
    """Torus image of the first fiber point over t = 0, by quadrature."""
    key = ("zero", curve, cfg.abs_tol, cfg.max_depth)
    if key not in _SPECIAL_IMAGES:
        total, _, _ = _integrate_legs(curve, [("start", 0.5 + 0j), ("end0",)], cfg)
        _SPECIAL_IMAGES[key] = total / curve.normalization
    return _SPECIAL_IMAGES[key]


def _infinity_image(curve: Curve, cfg: QuadratureConfig) -> complex:
    """Torus image of the first fiber point over t = infinity, by quadrature."""
    key = ("inf", curve, cfg.abs_tol, cfg.max_depth)
    if key not in _SPECIAL_IMAGES:
        total, _, _ = _integrate_legs(curve, [("start", 2.0 + 0j), ("endinf",)], cfg)
        _SPECIAL_IMAGES[key] = total / curve.normalization
    return _SPECIAL_IMAGES[key]


def abel_jacobi(p: CurvePoint, cfg: QuadratureConfig | None = None) -> TorusPoint:
    """Integrate the normalized 1-form from the base point to p.

    The raw integral follows the principal continuation along the planned
    path; the sheet of the target point then multiplies the result by the
    matching unit power, since the deck transformation scales the 1-form by
    exactly that unit.
    """
    curve = p.curve
    cfg = cfg or QuadratureConfig()
    mod = curve.modulus
    k = curve.root_order
    if p.at_infinity:
        z = curve.unit ** (p.branch % k) * _infinity_image(curve, cfg)
        return canonical_torus_point(mod, z)
    if abs(p.t - 1) < 1e-12:
        return canonical_torus_point(mod, 0j)
    if abs(p.t) < 1e-12:
        z = curve.unit ** (p.branch % k) * _zero_image(curve, cfg)
        return canonical_torus_point(mod, z)
    legs = _plan(p.t)
    total, th_t, th_w = _integrate_legs(curve, legs, cfg)
    z_raw = total / curve.normalization
    u_ref = cmath.exp(
        complex(0.5 * math.log(abs(p.t)), 0.5 * th_t)
        + complex(math.log(abs(p.t - 1)) / k, th_w / k)
    )
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


def inverse_quartic_t_routes(zp: TorusPoint, tol: Tolerance | None = None) -> tuple[complex, complex]:
    """Both displayed t-expressions; they agree up to roundoff."""
    tol = tol or DEFAULT_TOLERANCE
    th00, th01, th10, th11 = _theta_four(zp.z, TAU_I, tol)
    t_prod = 2 * th01 ** 2 * th10 ** 2 / th00 ** 4
    t_quot = 1 - th11 ** 4 / th00 ** 4
    return t_prod, t_quot


def inverse_quartic(zp: TorusPoint, tol: Tolerance | None = None) -> CurvePoint:
    """Theta-quotient inverse of the quartic Abel-Jacobi map."""
    tol = tol or DEFAULT_TOLERANCE
    _require_modulus(zp, TAU_I)
    if lattice_distance(TAU_I, zp.z, _POLE_I) < 1e-9:
        return CurvePoint(Curve.C_I, 0.0, 0.0, at_infinity=True)
    th00, th01, th10, th11 = _theta_four(zp.z, TAU_I, tol)
    t = 2 * th01 ** 2 * th10 ** 2 / th00 ** 4
    u = -(1 - 1j) * th01 * th10 * th11 / th00 ** 3
    return CurvePoint(Curve.C_I, t, u)


def inverse_sextic(zp: TorusPoint, tol: Tolerance | None = None) -> CurvePoint:
    """Theta-quotient inverse of the sextic Abel-Jacobi map."""
    tol = tol or DEFAULT_TOLERANCE
    _require_modulus(zp, TAU_ZETA)
    if lattice_distance(TAU_ZETA, zp.z, _POLE_ZETA_1) < 1e-9:
        return CurvePoint(Curve.C_ZETA, 0.0, 0.0, at_infinity=True, branch=0)
    if lattice_distance(TAU_ZETA, zp.z, _POLE_ZETA_2) < 1e-9:
        return CurvePoint(Curve.C_ZETA, 0.0, 0.0, at_infinity=True, branch=1)
    th00, th01, th10, th11 = _theta_four(zp.z, TAU_ZETA, tol)
    den = SQRT3 * 1j * th00 ** 2 - th11 ** 2
    t = -3 * SQRT3 * 1j * th00 ** 2 * th01 ** 2 * th10 ** 2 / den ** 3
    u = e_of(-0.125) * 27 ** 0.25 * th00 * th01 * th10 * th11 / den ** 2
    return CurvePoint(Curve.C_ZETA, t, u)


def _require_modulus(zp: TorusPoint, mod: Modulus) -> None:
    if zp.modulus.tag is not mod.tag:
        raise DomainError(f"torus point lives on {zp.modulus.tag}, expected {mod.tag}")


# ---------------------------------------------------------------------------
# Ratio identities.

def ratio_identities_quartic(zp: TorusPoint, tol: Tolerance | None = None) -> list[IdentityPair]:
    """The three square-torus identities for r = i u^2 / t.

    Where t vanishes (one of the even thetas has a zero) r is replaced by
    its documented limit -1 or +1; at z = i/2 that limit is -1.
    """
    tol = tol or DEFAULT_TOLERANCE
    _require_modulus(zp, TAU_I)
    p = inverse_quartic(zp, tol)
    if p.at_infinity:
        raise DomainError("ratio identities blow up over t = infinity")
    th00, th01, th10, th11 = _theta_four(zp.z, TAU_I, tol)
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


def ratio_identities_sextic(zp: TorusPoint, tol: Tolerance | None = None) -> list[IdentityPair]:
    """Hexagonal-torus identities for r = t / u^2 plus the cubed-root product.

    At theta zeros other than the base point the documented limits are
    substituted; at z = zeta/2 the first pair reproduces 1 + r -> 1 - omega.
    The last pair is the internal consistency of the three linear factors
    with 1 + 1/(t - 1).
    """
    tol = tol or DEFAULT_TOLERANCE
    _require_modulus(zp, TAU_ZETA)
    p = inverse_sextic(zp, tol)
    if p.at_infinity:
        raise DomainError("ratio identities blow up over t = infinity")
    th00, th01, th10, th11 = _theta_four(zp.z, TAU_ZETA, tol)
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
    pairs = [
        IdentityPair("one_plus_r", 1 + r, SQRT3 * 1j * th00 ** 2 / th11 ** 2),
        IdentityPair("one_plus_z2_r", 1 + z2 * r, -SQRT3 * th10 ** 2 / th11 ** 2),
        IdentityPair("one_plus_z4_r", 1 + z4 * r, SQRT3 * th01 ** 2 / th11 ** 2),
        IdentityPair(
            "cube_over_t_tm1",
            cube,
            e_of(-0.125) * 27 ** 0.25 * th00 * th01 * th10 / th11 ** 3,
        ),
        IdentityPair(
            "triple_product",
            (1 + r) * (1 + z2 * r) * (1 + z4 * r),
            1 + 1 / (p.t - 1),
        ),
    ]
    return pairs


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
    t_new = ((t - 2) / t) ** 2
    u_new = (1 + 1j) * u * (2 - t) / t ** 2
    return CurvePoint(Curve.C_I, t_new, u_new)


def mul_one_plus_zeta(p: CurvePoint) -> CurvePoint:
    """Image of a sextic point under multiplication of z by 1 + zeta."""
    if p.curve is not Curve.C_ZETA:
        raise DomainError("defined on the sextic curve only")
    if p.at_infinity:
        return CurvePoint(Curve.C_ZETA, 1.0, 0.0)
    if abs(4 * p.t - 3) < 1e-12:
        return CurvePoint(Curve.C_ZETA, 0.0, 0.0, at_infinity=True)
    t, u = p.t, p.u
    den = (4 * t - 3)
    t_new = t * (9 - 8 * t) ** 2 / den ** 3
    u_new = e_of(1.0 / 12.0) * SQRT3 * u * (9 - 8 * t) / den ** 2
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
    tau = zp1.modulus.value
    best = None
    for k in range(curve.root_order):
        eps = curve.unit ** k
        d = zp1.z - eps * zp2.z
        alpha, bcoef = _lattice_coefficients(tau, d)
        lam = round(alpha) * tau + round(bcoef)
        dist = abs(d - lam)
        if best is None or dist < best[0]:
            best = (dist, eps, lam)
        if dist < tol:
            return GroupWitness(True, eps, lam, dist)
    return GroupWitness(False, None, None, best[0])


def one_form_constant_routes(curve: Curve, tol: Tolerance | None = None) -> tuple[complex, complex]:
    """The pullback constant of the 1-form, via theta and via beta."""
    tol = tol or DEFAULT_TOLERANCE
    th = theta(HALF_CHARS[0], 0j, curve.modulus, tol)
    if curve is Curve.C_I:
        return 2 * (1 - 1j) * math.pi * th ** 2, curve.normalization
    return e_of(-0.125) * 2 * math.pi * 27 ** 0.25 * th ** 2, curve.normalization


def one_form_constant(curve: Curve, tol: Tolerance | None = None) -> complex:
    via_theta, via_beta = one_form_constant_routes(curve, tol)
    if abs(via_theta - via_beta) > 1e-9 * abs(via_beta):
        raise DomainError("1-form constant routes disagree; theta evaluation suspect")
    return via_theta


# ---------------------------------------------------------------------------
# Round trip between the hypergeometric series and the theta quotients.

def hgf_theta_roundtrip(z: complex, curve: Curve, tol: Tolerance | None = None) -> float:
    """|LHS(z) - z| for the closed inversion formula near the origin.

    Quartic: a theta-quotient prefactor times F(1/4, 1/2, 5/4; .) recovers
    z directly.  Sextic: same shape with a square root whose sign is pinned
    by the anchor value zeta at z = zeta/2, equivalently by matching the
    leading linear behavior at the origin.
    """
    tol = tol or DEFAULT_TOLERANCE
    z = complex(z)
    if abs(z) >= 0.3:
        raise DomainError("round trip is stated for |z| < 0.3")
    if z == 0:
        return 0.0
    th00 = theta(HALF_CHARS[0], z, curve.modulus, tol)
    th11 = theta(HALF_CHARS[3], z, curve.modulus, tol)
    if curve is Curve.C_I:
        ratio = th11 / th00
        f = gauss_2f1(SchwarzVariant.QUARTIC.series_params, ratio ** 4, tol)
        lhs = -2 * math.sqrt(2 * math.pi) / gamma_real(0.25) ** 2 * ratio * f
        return abs(lhs - z)
    w = 1 - SQRT3 * 1j * th00 ** 2 / th11 ** 2
    pref = 16 ** (1.0 / 3.0) * math.pi * ZETA ** 2 / gamma_real(1.0 / 3.0) ** 3
    root = cmath.sqrt(w)
    if (z * root * pref.conjugate()).real < 0:
        root = -root
    f = gauss_2f1(SchwarzVariant.SEXTIC.series_params, 1 / w ** 3, tol)
    lhs = pref / root * f
    return abs(lhs - z)
