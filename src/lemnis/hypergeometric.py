"""Gauss hypergeometric function on the cut plane, the enum of the two
triangle groups, `SchwarzVariant`, and their Schwarz maps.

F(alpha, beta; gamma; z) is evaluated on the plane cut along real z > 1
through one route table.  Every route is a power series in a transformed
argument:

- ``direct``: the series in z;
- ``near-one``: the connection in 1 - z (DLMF 15.8.4), two series;
- ``1/z``: the connection in 1/z (DLMF 15.8.2), two series;
- ``z/(z-1)``, ``1/(1-z)`` and ``1-1/z``: the same three after the Pfaff map
  w = z/(z - 1) (DLMF 15.8.1).

The route with the fewest estimated terms (its series count times the terms
its modulus needs) is summed.  Within 0.45 of e^{+-i pi/3}, where the
moduli of all six routes approach 1, the value is a Taylor re-expansion of
the hypergeometric ODE about that point instead (Johansson, "Computing
hypergeometric functions rigorously", ACM TOMS 45, 2019, sec. 5); F and F'
there are computed once per parameter triple.  On the unit circle, where
nothing else converges, the direct series is summed to its algebraic tail
when gamma - alpha - beta > 0.  Where |z| < 1/2 and |1 - z| <= 1 the
route table's pick is the direct series (every other modulus exceeds 1 or
needs more terms) and z lies outside the balls, so it is summed at once.
Series read their term ratios from a ratio table per triple, each entry the
inline expression, so sums keep their bits; it grows to what sums reach, at
least doubling, up to 512 ratios for 48 triples (16 KiB each, 778 KiB in
all; a 49th triple empties it).

Every transformed argument is built from the pair (z, 1 - z), never by
subtracting from 1: `gauss_2f1_pair` takes 1 - z from a caller that knows
it more precisely than the rounded difference, and on the cut the sign of
a zero imaginary part of z picks the side.

DomainError remains where no route converges:

- real z > 1, the cut of `gauss_2f1`;
- z = 1 when gamma - alpha - beta <= 0;
- the logarithmic cases, where gamma - alpha - beta or alpha - beta lies
  within 0.05 of an integer and the connection formulas that need it are
  not used: with both, |z| >= 1 and Re z >= 1/2 outside the two balls;
  with the first alone, the unit circle arc Re z > 1/2; with the second
  alone, the line Re z = 1/2 (the boundary sum covers the unit circle
  when gamma - alpha - beta > 0).

It is raised as well where |z| or |1 - z|, or a route's value of F, lies
outside binary64, at the first inf or NaN term of a series, and where a
connection coefficient needs Gamma at an argument beyond 10^4 in modulus.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum

from .numerics import (
    ZETA,
    DomainError,
    IterationLimitError,
    _MAX_TERMS,
    _dist_to_int,
    _gamma_signed,
    beta as beta_fn,
)
from .theta import TAU_I, TAU_ZETA, Modulus

# Terms cost next to nothing, so every route sums to well below the 1e-10 the
# package reports against; the boundary sum, whose tail decays only
# algebraically, stops at 1e-10.
_ABS_TOL = 1e-14
_LOG_ABS_TOL = math.log(_ABS_TOL)
_BOUNDARY_TOL = 1e-10
_LOG_GAP = 0.05  # how far from Z a connection formula needs its exponent difference
_BALL_RADIUS = 0.45  # of the re-expansion balls around e^{+-i pi/3}; their radius of convergence is 1
_ANCHOR_TOL = 1e-16
_SHIFT_CAP = 10_000.0  # the largest |v| whose Gamma `_gamma_parts` reaches by recurrence
_RATIO_TRIPLES, _RATIO_TERMS = 48, 512  # bounds of the ratio table (module docstring)
_RATIOS: dict[tuple[float, float, float], tuple[float, ...]] = {}  # (alpha, beta, gamma) -> `_series` term ratios
_RATIOS_LOCK = threading.Lock()


@dataclass(frozen=True)
class GaussParams:
    """Parameter triple (alpha, beta, gamma) of the hypergeometric series."""

    alpha: float
    beta: float
    gamma: float

    def __init__(self, alpha: float, beta: float, gamma: float) -> None:
        self.__dict__.update(alpha=alpha, beta=beta, gamma=gamma)  # first: a message shows the repr
        if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gamma)):
            raise DomainError(f"parameters must be finite, got {self}")
        if gamma <= 0.0 and abs(gamma - round(gamma)) < 1e-12:
            raise DomainError(f"gamma must avoid 0, -1, -2, ..., got {gamma}")


class SchwarzVariant(Enum):
    """The paper's one binary choice, and everything that follows from it.

    QUARTIC is the (2, 4, 4) triangle group over Z[i], with the quartic
    curve u^4 = t^2 (t - 1) and tau = i; SEXTIC is the (2, 6, 3) group over
    Z[zeta], with the sextic curve u^6 = t^3 (t - 1) and tau = zeta.  The
    value is the root order k.  The ring generator g = `unit` (i or zeta)
    has order k and satisfies g^2 = e*g - 1 with e = `trace`.
    """

    QUARTIC = 4
    SEXTIC = 6
    # the curves' names, kept as aliases (see `curves.Curve`)
    C_I = 4
    C_ZETA = 6

    @functools.cached_property
    def root_order(self) -> int:
        return self.value

    @functools.cached_property
    def exponent(self) -> float:
        """a = 1/k: the curve's 1-form is s^(-1/2) (s - 1)^(a - 1) ds."""
        return 1.0 / self.value

    @functools.cached_property
    def unit(self) -> complex:
        return 1j if self is SchwarzVariant.QUARTIC else ZETA

    @functools.cached_property
    def trace(self) -> int:
        """e = g + conj(g), 0 over Z[i] and 1 over Z[zeta]."""
        return round(2.0 * self.unit.real)

    @property
    def modulus(self) -> Modulus:
        return TAU_I if self is SchwarzVariant.QUARTIC else TAU_ZETA

    @functools.cached_property
    def params(self) -> GaussParams:
        if self is SchwarzVariant.QUARTIC:
            return GaussParams(0.25, 0.0, 0.5)
        return GaussParams(1.0 / 3.0, 0.0, 0.5)

    @functools.cached_property
    def series_params(self) -> GaussParams:
        """F(1/4, 1/2, 5/4) or F(1/6, 1/2, 7/6): the mean limits and the closed inversion."""
        a = self.exponent
        return GaussParams(a, 0.5, a + 1.0)

    @functools.cached_property
    def schwarz_params(self) -> GaussParams:
        """F(1/2, a; 1 + a): the Schwarz map's series, and at 1 the image of t = 0."""
        a = self.exponent
        return GaussParams(0.5, a, 1.0 + a)

    @functools.cached_property
    def normalization(self) -> complex:
        """N: the curve's 1-form over N has the lattice Z + Z i or Z + Z zeta as periods."""
        if self is SchwarzVariant.QUARTIC:
            return (1 - 1j) * beta_fn(0.25, 0.25)
        return (1 - ZETA * ZETA) * beta_fn(1.0 / 3.0, 1.0 / 6.0)


def _require_variant(v: object) -> None:
    # the one check of every function that takes a variant
    if not isinstance(v, SchwarzVariant):
        raise DomainError(f"unknown variant {v!r}")


def _series(
    alpha: float, beta: float, gamma: float, z: complex, abs_tol: float, s: float | None = None
) -> complex:
    # Plain power series.  With s = None, |z| < 1 and the geometric tail
    # bound.  With s = gamma - alpha - beta > 0, |z| = 1: algebraic decay
    # ~ n^(-1-s), so the tail is bounded by the integral test, |term| * n / s.
    # The term ratios come from the triple's table, then inline (module docstring).
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    az = abs(z)
    small = abs_tol * 0.0625
    key = (alpha, beta, gamma)
    ratios = _RATIOS.get(key, ())
    for n, r in enumerate(ratios):
        term *= r * z
        total += term
        at = abs(term)
        if at < small and (at * az / (1.0 - az) if s is None else at * (n + 1) / s) < abs_tol:
            return total
    more: list[float] = []  # the ratios past the table, as far as its entry cap
    for n in range(len(ratios), _MAX_TERMS):
        r = (alpha + n) * (beta + n) / ((gamma + n) * (1.0 + n))
        if n < _RATIO_TERMS:
            more.append(r)
        term *= r * z
        total += term
        at = abs(term)
        if at < small and (at * az / (1.0 - az) if s is None else at * (n + 1) / s) < abs_tol:
            if more:
                _keep(key, ratios, more)
            return total
        if not at < math.inf:  # an inf or NaN term stays so: no later term is finite
            raise DomainError(f"2F1 overflows binary64 in the series of {key} at {z}")
    raise IterationLimitError(f"2F1 series of {key} at {z} did not meet tolerance within the term cap {_MAX_TERMS}")


def _keep(key: tuple[float, float, float], ratios: tuple[float, ...], more: list[float]) -> None:
    # Lengthen the triple's table by more, and to at least twice ratios
    # within the entry cap; a table only gives way to a longer one.
    n, stop = len(ratios) + len(more), min(2 * len(ratios), _RATIO_TERMS)
    if n < stop:
        alpha, beta, gamma = key
        more += [(alpha + k) * (beta + k) / ((gamma + k) * (1.0 + k)) for k in range(n, stop)]
        n = stop
    with _RATIOS_LOCK:
        if len(_RATIOS.get(key, ())) < n:
            if key not in _RATIOS and len(_RATIOS) >= _RATIO_TRIPLES:
                _RATIOS.clear()
            _RATIOS[key] = ratios + tuple(more)


def _gamma_parts(v: float) -> tuple[float, int]:
    # Gamma(v) = m 2^k, also where Gamma(v) leaves binary64: the recurrence
    # Gamma(v + 1) = v Gamma(v) reaches the range of math.gamma, with the
    # exponents summed apart, one rounding per step.  (exp(lgamma(v))
    # would carry lgamma's rounding, ~1e-16 |lgamma(v)|: 2e-13 at v = 500.)
    # A pole or |v| beyond _SHIFT_CAP is a DomainError.
    try:
        return math.frexp(_gamma_signed(v))
    except DomainError:
        if v <= 0.0 and v == math.floor(v) or not abs(v) <= _SHIFT_CAP:
            raise
    if v > 150.0:
        n = math.ceil(v - 150.0)
        w = v - n
    else:  # negative, or so small that Gamma(v) ~ 1/v overflows
        n = max(1, math.ceil(-v - 150.0))
        w = v
    # the Pochhammer product (w)_n = w (w + 1) ... (w + n - 1) = Gamma(w + n) / Gamma(w)
    p, k = 1.0, 0
    for i in range(n):
        f, fk = math.frexp(w + i)
        p, pk = math.frexp(p * f)
        k += fk + pk
    if w == v:
        m, mk = math.frexp(_gamma_signed(v + n) / p)
        return m, mk - k
    m, mk = math.frexp(_gamma_signed(w) * p)
    return m, mk + k


@functools.lru_cache(maxsize=256)
def _gauss_sum(c: float, s: float, x: float, y: float) -> float:
    # Gamma(c) Gamma(s) / (Gamma(x) Gamma(y)), which is Gauss's sum
    # F(c - x, c - y; c; 1) when s = x + y - c (DLMF 15.4.20); every
    # connection coefficient of DLMF 15.8.2 and 15.8.4 has this shape.
    # Exponents summed apart: the plain product's roundings, but no partial
    # overflow, and a factor outside binary64 is no obstacle.
    q, e = 1.0, 0
    for v, reciprocal in ((c, False), (s, False), (x, True), (y, True)):
        if reciprocal and v <= 0.0 and v == math.floor(v):
            return 0.0  # 1 / Gamma vanishes at the poles 0, -1, -2, ...
        m, k = _gamma_parts(v)
        if reciprocal:
            m, k = 1.0 / m, -k
        q, e = q * m, e + k
    try:
        return math.ldexp(q, e)
    except OverflowError:
        raise DomainError(f"Gauss sum of {(c, s, x, y)} lies outside binary64") from None


def _power(x: complex, e: float) -> complex:
    # x^e in polar form, bit for bit as complex ** takes it at a non-integer e;
    # at an integer e, ** multiplies repeatedly and overflows to NaN
    return cmath.rect(abs(x) ** e, e * math.atan2(x.imag, x.real))


def _base_route(kind: int, a: float, b: float, c: float, x: complex, xc: complex) -> complex:
    # kind 0: direct in x; 1: near-one, in xc = 1 - x; 2: in 1/x.  The
    # powers take principal branches, so a signed zero on the cut counts.
    # A term whose coefficient is 1/Gamma at a pole, exactly 0, is left out
    # before its power is taken: that power may leave binary64 where F does not.
    if kind == 0:
        return _series(a, b, c, x, _ABS_TOL)
    if kind == 1:
        s = c - a - b
        ca, cb = _gauss_sum(c, s, c - a, c - b), _gauss_sum(c, -s, a, b)
        first = ca * _series(a, b, 1.0 - s, xc, _ABS_TOL) if ca else 0j
        return first + (cb * _power(xc, s) * _series(c - a, c - b, s + 1.0, xc, _ABS_TOL) if cb else 0j)
    ca, cb = _gauss_sum(c, b - a, b, c - a), _gauss_sum(c, a - b, a, c - b)
    y = 1.0 / x
    first = ca * _power(-x, -a) * _series(a, a - c + 1.0, a - b + 1.0, y, _ABS_TOL) if ca else 0j
    return first + (cb * _power(-x, -b) * _series(b, b - c + 1.0, b - a + 1.0, y, _ABS_TOL) if cb else 0j)


def _taylor(
    a: float, b: float, c: float, z0: complex, f0: complex, df0: complex, h: complex, abs_tol: float
) -> tuple[complex, complex]:
    # F and F' at z0 + h from F and F' at the regular point z0, summing
    # e_n = F^(n)(z0) h^n / n!; the hypergeometric ODE gives the recurrence
    # z0 (1 - z0) (n+1)(n+2) e_{n+2}
    #   = (n+a)(n+b) h^2 e_n - (n+1) ((1 - 2 z0) n + c - (a+b+1) z0) h e_{n+1}.
    # The series converges for |h| below the distance rho from z0 to 0 and 1.
    if h == 0:
        return f0, df0
    p0 = z0 * (1.0 - z0)
    p1 = (1.0 - 2.0 * z0) * h
    q0 = (c - (a + b + 1.0) * z0) * h
    hh = h * h
    ratio = abs(h) / min(abs(z0), abs(1.0 - z0))
    e0, e1 = complex(f0), df0 * h
    f, d = e0 + e1, e1
    for n in range(_MAX_TERMS):
        e2 = ((n + a) * (n + b) * hh * e0 - (n + 1) * (p1 * n + q0) * e1) / (p0 * ((n + 1) * (n + 2)))
        f += e2
        d += (n + 2) * e2
        if (n + 2) * (abs(e1) + abs(e2)) < abs_tol * (1.0 - ratio):
            return f, d / h
        e0, e1 = e1, e2
    raise IterationLimitError(
        f"2F1 re-expansion of {(a, b, c)} at {z0 + h} did not meet tolerance within the term cap {_MAX_TERMS}"
    )


@functools.lru_cache(maxsize=64)
def _anchor(a: float, b: float, c: float) -> tuple[complex, complex]:
    # F and F' at e^{i pi/3}: the series at 0.6 e^{i pi/3}, then one Taylor
    # step of ratio 2/3 (0 is at distance 0.6 from there, 1 farther).
    z0 = 0.6 * ZETA
    f0 = _series(a, b, c, z0, _ANCHOR_TOL)
    df0 = a * b / c * _series(a + 1.0, b + 1.0, c + 1.0, z0, _ANCHOR_TOL)
    return _taylor(a, b, c, z0, f0, df0, 0.4 * ZETA, _ANCHOR_TOL)


def gauss_2f1_pair(p: GaussParams, z: complex, zc: complex) -> complex:
    """F(alpha, beta; gamma; z), given z and zc = 1 - z with Im zc = -Im z.

    zc is taken as exact, so a caller that holds 1 - z more precisely than
    the rounded difference keeps that precision.  On the cut, real z > 1,
    the signed zero Im z = -0.0 gives the lower side (the limit from
    Im z < 0) and +0.0 the upper side.  See the module docstring for the
    routes and the DomainErrors.
    """
    try:
        f = _routed(p, complex(z), complex(zc))
    except OverflowError:
        f = math.inf  # abs() or a power outside binary64 raises where a float product gives inf
    if not cmath.isfinite(f):
        raise DomainError(f"2F1 overflows binary64 at {z} for these parameters")
    return f


def _routed(p: GaussParams, z: complex, zc: complex) -> complex:
    # F by the route table of the module docstring; gauss_2f1_pair checks the value
    a, b, c = p.alpha, p.beta, p.gamma
    if a == 0.0 or b == 0.0 or z == 0:
        return 1.0 + 0.0j
    az, azc = abs(z), abs(zc)
    if az < 0.5 and azc <= 1.0:
        return _series(a, b, c, z, _ABS_TOL)  # exact: the route table's pick, outside the balls
    s = c - a - b
    ok_s = _dist_to_int(s) > _LOG_GAP
    # within 1e-13 of z = 1 the near-one route takes over where it applies;
    # where it does not, the value at z = 1 stands in for F
    if zc == 0 or (azc < 1e-13 and not ok_s):
        if s > 0.0:
            return complex(gauss_kummer_value(p))
        raise DomainError("2F1 diverges at z = 1 when gamma - alpha - beta <= 0")
    # the balls stay 0.4 clear of the real axis, so Im z picks the one to test
    upper = z.imag >= 0.0
    centre = ZETA if upper else ZETA.conjugate()
    if abs(z - centre) <= _BALL_RADIUS:
        f0, df0 = _anchor(a, b, c)
        if not upper:
            f0, df0 = f0.conjugate(), df0.conjugate()
        return _taylor(a, b, c, centre, f0, df0, z - centre, _ABS_TOL)[0]
    ok_d = _dist_to_int(a - b) > _LOG_GAP
    # (series count, modulus, usable); the last three are the first three
    # after the Pfaff map
    table = (
        (1, az, True),  # direct
        (2, azc, ok_s),  # near-one
        (2, 1.0 / az, ok_d),  # 1/z
        (1, az / azc, True),  # z/(z-1)
        (2, 1.0 / azc, ok_d),  # 1/(1-z)
        (2, azc / az, ok_s),  # 1-1/z
    )
    # a route whose estimate exceeds the term cap does not converge in practice
    best, best_terms = -1, float(_MAX_TERMS)
    for i, (count, r, usable) in enumerate(table):
        if usable and r < 1.0:
            terms = count * _LOG_ABS_TOL / math.log(r) if r > 0.0 else count
            if terms < best_terms:
                best, best_terms = i, terms
    if best >= 3:
        # Pfaff: F(a, b; c; z) = (1 - z)^(-a) F(a, c - b; c; w), w = -z / zc,
        # 1 - w = 1 / zc, and Im w = -Im z / |zc|^2 carries the side of the cut
        q, v = -z / zc, 1.0 / zc
        w = complex(q.real, math.copysign(q.imag, -z.imag))
        wc = complex(v.real, math.copysign(v.imag, z.imag))
        return _power(zc, -a) * _base_route(best - 3, a, c - b, c, w, wc)
    if best >= 0:
        return _base_route(best, a, b, c, z, zc)
    if abs(az - 1.0) <= 1e-12 and s > 0.0:
        return _series(a, b, c, z, _BOUNDARY_TOL, s)
    raise DomainError(f"no 2F1 route converges at {z} for these parameters")


def gauss_2f1(p: GaussParams, z: complex) -> complex:
    """F(alpha, beta; gamma; z) on the plane cut along real z > 1.

    The route table of the module docstring picks the series; real z > 1
    raises DomainError.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real > 1.0:
        raise DomainError(f"2F1 argument {z.real} lies on the cut z > 1")
    return gauss_2f1_pair(p, z, complex(1.0 - z.real, -z.imag))


def gauss_kummer_value(p: GaussParams) -> float:
    """Gauss's sum F(alpha, beta; gamma; 1) when gamma - alpha - beta > 0."""
    a, b, g = p.alpha, p.beta, p.gamma
    if a == 0.0 or b == 0.0:
        return 1.0
    s = g - a - b
    if not s > 0.0:
        raise DomainError(f"F at z = 1 diverges when gamma - alpha - beta = {s} <= 0")
    return _gauss_sum(g, s, g - a, g - b)


def schwarz_map(v: SchwarzVariant, x: complex) -> complex:
    """Ratio of the two solutions, normalized onto the period lattice.

    (x - 1)^a F(1/2, a; 1 + a; 1 - x) / (a N) with a = 1/4 (QUARTIC) or 1/6
    (SEXTIC) and N the variant's `normalization`: the principal sheet of the
    matching curve's Abel-Jacobi map.  It is defined at every finite x, with
    principal branches of the powers; on the cut, real x < 1, the upper side
    (the limit from Im x > 0) is taken for a zero Im x of either sign.  So
    the real line maps onto the three sides of the triangle with corners at
    the images of 0, 1 and infinity: i/2, 0 and (1 + i)/2 for QUARTIC.
    """
    _require_variant(v)
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainError(f"schwarz_map requires a finite argument, got {x}")
    x = complex(x.real, x.imag + 0.0)  # -0.0 + 0.0 is +0.0
    a = v.exponent
    # F's argument 1 - x and its complement x, each exact; for x < 0, 1 - x
    # lies on the lower side of F's cut, the limit from Im x > 0
    f = gauss_2f1_pair(v.schwarz_params, complex(1.0 - x.real, -x.imag), x)
    return (x - 1) ** a / a * f / v.normalization
