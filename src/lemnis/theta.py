"""Theta functions with rational characteristics on Z tau + Z.

The series used everywhere is

    theta_{a,b}(z, tau) = sum_n exp(pi i (n+a)^2 tau + 2 pi i (n+a)(z+b)),

with exact rational (a, b).  Beyond the generic transformation laws the
module carries the specialized multiplication lemmas at tau = i and
tau = zeta = (1+sqrt(3)i)/2, and closed forms for the theta constants
at both square moduli.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .numerics import (
    DEFAULT_TOLERANCE,
    OMEGA,
    OMEGA_SQ,
    ZETA,
    DomainError,
    Tolerance,
    _scaled_residual,
    e_of,
    gamma_real,
)

_MAX_CHAR_DENOM = 144

RationalLike = Union[int, str, Fraction]


def _e(w: complex) -> complex:
    # exp(2 pi i w) for complex exponents; e_of stays real-argument only.
    return cmath.exp(2j * math.pi * w)


def _as_fraction(v: RationalLike | float) -> Fraction:
    if isinstance(v, float):
        f = Fraction(v)
        if f.denominator > _MAX_CHAR_DENOM:
            raise DomainError(
                f"float {v} is not an exact small rational; pass a Fraction or 'p/q'"
            )
        return f
    f = Fraction(v)
    if f.denominator > _MAX_CHAR_DENOM:
        raise DomainError(f"characteristic denominator {f.denominator} exceeds {_MAX_CHAR_DENOM}")
    return f


@dataclass(frozen=True)
class ThetaChar:
    """Exact rational characteristic pair (a, b)."""

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike | float, b: RationalLike | float) -> None:
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def reduce(self) -> tuple["ThetaChar", complex]:
        """Canonical representative in [0,1)^2 and the exact reduction factor.

        theta_{a+p, b+q} = e(a q) theta_{a, b} for integer p, q, so the
        factor carries the whole dependence on the discarded integers.
        """
        p = self.a.numerator // self.a.denominator
        q = self.b.numerator // self.b.denominator
        a0 = self.a - p
        b0 = self.b - q
        return ThetaChar(a0, b0), e_of(float(a0 * q))


class ModulusTag(Enum):
    TAU_I = "i"
    TAU_ZETA = "zeta"
    GENERIC = "generic"


@dataclass(frozen=True)
class Modulus:
    """Point tau of the upper half plane, with the two square moduli tagged."""

    tag: ModulusTag
    value: complex

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.value):
            raise DomainError(f"modulus must be finite, got {self.value}")
        if self.value.imag <= 0.0:
            raise DomainError(f"modulus requires Im(tau) > 0, got {self.value}")

    @classmethod
    def generic(cls, tau: complex) -> "Modulus":
        return cls(ModulusTag.GENERIC, complex(tau))


TAU_I = Modulus(ModulusTag.TAU_I, 1j)
TAU_ZETA = Modulus(ModulusTag.TAU_ZETA, ZETA)


@dataclass(frozen=True)
class TorusPoint:
    """Canonical representative alpha*tau + beta with alpha, beta in [0,1)."""

    modulus: Modulus
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for c in (self.alpha, self.beta):
            if not 0.0 <= c < 1.0:
                raise DomainError(f"torus coefficient {c} outside [0,1)")

    @property
    def z(self) -> complex:
        return self.alpha * self.modulus.value + self.beta


def _lattice_coefficients(tau: complex, z: complex) -> tuple[float, float]:
    alpha = z.imag / tau.imag
    beta = z.real - alpha * tau.real
    return alpha, beta


def _fold(x: float) -> float:
    x -= math.floor(x)
    if 1.0 - x < 1e-12:  # ties at 1 fold to 0
        return 0.0
    return x


def canonical_torus_point(m: Modulus, z: complex) -> TorusPoint:
    """Reduce z modulo Z tau + Z to the canonical cell representative."""
    alpha, beta = _lattice_coefficients(m.value, complex(z))
    return TorusPoint(m, _fold(alpha), _fold(beta))


def lattice_distance(m: Modulus, z1: complex, z2: complex) -> float:
    """Distance from z1 - z2 to the nearest lattice point of Z tau + Z."""
    d = complex(z1) - complex(z2)
    alpha, beta = _lattice_coefficients(m.value, d)
    best = math.inf
    # the nearest lattice point has coefficients within 1 of the rounded pair
    pa, pb = round(alpha), round(beta)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            best = min(best, abs(d - ((pa + da) * m.value + (pb + db))))
    return best


def _term_range(a: float, z: complex, tau: complex, abs_tol: float, extra: int) -> range:
    # Summation indices n, with k = n + a in [-n_max, n_max].  Gaussian decay
    # exp(-pi Im(tau) (n + a + Im z / Im tau)^2) up to a bounded peak factor;
    # the 2|Im z| term covers the shifted peak.
    if not cmath.isfinite(z):
        raise DomainError(f"theta requires a finite argument, got {z}")
    tail_tol = abs_tol * 1e-2
    im_tau = tau.imag
    n = math.sqrt(math.log(1.0 / tail_tol) / (math.pi * im_tau))
    n += 2.0 * abs(z.imag) / im_tau
    n_max = math.ceil(n) + 2 + extra
    return range(math.ceil(-n_max - a), math.floor(n_max - a) + 1)


def _series(c: ThetaChar, z: complex, m: Modulus, tol: Tolerance, weighted: bool) -> complex:
    # Sum of T(k) = exp(pi i k^2 tau + 2 pi i k w), w = z + b, over k = n + a
    # for the n of _term_range (times k when weighted), summed outward from
    # the largest term by term ratios (Deconinck et al., Math. Comp. 73,
    # 2004).  R(k) = T(k+1)/T(k) obeys R(k+1) = R(k) q2 with q2 = e(tau), and
    # so does T(k-1)/T(k) = q2/R(k-1) stepping down: three exponentials per
    # call, two products per term.  The seed is the largest term, so it
    # overflows only when the series leaves binary64; that, or a sum that
    # overflows, is a DomainError.
    tau = m.value
    z = complex(z)
    a = float(c.a)
    w = z + float(c.b)
    ns = _term_range(a, z, tau, tol.abs_tol, 1 if weighted else 0)
    peak = -w.imag / tau.imag
    n0 = round(peak - a)  # inside ns, whose half-width exceeds 2 |peak|
    k0 = n0 + a
    try:
        t0 = cmath.exp(1j * math.pi * k0 * (k0 * tau + 2.0 * w))
    except OverflowError:
        raise _overflow(z, tau) from None
    q2 = _e(tau)
    # The two neighbour ratios multiply to q2.  Exponentiate the larger one
    # (modulus at least |q2|^(1/2)) and divide for the other, so a ratio near
    # 1 is never derived from an underflowed one; if even the larger one
    # underflows (Im tau above about 237), both are zero.
    log_up = 1j * math.pi * ((2.0 * k0 + 1.0) * tau + 2.0 * w)
    if k0 <= peak:
        up = cmath.exp(log_up)
        down = q2 / up if up else 0j
    else:
        down = cmath.exp(2j * math.pi * tau - log_up)
        up = q2 / down if down else 0j
    total = k0 * t0 if weighted else t0
    for ratio, step, count in ((up, 1.0, ns.stop - n0 - 1), (down, -1.0, n0 - ns.start)):
        t, k = t0, k0
        for _ in range(count):
            t *= ratio
            ratio *= q2
            k += step
            total += k * t if weighted else t
    if weighted:
        total *= 2j * math.pi
    if not cmath.isfinite(total):
        raise _overflow(z, tau)
    return total


def _overflow(z: complex, tau: complex) -> DomainError:
    return DomainError(f"theta overflows binary64 at z = {z}, tau = {tau}")


def theta(c: ThetaChar, z: complex, m: Modulus, tol: Tolerance = DEFAULT_TOLERANCE) -> complex:
    """Evaluate the series at z.  Values near a zero are returned as-is."""
    return _series(c, z, m, tol, False)


def theta_dz(c: ThetaChar, z: complex, m: Modulus, tol: Tolerance = DEFAULT_TOLERANCE) -> complex:
    """Term-wise z-derivative of the series."""
    return _series(c, z, m, tol, True)


def quasi_period_factor(c: ThetaChar, p: int, q: int, z: complex, m: Modulus) -> complex:
    """Multiplier relating theta(z + p tau + q) to theta(z)."""
    a = float(c.a)
    b = float(c.b)
    tau = m.value
    return _e(a * q - p * p * tau / 2.0 - p * complex(z) - b * p)


def zero_locus(c: ThetaChar, m: Modulus) -> TorusPoint:
    """The simple-zero class (1/2 - a) tau + (1/2 - b) modulo the lattice."""
    alpha = Fraction(1, 2) - c.a
    beta = Fraction(1, 2) - c.b
    return TorusPoint(m, _fold(float(alpha)), _fold(float(beta)))


class TauTransform(Enum):
    SHIFT = "shift"
    INVERT = "invert"


def transform_tau(
    c: ThetaChar, z: complex, m: Modulus, which: TauTransform
) -> tuple[ThetaChar, complex, complex, Modulus]:
    """Data (c', prefactor, z', m') with theta(c, z', m') = prefactor * theta(c', z, m).

    SHIFT:  theta_{a,b}(z, tau+1) = e(a(1-a)/2) theta_{a, a+b-1/2}(z, tau)
    INVERT: theta_{a,b}(z/tau, -1/tau)
              = e(ab) sqrt(tau/i) e(z^2/(2 tau)) theta_{b,-a}(z, tau)
    with sqrt(tau/i) principal, positive on the imaginary axis.
    """
    z = complex(z)
    tau = m.value
    if which is TauTransform.SHIFT:
        c_new = ThetaChar(c.a, c.a + c.b - Fraction(1, 2))
        pref = e_of(float(c.a * (1 - c.a) / 2))
        return c_new, pref, z, Modulus.generic(tau + 1.0)
    c_new = ThetaChar(c.b, -c.a)
    pref = e_of(float(c.a * c.b)) * cmath.sqrt(tau / 1j) * _e(z * z / (2.0 * tau))
    return c_new, pref, z / tau, Modulus.generic(-1.0 / tau)


HALF_CHARS = (
    ThetaChar(0, 0),
    ThetaChar(0, Fraction(1, 2)),
    ThetaChar(Fraction(1, 2), 0),
    ThetaChar(Fraction(1, 2), Fraction(1, 2)),
)
_C00, _C01, _C10, _C11 = HALF_CHARS


def _theta_four(
    z: complex, m: Modulus, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[complex, complex, complex, complex]:
    """theta00, theta01, theta10, theta11 at z, in that order."""
    return tuple(theta(c, z, m, tol) for c in HALF_CHARS)


@dataclass(frozen=True)
class IdentityPair:
    """Both sides of one displayed identity, with its scaled residual."""

    name: str
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return _scaled_residual(self.lhs, self.rhs)


def addition_check(
    z1: complex, z2: complex, m: Modulus, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[float]:
    """Scaled residuals of the four addition formulas (both right-hand sides
    each) and Jacobi's identity, nine numbers in fixed order."""
    z1 = complex(z1)
    z2 = complex(z2)

    def sq(c: ThetaChar, z: complex) -> complex:
        v = theta(c, z, m, tol)
        return v * v

    tp = {c: theta(c, z1 + z2, m, tol) * theta(c, z1 - z2, m, tol) for c in HALF_CHARS}
    s1 = {c: sq(c, z1) for c in HALF_CHARS}
    s2 = {c: sq(c, z2) for c in HALF_CHARS}
    k00 = sq(_C00, 0.0)
    k01 = sq(_C01, 0.0)
    k10 = sq(_C10, 0.0)

    res: list[float] = []
    lhs = tp[_C00] * k00
    res.append(_scaled_residual(lhs, s1[_C00] * s2[_C00] + s1[_C11] * s2[_C11]))
    res.append(_scaled_residual(lhs, s1[_C01] * s2[_C01] + s1[_C10] * s2[_C10]))
    lhs = tp[_C01] * k01
    res.append(_scaled_residual(lhs, s1[_C00] * s2[_C00] - s1[_C10] * s2[_C10]))
    res.append(_scaled_residual(lhs, s1[_C01] * s2[_C01] - s1[_C11] * s2[_C11]))
    lhs = tp[_C10] * k10
    res.append(_scaled_residual(lhs, s1[_C00] * s2[_C00] - s1[_C01] * s2[_C01]))
    res.append(_scaled_residual(lhs, s1[_C10] * s2[_C10] - s1[_C11] * s2[_C11]))
    lhs = tp[_C11] * k00
    res.append(_scaled_residual(lhs, s1[_C11] * s2[_C00] - s1[_C00] * s2[_C11]))
    res.append(_scaled_residual(lhs, s1[_C01] * s2[_C10] - s1[_C10] * s2[_C01]))
    res.append(_scaled_residual(k00 * k00, k01 * k01 + k10 * k10))
    return res


def i_multiple(c: ThetaChar, z: complex) -> tuple[complex, ThetaChar]:
    """Data for theta_{a,b}(i z, i) = e(ab) exp(pi z^2) theta_{-b,a}(z, i)."""
    z = complex(z)
    pref = e_of(float(c.a * c.b)) * cmath.exp(math.pi * z * z)
    return pref, ThetaChar(-c.b, c.a)


def one_plus_i_multiple(z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> list[IdentityPair]:
    """Both sides of the three (1+i)-multiplication identities at tau = i."""
    z = complex(z)
    m = TAU_I
    w = (1.0 + 1j) * z
    gauss = cmath.exp(math.pi * 1j * (1.0 + 1j) * z * z)
    k00 = theta(_C00, 0.0, m, tol)
    k01 = theta(_C01, 0.0, m, tol)
    k10 = theta(_C10, 0.0, m, tol)
    t00, t01, t10, t11 = _theta_four(z, m, tol)
    out = [
        IdentityPair(
            "theta00",
            theta(_C00, w, m, tol),
            k00 * t01 * t10 / (gauss * k01 * k10),
        ),
        IdentityPair(
            "theta_half_half",
            theta(_C11, w, m, tol),
            e_of(0.125) * k00 * t00 * t11 / (gauss * k01 * k10),
        ),
        IdentityPair(
            "product_01_10",
            theta(_C01, w, m, tol) * theta(_C10, w, m, tol),
            (t00**4 - t01**2 * t10**2) / (gauss * gauss * k01 * k10),
        ),
    ]
    return out


class OmegaPower(Enum):
    OMEGA = 1
    OMEGA_SQ = 2


def omega_multiple(c: ThetaChar, z: complex, power: OmegaPower) -> tuple[complex, ThetaChar]:
    """Data for the omega- and omega^2-multiple laws at tau = zeta.

    OMEGA:    theta_{a,b}(w z, zeta)
                = e(a^2/2 + ab - 1/24) e(z^2/(2 zeta)) theta_{-a-b-1/2, a}(z, zeta)
    OMEGA_SQ: theta_{a,b}(w^2 z, zeta)
                = e(ab + (b^2+b)/2 + 1/24) e(z^2/(2 w)) theta_{b, -a-b-1/2}(z, zeta)
    """
    z = complex(z)
    a, b = c.a, c.b
    half = Fraction(1, 2)
    if power is OmegaPower.OMEGA:
        root = e_of(float(a * a / 2 + a * b - Fraction(1, 24)))
        pref = root * _e(z * z / (2.0 * ZETA))
        return pref, ThetaChar(-a - b - half, a)
    root = e_of(float(a * b + (b * b + b) / 2 + Fraction(1, 24)))
    pref = root * _e(z * z / (2.0 * OMEGA))
    return pref, ThetaChar(b, -a - b - half)


def one_plus_zeta_multiple(z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> list[IdentityPair]:
    """Both sides of the four (1+zeta)-multiplication identities at tau = zeta."""
    z = complex(z)
    m = TAU_ZETA
    w = (1.0 + ZETA) * z
    gauss = _e((OMEGA_SQ + OMEGA / 2.0) * z * z)
    k00 = theta(_C00, 0.0, m, tol)
    k01 = theta(_C01, 0.0, m, tol)
    k10 = theta(_C10, 0.0, m, tol)
    t00, t01, t10, t11 = _theta_four(z, m, tol)
    e8 = e_of(0.125)
    return [
        IdentityPair(
            "theta00",
            theta(_C00, w, m, tol),
            e8 * gauss / (k00 * k00) * t10 * (t00 * t00 - 1j * t01 * t01),
        ),
        IdentityPair(
            "theta01",
            theta(_C01, w, m, tol),
            e8 * gauss / (k01 * k01) * t00 * (t01 * t01 - t10 * t10),
        ),
        IdentityPair(
            "theta10",
            theta(_C10, w, m, tol),
            gauss / (k10 * k10) * t01 * (t00 * t00 + 1j * t10 * t10),
        ),
        IdentityPair(
            "theta_half_half",
            theta(_C11, w, m, tol),
            gauss / (k00 * k00) * t11 * (t00 * t00 + 1j * t01 * t01),
        ),
    ]


_CT13 = ThetaChar(Fraction(1, 3), Fraction(1, 3))
_CT16 = ThetaChar(Fraction(1, 6), Fraction(1, 6))
_CT56_13 = ThetaChar(Fraction(5, 6), Fraction(1, 3))
_CT13_56 = ThetaChar(Fraction(1, 3), Fraction(5, 6))

SEXTIC_CHARS = (_CT13, _CT16, _CT56_13, _CT13_56)


def theta_constants(m: Modulus) -> dict[ThetaChar, complex]:
    """Closed-form theta constants at the two square moduli.

    All values reduce to gamma factors times exact roots of unity; the
    vanishing theta_{1/2,1/2}(0) is tabulated as exactly zero.
    """
    if m.tag is ModulusTag.TAU_I:
        g4 = gamma_real(0.25)
        return {
            _C00: complex(g4 / (4.0 * math.pi**3) ** 0.25),
            _C01: complex(g4 / (2.0 * math.pi) ** 0.75),
            _C10: complex(g4 / (2.0 * math.pi) ** 0.75),
            _C11: 0.0 + 0.0j,
        }
    if m.tag is ModulusTag.TAU_ZETA:
        g3 = gamma_real(1.0 / 3.0) ** 1.5
        big = 3.0**0.125 / (4.0 ** (1.0 / 3.0) * math.pi) * g3
        small = 3.0**0.125 / (2.0 * math.pi) * g3
        small3 = 27.0**0.125 / (2.0 * math.pi) * g3
        return {
            _C00: e_of(Fraction(1, 48)) * big,
            _C01: e_of(Fraction(-1, 48)) * big,
            _C10: e_of(Fraction(1, 16)) * big,
            _C11: 0.0 + 0.0j,
            _CT13: e_of(Fraction(11, 144)) * small,
            _CT16: e_of(Fraction(5, 144)) * small3,
            _CT56_13: e_of(Fraction(-7, 144)) * small,
            _CT13_56: e_of(Fraction(53, 144)) * small,
        }
    raise DomainError("closed-form constants exist only at tau = i and tau = zeta")
