"""Theta functions with rational characteristics on Z tau + Z.

The series used everywhere is

    theta_{a,b}(z, tau) = sum_n exp(pi i (n+a)^2 tau + 2 pi i (n+a)(z+b)),

with exact rational (a, b), whose floats are taken once per characteristic.
One kernel sums it, outward from the largest term by term ratios over a
window centred on that term whose width depends on tau alone (past 100,000
terms, IterationLimitError), and keeps the even-n and odd-n parts apart.
`theta` and `theta_dz` add the two parts; the four half characteristics at
one z share the lattices n and n + 1/2, where b = 1/2 only flips the sign
of the odd part, so `theta_four` takes theta00, theta01, theta10 and
theta11 from two sums.  Every law on tau is a word in S: (z, tau) ->
(z/tau, -1/tau), T: tau -> tau + 1 and t = T^-1, letters acting left to
right, applied by one composer (Mumford, Tata Lectures on Theta I, ch.
I-II): SHIFT is T, INVERT is S, and the words SSS, STSS and tS, which fix
i and zeta = (1+sqrt(3)i)/2, give theta(i z, i), theta(omega z, zeta) and
theta(omega^2 z, zeta).  Closed forms give the theta constants at both
square moduli.  Every prefactor goes through one checked exponential, so a
value outside binary64 is a DomainError.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union

from .numerics import (
    OMEGA,
    OMEGA_SQ,
    ZETA,
    DomainError,
    IterationLimitError,
    _MAX_TERMS,
    _scaled_residual,
    e_of,
    gamma_real,
)

_MAX_CHAR_DENOM = 144

RationalLike = Union[int, str, Fraction]


def _exp(x: complex) -> complex:
    # The one exponential of the prefactors: a value outside binary64, or a
    # NaN exponent, is a DomainError.
    try:
        v = cmath.exp(x)
    except (OverflowError, ValueError):
        v = complex(math.nan)
    if not cmath.isfinite(v):
        raise DomainError(f"exp({x}) is outside binary64")
    return v


def _e(w: complex) -> complex:
    # exp(2 pi i w) for complex exponents; e_of stays real-argument only.
    return _exp(2j * math.pi * w)


def _as_fraction(v: RationalLike | float) -> Fraction:
    try:
        f = v if type(v) is Fraction else Fraction(v)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"characteristic {v!r} is not a finite rational") from None
    if isinstance(v, float) and f.denominator > _MAX_CHAR_DENOM:
        raise DomainError(f"float {v} is not an exact small rational; pass a Fraction or 'p/q'")
    if f.denominator > _MAX_CHAR_DENOM:
        raise DomainError(f"characteristic denominator {f.denominator} exceeds {_MAX_CHAR_DENOM}")
    return f


@dataclass(frozen=True)
class ThetaChar:
    """Exact rational characteristic pair (a, b).

    Equality is on the exact Fractions.  Their float values `af` and `bf`,
    taken once here, feed the series and the hash: equal Fractions have
    equal floats.
    """

    a: Fraction
    b: Fraction
    af: float = field(init=False, repr=False, compare=False)
    bf: float = field(init=False, repr=False, compare=False)

    def __init__(self, a: RationalLike | float, b: RationalLike | float) -> None:
        fa, fb = _as_fraction(a), _as_fraction(b)
        try:
            af, bf = float(fa), float(fb)
        except OverflowError:
            raise DomainError("characteristic beyond the binary64 range: |a| or |b| above 1.8e308") from None
        object.__setattr__(self, "a", fa)
        object.__setattr__(self, "b", fb)
        object.__setattr__(self, "af", af)
        object.__setattr__(self, "bf", bf)

    def __hash__(self) -> int:
        return hash((self.af, self.bf))

    def reduce(self) -> tuple["ThetaChar", complex]:
        """Canonical representative in [0,1)^2 and the exact reduction factor.

        theta_{a+p, b+q} = e(a q) theta_{a, b} for integer p, q, so the
        factor carries the whole dependence on the discarded integers.
        """
        return _reduce(self)


# The characteristic laws below take exact Fraction phases and targets.  They
# depend on the characteristic (and word) alone, so each is computed once and
# kept in a bounded memo.
_LAW_MEMO = 1024


@functools.lru_cache(maxsize=_LAW_MEMO)
def _reduce(c: ThetaChar) -> tuple[ThetaChar, complex]:
    p = c.a.numerator // c.a.denominator
    q = c.b.numerator // c.b.denominator
    a0 = c.a - p
    b0 = c.b - q
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

    @functools.cached_property
    def q2(self) -> complex:
        """e(tau), the factor between consecutive term ratios of the series."""
        return _e(self.value)

    @functools.cached_property
    def _reduced_basis(self) -> tuple[complex, complex]:
        # (u, t) with Z tau + Z = u (Z t + Z) and t Lagrange-Gauss reduced,
        # |Re t| <= 1/2 and |t| >= 1 - 1e-9; tau = i and tau = zeta keep u = 1.
        u, t = 1.0, self.value - round(self.value.real)
        while abs(t) < 1.0 - 1e-9:
            u, t = u * t, -1.0 / t
            t -= round(t.real)
        return u, t


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
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"{z} has no finite lattice coordinates on tau = {tau}")
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


def _nearest_lattice_point(m: Modulus, d: complex) -> tuple[complex, float]:
    # The point of Z tau + Z nearest to d, and its distance from d, found in
    # the reduced basis (u = 1 at tau = i and zeta, so no bit moves there).
    u, t = m._reduced_basis
    w = d / u  # on the reduced lattice Z t + Z
    alpha, beta = _lattice_coefficients(t, w)
    best, p = math.inf, 0j
    # the nearest lattice point has coefficients within 1 of the rounded pair
    pa, pb = round(alpha), round(beta)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            q = (pa + da) * t + (pb + db)
            if (r := abs(w - q)) < best:
                best, p = r, q
    return u * p, abs(u) * best


def lattice_distance(m: Modulus, z1: complex, z2: complex) -> float:
    """Distance from z1 - z2 to the nearest lattice point of Z tau + Z."""
    return _nearest_lattice_point(m, complex(z1) - complex(z2))[1]


# The series is summed over k within h of its peak, h = ceil(s) + 2 (+ 3 for
# the z-derivative) with exp(-pi Im(tau) s^2) = 1e-12: the window depends on
# tau alone.
_WINDOW_LOG = math.log(1e12)


def _lattice_sums(a: float, w: complex, z: complex, m: Modulus, weighted: bool) -> tuple[complex, complex]:
    # Sums over even and over odd n of T(k) = exp(pi i k^2 tau + 2 pi i k w),
    # k = n + a (times 2 pi i k when weighted), w = z + b.  |T(k)| is the
    # largest term times exp(-pi Im(tau) (k - p)^2), p = -Im w / Im tau, so
    # the window is k in [p - h, p + h], symmetric about the real p; centred
    # on the nearest index it would be lopsided by one term, and theta11(0)
    # would no longer vanish.  The terms are summed outward from the largest
    # by term ratios (Deconinck et al., Math. Comp. 73, 2004): R(k) =
    # T(k+1)/T(k) obeys R(k+1) = R(k) q2 with q2 = e(tau), and so does
    # T(k-1)/T(k) = q2/R(k-1) stepping down, two products per term.  The seed
    # is the largest term, so it overflows only when the series leaves
    # binary64; that, or sums that overflow, is a DomainError.  A window of
    # more than _MAX_TERMS terms is an IterationLimitError before any is summed.
    if not cmath.isfinite(z):
        raise DomainError(f"theta requires a finite argument, got {z}")
    tau = m.value
    im_tau = tau.imag
    s = math.sqrt(_WINDOW_LOG / (math.pi * im_tau))
    if 2.0 * s > _MAX_TERMS:  # the window holds about 2 s terms; s may be inf
        raise IterationLimitError(f"theta at tau = {tau} needs more than {_MAX_TERMS} terms")
    h = math.ceil(s) + (3 if weighted else 2)
    peak = -w.imag / im_tau
    try:  # an infinite peak, or an exponent with infinite parts, raises here
        n0 = round(peak - a)
        k0 = n0 + a
        t0 = cmath.exp(1j * math.pi * k0 * (k0 * tau + 2.0 * w))
    except (OverflowError, ValueError):
        raise _overflow(z, tau) from None
    q2 = m.q2
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
    if weighted:
        t0 *= 2j * math.pi
    same, other = (k0 * t0 if weighted else t0), 0j  # n0's parity, the other one
    n_up = math.floor(peak + h - a) - n0
    n_down = n0 - math.ceil(peak - h - a)
    for ratio, step, count in ((up, 1.0, n_up), (down, -1.0, n_down)):
        t, k = t0, k0
        for _ in range(count):
            t *= ratio
            ratio *= q2
            k += step
            same, other = other + (k * t if weighted else t), same
        if count % 2:
            same, other = other, same
    # |E| + |O| bounds E + O, E - O and i (E - O) alike
    if not math.isfinite(abs(same) + abs(other)):
        raise _overflow(z, tau)
    return (other, same) if n0 % 2 else (same, other)


def _overflow(z: complex, tau: complex) -> DomainError:
    return DomainError(f"theta overflows binary64 at z = {z}, tau = {tau}")


def theta(c: ThetaChar, z: complex, m: Modulus) -> complex:
    """Evaluate the series at z.  Values near a zero are returned as-is."""
    z = complex(z)
    even, odd = _lattice_sums(c.af, z + c.bf, z, m, False)
    return even + odd


def theta_dz(c: ThetaChar, z: complex, m: Modulus) -> complex:
    """Term-wise z-derivative of the series."""
    z = complex(z)
    even, odd = _lattice_sums(c.af, z + c.bf, z, m, True)
    return even + odd


def quasi_period_factor(c: ThetaChar, p: int, q: int, z: complex, m: Modulus) -> complex:
    """Multiplier relating theta(z + p tau + q) to theta(z)."""
    tau = m.value
    return _e(c.af * q - p * p * tau / 2.0 - p * complex(z) - c.bf * p)


@functools.lru_cache(maxsize=_LAW_MEMO)
def _word_law(c: ThetaChar, word: str) -> tuple[ThetaChar, complex, int, tuple[int, int, int, int]]:
    # Left to right the letters build the word's matrix as sign (p, q; r, s),
    # with (r, s) > (0, 0) so that J = r tau + s lies in the upper half plane.
    # The factors sqrt(tau/i) of its S letters multiply to e(n/8) sqrt(J/i):
    # n = 1 for the empty word, and each S subtracts 1 if it keeps the sign and
    # adds 1 if it flips it.  Right to left the letters map the characteristic,
    # S (a, b) -> (b, -a) with phase ab, T and t (a, b) -> (a, b +- (a - 1/2))
    # with phase +-a(1 - a)/2, all phases exact.
    p, q, r, s, sign, n = 1, 0, 0, 1, 1, 1
    for g in word:
        if g != "S":
            k = 1 if g == "T" else -1
            p, q = p + k * r, q + k * s
        elif (p, q) > (0, 0):
            p, q, r, s, n = -r, -s, p, q, n - 1
        else:
            p, q, r, s, sign, n = r, s, -p, -q, -sign, n + 1
    a, b, phase = c.a, c.b, Fraction(n, 8)
    for g in reversed(word):
        if g == "S":
            phase, a, b = phase + a * b, b, -a
        else:
            k = 1 if g == "T" else -1
            phase, b = phase + k * a * (1 - a) / 2, b + k * (a - Fraction(1, 2))
    return ThetaChar(a, b), e_of(float(phase % 1)), sign, (p, q, r, s)


def _transform(c: ThetaChar, z: complex, tau: complex, word: str) -> tuple[ThetaChar, complex, complex, complex]:
    # (c', prefactor, z', tau'), theta(c, z', tau') = prefactor theta(c', z, tau):
    # z' = z/(sign J), and one exponential e(r z^2/(2 J)) carries z.
    target, root, sign, (p, q, r, s) = _word_law(c, word)
    z, j = complex(z), r * tau + s
    pref = root * cmath.sqrt(j / 1j) * _e(r * z * z / (2.0 * j))
    return target, pref, sign * z / j, (p * tau + q) / j


class TauTransform(Enum):
    SHIFT = "shift"
    INVERT = "invert"


def transform_tau(
    c: ThetaChar, z: complex, m: Modulus, which: TauTransform
) -> tuple[ThetaChar, complex, complex, Modulus]:
    """Data (c', prefactor, z', m') with theta(c, z', m') = prefactor * theta(c', z, m).

    SHIFT, the word T:  theta_{a,b}(z, tau+1) = e(a(1-a)/2) theta_{a, a+b-1/2}(z, tau)
    INVERT, the word S: theta_{a,b}(z/tau, -1/tau)
              = e(ab) sqrt(tau/i) e(z^2/(2 tau)) theta_{b,-a}(z, tau)
    with sqrt(tau/i) principal, positive on the imaginary axis.
    """
    word = "T" if which is TauTransform.SHIFT else "S"
    c_new, pref, z_new, tau_new = _transform(c, z, m.value, word)
    return c_new, pref, z_new, Modulus.generic(tau_new)


HALF_CHARS = (
    ThetaChar(0, 0),
    ThetaChar(0, Fraction(1, 2)),
    ThetaChar(Fraction(1, 2), 0),
    ThetaChar(Fraction(1, 2), Fraction(1, 2)),
)
_C00, _C01, _C10, _C11 = HALF_CHARS


def theta_four(z: complex, m: Modulus) -> tuple[complex, complex, complex, complex]:
    """theta00, theta01, theta10, theta11 at z, in that order.

    The four share two lattices: a = 0 and a = 1/2, both with w = z, and
    b = 1/2 multiplies the term of index n by e((n + a)/2), that is (-1)^n
    for a = 0 and i (-1)^n for a = 1/2 (DLMF 20.2).  So from the even and
    odd sums E, O of each lattice: theta00 = E0 + O0, theta01 = E0 - O0,
    theta10 = E1 + O1, theta11 = i (E1 - O1).
    """
    z = complex(z)
    e0, o0 = _lattice_sums(0.0, z, z, m, False)
    e1, o1 = _lattice_sums(0.5, z, z, m, False)
    return e0 + o0, e0 - o0, e1 + o1, 1j * (e1 - o1)


@dataclass(frozen=True)
class IdentityPair:
    """Both sides of one displayed identity, with its scaled residual."""

    name: str
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return _scaled_residual(self.lhs, self.rhs)


def addition_check(z1: complex, z2: complex, m: Modulus) -> list[float]:
    """Scaled residuals of the four addition formulas (both right-hand sides
    each) and Jacobi's identity, nine numbers in fixed order."""
    z1 = complex(z1)
    z2 = complex(z2)
    plus = theta_four(z1 + z2, m)
    minus = theta_four(z1 - z2, m)
    p00, p01, p10, p11 = (u * v for u, v in zip(plus, minus))
    a00, a01, a10, a11 = (v * v for v in theta_four(z1, m))
    b00, b01, b10, b11 = (v * v for v in theta_four(z2, m))
    k00, k01, k10, _ = (v * v for v in theta_four(0j, m))
    return [
        _scaled_residual(p00 * k00, a00 * b00 + a11 * b11),
        _scaled_residual(p00 * k00, a01 * b01 + a10 * b10),
        _scaled_residual(p01 * k01, a00 * b00 - a10 * b10),
        _scaled_residual(p01 * k01, a01 * b01 - a11 * b11),
        _scaled_residual(p10 * k10, a00 * b00 - a01 * b01),
        _scaled_residual(p10 * k10, a10 * b10 - a11 * b11),
        _scaled_residual(p11 * k00, a11 * b00 - a00 * b11),
        _scaled_residual(p11 * k00, a01 * b10 - a10 * b01),
        _scaled_residual(k00 * k00, k01 * k01 + k10 * k10),
    ]


def i_multiple(c: ThetaChar, z: complex) -> tuple[complex, ThetaChar]:
    """Data for theta_{a,b}(i z, i) = e(ab) exp(pi z^2) theta_{-b,a}(z, i), the word SSS."""
    target, pref, _, _ = _transform(c, z, TAU_I.value, "SSS")
    return pref, target


def one_plus_i_multiple(z: complex) -> list[IdentityPair]:
    """Both sides of the three (1+i)-multiplication identities at tau = i."""
    z = complex(z)
    m = TAU_I
    gauss = _exp(math.pi * 1j * (1.0 + 1j) * z * z)
    k00, k01, k10, _ = theta_four(0j, m)
    t00, t01, t10, t11 = theta_four(z, m)
    w00, w01, w10, w11 = theta_four((1.0 + 1j) * z, m)
    return [
        IdentityPair("theta00", w00, k00 * t01 * t10 / (gauss * k01 * k10)),
        IdentityPair(
            "theta_half_half",
            w11,
            e_of(0.125) * k00 * t00 * t11 / (gauss * k01 * k10),
        ),
        IdentityPair(
            "product_01_10",
            w01 * w10,
            (t00**4 - t01**2 * t10**2) / (gauss * gauss * k01 * k10),
        ),
    ]


class OmegaPower(Enum):
    OMEGA = 1
    OMEGA_SQ = 2


def omega_multiple(c: ThetaChar, z: complex, power: OmegaPower) -> tuple[complex, ThetaChar]:
    """Data for the omega- and omega^2-multiple laws at tau = zeta.

    OMEGA, the word STSS:  theta_{a,b}(w z, zeta)
                = e(a^2/2 + ab - 1/24) e(z^2/(2 zeta)) theta_{-a-b-1/2, a}(z, zeta)
    OMEGA_SQ, the word tS: theta_{a,b}(w^2 z, zeta)
                = e(ab + (b^2-b)/2 + 1/24) e(z^2/(2 w)) theta_{b, 1/2-a-b}(z, zeta)
    """
    word = "STSS" if power is OmegaPower.OMEGA else "tS"
    target, pref, _, _ = _transform(c, z, TAU_ZETA.value, word)
    return pref, target


def one_plus_zeta_multiple(z: complex) -> list[IdentityPair]:
    """Both sides of the four (1+zeta)-multiplication identities at tau = zeta."""
    z = complex(z)
    m = TAU_ZETA
    gauss = _e((OMEGA_SQ + OMEGA / 2.0) * z * z)
    k00, k01, k10, _ = theta_four(0j, m)
    t00, t01, t10, t11 = theta_four(z, m)
    w00, w01, w10, w11 = theta_four((1.0 + ZETA) * z, m)
    e8 = e_of(0.125)
    return [
        IdentityPair("theta00", w00, e8 * gauss / (k00 * k00) * t10 * (t00 * t00 - 1j * t01 * t01)),
        IdentityPair("theta01", w01, e8 * gauss / (k01 * k01) * t00 * (t01 * t01 - t10 * t10)),
        IdentityPair("theta10", w10, gauss / (k10 * k10) * t01 * (t00 * t00 + 1j * t10 * t10)),
        IdentityPair(
            "theta_half_half", w11, gauss / (k00 * k00) * t11 * (t00 * t00 + 1j * t01 * t01)
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
