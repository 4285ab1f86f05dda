"""Theta functions with rational characteristics on Z tau + Z.

The series used everywhere is

    theta_{a,b}(z, tau) = sum_n exp(pi i (n+a)^2 tau + 2 pi i (n+a)(z+b)),

with exact rational (a, b), whose floats are taken once per characteristic.
One kernel sums it, outward from the largest term by term ratios over a
window centred on that term that ends at 2^-56 of it, and keeps the even-n
and odd-n parts apart.  Each tau is reduced once per Modulus to the
fundamental domain F (|Re tau| <= 1/2, |tau| >= 1) by the steps
`lattice_distance` also takes, and the window is kept with that reduction.
At every tau in F, i and zeta among them, the series is summed as it stands,
and `theta_four` takes the four half characteristics from the two lattices n
and n + 1/2, where b = 1/2 only flips the sign of the odd part.  Any other
tau is summed at its reduction: z goes into the characteristic, each step
moves the theta constant, and the kernel sums at most 9 terms (11 for
`theta_dz`).  Every law on tau is a word
in S: (z, tau) -> (z/tau, -1/tau), T: tau -> tau + 1 and t = T^-1, letters
acting left to right, applied by the one public composer `transform` (Mumford,
Tata Lectures on Theta I, ch. I-II); the words SSS, STSS and tS, which fix i
and zeta = (1+sqrt(3)i)/2, give theta(i z, i), theta(omega z, zeta) and
theta(omega^2 z, zeta).  Closed forms give the theta constants at
both square moduli.  Every prefactor goes through one checked exponential,
so a value outside binary64 is a DomainError.  The identities these values
satisfy (the addition formulas, the 1+i and 1+zeta lemmas) are checked in
`lemnis.verify`, not here.  Each value object's own __init__ checks its
arguments and sets its frozen fields in one step.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .numerics import ZETA, DomainError, e_of, gamma_real

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
    equal floats.  The floats are n / d from `as_integer_ratio()`, which is
    what float(Fraction) computes, and the fields are set in one step.
    """

    a: Fraction
    b: Fraction
    af: float = field(init=False, repr=False, compare=False)
    bf: float = field(init=False, repr=False, compare=False)

    def __init__(self, a: RationalLike | float, b: RationalLike | float) -> None:
        a, b = _as_fraction(a), _as_fraction(b)
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        try:
            af, bf = na / da, nb / db
        except OverflowError:
            raise DomainError("characteristic beyond the binary64 range: |a| or |b| above 1.8e308") from None
        self.__dict__.update(a=a, b=b, af=af, bf=bf)

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


@dataclass(frozen=True)
class Modulus:
    """Point tau of the upper half plane."""

    value: complex

    def __init__(self, value: complex) -> None:
        if not cmath.isfinite(value):
            raise DomainError(f"modulus must be finite, got {value}")
        if value.imag <= 0.0:
            raise DomainError(f"modulus requires Im(tau) > 0, got {value}")
        self.__dict__["value"] = value

    @classmethod
    def generic(cls, tau: complex) -> "Modulus":
        return cls(complex(tau))

    @functools.cached_property
    def theta_nulls(self) -> tuple[complex, complex, complex, complex]:
        """theta_four(0, tau): the four theta constants, summed once per modulus."""
        return theta_four(0j, self)

    def _reduced_tau(self) -> tuple[int, list[tuple[complex, int]], complex, complex, complex, int]:
        # _reduction(tau), kept once per modulus; a cached_property's lock would
        # cost about as much as the loop.  k0 = 0 and no step mean tau is in F.
        red = self.__dict__.get("_reduced")
        if red is None:
            red = self.__dict__["_reduced"] = _reduction(self.value)
        return red

    @functools.cached_property
    def _reduced_basis(self) -> tuple[complex, complex]:
        # (u, t) with Z tau + Z = u (Z t + Z) and t in F, u the product of the
        # reduction's steps' t; tau in F keeps u = 1.
        _, steps, t, _, _, _ = self._reduced_tau()
        return math.prod((s for s, _ in steps), start=1.0), t


def _reduction(tau: complex) -> tuple[int, list[tuple[complex, int]], complex, complex, complex, int]:
    # The one reduction loop: tau = t + k0, |Re t| <= 1/2, then while |t| < 1
    # - 1e-9 a step t = S T^k (t'), s = -1/t, k = round(Re s), t' = s - k.
    # Returns k0, each step's (t, k), the t in F, prod sqrt(s/i), e(t) (in F
    # it cannot overflow) and h, the half-width of the kernel's window at t.
    k0 = round(tau.real)
    t, steps, root = tau - k0, [], 1.0
    while abs(t) < 1.0 - 1e-9:
        s = -1.0 / t
        if not cmath.isfinite(s):
            raise DomainError(f"reducing tau = {tau} leaves binary64: -1/t = {s}")
        k = round(s.real)
        steps.append((t, k))
        root *= cmath.sqrt(s / 1j)
        t = s - k
    return k0, steps, t, root, cmath.exp(2j * math.pi * t), math.ceil(math.sqrt(_CUT / t.imag))


TAU_I = Modulus(1j)
TAU_ZETA = Modulus(ZETA)


@dataclass(frozen=True)
class TorusPoint:
    """Canonical representative alpha*tau + beta with alpha, beta in [0,1)."""

    modulus: Modulus
    alpha: float
    beta: float

    def __init__(self, modulus: Modulus, alpha: float, beta: float) -> None:
        if not isinstance(modulus, Modulus):
            raise DomainError(f"torus point needs a Modulus, got {modulus!r}")
        for c in (alpha, beta):
            if not 0.0 <= c < 1.0:
                raise DomainError(f"torus coefficient {c} outside [0,1)")
        self.__dict__.update(modulus=modulus, alpha=alpha, beta=beta)

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
        row = (pa + da) * t
        for db in (-1, 0, 1):
            q = row + (pb + db)
            if (r := abs(w - q)) < best:
                best, p = r, q
    return u * p, abs(u) * best


def lattice_distance(m: Modulus, z1: complex, z2: complex) -> float:
    """Distance from z1 - z2 to the nearest lattice point of Z tau + Z."""
    return _nearest_lattice_point(m, complex(z1) - complex(z2))[1]


# The series is summed over k within h of its peak, h = ceil(s) (+ 1 for the
# z-derivative) with exp(-pi Im(tau) s^2) = 2^-56: h is kept with each modulus's
# reduction, and in F, where Im(tau) >= sqrt(3)/2, the window has at most 9 terms.
_CUT = 56.0 * math.log(2.0) / math.pi
# From |Re z| = 16 on, the phases 2 pi k Re(w) of a sum would lose more than 4
# bits to Re z, so its integer part leaves as an exact phase (in _reduced).
_FOLD = 16.0


def _lattice_sums(
    a: float, w: complex, z: complex, tau: complex, q2: complex, h: int, weighted: bool
) -> tuple[complex, complex]:
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
    # binary64; that, or sums that overflow, is a DomainError.
    if not cmath.isfinite(z):
        raise DomainError(f"theta requires a finite argument, got {z}")
    im_tau = tau.imag
    h += weighted
    peak = -w.imag / im_tau
    try:  # an infinite peak, or an exponent with infinite parts, raises here
        n0 = round(peak - a)
        k0 = n0 + a
        t0 = cmath.exp(1j * math.pi * k0 * (k0 * tau + 2.0 * w))
    except (OverflowError, ValueError):
        raise _overflow(z, tau) from None
    # The two neighbour ratios multiply to q2.  Exponentiate the larger one
    # (modulus at least |q2|^(1/2)) and divide for the other, so a ratio near
    # 1 is never derived from an underflowed one; if even the larger one
    # underflows (Im tau above about 237), both are zero.  Rounding can put n0
    # one off the peak, and at a huge Im tau the ratio towards the peak then
    # overflows; the terms have underflowed there if the seed has.
    log_up = 1j * math.pi * ((2.0 * k0 + 1.0) * tau + 2.0 * w)
    try:
        if k0 <= peak:
            up = cmath.exp(log_up)
            down = q2 / up if up else 0j
        else:
            down = cmath.exp(2j * math.pi * tau - log_up)
            up = q2 / down if down else 0j
    except (OverflowError, ValueError):
        if t0:
            raise _overflow(z, tau) from None
        return 0j, 0j
    if weighted:
        t0 *= 2j * math.pi
    same, other = (k0 * t0 if weighted else t0), 0j  # n0's parity, the other one
    n_up = math.floor(peak + h - a) - n0
    n_down = n0 - math.ceil(peak - h - a)
    for ratio, step, count in ((up, 1.0, n_up), (down, -1.0, n_down)):
        t, k = t0, k0
        if weighted:
            for _ in range(count):
                t *= ratio
                ratio *= q2
                k += step
                same, other = other + k * t, same
        else:  # theta and theta_four: no index, no test per term
            for _ in range(count):
                t *= ratio
                ratio *= q2
                same, other = other + t, same
        if count % 2:
            same, other = other, same
    # |E| + |O| bounds E + O, E - O and i (E - O) alike
    if not math.isfinite(abs(same) + abs(other)):
        raise _overflow(z, tau)
    return (other, same) if n0 % 2 else (same, other)


def _overflow(z: complex, tau: complex) -> DomainError:
    return DomainError(f"theta overflows binary64 at z = {z}, tau = {tau}")


def _turns(p: Fraction, n: int) -> float:
    # p n mod 1, exact in integers before its one rounding
    num, den = p.as_integer_ratio()
    return num * n % den / den


def _value(c: ThetaChar, z: complex, m: Modulus, weighted: bool) -> complex:
    k0, steps, _, _, q2, h = red = m._reduced_tau()
    if k0 or steps or not abs(z.real) < _FOLD:
        return _reduced(c, z, m.value, red, weighted)
    even, odd = _lattice_sums(c.af, z + c.bf, z, m.value, q2, h, weighted)
    return even + odd


def _reduced(c: ThetaChar, z: complex, tau: complex, red: tuple, weighted: bool) -> complex:
    # theta (theta' if weighted) summed once in F.  T^k0 moves (a, b) exactly;
    # b -> b - j costs e(a j), and so does z -> z - j past |Re z| = _FOLD.
    # Before S steps z = alpha t + beta, alpha = p + alpha', beta = n + beta'
    # (p, n integers), goes into the characteristic:
    #   theta_{a,b}(z, t) = e(-alpha^2 t/2 - alpha beta' - alpha' b - p b + a n)
    #   theta_{A,B}(0, t), (A, B) = (a + alpha', b + beta'), and theta'(z) is
    # that factor times theta'_{A,B}(0) - 2 pi i alpha theta_{A,B}(0).  A step
    # S T^k moves theta_{A,B}(0) by its letter laws and sqrt(s/i), theta'_{A,B}(0)
    # by s sqrt(s/i) (the S law's z-derivative at 0); the s multiply to i^n root^2.
    k0, steps, reduced, root, q2, h = red
    a, b, bf, turns, n = c.a, c.b, c.bf, 0.0, 0
    if k0:
        a, b, phase = _letter(a, b, k0)
        j, b = divmod(b, 1)
        bf, turns = float(b), float((phase + a * j) % 1)
    q = round(z.real) if _FOLD <= abs(z.real) < math.inf else 0  # the kernel refuses a non-finite z
    w, big_a, big_b, log = z - q, c.af, bf, 0j
    if steps:
        t = steps[0][0]
        alpha, beta = _lattice_coefficients(t, w)
        p, n = round(alpha), round(beta)
        log = -alpha * (alpha * t / 2.0 + (beta - n)) - (alpha - p) * bf - _turns(b, p)
        big_a, big_b, w = big_a + (alpha - p), big_b + (beta - n), 0j
        for _, k in steps:
            big_a, big_b, phase_s = _letter(big_a, big_b)
            big_a, big_b, phase_t = _letter(big_a, big_b, k)
            j = round(big_b)
            big_b -= j
            turns = (turns + phase_s + phase_t + big_a * j) % 1.0  # each step mod 1
    even, odd = _lattice_sums(big_a, w + big_b, w, reduced, q2, h, weighted)
    value = even + odd
    if weighted and steps:
        even, odd = _lattice_sums(big_a, complex(big_b), 0j, reduced, q2, h, False)
        value = value * 1j ** len(steps) * root * root - 2j * math.pi * alpha * (even + odd)
    try:
        value *= _exp(2j * math.pi * (turns + _turns(a, q + n) + log)) * root
    except DomainError:
        value = math.inf
    if not cmath.isfinite(value):
        raise _overflow(z, tau)
    return value


def theta(c: ThetaChar, z: complex, m: Modulus) -> complex:
    """Evaluate the series at z.  Values near a zero are returned as-is."""
    return _value(c, complex(z), m, False)


def theta_dz(c: ThetaChar, z: complex, m: Modulus) -> complex:
    """Term-wise z-derivative of the series."""
    return _value(c, complex(z), m, True)


def quasi_period_factor(c: ThetaChar, p: int, q: int, z: complex, m: Modulus) -> complex:
    """Multiplier relating theta(z + p tau + q) to theta(z)."""
    tau = m.value
    return _e(c.af * q - p * p * tau / 2.0 - p * complex(z) - c.bf * p)


def _letter(a, b, k=None):
    # (a', b', phase) of one letter, exact on Fractions and rounded on floats:
    # S (k None) (a, b) -> (b, -a), phase ab; T^k -> (a, b + k(a - 1/2)), phase k a(1 - a)/2.
    if k is None:
        return b, -a, a * b
    return a, b + k * (2 * a - 1) / 2, k * a * (1 - a) / 2


@functools.lru_cache(maxsize=_LAW_MEMO)
def _word_law(c: ThetaChar, word: str) -> tuple[ThetaChar, complex, int, tuple[int, int, int, int]]:
    # Left to right the letters build the word's matrix as sign (p, q; r, s),
    # with (r, s) > (0, 0) so that J = r tau + s lies in the upper half plane.
    # The factors sqrt(tau/i) of its S letters multiply to e(n/8) sqrt(J/i):
    # n = 1 for the empty word, and each S subtracts 1 if it keeps the sign and
    # adds 1 if it flips it.  Right to left `_letter` maps the characteristic.
    if not set(word) <= {"S", "T", "t"}:
        raise DomainError(f"word {word!r} has a letter other than S, T and t")
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
        a, b, step = _letter(a, b, None if g == "S" else 1 if g == "T" else -1)
        phase += step
    return ThetaChar(a, b), e_of(float(phase % 1)), sign, (p, q, r, s)


def transform(c: ThetaChar, z: complex, m: Modulus, word: str) -> tuple[ThetaChar, complex, complex, Modulus]:
    """Data (c', prefactor, z', m') with theta(c, z', m') = prefactor * theta(c', z, m).

    The letters S: (z, tau) -> (z/tau, -1/tau), T: tau -> tau + 1 and t = T^-1
    act left to right; any other letter is a DomainError.
      T:    theta_{a,b}(z, tau+1) = e(a(1-a)/2) theta_{a, a+b-1/2}(z, tau)
      S:    theta_{a,b}(z/tau, -1/tau) = e(ab) sqrt(tau/i) e(z^2/(2 tau)) theta_{b,-a}(z, tau)
      SSS:  theta_{a,b}(i z, i) = e(ab) exp(pi z^2) theta_{-b,a}(z, i)
      STSS: theta_{a,b}(w z, zeta) = e(a^2/2 + ab - 1/24) e(z^2/(2 zeta)) theta_{-a-b-1/2, a}(z, zeta)
      tS:   theta_{a,b}(w^2 z, zeta) = e(ab + (b^2-b)/2 + 1/24) e(z^2/(2 w)) theta_{b, 1/2-a-b}(z, zeta)
    with sqrt(tau/i) principal, positive on the imaginary axis.  For the word's
    matrix sign (p, q; r, s) and J = r tau + s, z' = z/(sign J) and one
    exponential e(r z^2/(2 J)) carries z.
    """
    target, root, sign, (p, q, r, s) = _word_law(c, word)
    z, j = complex(z), r * m.value + s
    pref = root * cmath.sqrt(j / 1j) * _e(r * z * z / (2.0 * j))
    return target, pref, sign * z / j, Modulus((p * m.value + q) / j)


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
    k0, steps, _, _, q2, h = red = m._reduced_tau()
    if k0 or steps or not abs(z.real) < _FOLD:  # one reduction, four characteristics
        return tuple(_reduced(c, z, m.value, red, False) for c in HALF_CHARS)
    e0, o0 = _lattice_sums(0.0, z, z, m.value, q2, h, False)
    e1, o1 = _lattice_sums(0.5, z, z, m.value, q2, h, False)
    return e0 + o0, e0 - o0, e1 + o1, 1j * (e1 - o1)


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
    if m.value == TAU_I.value:
        g4 = gamma_real(0.25)
        return {
            _C00: complex(g4 / (4.0 * math.pi**3) ** 0.25),
            _C01: complex(g4 / (2.0 * math.pi) ** 0.75),
            _C10: complex(g4 / (2.0 * math.pi) ** 0.75),
            _C11: 0.0 + 0.0j,
        }
    if m.value == TAU_ZETA.value:
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
