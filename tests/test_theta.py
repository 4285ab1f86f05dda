"""Series with rational characteristics and the identity families built on it."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from lemnis import (
    DomainError,
    Modulus,
    TAU_I,
    TAU_ZETA,
    ThetaChar,
    TorusPoint,
    canonical_torus_point,
    e_of,
    gamma_real,
    lattice_distance,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    transform,
)
from lemnis.theta import HALF_CHARS, ZETA, theta_four
from lemnis.verify import addition_check, one_plus_i_multiple, one_plus_zeta_multiple

C00 = ThetaChar(0, 0)
C01 = ThetaChar(0, Fraction(1, 2))
C10 = ThetaChar(Fraction(1, 2), 0)
C11 = ThetaChar(Fraction(1, 2), Fraction(1, 2))
SEXTIC_CHARS = tuple(
    ThetaChar(Fraction(*a), Fraction(*b)) for a, b in (((1, 3), (1, 3)), ((1, 6), (1, 6)), ((5, 6), (1, 3)), ((1, 3), (5, 6)))
)

GENERIC = Modulus.generic(complex(0.23, 1.13))

# independently computed reference constants (40-digit arithmetic,
# direct summation of the defining series)
THETA00_I = 1.086434811213308014575316
THETA01_I = 0.9135791381561168
DTHETA11_I = -2.8486946039877873161
ZETA_TABLE = {
    (Fraction(0), Fraction(0)): complex(1.00003755706663269, 0.131657442069020103),
    (Fraction(0), Fraction(1, 2)): complex(1.00003755706663269, -0.131657442069020103),
    (Fraction(1, 2), Fraction(0)): complex(0.931886650192744228, 0.386000089104266869),
    (Fraction(1, 2), Fraction(1, 2)): 0j,
    (Fraction(1, 3), Fraction(1, 3)): complex(0.710122603120725097, 0.369666429036684169),
    (Fraction(1, 6), Fraction(1, 6)): complex(1.02864670495885609, 0.228045484234625336),
    (Fraction(5, 6), Fraction(1, 3)): complex(0.763526146889363122, -0.240738869391653061),
    (Fraction(1, 3), Fraction(5, 6)): complex(-0.540863604964010781, 0.590249050016197141),
}


def mp_theta(c: ThetaChar, z: complex, tau: complex, n: int = 48) -> complex:
    """Direct series sum in 30-digit arithmetic, the comparison oracle."""
    with mpmath.workdps(30):
        a = mpmath.mpf(c.a.numerator) / c.a.denominator
        b = mpmath.mpf(c.b.numerator) / c.b.denominator
        zz = mpmath.mpc(z)
        tt = mpmath.mpc(tau)
        total = mpmath.mpc(0)
        for k in range(-n, n + 1):
            m = k + a
            total += mpmath.exp(
                1j * mpmath.pi * m * m * tt + 2j * mpmath.pi * m * (zz + b)
            )
        return complex(total)


def test_char_accepts_rationals_and_floats():
    c = ThetaChar(0.5, Fraction(1, 3))
    assert c.a == Fraction(1, 2)
    assert c.b == Fraction(1, 3)


def test_char_rejects_huge_denominator():
    with pytest.raises(DomainError):
        ThetaChar(Fraction(1, 145), 0)


def test_char_reduce():
    c = ThetaChar(Fraction(4, 3), Fraction(-1, 2))
    red, factor = c.reduce()
    assert red == ThetaChar(Fraction(1, 3), Fraction(1, 2))
    assert abs(factor - e_of(-1.0 / 3.0)) < 1e-15
    # the factor carries the whole change, so both evaluations agree
    z = complex(0.17, 0.05)
    assert abs(theta(c, z, TAU_I) - factor * theta(red, z, TAU_I)) < 1e-12


def test_modulus_requires_upper_half_plane():
    with pytest.raises(DomainError):
        Modulus.generic(complex(0.5, -1.0))
    with pytest.raises(DomainError):
        Modulus.generic(0.5)


def test_series_against_reference():
    rng = random.Random(91)
    taus = (1j, ZETA, complex(0.23, 1.13), complex(-0.4, 0.71))
    for _ in range(40):
        c = ThetaChar(
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 6))),
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 6))),
        )
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8))
        tau = rng.choice(taus)
        got = theta(c, z, Modulus.generic(tau))
        ref = mp_theta(c, z, tau)
        assert abs(got - ref) < 1e-11 * max(1.0, abs(ref))


def test_tau_i_constants():
    assert theta(C00, 0.0, TAU_I).real == pytest.approx(THETA00_I, abs=1e-12)
    assert theta(C01, 0.0, TAU_I).real == pytest.approx(THETA01_I, abs=1e-12)
    # the two even conjugate constants coincide at the square modulus
    assert theta(C10, 0.0, TAU_I).real == pytest.approx(THETA01_I, abs=1e-12)
    assert abs(theta(C11, 0.0, TAU_I)) < 1e-12
    closed = gamma_real(0.25) / (4.0 * math.pi**3) ** 0.25
    assert theta(C00, 0.0, TAU_I).real == pytest.approx(closed, abs=1e-11)


def test_tau_zeta_constant_table():
    table = theta_constants(TAU_ZETA)
    assert len(table) == 8
    for c, ref in table.items():
        key = (c.a, c.b)
        assert key in ZETA_TABLE
        assert abs(ref - ZETA_TABLE[key]) < 1e-12
        assert abs(theta(c, 0.0, TAU_ZETA) - ref) < 1e-11


def test_tau_i_constant_table():
    table = theta_constants(TAU_I)
    for c, ref in table.items():
        assert abs(theta(c, 0.0, TAU_I) - ref) < 1e-11


def test_generic_modulus_has_no_table():
    with pytest.raises(DomainError):
        theta_constants(GENERIC)


def test_a_modulus_is_its_tau():
    # one field, tau: a modulus built from i or zeta is TAU_I or TAU_ZETA and
    # has its table, and 2i has none
    assert [f.name for f in dataclasses.fields(Modulus)] == ["value"]
    for tau in (TAU_I, TAU_ZETA):
        same = Modulus.generic(tau.value)
        assert same == tau and theta_constants(same) == theta_constants(tau)
    with pytest.raises(DomainError):
        theta_constants(Modulus(2j))


def test_quasi_periodicity():
    rng = random.Random(92)
    for m in (TAU_I, TAU_ZETA, GENERIC):
        for _ in range(40):
            c = ThetaChar(
                Fraction(rng.randrange(0, 6), 6), Fraction(rng.randrange(0, 6), 6)
            )
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = rng.randrange(-2, 3)
            q = rng.randrange(-2, 3)
            lhs = theta(c, z + p * m.value + q, m)
            rhs = quasi_period_factor(c, p, q, z, m) * theta(c, z, m)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_parity():
    rng = random.Random(93)
    for _ in range(60):
        c = ThetaChar(
            Fraction(rng.randrange(-5, 6), 6), Fraction(rng.randrange(-5, 6), 6)
        )
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        neg = ThetaChar(-c.a, -c.b)
        assert abs(theta(neg, z, TAU_I) - theta(c, -z, TAU_I)) < 1e-12


def _zero_point(c: ThetaChar, m: Modulus) -> complex:
    # the simple zero (1/2 - a) tau + (1/2 - b) of theta_{a,b}, in the cell [0,1)^2
    alpha = float((Fraction(1, 2) - c.a) % 1)
    beta = float((Fraction(1, 2) - c.b) % 1)
    return alpha * m.value + beta


def test_zero_locus():
    rng = random.Random(94)
    for m in (TAU_I, TAU_ZETA):
        for _ in range(20):
            c = ThetaChar(
                Fraction(rng.randrange(0, 6), 6), Fraction(rng.randrange(0, 6), 6)
            )
            assert abs(theta(c, _zero_point(c, m), m)) < 1e-10


def test_theta_dz_jacobi_derivative():
    d = theta_dz(C11, 0.0, TAU_I)
    assert d.real == pytest.approx(DTHETA11_I, abs=1e-11)
    assert abs(d.imag) < 1e-12
    for m in (TAU_I, TAU_ZETA, GENERIC):
        lhs = theta_dz(C11, 0.0, m)
        rhs = -math.pi * theta(C00, 0.0, m) * theta(C01, 0.0, m) * theta(C10, 0.0, m)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_theta_dz_matches_difference_quotient():
    h = 1e-5
    for c in (C00, C11, ThetaChar(Fraction(1, 3), Fraction(1, 6))):
        z = complex(0.21, -0.13)
        num = (theta(c, z + h, TAU_ZETA) - theta(c, z - h, TAU_ZETA)) / (2 * h)
        assert abs(theta_dz(c, z, TAU_ZETA) - num) < 1e-8


def _jtheta_reference(c: ThetaChar, z: complex, tau: complex, derivative: bool) -> complex:
    """theta_{a,b}(z) = e^{pi i a^2 tau + 2 pi i a (z + b)} theta3(pi (z + a tau + b), q)
    with q = e^{pi i tau}, through mpmath.jtheta (derivative=1 for d/dz)."""
    with mpmath.workdps(20):
        a = mpmath.mpf(c.a.numerator) / c.a.denominator
        b = mpmath.mpf(c.b.numerator) / c.b.denominator
        tt, zz = mpmath.mpc(tau), mpmath.mpc(z)
        q = mpmath.exp(1j * mpmath.pi * tt)
        s = mpmath.pi * (zz + a * tt + b)
        pref = mpmath.exp(1j * mpmath.pi * a * (a * tt + 2 * (zz + b)))
        value = mpmath.jtheta(3, s, q)
        if not derivative:
            return complex(pref * value)
        return complex(pref * (2j * mpmath.pi * a * value + mpmath.pi * mpmath.jtheta(3, s, q, 1)))


def _abs_series(c: ThetaChar, z: complex, tau: complex, derivative: bool) -> float:
    """Sum of |terms| of the series (of the derivative series if asked)."""
    a = float(c.a)
    n_max = int(12.0 / math.sqrt(tau.imag)) + 8
    total = 0.0
    for n in range(-n_max, n_max + 1):
        k = n + a
        term = math.exp(-math.pi * tau.imag * k * k - 2.0 * math.pi * k * z.imag)
        total += term * (2.0 * math.pi * abs(k) if derivative else 1.0)
    return total


def test_series_kernel_matches_jtheta_on_a_grid():
    # theta and theta_dz summed from the peak term by term ratios, against
    # mpmath.jtheta, to 1e-12 of the sum of |terms|.  At small Im(tau), where
    # jtheta itself is slow, each characteristic takes one point of a sparse
    # z grid in turn.
    chars = HALF_CHARS + SEXTIC_CHARS
    dense = [(u, v) for u in (-2.0, -0.75, 0.5, 2.0) for v in (-2.0, -0.5, 1.0, 2.0)]
    sparse = [(-2.0, 2.0), (0.5, -0.5), (2.0, -2.0), (-0.75, 1.0)]
    moduli = [
        (TAU_I, dense),
        (TAU_ZETA, dense),
        (Modulus.generic(complex(0.3, 1e-4)), sparse),
        (Modulus.generic(complex(-0.45, 1e-2)), sparse),
        (Modulus.generic(complex(0.1, 1.0)), dense),
        (Modulus.generic(complex(-0.2, 2.0)), dense),
    ]
    for m, grid in moduli:
        tau = m.value
        for i, c in enumerate(chars):
            points = grid if grid is dense else [sparse[i % len(sparse)]]
            for u, v in points:
                z = u + v * tau
                for f, derivative in ((theta, False), (theta_dz, True)):
                    err = abs(f(c, z, m) - _jtheta_reference(c, z, tau, derivative))
                    assert err <= 1e-12 * _abs_series(c, z, tau, derivative), (f.__name__, c, tau, z)


def test_series_kernel_at_large_im_tau():
    # both neighbour ratios of the peak underflow here, or one of them with
    # the other near 1 (z near tau/2); the 30-digit direct sum is the oracle
    for tau in (300j, complex(0.2, 250.0), complex(0.4, 40.0)):
        m = Modulus.generic(tau)
        for c in HALF_CHARS + SEXTIC_CHARS:
            for z in (0.0, 0.5 * tau, 0.49 * tau, 0.51 * tau, 0.2 - 0.3 * tau):
                err = abs(theta(c, z, m) - mp_theta(c, z, tau))
                assert err <= 1e-13 * _abs_series(c, z, tau, False), (c, tau, z)


def test_theta_overflow_is_a_domain_error():
    # at tau = i the largest term, exp(pi Im(z)^2), leaves binary64 above Im z = 15.03
    for f in (theta, theta_dz):
        for z in (30j, 40j, -30j, complex(0.3, 1e3)):
            with pytest.raises(DomainError, match="tau"):
                f(C00, z, TAU_I)
    # theta_dz is 2 pi k times larger than the largest term, so it leaves first
    with pytest.raises(DomainError):
        theta_dz(C00, 15j, TAU_I)
    # values that fit are returned
    for z, expected in ((10j, 2.976042006088037e136), (15j, 1.0487773200449855e307)):
        value = theta(C00, z, TAU_I)
        assert abs(value - expected) < 1e-12 * expected
    assert abs(theta_dz(C00, 10.25j, TAU_I)) > 1e140


def test_terms_below_binary64_at_huge_im_tau_sum_to_zero():
    # every term lies below exp(-pi 1e300 / 4); rounding puts the peak index
    # one off, so the ratio towards the peak is about exp(2 pi 12419.6)
    c = ThetaChar(Fraction(-1, 2), Fraction(1, 4))
    m = Modulus.generic(complex(-1.04e11, 1e300))
    z = complex(1e308, -12419.6)
    assert theta(c, z, m) == 0j
    assert theta_dz(c, z, m) == 0j


def test_reduction_leaving_binary64_is_a_domain_error():
    # -1/tau is infinite at tau = 5e-324 + 5e-324 i
    m = Modulus.generic(complex(5e-324, 5e-324))
    for f in (lambda: theta(C00, 0.1, m), lambda: theta_four(0.1, m), lambda: lattice_distance(m, 0.1, 0j)):
        with pytest.raises(DomainError, match="binary64"):
            f()


def test_non_finite_modulus_is_a_domain_error():
    nan, inf = float("nan"), float("inf")
    for tau in (complex(0, nan), complex(0, inf), complex(nan, 1), complex(inf, 1), complex(0.5, -inf)):
        with pytest.raises(DomainError):
            Modulus.generic(tau)


def test_addition_formulas():
    rng = random.Random(95)
    for m in (TAU_I, TAU_ZETA):
        for _ in range(25):
            z1 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            z2 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            res = addition_check(z1, z2, m)
            assert len(res) == 9
            assert max(res) < 1e-10


def test_transform_shift():
    rng = random.Random(96)
    for _ in range(30):
        c = ThetaChar(
            Fraction(rng.randrange(0, 6), 6), Fraction(rng.randrange(0, 6), 6)
        )
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        c2, pref, z2, m2 = transform(c, z, GENERIC, "T")
        assert m2.value == pytest.approx(GENERIC.value + 1.0)
        lhs = theta(c, z2, m2)
        rhs = pref * theta(c2, z, GENERIC)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_transform_invert():
    rng = random.Random(97)
    for _ in range(30):
        c = ThetaChar(
            Fraction(rng.randrange(0, 4), 4), Fraction(rng.randrange(0, 4), 4)
        )
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        c2, pref, z2, m2 = transform(c, z, GENERIC, "S")
        assert m2.value == pytest.approx(-1.0 / GENERIC.value)
        lhs = theta(c, z2, m2)
        rhs = pref * theta(c2, z, GENERIC)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


_INVERSE_LETTERS = {"S": "SSS", "T": "t", "t": "T"}


def test_law_words_undone_by_their_inverses():
    # each law's word followed by its inverse is the identity on (c, z, tau)
    rng = random.Random(103)
    for m in (TAU_I, TAU_ZETA, GENERIC):
        for word in ("T", "S", "SSS", "STSS", "tS"):
            inverse = "".join(_INVERSE_LETTERS[g] for g in reversed(word))
            for _ in range(10):
                c = ThetaChar(Fraction(rng.randrange(-24, 24), 12), Fraction(rng.randrange(-24, 24), 12))
                z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                c2, pref, z2, m2 = transform(c, z, m, word + inverse)
                assert (c2, z2, m2.value) == (c, z, m.value), (word, c)
                assert abs(pref - 1.0) < 1e-15, (word, c)


def test_word_ss_is_parity_and_t_inverse_is_a_law():
    rng = random.Random(104)
    for _ in range(30):
        c = ThetaChar(Fraction(rng.randrange(0, 6), 6), Fraction(rng.randrange(0, 6), 6))
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        for m in (TAU_I, TAU_ZETA, GENERIC):
            c2, pref, z2, m2 = transform(c, z, m, "SS")
            assert (c2, z2, m2.value) == (ThetaChar(-c.a, -c.b), -z, m.value)
            assert abs(pref - 1.0) < 1e-15
        c2, pref, z2, m2 = transform(c, z, GENERIC, "t")
        assert z2 == z and m2.value == pytest.approx(GENERIC.value - 1.0)
        lhs = theta(c, z2, m2)
        rhs = pref * theta(c2, z, GENERIC)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_a_word_with_another_letter_is_a_domain_error():
    # "X" once read as t, and a lower-case s is not S
    for word in ("SX", "s", "X"):
        with pytest.raises(DomainError, match="letter other than S, T and t"):
            transform(C00, 0.1, TAU_I, word)


def test_i_multiple():
    rng = random.Random(98)
    for _ in range(30):
        c = ThetaChar(
            Fraction(rng.randrange(0, 4), 4), Fraction(rng.randrange(0, 4), 4)
        )
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        c2, pref, _, _ = transform(c, z, TAU_I, "SSS")
        lhs = theta(c, 1j * z, TAU_I)
        rhs = pref * theta(c2, z, TAU_I)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_omega_multiple():
    rng = random.Random(99)
    w = ZETA - 1.0  # the rotation of order six squared, a cube root of unity
    for word, rot in (("STSS", w), ("tS", w * w)):
        for _ in range(30):
            c = ThetaChar(
                Fraction(rng.randrange(0, 6), 6), Fraction(rng.randrange(0, 6), 6)
            )
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            c2, pref, _, _ = transform(c, z, TAU_ZETA, word)
            lhs = theta(c, rot * z, TAU_ZETA)
            rhs = pref * theta(c2, z, TAU_ZETA)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_one_plus_i_multiple():
    rng = random.Random(100)
    for _ in range(30):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        pairs = one_plus_i_multiple(z, theta_four(z, TAU_I))
        assert [p.name for p in pairs] == ["theta00", "theta_half_half", "product_01_10"]
        for p in pairs:
            assert p.residual < 1e-10


def test_one_plus_zeta_multiple():
    rng = random.Random(101)
    for _ in range(30):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        pairs = one_plus_zeta_multiple(z, theta_four(z, TAU_ZETA))
        assert len(pairs) == 4
        for p in pairs:
            assert p.residual < 1e-10


def test_square_modulus_constant_relations():
    t = theta_constants(TAU_I)
    k00 = t[C00]
    k01 = t[C01]
    k10 = t[C10]
    # fourth-power identity of the three even constants, and the extra
    # 2^(1/4) ratio special to the square modulus
    assert abs(k00**4 - k01**4 - k10**4) < 1e-11
    assert abs(k00 - 2.0**0.25 * k01) < 1e-11
    assert abs(k01 - k10) < 1e-12


def test_sextic_chars_cover_table():
    table = theta_constants(TAU_ZETA)
    for c in SEXTIC_CHARS:
        assert c in table


def test_truncation_consistency_at_large_imaginary_part():
    # evaluate a far-out argument directly and via the quasi-period
    # relation from a reduced one; a truncation defect in either sum
    # would break the match long before 1e-10
    for m in (TAU_I, TAU_ZETA):
        c = C10
        zr = complex(0.3, 1.7) - 2.0 * m.value
        lhs = theta(c, zr + 2.0 * m.value, m)
        rhs = quasi_period_factor(c, 2, 0, zr, m) * theta(c, zr, m)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs))


def test_non_finite_argument_is_a_domain_error():
    nan, inf = float("nan"), float("inf")
    for z in (complex(0, inf), complex(nan, 0), complex(inf, 1), complex(nan, nan)):
        for m in (TAU_I, GENERIC):
            with pytest.raises(DomainError):
                theta(C00, z, m)
            with pytest.raises(DomainError):
                theta_dz(C11, z, m)


def test_canonical_torus_point_and_distance():
    m = TAU_I
    p = canonical_torus_point(m, complex(2.3, 1.0) + 0.25j)
    assert 0.0 <= p.alpha < 1.0
    assert 0.0 <= p.beta < 1.0
    assert lattice_distance(m, p.z, complex(2.3, 1.25)) < 1e-12
    # exact lattice shifts collapse to distance zero
    rng = random.Random(102)
    for _ in range(40):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        shift = rng.randrange(-3, 4) * m.value + rng.randrange(-3, 4)
        assert lattice_distance(m, z + shift, z) < 1e-12


def test_lattice_distance_on_skewed_moduli():
    # rounding to +-1 around the coordinates is exact only in a reduced basis:
    # on tau = 10 + 0.1i the point 5 + 0.05i is 0.05 from the lattice point 5
    assert lattice_distance(Modulus.generic(10 + 0.1j), 5 + 0.05j, 0) == pytest.approx(0.05, rel=1e-12)
    # the two square moduli are reduced as they stand
    assert TAU_I._reduced_basis == (1.0, TAU_I.value) and TAU_ZETA._reduced_basis == (1.0, TAU_ZETA.value)
    rng = random.Random(105)
    for _ in range(40):
        tau = complex(rng.uniform(-20.0, 20.0), 10 ** rng.uniform(-2.0, 0.5))
        d = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        got = lattice_distance(Modulus.generic(tau), d, 0)
        # every lattice point a tau + b within got + 1 of d, by brute force
        best = math.inf
        for a in range(math.floor((d.imag - got - 1) / tau.imag), math.ceil((d.imag + got + 1) / tau.imag) + 1):
            b0 = round(d.real - a * tau.real)
            best = min(best, *(abs(d - (a * tau + b)) for b in (b0 - 1, b0, b0 + 1)))
        assert got == pytest.approx(best, rel=1e-9, abs=1e-12), tau


# ---------------------------------------------------------------------------
# The half-characteristic kernel and the characteristic contract.

KERNEL_MODULI = (
    TAU_I,
    TAU_ZETA,
    Modulus.generic(complex(0.5, 1e-3)),
    Modulus.generic(complex(-0.37, 0.02)),
    Modulus.generic(complex(0.21, 0.3)),
    Modulus.generic(complex(-0.5, 2.0)),
)


def _tau_conditioned_abs_series(c: ThetaChar, z: complex, tau: complex) -> float:
    """Sum of |T(k)| (1 + pi k^2 |tau|): the error of the series when tau is
    known to one rounding, as binary64 knows it, is of order eps times this."""
    a = float(c.a)
    n_max = int(12.0 / math.sqrt(tau.imag)) + 8
    total = 0.0
    for n in range(-n_max, n_max + 1):
        k = n + a
        term = math.exp(-math.pi * tau.imag * k * k - 2.0 * math.pi * k * z.imag)
        total += term * (1.0 + math.pi * k * k * abs(tau))
    return total


def test_four_kernel_matches_theta_and_jtheta():
    # the four values from two lattice sums against the per-characteristic
    # series, to 1e-14 of the sum of |terms|, and against mpmath.jtheta,
    # which takes tau as exact, to 1e-14 of that sum with each term weighted
    # by its sensitivity to a rounding of tau (1.3 to 59 times the sum of
    # |terms| on this grid, 260 at Im tau = 1e-3); z lies up to three cells
    # from the origin
    rng = random.Random(103)
    for m in KERNEL_MODULI:
        tau = m.value
        points = 3 if tau.imag < 0.1 else 12
        for _ in range(points):
            z = rng.uniform(-3.0, 3.0) + rng.uniform(-3.0, 3.0) * tau
            four = theta_four(z, m)
            for c, value in zip(HALF_CHARS, four):
                scale = _abs_series(c, z, tau, False)
                assert abs(value - theta(c, z, m)) <= 1e-14 * scale, (c, tau, z)
                ref = _jtheta_reference(c, z, tau, False)
                scale = _tau_conditioned_abs_series(c, z, tau)
                assert abs(value - ref) <= 1e-14 * scale, (c, tau, z)


def test_four_kernel_raises_domain_error_on_overflow_and_non_finite_z():
    nan, inf = float("nan"), float("inf")
    bad = [complex(0, inf), complex(nan, 0), complex(inf, 1), complex(nan, nan)]
    # the largest term at tau = i leaves binary64 above Im z = 15.03; from
    # about |z| = 1e154 on the exponent of the largest term does too
    huge = [30j, -30j, 1e3j, complex(0.3, 1e3), complex(0.2, -1e3), 1e200j, complex(1e200, 1e200), -1e300j]
    for m in (TAU_I, TAU_ZETA, GENERIC):
        for z in bad + huge:
            with pytest.raises(DomainError):
                theta_four(z, m)
            for c in HALF_CHARS:
                with pytest.raises(DomainError):
                    theta(c, z, m)
    # values that fit are returned, and they are the per-characteristic ones
    # (15 i is a zero of theta11, left in rounding of terms near 1e307)
    for value, c in zip(theta_four(15j, TAU_I), HALF_CHARS):
        assert cmath.isfinite(value)
        assert abs(value - theta(c, 15j, TAU_I)) <= 1e-14 * _abs_series(c, 15j, 1j, False)


def test_jacobi_derivative_through_the_four_kernel():
    # theta11'(0) = -pi theta00(0) theta01(0) theta10(0), to 1e-14 of the
    # sums of |terms| of both sides (near Re tau = 1/2 and small Im tau the
    # values are tiny and the terms are not)
    for m in KERNEL_MODULI:
        tau = m.value
        k00, k01, k10, k11 = theta_four(0j, m)
        sums = [_abs_series(c, 0j, tau, False) for c in HALF_CHARS]
        assert abs(k11) <= 1e-14 * sums[3]
        lhs = theta_dz(C11, 0j, m)
        rhs = -math.pi * k00 * k01 * k10
        scale = _abs_series(C11, 0j, tau, True) + math.pi * sums[0] * sums[1] * sums[2]
        assert abs(lhs - rhs) <= 1e-14 * scale, m


def test_char_equality_is_exact_and_hash_follows_it():
    c = ThetaChar(0.5, "1/3")
    d = ThetaChar(Fraction(1, 2), Fraction(1, 3))
    assert c == d and hash(c) == hash(d)
    assert (c.af, c.bf) == (0.5, 1.0 / 3.0)
    # past 2^53 two characteristics can share their floats, and so their
    # hash, but they stay different keys
    big_a, big_b = 10**20 + Fraction(1, 3), 10**20 + Fraction(2, 3)
    e, f = ThetaChar(big_a, 0), ThetaChar(big_b, 0)
    assert hash(e) == hash(f) and e != f
    assert len({e: 1, f: 2}) == 2


def test_char_beyond_binary64_is_a_domain_error():
    for a, b in ((10**400, 0), (0, Fraction("-1e400")), (Fraction("1e400") + Fraction(1, 2), 0)):
        with pytest.raises(DomainError, match="characteristic"):
            ThetaChar(a, b)


def test_char_from_two_fractions_matches_the_string_path():
    # floats taken as n / d from as_integer_ratio(): the result equals,
    # hashes like and has the float bits of the 'p/q' path and float(Fraction)
    rng = random.Random(144)
    pairs = [
        (p, q, rng.randint(-2 * s, 2 * s), s)
        for q in range(1, 13)
        for s in range(1, 13)
        for p in range(-2 * q, 2 * q + 1)
    ]
    for _ in range(3000):
        q, s = rng.randint(1, 144), rng.randint(1, 144)
        big = rng.choice((1, 10**6, 2**60, 10**300))
        pairs.append((rng.randint(-big * q, big * q), q, rng.randint(-3 * s, 3 * s), s))
    for p, q, r, s in pairs:
        frac = ThetaChar(Fraction(p, q), Fraction(r, s))
        text = ThetaChar(f"{p}/{q}", f"{r}/{s}")
        assert frac == text and hash(frac) == hash(text), (p, q, r, s)
        assert (frac.af.hex(), frac.bf.hex()) == (text.af.hex(), text.bf.hex())
        assert (frac.af.hex(), frac.bf.hex()) == (float(Fraction(p, q)).hex(), float(Fraction(r, s)).hex())
        assert type(frac.a) is Fraction and type(frac.b) is Fraction
    # ints, strings and exact floats give the same characteristic
    assert ThetaChar(1, "-1/2") == ThetaChar(Fraction(1), Fraction(-1, 2)) == ThetaChar(1.0, -0.5)


def test_char_inputs_keep_their_errors():
    cases = (
        ((Fraction(1, 145), 0), "characteristic denominator 145 exceeds 144"),
        ((Fraction(1, 2), Fraction(7, 1000)), "characteristic denominator 1000 exceeds 144"),
        ((Fraction(1, 145), Fraction(1, 146)), "characteristic denominator 145 exceeds 144"),
        (("1/145", 0), "characteristic denominator 145 exceeds 144"),
        ((0.1, Fraction(1, 2)), "float 0.1 is not an exact small rational; pass a Fraction or 'p/q'"),
        ((Fraction(1, 2), 0.1), "float 0.1 is not an exact small rational"),
        (("one", 0), "characteristic 'one' is not a finite rational"),
        ((0, "1/0"), "characteristic '1/0' is not a finite rational"),
        ((math.inf, 0), "characteristic inf is not a finite rational"),
        ((0, math.nan), "characteristic nan is not a finite rational"),
        ((10**400, 0), "characteristic beyond the binary64 range"),
        ((Fraction(10**400, 3), Fraction(1, 2)), "characteristic beyond the binary64 range"),
        ((Fraction(1, 2), Fraction(-(10**400), 7)), "characteristic beyond the binary64 range"),
    )
    for args, message in cases:
        with pytest.raises(DomainError, match=re.escape(message)):
            ThetaChar(*args)


def test_value_objects_stay_frozen_and_replaceable():
    c = ThetaChar(Fraction(1, 3), Fraction(1, 2))
    for name in ("a", "b", "af", "bf"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, Fraction(0))
    assert ThetaChar(a=Fraction(1, 3), b="1/2") == c
    assert dataclasses.replace(c, b=Fraction(5, 6)) == ThetaChar(Fraction(1, 3), Fraction(5, 6))
    assert repr(c) == "ThetaChar(a=Fraction(1, 3), b=Fraction(1, 2))"
    m = Modulus(value=2j)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.value = 1j
    assert dataclasses.replace(m, value=1j) == TAU_I and repr(m) == "Modulus(value=2j)"
    with pytest.raises(DomainError, match=re.escape("modulus requires Im(tau) > 0")):
        dataclasses.replace(m, value=1 + 0j)


def test_torus_point_stays_frozen_and_replaceable():
    p = TorusPoint(TAU_ZETA, 0.25, 0.5)
    for name, value in (("modulus", TAU_I), ("alpha", 0.5), ("beta", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    assert TorusPoint(modulus=TAU_ZETA, alpha=0.25, beta=0.5) == p
    assert repr(p) == "TorusPoint(modulus=Modulus(value=(0.5+0.8660254037844386j)), alpha=0.25, beta=0.5)"
    assert dataclasses.replace(p, modulus=TAU_I) == TorusPoint(TAU_I, 0.25, 0.5) and p.z == 0.25 * TAU_ZETA.value + 0.5
    for change, c in (({"alpha": 1.0}, 1.0), ({"beta": -0.25}, -0.25)):
        with pytest.raises(DomainError, match=re.escape(f"torus coefficient {c} outside [0,1)")):
            dataclasses.replace(p, **change)
    with pytest.raises(DomainError, match=re.escape("torus point needs a Modulus, got 1j")):
        dataclasses.replace(p, modulus=1j)
    for alpha, beta in ((math.nan, 0.5), (0.25, math.nan), (math.inf, 0.5), (0.25, -math.inf)):
        with pytest.raises(DomainError, match="torus coefficient"):
            TorusPoint(TAU_I, alpha, beta)


def test_modulus_keeps_its_domain_errors():
    for tau in (complex(math.nan, 1.0), complex(0.0, math.inf), complex(math.inf, 1.0)):
        with pytest.raises(DomainError, match=re.escape(f"modulus must be finite, got {tau}")):
            Modulus(tau)
    for tau in (0.5 + 0j, 1 - 1j, complex(0.3, -0.0), complex(0.0, -1e-300)):
        with pytest.raises(DomainError, match=re.escape(f"modulus requires Im(tau) > 0, got {tau}")):
            Modulus.generic(tau)


def test_char_lookups_and_reduction_unchanged():
    for m in (TAU_I, TAU_ZETA):
        table = theta_constants(m)
        for c, value in table.items():
            fresh = ThetaChar(str(c.a), str(c.b))
            assert fresh is not c and table[fresh] == value
    red, factor = ThetaChar(Fraction(-7, 6), Fraction(5, 2)).reduce()
    assert (red.a, red.b) == (Fraction(5, 6), Fraction(1, 2))
    assert factor == e_of(float(Fraction(5, 6) * 2))


def test_characteristic_law_memo_stays_bounded():
    from lemnis.theta import _LAW_MEMO, _reduce, _word_law

    base = ThetaChar(Fraction(1, 3), Fraction(1, 6))
    z = complex(0.1, 0.2)
    for p in range(100):
        for q in range(100):
            c = ThetaChar(base.a + p, base.b + q)
            red, factor = c.reduce()
            assert red == base and abs(factor - e_of(float(base.a * q))) < 1e-15
            transform(c, z, TAU_I, "SSS")
            transform(c, z, TAU_ZETA, "STSS")
    for memo in (_reduce, _word_law):
        assert memo.cache_info().currsize <= _LAW_MEMO
    # a law taken from the memo is the law computed afresh
    c = ThetaChar(base.a + 99, base.b + 99)
    target, pref, _, _ = transform(c, z, TAU_ZETA, "tS")
    lhs = theta(c, (ZETA - 1.0) ** 2 * z, TAU_ZETA)
    assert abs(lhs - pref * theta(target, z, TAU_ZETA)) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# The summation window: centred on the peak, its width set by tau alone.

FAR_PEAK_MODULI = (
    (TAU_I, (-12.0, -7.5, -3.3, 3.3, 7.5, 12.0)),
    (TAU_ZETA, (-12.0, -7.5, -3.3, 3.3, 7.5, 12.0)),
    (Modulus.generic(complex(0.2, 0.05)), (-40.0, -25.5, 17.3, 40.0)),
)


def test_window_follows_far_peaks():
    # p = -Im z / Im tau is where the terms peak; theta and theta_dz there
    # against mpmath.jtheta, to 1e-12 of the sum of |terms|
    for m, peaks in FAR_PEAK_MODULI:
        tau = m.value
        for p in peaks:
            for u in (-0.35, 0.8):
                z = u - p * tau
                for c in HALF_CHARS + SEXTIC_CHARS[:2]:
                    for f, derivative in ((theta, False), (theta_dz, True)):
                        err = abs(f(c, z, m) - _jtheta_reference(c, z, tau, derivative))
                        assert err <= 1e-12 * _abs_series(c, z, tau, derivative), (f.__name__, c, tau, z)


def test_theta11_vanishes_at_zero_on_a_symmetric_window():
    # the terms of theta11(0) cancel in pairs k, -k, so a window symmetric
    # about the real peak leaves rounding only (2.7e-16 of the sum of
    # |terms| at worst here); one centred on the peak's nearest index keeps
    # an unpaired term of about 6e-15 of that sum at Im tau <= 1e-3
    moduli = [Modulus.generic(complex(x, y)) for x in (0.0, 0.13, -0.5, 0.5) for y in (1e-4, 1e-3, 0.01, 0.1, 1.0)]
    for m in list(KERNEL_MODULI) + moduli:
        k11 = theta_four(0j, m)[3]
        assert abs(k11) <= 2e-15 * _abs_series(C11, 0j, m.value, False), m


def test_quasi_periodicity_out_to_ten_cells():
    # theta(z + p tau + q) = factor theta(z) for |p| <= 10: the left side
    # sums a window around the peak near p, the right side one near 0
    rng = random.Random(104)
    for m in (TAU_I, TAU_ZETA, GENERIC):
        for p in range(-10, 11):
            c = ThetaChar(Fraction(rng.randrange(0, 6), 6), Fraction(rng.randrange(0, 6), 6))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            q = rng.randrange(-2, 3)
            factor = quasi_period_factor(c, p, q, z, m)
            lhs = theta(c, z + p * m.value + q, m)
            rhs = factor * theta(c, z, m)
            assert abs(lhs - rhs) <= 1e-12 * abs(factor) * _abs_series(c, z, m.value, False), (m, p)


def test_tiny_im_tau_is_finite_and_keeps_the_laws():
    # tau is reduced to the fundamental domain, so no window grows with
    # 1/sqrt(Im tau): at Im tau = 1e-300 a value is finite, or a DomainError
    # where it leaves binary64 (|theta(0.1i)| is at least its largest term,
    # exp(pi 0.01 / Im tau)).  There theta is too ill-conditioned in z and
    # tau for any rounding of them to be checked, so the laws are checked at
    # points that binary64 holds exactly, where both sides share the steps:
    # T at tau + 1 against (tau + 1) - 1, S at -1/tau, and z + p tau + q.
    for tau in (complex(0.3, 1e-300), complex(0.3, 1e-9), complex(-0.41, 1e-12)):
        m = Modulus.generic(tau)
        values = [theta(c, 0j, m) for c in HALF_CHARS]
        assert all(cmath.isfinite(v) for v in values + list(theta_four(0j, m)) + [theta_dz(C11, 0j, m)])
        scale = max(map(abs, values))
        assert scale > 1e70 if tau.imag < 1e-200 else scale > 1e3
        shifted, back = Modulus.generic(tau + 1.0), Modulus.generic((tau + 1.0) - 1.0)
        for c in HALF_CHARS:
            law = e_of(float(c.a * (1 - c.a) / 2)) * theta(ThetaChar(c.a, c.a + c.b - Fraction(1, 2)), 0j, back)
            assert abs(theta(c, 0j, shifted) - law) <= 2e-15 * scale, (tau, c)
            law = e_of(float(c.a * c.b)) * cmath.sqrt(tau / 1j) * theta(ThetaChar(c.b, -c.a), 0j, m)
            assert abs(theta(c, 0j, Modulus.generic(-1.0 / tau)) - law) <= 2e-15 * abs(cmath.sqrt(tau)) * scale
            for p, q, z in ((-1, 0, 0j), (1, 0, 0j), (2, 0, 0j), (0, 3, 0.25), (0, -2, 0.25), (0, int(1e300), 0j)):
                factor = quasi_period_factor(c, p, q, z, m) if q < 2**53 else e_of(float(c.a * q % 1))
                lhs = theta(c, z + p * tau + q, m)
                assert abs(lhs - factor * theta(c, z, m)) <= 2e-15 * abs(factor) * scale, (tau, c, p, q)
    with pytest.raises(DomainError, match="tau"):
        theta_four(0.1j, Modulus.generic(complex(0.3, 1e-300)))


def test_far_integer_arguments_and_moduli_fold_exactly():
    # the integer parts of Re z and of Re tau leave as exact phases:
    # theta(q) = e(a q) theta(0) and theta00(0, 2m + i) = theta00(0, i)
    for m in (TAU_I, TAU_ZETA):
        for c, ref in zip(HALF_CHARS, theta_four(0j, m)):
            scale = _abs_series(c, 0j, m.value, False)
            for q in (2**60, int(1e300), int(-3e200)):  # integers that binary64 holds exactly
                phase = e_of(float(c.a * q % 1))
                assert abs(theta(c, float(q), m) - phase * ref) <= 1e-15 * scale, (m, c, q)
                assert abs(theta_four(float(q), m)[HALF_CHARS.index(c)] - phase * ref) <= 1e-15 * scale
    ref = theta(C00, 0j, TAU_I)
    for re_tau in (2.0, 2.0**40, 1e16, 2.0**60 + 2.0**8, 1e300, -1e300):
        assert abs(theta(C00, 0j, Modulus.generic(complex(re_tau, 1.0))) - ref) <= 1e-15 * abs(ref), re_tau


def test_reduced_theta_dz_matches_jtheta():
    # theta' through the reduction, with its -2 pi i alpha theta term and one
    # factor s per step, against mpmath.jtheta(derivative=1)
    rng = random.Random(106)
    for tau in (complex(0.3, 1e-3), complex(-0.45, 1e-2)):
        m = Modulus.generic(tau)
        for c in (C00, C11, SEXTIC_CHARS[3]):
            z = rng.uniform(-2.0, 2.0) + rng.uniform(-3.0, 3.0) * tau
            err = abs(theta_dz(c, z, m) - _jtheta_reference(c, z, tau, True))
            assert err <= 1e-12 * _abs_series(c, z, tau, True), (c, tau, z)


def test_reduced_theta_at_im_tau_1e6_against_a_direct_sum():
    # mpmath.jtheta takes over a second a point at Im tau = 1e-6 (and
    # refuses 1e-9), so the oracle is one 30-digit direct sum by term ratios
    # over +-5,000 terms; the bound is the four-kernel test's, of the sum of
    # |terms| weighted by their sensitivity to a rounding of tau
    tau, c = complex(-0.37, 1e-6), C00
    z = 0.4 + 0.3 * tau
    with mpmath.workdps(30):
        tt, w = mpmath.mpc(tau), mpmath.mpc(z)
        h = math.ceil(math.sqrt(math.log(1e34) / (math.pi * tau.imag)))
        k = -h - round(z.imag / tau.imag)
        term = mpmath.exp(1j * mpmath.pi * k * (k * tt + 2 * w))
        ratio = mpmath.exp(1j * mpmath.pi * ((2 * k + 1) * tt + 2 * w))
        q2, total = mpmath.exp(2j * mpmath.pi * tt), mpmath.mpc(0)
        for _ in range(2 * h + 1):
            total, term, ratio = total + term, term * ratio, ratio * q2
        ref = complex(total)
    err = abs(theta(c, z, Modulus.generic(tau)) - ref)
    assert err <= 1e-14 * _tau_conditioned_abs_series(c, z, tau)
