"""Scalar building blocks: gamma, beta, the unit-circle map."""

from __future__ import annotations

import math
import random

import mpmath
import pytest

from lemnis import (
    TAU_I,
    TAU_ZETA,
    DomainError,
    GaussParams,
    ThetaChar,
    beta,
    canonical_torus_point,
    e_of,
    gamma_real,
    gauss_2f1,
    lattice_distance,
    one_plus_i_multiple,
    one_plus_zeta_multiple,
    quasi_period_factor,
    transform,
)
from lemnis.numerics import _gamma_signed


def test_gamma_small_integers_and_half():
    assert gamma_real(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_real(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_quarter():
    assert gamma_real(0.25) == pytest.approx(3.6256099082219083, rel=1e-13)


def test_gamma_sixth():
    # mpmath.gamma(mpf(1)/6) to 19 digits
    assert gamma_real(1.0 / 6.0) == pytest.approx(5.566316001780235204, rel=1e-13)


def test_gamma_near_the_binary64_limit():
    # Gamma stays finite up to x ~ 171.624
    for x in (150.0, 171.5):
        assert gamma_real(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)
    for x in (172.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma_real(x)


def test_gamma_matches_mpmath_on_both_axes():
    # seeded points of (1e-300, 171.6), log-uniform below 1, and of (-170, 0);
    # the reference is 40-digit mpmath
    rng = random.Random(75)
    positive = [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(300)]
    positive += [rng.uniform(1.0, 171.6) for _ in range(300)]
    negative = [rng.uniform(-170.0, 0.0) for _ in range(400)]
    worst = 0.0
    with mpmath.workdps(40):
        for x in positive + negative:
            ref = mpmath.gamma(x)
            got = _gamma_signed(x)
            if x > 0.0:
                assert gamma_real(x) == got
            worst = max(worst, float(abs((got - ref) / ref)))
    assert worst <= 2e-15


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -3.0, -170.0, math.nan, math.inf, -math.inf,
                               5e-309, 5e-324, 171.7, 172.0, 1e300, -180.5, -1e300])
def test_gamma_outside_its_domain_is_a_domain_error(x):
    # poles, non-finite arguments, and values or reciprocals outside binary64
    with pytest.raises(DomainError):
        _gamma_signed(x)
    with pytest.raises(DomainError):
        gamma_real(x)


def test_gamma_recursion():
    rng = random.Random(71)
    for _ in range(200):
        x = rng.uniform(0.05, 20.0)
        assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-12)


def test_gamma_reflection():
    rng = random.Random(72)
    for _ in range(100):
        x = rng.uniform(0.02, 0.98)
        lhs = gamma_real(x) * gamma_real(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)


def test_gamma_rejects_nonpositive():
    for bad in (0.0, -0.5, -3.0):
        with pytest.raises(DomainError):
            gamma_real(bad)


def test_beta_quartic_periods():
    assert beta(0.25, 0.25) == pytest.approx(7.4162987092054876737, rel=1e-13)


def test_beta_sextic_periods():
    # equals sqrt(3) * gamma(1/3)^3 / (2^(1/3) * pi); decimal checked
    # against mpmath at 40 digits
    g3 = gamma_real(1.0 / 3.0)
    closed = math.sqrt(3.0) * g3**3 / (2.0 ** (1.0 / 3.0) * math.pi)
    assert beta(1.0 / 3.0, 1.0 / 6.0) == pytest.approx(8.413092631952725567, rel=1e-13)
    assert beta(1.0 / 3.0, 1.0 / 6.0) == pytest.approx(closed, rel=1e-13)


def test_beta_symmetry_and_identity():
    rng = random.Random(73)
    for _ in range(50):
        x = rng.uniform(0.1, 5.0)
        y = rng.uniform(0.1, 5.0)
        assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)
        assert beta(x, y) == pytest.approx(
            gamma_real(x) * gamma_real(y) / gamma_real(x + y), rel=1e-13
        )


def test_beta_matches_mpmath_where_the_gamma_product_overflows():
    # Gamma(x) Gamma(y) leaves binary64 for all but the last pair; their
    # quotient by Gamma(x + y) does not
    for x, y in ((1e-200, 1e-200), (1e-300, 60.0), (170.0, 1e-5), (100.0, 1e-160),
                 (1e-160, 3e-161), (0.3, 0.4)):
        ref = float(mpmath.beta(x, y))
        assert abs(beta(x, y) - ref) <= 1e-13 * ref, (x, y)


def test_beta_rejects_nonpositive():
    with pytest.raises(DomainError):
        beta(-1.0, 2.0)
    with pytest.raises(DomainError):
        beta(0.5, 0.0)


def test_e_of_special_values():
    assert e_of(0.0) == 1.0
    assert abs(e_of(0.5) - (-1.0)) < 1e-15
    assert abs(e_of(0.25) - 1j) < 1e-15
    r = math.sqrt(0.5)
    assert abs(e_of(0.125) - complex(r, r)) < 1e-15


def test_e_of_is_homomorphism():
    rng = random.Random(74)
    for _ in range(200):
        x = rng.uniform(-8.0, 8.0)
        y = rng.uniform(-8.0, 8.0)
        assert abs(e_of(x + y) - e_of(x) * e_of(y)) < 1e-14
        assert abs(abs(e_of(x)) - 1.0) < 1e-15
        assert abs(e_of(x + 1.0) - e_of(x)) < 1e-14


# ---------------------------------------------------------------------------
# The error contract of the scalar helpers: a value outside binary64, or a
# non-finite argument, is a DomainError, never a raw OverflowError or
# ValueError, an inf or a NaN.

_nan, _inf = float("nan"), float("inf")
_C00 = ThetaChar(0, 0)

SCALAR_DOMAIN_ERRORS = {
    "quasi_period_factor overflows": lambda: quasi_period_factor(_C00, 100, 0, 0.1, TAU_I),
    "i_multiple overflows": lambda: transform(_C00, 30, TAU_I, "SSS"),
    "omega_multiple overflows": lambda: transform(_C00, 40, TAU_ZETA, "STSS"),
    "one_plus_zeta_multiple overflows": lambda: one_plus_zeta_multiple(20),
    "one_plus_i_multiple overflows": lambda: one_plus_i_multiple(20),
    "transform_tau prefactor is nan": lambda: transform(_C00, 1e200, TAU_I, "S"),
    "e_of nan": lambda: e_of(_nan),
    "e_of inf": lambda: e_of(_inf),
    "canonical_torus_point nan": lambda: canonical_torus_point(TAU_I, complex(_nan, 0.0)),
    "canonical_torus_point inf": lambda: canonical_torus_point(TAU_ZETA, complex(0.0, _inf)),
    "lattice_distance nan": lambda: lattice_distance(TAU_I, _nan, 0.0),
    "lattice_distance inf": lambda: lattice_distance(TAU_I, _inf, 0.0),
    "ThetaChar nan": lambda: ThetaChar(_nan, 0),
    "ThetaChar inf": lambda: ThetaChar(_inf, 0),
    "ThetaChar 1/0": lambda: ThetaChar("1/0", 0),
    "GaussParams nan": lambda: gauss_2f1(GaussParams(_nan, 0.5, 1.25), 0.3),
    "gamma_real below 5.6e-309": lambda: gamma_real(5e-309),
    "gamma_real subnormal": lambda: gamma_real(5e-324),
    "beta below 5.6e-309": lambda: beta(5e-309, 1.0),
}


@pytest.mark.parametrize("call", SCALAR_DOMAIN_ERRORS.values(), ids=SCALAR_DOMAIN_ERRORS.keys())
def test_scalar_helpers_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_gamma_and_beta_stay_finite_next_to_the_overflow():
    # gamma(x) ~ 1/x is still inside binary64 at x = 6e-309
    assert gamma_real(6e-309) == pytest.approx(1.0 / 6e-309, rel=1e-12)
    assert beta(6e-309, 1.0) == pytest.approx(1.0 / 6e-309, rel=1e-12)
