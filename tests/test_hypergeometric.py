"""Gauss series, the boundary value at 1, the route table and the ratio map."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import re

import mpmath
import pytest

from lemnis import (
    Curve,
    DomainError,
    GaussParams,
    IterationLimitError,
    SchwarzVariant,
    abel_jacobi,
    gamma_real,
    gauss_2f1,
    gauss_2f1_pair,
    gauss_kummer_value,
    lattice_distance,
    lift_branch,
    schwarz_map,
)
from lemnis.hypergeometric import _gauss_sum

QUARTIC = SchwarzVariant.QUARTIC
SEXTIC = SchwarzVariant.SEXTIC

# series parameters of the two closed-form limits; the variant enum
# itself carries the triangle exponents, whose beta = 0 degenerates
QP = GaussParams(0.25, 0.5, 1.25)
SP = GaussParams(1.0 / 6.0, 0.5, 7.0 / 6.0)


def mp_2f1(p: GaussParams, z: complex) -> complex:
    return complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))


def test_gauss_params_rejects_bad_gamma():
    with pytest.raises(DomainError):
        GaussParams(0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        GaussParams(0.5, 0.5, -2.0)


def test_gauss_params_keep_their_domain_errors_and_dataclass_api():
    for bad in ((math.nan, 0.5, 1.0), (0.5, math.inf, 1.0), (0.5, 0.5, -math.inf)):
        message = "parameters must be finite, got GaussParams(alpha={!r}, beta={!r}, gamma={!r})".format(*bad)
        with pytest.raises(DomainError, match=re.escape(message)):
            GaussParams(*bad)
    for g in (0.0, -1.0, -3.0, -3.0 + 1e-13, -0.0):
        with pytest.raises(DomainError, match=re.escape(f"gamma must avoid 0, -1, -2, ..., got {g}")):
            GaussParams(0.5, 0.5, g)
    p = GaussParams(alpha=0.25, beta=0.5, gamma=1.25)
    assert p == QP and hash(p) == hash(QP) and repr(p) == "GaussParams(alpha=0.25, beta=0.5, gamma=1.25)"
    assert dataclasses.replace(p, gamma=2.0) == GaussParams(0.25, 0.5, 2.0)
    with pytest.raises(DomainError):
        dataclasses.replace(p, gamma=-2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 1.0


def test_log_closed_form():
    # F(1, 1; 2; z) = -log(1 - z) / z
    p = GaussParams(1.0, 1.0, 2.0)
    assert gauss_2f1(p, 0.5).real == pytest.approx(2.0 * math.log(2.0), abs=5e-15)
    assert gauss_2f1(p, 0.5) == pytest.approx(1.3862943611198906, abs=5e-15)
    for z in (0.3, -0.7, 0.2 + 0.4j):
        val = gauss_2f1(p, z)
        assert val == pytest.approx(-cmath.log(1 - z) / z, rel=1e-13)


def test_binomial_closed_form():
    # F(a, b; b; z) = (1 - z)^(-a) regardless of b; off the disk a
    # connection coefficient has 1 / Gamma(0) = 0
    p = GaussParams(0.75, 1.5, 1.5)
    for z in (0.4, -0.3, 0.1 + 0.2j, -2 + 1j, 3 + 1j):
        assert gauss_2f1(p, z) == pytest.approx((1 - z) ** -0.75, rel=1e-13)


def test_value_at_zero_and_degenerate_numerator():
    p = GaussParams(0.25, 0.5, 1.25)
    assert gauss_2f1(p, 0.0) == 1.0
    assert gauss_2f1(GaussParams(0.0, 0.5, 1.25), 0.9) == 1.0


def test_against_mpmath_inside_disk():
    rng = random.Random(81)
    p = QP
    q = SP
    for _ in range(60):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z) > 0.97:
            continue
        for pp in (p, q):
            assert gauss_2f1(pp, z) == pytest.approx(mp_2f1(pp, z), rel=1e-12, abs=1e-13)


def test_against_mpmath_near_one_and_negative_axis():
    p = QP
    for z in (0.95, 0.99, 0.99 + 0.1j, 1 - 5e-14, -2.0, -40.0, -675.0, -1.0):
        assert gauss_2f1(p, z) == pytest.approx(mp_2f1(p, z), rel=1e-12)


def test_boundary_value_at_one():
    p = QP
    v = gauss_2f1(QP, 1.0)
    assert v.imag == 0.0
    assert v.real == pytest.approx(1.3110287771461, abs=5e-13)
    # Gauss evaluation: gamma(c) gamma(c-a-b) / (gamma(c-a) gamma(c-b))
    closed = (
        gamma_real(1.25)
        * gamma_real(0.5)
        / (gamma_real(1.0) * gamma_real(0.75))
    )
    assert v.real == pytest.approx(closed, rel=1e-13)
    assert gauss_kummer_value(QP) == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("abc", [(3.5, -2.2, 1.7), (2.0, -1.5, 1.5), (-3.0, 0.5, 0.7)])
def test_gauss_sum_wherever_gamma_minus_alpha_minus_beta_is_positive(abc):
    # gamma - alpha or gamma - beta may be negative: only their sum matters
    p = GaussParams(*abc)
    with mpmath.workdps(30):
        ref = float(mpmath.hyp2f1(*abc, 1))
    assert abs(gauss_kummer_value(p) - ref) <= 1e-13 * abs(ref)
    v = gauss_2f1(p, 1.0)
    assert v.imag == 0.0 and abs(v.real - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "abc, z",
    [
        ((1.0, 1.0, 100.5), None),  # Gauss's sum itself
        ((1.0, 1.0, 100.5), 0.999999),
        ((0.5, 0.5, 150.2), 0.9999 + 0.001j),
        ((2.5, 1.5, 120.3), -50.0),
        ((2.5, 1.5, 120.3), 3.0 + 1.0j),
        # Gamma(gamma) itself leaves binary64 past gamma ~ 171.6
        ((1.0, 1.0, 200.5), None),
        ((1.0, 1.0, 200.5), 0.999999),
        ((0.25, 0.5, 200.5), 1.0 - 1e-12),
        ((0.25, 0.5, 500.25), None),
        ((0.25, 0.5, 500.25), 0.999999),
        ((-1.5, 2.25, 500.25), None),
        ((-1.5, 2.25, 500.25), 0.9999 + 0.001j),
    ],
)
def test_gamma_quotients_stay_finite_at_large_gamma(abc, z):
    # Gamma(gamma) Gamma(gamma - alpha - beta) alone overflows here, while
    # every connection coefficient and F itself are of order one
    p = GaussParams(*abc)
    v = gauss_kummer_value(p) if z is None else gauss_2f1(p, z)
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(*abc, 1.0 if z is None else z))
    assert cmath.isfinite(v) and abs(v - ref) <= 1e-13 * abs(ref)


def test_gauss_sum_outside_binary64_is_a_domain_error():
    # four factors in binary64 each: the quotient is either returned finite,
    # although Gamma(170.5) Gamma(170.4) alone overflows, or, at ~1e608,
    # raised as a DomainError
    with mpmath.workdps(30):
        ref = float(mpmath.gamma(170.5) * mpmath.gamma(170.4) / (mpmath.gamma(170.3) * mpmath.gamma(1e-300)))
    assert abs(_gauss_sum(170.5, 170.4, 170.3, 1e-300) - ref) <= 1e-13 * ref
    with pytest.raises(DomainError):
        _gauss_sum(170.5, 170.4, 0.001, 0.002)
    # Gamma(v) ~ 1/v overflows for a tiny v
    assert _gauss_sum(3e-310, 2.5, 1e-310, 2.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # a Gamma factor beyond the reach of the recurrence, |v| > 1e4
    with pytest.raises(DomainError):
        gauss_kummer_value(GaussParams(1.0, 1.0, 20000.5))
    with pytest.raises(DomainError):
        _gauss_sum(1e308, 0.5, 1e308, 0.5)


def test_boundary_value_requires_convergence():
    # at z = 1 the series converges only when gamma - alpha - beta > 0
    with pytest.raises(DomainError):
        gauss_2f1(GaussParams(1.0, 1.0, 2.0), 1.0)


def test_rejects_outside_closed_disk():
    # real z > 1 is the cut; 0.8 + 0.9i, once outside the admitted domain,
    # is reached by the 1/z route now
    with pytest.raises(DomainError):
        gauss_2f1(QP, 1.5)
    z = complex(0.8, 0.9)
    assert abs(gauss_2f1(QP, z) - mp_2f1(QP, z)) <= 1e-12 * max(1.0, abs(mp_2f1(QP, z)))


def test_rejects_divergent_circle_point():
    # the series diverges on the unit circle for the logarithmic parameters
    # (1, 1, 2), but 0.6 + 0.8i lies in the re-expansion ball around e^{i pi/3}
    p = GaussParams(1.0, 1.0, 2.0)
    z = complex(0.6, 0.8)
    assert abs(gauss_2f1(p, z) - mp_2f1(p, z)) <= 1e-12 * max(1.0, abs(mp_2f1(p, z)))


# the six parameter families of the benchmark's series workload
FAMILIES = (
    (0.25, 0.5, 1.25),
    (1.0 / 6.0, 0.5, 7.0 / 6.0),
    (0.3, 0.2, 0.7),
    (0.5, 0.5, 1.0),  # gamma - alpha - beta = alpha - beta = 0: logarithmic
    (1.5, 0.7, 2.9),
    (-0.3, 0.55, 1.35),
)


def _grid() -> list[complex]:
    # angles avoid the cut, real z > 1
    ring = [cmath.exp(2j * math.pi * (k + 0.5) / 16) for k in range(16)]
    pts = [r * e for r in (0.3, 0.7, 0.95, 0.999, 1.0) for e in ring]
    pts += [r * e for r in (1.001, 1.5, 4.0, 1e3, 1e8, 1e100, 1e300) for e in ring]
    for centre in (cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)):
        pts += [centre + cmath.rect(r, 0.3 + k * math.pi / 4) for r in (0.0, 0.2, 0.44) for k in range(8)]
    return pts


def test_route_table_matches_mpmath_on_the_cut_plane():
    # every route, the re-expansion balls and |z| up to 1e300; only the
    # logarithmic family may raise, and only off the disk
    raised = 0
    for params in FAMILIES:
        p = GaussParams(*params)
        for z in _grid():
            ref = complex(mpmath.hyp2f1(*params, z))
            try:
                got = gauss_2f1(p, z)
            except DomainError:
                assert params == (0.5, 0.5, 1.0) and abs(z) >= 1.0 - 1e-12, (params, z)
                raised += 1
                continue
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (params, z)
    assert raised < 100


def test_pair_takes_the_side_of_the_cut_from_the_signed_zero():
    # z on the cut: Im z = -0.0 (with Im(1 - z) = +0.0) is the limit from
    # below, +0.0 the limit from above.  z = 3 takes the 1/z route, z = 1.5
    # the 1 - 1/z route, whose Pfaff argument w = 3 sits on the cut as well.
    for params in FAMILIES[:3]:
        p = GaussParams(*params)
        for x in (3.0, 1.5):
            below = complex(mpmath.hyp2f1(*params, mpmath.mpc(x, -1e-30)))
            above = complex(mpmath.hyp2f1(*params, mpmath.mpc(x, 1e-30)))
            assert abs(below - above) > 0.1
            got_below = gauss_2f1_pair(p, complex(x, -0.0), complex(1 - x, 0.0))
            got_above = gauss_2f1_pair(p, complex(x, 0.0), complex(1 - x, -0.0))
            assert abs(got_below - below) <= 1e-12 * abs(below), (params, x)
            assert abs(got_above - above) <= 1e-12 * abs(above), (params, x)


def test_boundary_sum_on_the_unit_circle():
    # integer gamma - alpha - beta > 0 rules out both connections in 1 - z,
    # and these points lie outside the re-expansion balls, so only the
    # direct series summed to its algebraic tail reaches them
    for params in ((0.5, 0.5, 3.0), (0.5, 0.5, 4.0), (0.25, 0.75, 3.0)):
        p = GaussParams(*params)
        for z in (cmath.exp(0.3j), cmath.exp(-0.5j)):
            ref = mp_2f1(p, z)
            assert abs(gauss_2f1(p, z) - ref) <= 1e-10 * abs(ref), (params, z)


def test_domain_errors_that_remain():
    with pytest.raises(DomainError):
        gauss_2f1(QP, 1.5)
    with pytest.raises(DomainError):
        gauss_2f1(GaussParams(0.5, 0.5, 1.0), complex(2.0, 0.5))


def test_overflow_is_a_domain_error():
    # |F| = 7.9e329 here (mpmath, 30 digits): the 1/z route's power (-z)^-a
    # overflows binary64
    with pytest.raises(DomainError):
        gauss_2f1(GaussParams(2.25, -1.25, 2.75), 1e264j)
    # the error contract over a seeded sweep of parameters and of |z| from
    # 1e-300 to 1e300: a finite value, or DomainError or IterationLimitError
    rng = random.Random(11)
    for _ in range(3000):
        p = GaussParams(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        z = cmath.rect(10 ** rng.uniform(-300, 300), rng.uniform(-math.pi, math.pi))
        try:
            value = gauss_2f1(p, z)
        except (DomainError, IterationLimitError):
            continue
        assert cmath.isfinite(value), (p, z)


def test_integer_alpha_off_the_disk_is_finite_and_matches_mpmath():
    # At an integer exponent, complex ** multiplies repeatedly and overflows
    # to NaN where the power itself is finite.  A fixed triple and a seeded
    # sweep of integer alpha, |z| log-uniform in [1, 1e308], against 30-digit
    # mpmath, relative to the value or to the least normal float.
    rng = random.Random(31)
    draws = [(GaussParams(3.0, -0.32163849817441026, -4.429447531648529), 1e308 - 18.98j)]
    draws += [(GaussParams(2.0, 0.4, 1.3), -1e200 + 1e199j)]
    for i in range(400):
        a = rng.choice((1.0, 2.0, 3.0))
        p = GaussParams(2.0, 0.4, 1.3) if i % 2 else GaussParams(a, rng.uniform(-2, 2), rng.uniform(-5, 5))
        draws.append((p, cmath.rect(10 ** rng.uniform(0, 308), rng.uniform(-math.pi, math.pi))))
    returned = 0
    with mpmath.workdps(30):
        for p, z in draws:
            try:
                value = gauss_2f1(p, z)
            except DomainError:
                continue
            returned += 1
            assert cmath.isfinite(value), (p, z)
            ref = mpmath.hyp2f1(p.alpha, p.beta, p.gamma, mpmath.mpc(z))
            assert abs(mpmath.mpc(value) - ref) <= 1e-12 * max(abs(ref), 2.2250738585072014e-308), (p, z)
    assert returned > 350


def test_a_zero_connection_coefficient_is_left_out_before_its_power():
    # At a nonpositive integer alpha a connection coefficient is 1/Gamma at a
    # pole, exactly 0; its term is left out before its power, which can leave
    # binary64 where F, a polynomial of degree -alpha in z, does not.
    p = GaussParams(-1.0, -2.2967823649161234, 2.6878100980852295)
    z = 2.579457191722916e141 - 1.1346274511343846e141j
    exact = 1.0 - p.beta * z / p.gamma
    assert abs(gauss_2f1(p, z) - exact) <= 1e-14 * abs(exact)


def test_integer_alpha_far_off_the_disk_matches_mpmath():
    # a seeded sweep of alpha in {-1, -2, -3} and |z| up to 10^(300/|alpha|)
    # against 30-digit mpmath; only the logarithmic cases, where no route
    # converges, may still raise
    rng = random.Random(47)
    returned = 0
    with mpmath.workdps(30):
        for _ in range(600):
            a = rng.choice((-1.0, -2.0, -3.0))
            p = GaussParams(a, rng.uniform(-3, 3), rng.uniform(-3, 3))
            z = cmath.rect(10 ** rng.uniform(0, 300 / -a), rng.uniform(-math.pi, math.pi))
            try:
                value = gauss_2f1(p, z)
            except DomainError as e:
                assert str(e).startswith("no 2F1 route converges"), (p, z, e)
                continue
            returned += 1
            ref = mpmath.hyp2f1(p.alpha, p.beta, p.gamma, mpmath.mpc(z))
            assert abs(mpmath.mpc(value) - ref) <= 1e-12 * abs(ref), (p, z)
    assert returned > 500


def test_unit_circle_points():
    p = QP
    rng = random.Random(82)
    for _ in range(20):
        phi = rng.uniform(0.05, 1.95) * math.pi
        z = cmath.exp(1j * phi)
        if abs(z - 1) < 0.1:
            continue
        assert gauss_2f1(p, z) == pytest.approx(mp_2f1(p, z), rel=1e-11)


def test_ode_residual_finite_differences():
    """z(1-z) F'' + (c - (a+b+1) z) F' - a b F = 0 via central differences.

    The step is chosen to balance the h^2 truncation error of the stencil
    against the 4 eps / h^2 roundoff floor of binary64.
    """
    h = 3e-4
    rng = random.Random(83)
    for p in (QP, SP):
        a, b, c = p.alpha, p.beta, p.gamma
        for _ in range(25):
            x = rng.uniform(0.05, 0.85)
            fm, f0, fp = (gauss_2f1(p, x + k * h) for k in (-1, 0, 1))
            d1 = (fp - fm) / (2 * h)
            d2 = (fp - 2 * f0 + fm) / (h * h)
            res = x * (1 - x) * d2 + (c - (a + b + 1) * x) * d1 - a * b * f0
            assert abs(res) < 1e-6


def test_contiguous_in_argument_symmetry():
    # swapping the two numerator parameters leaves the series unchanged
    rng = random.Random(84)
    for _ in range(30):
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.6, 3.0)
        z = rng.uniform(-0.8, 0.8)
        assert gauss_2f1(GaussParams(a, b, c), z) == pytest.approx(
            gauss_2f1(GaussParams(b, a, c), z), rel=1e-14
        )


def test_schwarz_map_fixed_points():
    assert schwarz_map(QUARTIC, 1.0) == 0.0
    assert schwarz_map(SEXTIC, 1.0) == 0.0


def test_schwarz_map_limit_at_zero_quartic():
    # the defect decays like 0.19 sqrt(x), so x = 1e-8 sits within 2e-5
    s = schwarz_map(QUARTIC, 1e-8)
    assert abs(s - 0.5j) < 1e-4
    assert abs(schwarz_map(QUARTIC, 1e-10) - 0.5j) < abs(s - 0.5j)


def test_schwarz_map_limit_at_zero_sextic():
    zeta_half = complex(0.25, math.sqrt(3.0) / 4.0)
    assert abs(schwarz_map(SEXTIC, 1e-8) - zeta_half) < 1e-4


def test_schwarz_map_interval_is_vertical():
    # on (0, 1) the image stays on the positive imaginary axis
    rng = random.Random(85)
    for _ in range(40):
        x = rng.uniform(0.01, 0.99)
        s = schwarz_map(QUARTIC, x)
        assert abs(s.real) < 1e-10 * abs(s)
        assert s.imag > 0.0


def _schwarz_closed_form(v, x):
    # (x - 1)^a F(1/2, a; 1 + a; 1 - x) / (a N) at 30 digits, principal branches
    with mpmath.workdps(30):
        a = mpmath.mpf(1) / v.root_order
        if v is QUARTIC:
            n = (1 - 1j) * mpmath.beta(a, a)
        else:
            n = (1 - mpmath.exp(2j * mpmath.pi / 3)) * mpmath.beta(2 * a, a)
        x = mpmath.mpc(x)
        return complex((x - 1) ** a * mpmath.hyp2f1(0.5, a, 1 + a, 1 - x) / (a * n))


def test_schwarz_map_beyond_the_disk_matches_abel_jacobi_and_mpmath():
    # the map is the principal sheet of the Abel-Jacobi map on the whole
    # plane, not only on |1 - x| < 1; at 2.5 the two agree bit for bit
    rng = random.Random(151)
    for v, curve in ((QUARTIC, Curve.C_I), (SEXTIC, Curve.C_ZETA)):
        assert schwarz_map(v, 2.5) == abel_jacobi(lift_branch(curve, 2.5)).z
        # 1 - x on a seeded annulus 1 <= |1 - x| <= 8, all outside the old disk
        outside = [1 - rng.uniform(1.0, 8.0) * cmath.exp(2j * math.pi * rng.random()) for _ in range(40)]
        for x in [2.5, *outside]:
            s = schwarz_map(v, x)
            assert lattice_distance(curve.modulus, s, abel_jacobi(lift_branch(curve, x)).z) < 1e-14, x
            assert abs(s - _schwarz_closed_form(v, x)) < 1e-14, x


def test_schwarz_map_real_line_maps_onto_the_triangle():
    # from the upper side, (-inf, 0), (0, 1) and (1, inf) land on the three
    # sides of the triangle whose corners are the images of 0, 1 and infinity
    zeta = cmath.exp(1j * math.pi / 3)
    rng = random.Random(152)
    for v, (c0, c1, cinf) in ((QUARTIC, (0.5j, 0j, (1 + 1j) / 2)), (SEXTIC, (zeta / 2, 0j, (1 + zeta) / 3))):
        assert abs(schwarz_map(v, 0.0) - c0) < 1e-15
        assert schwarz_map(v, 1.0) == c1
        assert abs(schwarz_map(v, 1e300) - cinf) < 1e-15
        sides = (
            (lambda u: -(10.0 ** u), cinf, c0),
            (lambda u: 1.0 / (1.0 + 10.0 ** -u), c0, c1),
            (lambda u: 1.0 + 10.0 ** u, c1, cinf),
        )
        for x_of, p, q in sides:
            for _ in range(30):
                x = x_of(rng.uniform(-12.0, 12.0))
                s = schwarz_map(v, x)
                assert schwarz_map(v, complex(x, -0.0)) == s  # a zero Im x takes the upper side
                along = (s - p) * (q - p).conjugate() / abs(q - p) ** 2
                assert abs(along.imag) < 1e-14 and -1e-14 < along.real < 1 + 1e-14, (v, x)


def test_argument_modulus_outside_binary64_is_a_domain_error():
    # abs(z) itself overflows past 1.8e308, and a non-finite x has no value
    for z in (complex(1.7e308, 1.7e308), complex(-1.7e308, -1.7e308)):
        with pytest.raises(DomainError):
            gauss_2f1(QP, z)
        with pytest.raises(DomainError):
            schwarz_map(QUARTIC, z)
    for x in (math.inf, math.nan, complex(1.0, -math.inf)):
        with pytest.raises(DomainError):
            schwarz_map(SEXTIC, x)


def test_quadratic_argument_rewrite_quartic():
    """Degree two rewrite for the (1/4, 1/2, 5/4) series near x = 1.

    The rewritten argument 1 - ((2-x)/x)^2 leaves the unit disk for
    small x, which exercises the analytic continuation path as well.
    """
    p = QP
    rng = random.Random(86)
    for _ in range(50):
        x = rng.uniform(0.7, 1.3)
        if abs(x - 1.0) < 1e-6:
            continue
        lhs = gauss_2f1(p, 1.0 - x)
        rhs = gauss_2f1(p, 1.0 - ((2.0 - x) / x) ** 2) / math.sqrt(x)
        assert abs(lhs - rhs) < 1e-10


def test_cubic_argument_rewrite_sextic():
    """Degree three rewrite for the (1/6, 1/2, 7/6) series near x = 1.

    Valid on a neighbourhood where x (9-8x)^2 / (4x-3)^3 stays clear of
    the ramification value 0; the window below keeps the rewritten
    argument inside the disk of convergence.
    """
    p = SP
    rng = random.Random(87)
    for _ in range(50):
        x = rng.uniform(0.8, 1.12)
        if abs(x - 1.0) < 1e-6:
            continue
        lhs = gauss_2f1(p, 1.0 - x)
        xp = x * (9.0 - 8.0 * x) ** 2 / (4.0 * x - 3.0) ** 3
        rhs = gauss_2f1(p, 1.0 - xp) / math.sqrt(4.0 * x - 3.0)
        assert abs(lhs - rhs) < 1e-10
