"""Tests for the two quotient curves: lifts, Abel-Jacobi, theta inverses,
ratio identities, complex multiplication, and the group-equivalence witness."""

from __future__ import annotations

import cmath
import math
import random
import warnings

import mpmath
import pytest

from lemnis.curves import (
    CurvePoint,
    abel_jacobi,
    equivalent_mod_group,
    inverse_quartic,
    inverse_sextic,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    special_point,
)
from lemnis.curves import _curve_residual, _quartic_with_thetas, _sextic_with_thetas
from lemnis.hypergeometric import SchwarzVariant, schwarz_map
from lemnis.numerics import ZETA, DomainError, beta
from lemnis.theta import (
    Modulus,
    TAU_I,
    TAU_ZETA,
    canonical_torus_point,
    lattice_distance,
)
import lemnis.verify as verify_mod
from lemnis.verify import (
    hgf_theta_roundtrip,
    inverse_quartic_t_routes,
    one_form_constant,
    ratio_identities_quartic,
    ratio_identities_sextic,
)

SQRT2 = math.sqrt(2.0)


def _cpt(mod, z):
    return canonical_torus_point(mod, z)


# ---------------------------------------------------------------------------
# Curve data and point validation.


def test_curve_enum_data():
    assert SchwarzVariant.QUARTIC.root_order == 4
    assert SchwarzVariant.SEXTIC.root_order == 6
    assert SchwarzVariant.QUARTIC.unit == 1j
    assert abs(SchwarzVariant.SEXTIC.unit - ZETA) < 1e-15
    assert SchwarzVariant.QUARTIC.modulus is TAU_I
    assert SchwarzVariant.SEXTIC.modulus is TAU_ZETA


def test_curve_point_checks_equation():
    CurvePoint(SchwarzVariant.QUARTIC, 2.0, SQRT2)
    CurvePoint(SchwarzVariant.SEXTIC, 2.0, SQRT2)
    with pytest.raises(DomainError):
        CurvePoint(SchwarzVariant.QUARTIC, 2.0, 1.5)
    with pytest.raises(DomainError):
        CurvePoint(SchwarzVariant.SEXTIC, 2.0, 1.4 + 0.2j)
    # points over t = infinity skip the affine equation
    CurvePoint(SchwarzVariant.QUARTIC, 0.0, 0.0, at_infinity=True, branch=3)
    # non-finite coordinates give a NaN residual, which is rejected too
    with pytest.raises(DomainError):
        CurvePoint(SchwarzVariant.QUARTIC, math.nan, math.nan)
    with pytest.raises(DomainError):
        CurvePoint(SchwarzVariant.SEXTIC, math.inf, math.inf)


def test_curve_check_is_overflow_safe():
    # fourth and sixth powers of these coordinates leave binary64; the check
    # scales them first and the lifted points are on the curve
    for curve, t in ((SchwarzVariant.QUARTIC, 1e110), (SchwarzVariant.SEXTIC, 1e80), (SchwarzVariant.QUARTIC, -1e300 + 1e300j),
                     (SchwarzVariant.SEXTIC, 1e308), (SchwarzVariant.SEXTIC, -3e200j)):
        for k in range(curve.root_order):
            p = lift_branch(curve, t, k)
            assert _curve_residual(p) <= 1e-10
    with pytest.raises(DomainError):
        CurvePoint(SchwarzVariant.QUARTIC, 1e110, 1e83)
    with pytest.raises(DomainError):
        CurvePoint(SchwarzVariant.SEXTIC, 1e80, 2e53j)
    # below modulus 1 nothing is scaled: the residual is the plain formula
    p = lift_branch(SchwarzVariant.SEXTIC, 0.3 - 0.4j, 1)
    t, u = p.t, p.u
    assert abs(u) < 1.0
    assert _curve_residual(p) == abs(u ** 6 - t ** 3 * (t - 1)) / max(abs(u) ** 6, abs(t) ** 4, 1.0)


def test_special_points():
    for name in ("P1", "P01", "P02", "Pinf"):
        special_point(SchwarzVariant.QUARTIC, name)
    for name in ("P1", "P01", "P02", "P03", "Pinf1", "Pinf2"):
        special_point(SchwarzVariant.SEXTIC, name)
    p = special_point(SchwarzVariant.QUARTIC, "Pinf")
    assert p.at_infinity
    with pytest.raises(DomainError):
        special_point(SchwarzVariant.QUARTIC, "P03")
    with pytest.raises(DomainError):
        special_point(SchwarzVariant.SEXTIC, "Pinf")


def test_lift_branch_examples():
    p = lift_branch(SchwarzVariant.QUARTIC, 2.0, 0)
    assert abs(p.u - SQRT2) < 1e-14
    p = lift_branch(SchwarzVariant.QUARTIC, 2.0, 1)
    assert abs(p.u - 1j * SQRT2) < 1e-14
    p = lift_branch(SchwarzVariant.SEXTIC, 2.0, 0)
    assert abs(p.u - SQRT2) < 1e-14
    # principal sheet is real positive on (1, infinity)
    for t in (1.5, 3.0, 10.0):
        for curve in (SchwarzVariant.QUARTIC, SchwarzVariant.SEXTIC):
            u = lift_branch(curve, t, 0).u
            assert abs(u.imag) < 1e-14 and u.real > 0
    # sheet index wraps modulo the root order
    assert abs(lift_branch(SchwarzVariant.QUARTIC, 2.0, 5).u - lift_branch(SchwarzVariant.QUARTIC, 2.0, 1).u) < 1e-14


def test_signed_zero_on_the_cuts_takes_the_upper_side():
    # t = x +- 0.0 on both cuts, x < 0 and 0 < x < 1, on every sheet: one u,
    # one Abel-Jacobi image, and that u is the limit from Im t > 0
    for curve in SchwarzVariant:
        for x in (-1e6, -2.0, -0.5, 0.25, 0.5, 0.9):
            for k in range(curve.root_order):
                up, down = (lift_branch(curve, complex(x, y), k) for y in (0.0, -0.0))
                assert up.u == down.u and abel_jacobi(up) == abel_jacobi(down), (curve, x, k)
                near = lift_branch(curve, complex(x, 1e-13), k)
                assert abs(near.u - up.u) <= 1e-9 * abs(up.u), (curve, x, k)


def test_lift_branch_rejects_ramification():
    with pytest.raises(DomainError):
        lift_branch(SchwarzVariant.QUARTIC, 0.0)
    with pytest.raises(DomainError):
        lift_branch(SchwarzVariant.SEXTIC, 1.0)


# ---------------------------------------------------------------------------
# Abel-Jacobi map.


def test_abel_jacobi_special_images():
    cases = [
        (SchwarzVariant.QUARTIC, "P1", 0j),
        (SchwarzVariant.QUARTIC, "P01", 0.5j),
        (SchwarzVariant.QUARTIC, "P02", 0.5 + 0j),
        (SchwarzVariant.QUARTIC, "Pinf", (1 + 1j) / 2),
        (SchwarzVariant.SEXTIC, "P1", 0j),
        (SchwarzVariant.SEXTIC, "P01", ZETA / 2),
        (SchwarzVariant.SEXTIC, "Pinf1", (ZETA + 1) / 3),
        (SchwarzVariant.SEXTIC, "Pinf2", 2 * (ZETA + 1) / 3),
    ]
    for curve, name, target in cases:
        zp = abel_jacobi(special_point(curve, name))
        assert lattice_distance(curve.modulus, zp.z, target) < 1e-8, (curve, name)


def test_abel_jacobi_equivariance():
    # rotating the fiber multiplies the image by the same unit power
    for curve, t in ((SchwarzVariant.QUARTIC, 2.5), (SchwarzVariant.QUARTIC, -0.8 + 0.4j), (SchwarzVariant.SEXTIC, 2.5)):
        base = abel_jacobi(lift_branch(curve, t, 0)).z
        for k in range(1, curve.root_order):
            zk = abel_jacobi(lift_branch(curve, t, k)).z
            assert lattice_distance(curve.modulus, zk, curve.unit ** k * base) < 1e-9


def test_abel_jacobi_accepts_every_sheet():
    p = lift_branch(SchwarzVariant.QUARTIC, 2.0, 0)
    for k in range(4):
        abel_jacobi(CurvePoint(SchwarzVariant.QUARTIC, p.t, p.u * 1j ** k))


def test_roundtrip_quartic():
    rng = random.Random(401)
    n = 0
    while n < 15:
        z = complex(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        zp = _cpt(TAU_I, z)
        p = inverse_quartic(zp)
        if p.at_infinity or abs(p.t) < 0.05 or abs(p.t - 1) < 0.05:
            continue
        back = abel_jacobi(p)
        assert lattice_distance(TAU_I, back.z, zp.z) < 1e-8
        n += 1


def test_roundtrip_sextic():
    rng = random.Random(601)
    n = 0
    while n < 15:
        a, b = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        zp = _cpt(TAU_ZETA, a * TAU_ZETA.value + b)
        p = inverse_sextic(zp)
        if p.at_infinity or abs(p.t) < 0.05 or abs(p.t - 1) < 0.05 or abs(4 * p.t - 3) < 0.05:
            continue
        back = abel_jacobi(p)
        assert lattice_distance(TAU_ZETA, back.z, zp.z) < 1e-8
        n += 1


def _one_form_along(vertices: list[complex]) -> complex:
    # mpmath.quad of the quartic 1-form s^(-1/2) (s - 1)^(-3/4) ds along the
    # polyline from the base point 1 through the vertices.  The first leg
    # leaves t = 1 on a ray, s = 1 + d x^4, which flattens the (s - 1)-power
    # to 4 d^(1/4) with arg(s - 1) = arg d; after that the logarithms of s
    # and s - 1 are carried across each straight leg as Log(s / A) and
    # Log((s - 1) / (A - 1)), which stay continuous because a segment from
    # ratio 1 reaches the negative axis only through 0.
    with mpmath.workdps(20):
        d = mpmath.mpc(vertices[0]) - 1
        arg_w = mpmath.arg(d)
        root = mpmath.exp((mpmath.log(abs(d)) + 1j * arg_w) / 4)
        total = 4 * root * mpmath.quad(lambda x: (1 + d * x ** 4) ** -0.5, [0, 1])
        a = 1 + d
        log_t, log_w = mpmath.log(a), mpmath.log(abs(d)) + 1j * arg_w
        for b in vertices[1:]:
            step = mpmath.mpc(b) - a

            def f(x, a=a, step=step, log_t=log_t, log_w=log_w):
                lt = log_t + mpmath.log(1 + x * step / a)
                lw = log_w + mpmath.log(1 + x * step / (a - 1))
                return mpmath.exp(-0.5 * lt - 0.75 * lw) * step

            total += mpmath.quad(f, [0, 1])
            log_t += mpmath.log(1 + step / a)
            log_w += mpmath.log(1 + step / (a - 1))
            a = a + step
        return complex(total)


def test_period_normalization_by_quadrature():
    # Two homotopy classes of path from the base point to t = -2, plus a
    # third with an extra turn around t = 0.  Each pair is related by an
    # affine deck map z -> eps z + s measured from the quadratures alone.
    # The elementary loop gives s = i, the vertical period; composing the
    # two measured maps leaves the pure translation by the horizontal
    # period, recovering the lattice {1, i} numerically.
    norm = SchwarzVariant.QUARTIC.normalization
    zd = _one_form_along([1 - 0.9j, -2 + 0j]) / norm
    zu = _one_form_along([1 + 0.9j, -2 + 0j]) / norm
    zx = _one_form_along(
        [1 + 0.9j, -0.6 + 0.9j, -0.6 - 0.9j, 0.6 - 0.9j, 0.6 + 0.9j, -2 + 0.9j, -2 + 0j]
    ) / norm
    s1 = zu + 1j * zd
    s2 = zx - 1j * zd
    assert abs(s1 - 1j) < 1e-9
    assert abs(s2) < 1e-9
    assert abs(1j * s1 + s2 + 1) < 1e-9


def test_roundtrip_grid_every_sheet():
    # lift -> Abel-Jacobi -> theta inverse recovers the point on every
    # sheet, from next to t = 0 out to |t| = 1e6, cut included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for curve, inverse in ((SchwarzVariant.QUARTIC, inverse_quartic), (SchwarzVariant.SEXTIC, inverse_sextic)):
            for k in range(curve.root_order):
                for r in (1e-3, 0.1, 0.9, 1.1, 10.0, 1e3, 1e6):
                    for arg in (0.0, 2.0, math.pi, -1.2):
                        p = lift_branch(curve, cmath.rect(r, arg), k)
                        q = inverse(abel_jacobi(p))
                        assert abs(q.t - p.t) <= 1e-8 * abs(p.t), (curve, k, r, arg)
                        assert abs(q.u - p.u) <= 1e-8 * abs(p.u), (curve, k, r, arg)


# The images the adaptive Gauss-Kronrod quadrature gave for the first fiber
# points over t = 0 and t = infinity, before the closed form replaced it.
_QUADRATURE_IMAGES = {
    (SchwarzVariant.QUARTIC, "P01"): 0.49999999999999983j,
    (SchwarzVariant.QUARTIC, "Pinf"): 0.4999999999999999 + 0.4999999999999999j,
    (SchwarzVariant.SEXTIC, "P01"): 0.24999999999999994 + 0.43301270189221913j,
    (SchwarzVariant.SEXTIC, "Pinf1"): 0.4999999999999999 + 0.2886751345948128j,
}


def test_special_images_keep_the_quadrature_values():
    for (curve, name), z in _QUADRATURE_IMAGES.items():
        got = abel_jacobi(special_point(curve, name)).z
        assert lattice_distance(curve.modulus, got, z) <= 1e-15, (curve, name)


def _assert_roundtrips(ts):
    for curve, inverse in ((SchwarzVariant.QUARTIC, inverse_quartic), (SchwarzVariant.SEXTIC, inverse_sextic)):
        for t in ts:
            for k in range(curve.root_order):
                p = lift_branch(curve, t, k)
                q = inverse(abel_jacobi(p))
                assert abs(q.t - p.t) <= 1e-8 * abs(p.t), (curve, t, k)
                assert abs(q.u - p.u) <= 1e-8 * abs(p.u), (curve, t, k)


def test_roundtrip_on_both_sides_of_the_cuts():
    # t = +-x +- 0.0 puts t on the cut of t^(1/2) (x < 0 side) or of
    # (t - 1)^(1/k) (0 < t < 1); both signed zeros lift to the upper side,
    # and each must come back as it went in
    xs = [10.0 ** e for e in (-12, -9, -6, -3, -0.5, 0.5, 3, 6, 9, 12)]
    _assert_roundtrips([complex(sx * x, sy * 0.0) for x in xs for sx in (1, -1) for sy in (1, -1)])
    _assert_roundtrips([complex(1 + x, sy * 0.0) for x in xs for sy in (1, -1)])


def test_roundtrip_next_to_the_reexpansion_points():
    # t = e^{+-i pi/3} is where 1 - t sits at e^{-+i pi/3}, inside the 2F1
    # re-expansion balls
    ts = [
        cmath.exp(s * 1j * math.pi / 3) + cmath.rect(r, phi)
        for s in (1, -1)
        for r in (0.0, 0.1, 0.3)
        for phi in (0.0, 1.6, 3.2, 4.8)
    ]
    _assert_roundtrips(ts)


def test_roundtrip_at_large_t():
    _assert_roundtrips([1e6, 1e9, 1e12, -1e9, 1e12j])


def test_abel_jacobi_matches_the_mpmath_closed_form_at_huge_t():
    # Past |t| ~ 1e24 the theta inverse puts the image at infinity in
    # binary64, so compare with (t - 1)^a / a F(1/2, a; 1 + a; 1 - t) / norm
    # directly.  mpmath takes F on the cut t < 0 from a point just above it.
    for curve in SchwarzVariant:
        a = curve.exponent
        for t in (1e100, 1e300, -1e300, 1e300j):
            with mpmath.workdps(30):
                tm = mpmath.mpc(t) + (1j * abs(t) * mpmath.mpf(10) ** -25 if t.real < 0 else 0)
                ref = (tm - 1) ** a / a * mpmath.hyp2f1(0.5, a, 1 + a, 1 - tm) / curve.normalization
                ref = complex(ref)
            for k in range(curve.root_order):
                got = abel_jacobi(lift_branch(curve, t, k)).z
                assert lattice_distance(curve.modulus, got, curve.unit ** k * ref) <= 1e-14, (curve, t, k)


# ---------------------------------------------------------------------------
# Theta inverses.


def test_inverse_quartic_examples():
    p = inverse_quartic(_cpt(TAU_I, 0j))
    assert abs(p.t - 1) < 1e-12 and abs(p.u) < 1e-12
    p = inverse_quartic(_cpt(TAU_I, 0.5j))
    assert abs(p.t) < 1e-12 and abs(p.u) < 1e-12
    p = inverse_quartic(_cpt(TAU_I, (1 + 1j) / 2))
    assert p.at_infinity
    p = inverse_quartic(_cpt(TAU_I, (1 + 1j) / 2 + 1e-11))
    assert p.at_infinity


def test_inverse_sextic_examples():
    p = inverse_sextic(_cpt(TAU_ZETA, 0j))
    assert abs(p.t - 1) < 1e-12 and abs(p.u) < 1e-12
    p = inverse_sextic(_cpt(TAU_ZETA, ZETA / 2))
    assert abs(p.t) < 1e-12
    p1 = inverse_sextic(_cpt(TAU_ZETA, (ZETA + 1) / 3))
    p2 = inverse_sextic(_cpt(TAU_ZETA, 2 * (ZETA + 1) / 3))
    assert p1.at_infinity and p1.branch == 0
    assert p2.at_infinity and p2.branch == 1


def test_inverse_dual_t_routes_agree():
    rng = random.Random(91)
    for _ in range(20):
        z = complex(rng.uniform(0.02, 0.95), rng.uniform(0.02, 0.95))
        tp, tq = inverse_quartic_t_routes(_cpt(TAU_I, z))
        assert abs(tp - tq) < 1e-10


def test_inverse_modulus_guard():
    with pytest.raises(DomainError):
        inverse_quartic(_cpt(TAU_ZETA, 0.2 + 0.2j))
    with pytest.raises(DomainError):
        inverse_sextic(_cpt(TAU_I, 0.2 + 0.2j))


def test_inverse_matches_lifted_points():
    rng = random.Random(17)
    for _ in range(8):
        t = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(t) < 0.2 or abs(t - 1) < 0.2:
            continue
        for curve, inv in ((SchwarzVariant.QUARTIC, inverse_quartic), (SchwarzVariant.SEXTIC, inverse_sextic)):
            p = lift_branch(curve, t, rng.randrange(curve.root_order))
            q = inv(abel_jacobi(p))
            assert abs(q.t - p.t) < 1e-10 * max(1.0, abs(p.t))
            assert abs(q.u - p.u) < 1e-10 * max(1.0, abs(p.u))


def test_t_coordinate_invariant_under_unit_rotation():
    rng = random.Random(23)
    for _ in range(10):
        z = complex(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.4))
        t1 = inverse_quartic(_cpt(TAU_I, z)).t
        t2 = inverse_quartic(_cpt(TAU_I, 1j * z)).t
        assert abs(t1 - t2) < 1e-10
        s1 = inverse_sextic(_cpt(TAU_ZETA, z)).t
        s2 = inverse_sextic(_cpt(TAU_ZETA, ZETA * z)).t
        assert abs(s1 - s2) < 1e-10


# ---------------------------------------------------------------------------
# Ratio identities.


def test_ratio_identities_quartic_generic():
    rng = random.Random(37)
    for _ in range(10):
        z = complex(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9))
        zp = _cpt(TAU_I, z)
        if inverse_quartic(zp).at_infinity:
            continue
        for pair in ratio_identities_quartic(*_quartic_with_thetas(zp)):
            assert pair.residual < 1e-10, pair.name


def test_ratio_identities_quartic_degenerate():
    # at z = i/2 the ratio tends to -1, so 1 + r vanishes
    pairs = {p.name: p for p in ratio_identities_quartic(*_quartic_with_thetas(_cpt(TAU_I, 0.5j)))}
    assert abs(pairs["i_u2_over_t"].lhs + 1) < 1e-12
    assert abs(pairs["one_plus"].lhs) < 1e-12
    assert abs(pairs["one_minus"].lhs - 2) < 1e-12
    for p in pairs.values():
        assert p.residual < 1e-10


def test_ratio_identities_sextic_generic():
    rng = random.Random(53)
    n = 0
    while n < 10:
        a, b = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
        zp = _cpt(TAU_ZETA, a * TAU_ZETA.value + b)
        p = inverse_sextic(zp)
        if p.at_infinity or abs(p.t) < 1e-3:
            continue
        pairs = {q.name: q for q in ratio_identities_sextic(*_sextic_with_thetas(zp))}
        for q in pairs.values():
            assert q.residual < 1e-10, q.name
        triple = pairs["triple_product"]
        # 1 + 1/(t - 1), with t - 1 read off the curve equation as u^6/t^3
        # within 0.05 of t = 1, where the stored t has lost digits to it
        tm1 = p.u ** 6 / p.t ** 3 if abs(p.t - 1) < 0.05 else p.t - 1
        assert abs(triple.rhs - (1 + 1 / tm1)) < 1e-12
        n += 1


def test_ratio_identities_sextic_degenerate():
    # at z = zeta/2 the first factor becomes 1 - omega with omega = zeta^2
    pairs = {p.name: p for p in ratio_identities_sextic(*_sextic_with_thetas(_cpt(TAU_ZETA, ZETA / 2)))}
    omega = ZETA * ZETA
    assert abs(pairs["one_plus_r"].lhs - (1 - omega)) < 1e-12
    for p in pairs.values():
        assert p.residual < 1e-10


def test_ratio_identities_reject_poles_and_base():
    with pytest.raises(DomainError):
        ratio_identities_quartic(*_quartic_with_thetas(_cpt(TAU_I, (1 + 1j) / 2)))
    with pytest.raises(DomainError):
        ratio_identities_sextic(*_sextic_with_thetas(_cpt(TAU_ZETA, (ZETA + 1) / 3)))
    with pytest.raises(DomainError):
        ratio_identities_sextic(*_sextic_with_thetas(_cpt(TAU_ZETA, 0j)))


# ---------------------------------------------------------------------------
# Multiplication maps.


def test_mul_quartic_examples():
    fixed = mul_one_plus_i(special_point(SchwarzVariant.QUARTIC, "P1"))
    assert abs(fixed.t - 1) < 1e-14 and abs(fixed.u) < 1e-14
    q = mul_one_plus_i(CurvePoint(SchwarzVariant.QUARTIC, 2.0, SQRT2))
    assert abs(q.t) < 1e-14 and abs(q.u) < 1e-14
    assert mul_one_plus_i(special_point(SchwarzVariant.QUARTIC, "P01")).at_infinity
    back = mul_one_plus_i(special_point(SchwarzVariant.QUARTIC, "Pinf"))
    assert not back.at_infinity and abs(back.t - 1) < 1e-14
    with pytest.raises(DomainError):
        mul_one_plus_i(lift_branch(SchwarzVariant.SEXTIC, 2.0))


def test_mul_sextic_examples():
    fixed = mul_one_plus_zeta(special_point(SchwarzVariant.SEXTIC, "P1"))
    assert abs(fixed.t - 1) < 1e-14 and abs(fixed.u) < 1e-14
    q = mul_one_plus_zeta(lift_branch(SchwarzVariant.SEXTIC, 9.0 / 8.0))
    assert abs(q.t) < 1e-12
    assert mul_one_plus_zeta(lift_branch(SchwarzVariant.SEXTIC, 0.75)).at_infinity
    with pytest.raises(DomainError):
        mul_one_plus_zeta(lift_branch(SchwarzVariant.QUARTIC, 2.0))


def test_mul_image_stays_on_curve():
    rng = random.Random(71)
    for _ in range(25):
        t = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(t) < 0.1 or abs(t - 1) < 0.1 or abs(4 * t - 3) < 0.1:
            continue
        # CurvePoint.__post_init__ re-checks the curve equation
        mul_one_plus_i(lift_branch(SchwarzVariant.QUARTIC, t, 1))
        mul_one_plus_zeta(lift_branch(SchwarzVariant.SEXTIC, t, 2))


def test_mul_maps_at_huge_t():
    # both maps go through a ratio r of two linear forms in t, so no power
    # of t overflows: at |t| = 1e200 and 1e300 the image sits at t = 1 to
    # binary64, the point that (1 + unit) z, near the image of infinity,
    # lands on modulo the group
    for curve, mul in ((SchwarzVariant.QUARTIC, mul_one_plus_i), (SchwarzVariant.SEXTIC, mul_one_plus_zeta)):
        for size in (1e200, 1e300):
            for j in range(4):
                t = cmath.rect(size, -math.pi + 2 * math.pi * (j + 0.5) / 4)
                for k in range(curve.root_order):
                    p = lift_branch(curve, t, k)
                    image = mul(p)
                    assert image.t == 1 and not image.at_infinity
                    target = _cpt(curve.modulus, (1 + curve.unit) * abel_jacobi(p).z)
                    w = equivalent_mod_group(abel_jacobi(image), target)
                    assert w.equivalent and w.distance < 1e-14, (curve, t, k)


def test_mul_one_plus_zeta_at_the_top_of_the_range():
    # 8t and 4t - 3 overflow above |t| ~ 2.2e307, so the map scales t and u
    # by a power of two first
    for t in (1e308, -1e308, 1e308j):
        for k in range(6):
            p = lift_branch(SchwarzVariant.SEXTIC, t, k)
            image = mul_one_plus_zeta(p)
            assert abs(image.t - 1) < 1e-300 and not image.at_infinity
            target = _cpt(TAU_ZETA, (1 + ZETA) * abel_jacobi(p).z)
            w = equivalent_mod_group(abel_jacobi(image), target)
            assert w.equivalent and w.distance < 1e-14, (t, k)


def test_abel_jacobi_on_mul_images_next_to_t_one():
    # (1 + zeta) maps |t| = 3.6e5 to within about 3e-12 of t = 1, where the
    # stored t - 1 is only good to about 1e-4 relative; the sheet match
    # widens by that rounding, and the image stays group-equivalent to
    # (1 + zeta) z up to the error t carries
    for j in range(12):
        t = cmath.rect(3.6e5, -math.pi + 2 * math.pi * (j + 0.5) / 12)
        for k in range(6):
            p = lift_branch(SchwarzVariant.SEXTIC, t, k)
            image = mul_one_plus_zeta(p)
            assert 1e-12 < abs(image.t - 1) < 1e-10
            z_img = abel_jacobi(image)
            target = _cpt(TAU_ZETA, (1 + ZETA) * abel_jacobi(p).z)
            assert equivalent_mod_group(z_img, target, tol=1e-6).equivalent, (j, k)


def test_mul_pushes_abel_jacobi_forward():
    rng = random.Random(83)
    for curve, mul in ((SchwarzVariant.QUARTIC, mul_one_plus_i), (SchwarzVariant.SEXTIC, mul_one_plus_zeta)):
        n = 0
        while n < 5:
            t = complex(rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 1.5))
            if abs(t) < 0.25 or abs(t - 1) < 0.25 or abs(4 * t - 3) < 0.2:
                continue
            p = lift_branch(curve, t, rng.randrange(curve.root_order))
            q = mul(p)
            if q.at_infinity or abs(q.t) > 50:
                continue
            z1 = abel_jacobi(p)
            z2 = abel_jacobi(q)
            target = _cpt(curve.modulus, (1 + curve.unit) * z1.z)
            w = equivalent_mod_group(z2, target)
            assert w.equivalent and w.distance < 1e-8
            n += 1


def test_double_mul_is_multiplication_by_2i():
    rng = random.Random(97)
    n = 0
    while n < 10:
        t = complex(rng.uniform(-1.5, 2.5), rng.uniform(-1.2, 1.2))
        if abs(t) < 0.3 or abs(t - 1) < 0.3 or abs(t - 2) < 0.2:
            continue
        p = lift_branch(SchwarzVariant.QUARTIC, t)
        pp = mul_one_plus_i(mul_one_plus_i(p))
        if pp.at_infinity or abs(pp.t) > 50:
            continue
        z1 = abel_jacobi(p)
        z2 = abel_jacobi(pp)
        target = _cpt(TAU_I, 2j * z1.z)
        w = equivalent_mod_group(z2, target)
        assert w.equivalent and w.distance < 1e-8
        n += 1


# ---------------------------------------------------------------------------
# Group equivalence, 1-form constant, and the analytic round trip.


def test_equivalent_mod_group_witnesses():
    zp = _cpt(TAU_I, 0.3 + 0.2j)
    w = equivalent_mod_group(zp, zp)
    assert w.equivalent and w.unit == 1 and w.lattice_shift == 0

    moved = _cpt(TAU_I, 1j * (0.3 + 0.2j) + (1 + 1j))
    w = equivalent_mod_group(moved, zp)
    assert w.equivalent and w.unit == 1j
    assert w.distance < 1e-12

    w = equivalent_mod_group(_cpt(TAU_I, 0.3 + 0j), _cpt(TAU_I, 0.31 + 0j), tol=1e-6)
    assert not w.equivalent
    assert 0.005 < w.distance < 0.02

    with pytest.raises(DomainError):
        equivalent_mod_group(_cpt(TAU_I, 0.1 + 0.1j), _cpt(TAU_ZETA, 0.1 + 0.1j))


def test_points_of_one_tau_are_one_torus_however_built():
    # a modulus built from the number i or zeta is TAU_I or TAU_ZETA: the
    # inverses agree bit for bit, and the group test sees one torus
    for mod, inverse in ((TAU_I, inverse_quartic), (TAU_ZETA, inverse_sextic)):
        same = Modulus.generic(mod.value)
        for z in (0.3 + 0.2j, 0.1 + 0.7j, 0.77 + 0.05j):
            p, q = inverse(_cpt(same, z)), inverse(_cpt(mod, z))
            assert (p.t, p.u) == (q.t, q.u), (mod, z)
            w = equivalent_mod_group(_cpt(same, z), _cpt(mod, z))
            assert w.equivalent and w.distance == 0.0, (mod, z)


def test_equivalent_mod_group_reports_the_true_distance():
    # rounding the lattice coefficients of 0.45 zeta + 0.45 gives zeta + 0, at
    # 0.7794; the nearest point over every unit is 1, at 0.5074
    z1, z2 = _cpt(TAU_ZETA, 0.45 * ZETA + 0.45), _cpt(TAU_ZETA, 0j)
    w = equivalent_mod_group(z1, z2)
    assert not w.equivalent
    nearest = min(lattice_distance(TAU_ZETA, z1.z, ZETA ** k * z2.z) for k in range(6))
    assert w.distance == nearest
    assert abs(w.distance - 0.5074) < 1e-4


def test_equivalent_mod_group_hexagonal_units():
    rng = random.Random(113)
    for _ in range(12):
        z = complex(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.7))
        k = rng.randrange(6)
        lam = rng.randrange(-2, 3) + rng.randrange(-2, 3) * TAU_ZETA.value
        zp = _cpt(TAU_ZETA, z)
        moved = _cpt(TAU_ZETA, ZETA ** k * z + lam)
        w = equivalent_mod_group(moved, zp)
        assert w.equivalent and abs(w.unit - ZETA ** k) < 1e-12


def test_one_form_constant_routes():
    via_theta, via_beta = one_form_constant(SchwarzVariant.QUARTIC)
    assert abs(via_theta - via_beta) < 1e-11 * abs(via_beta)
    assert abs(via_beta - (1 - 1j) * beta(0.25, 0.25)) < 1e-13
    via_theta, via_beta = one_form_constant(SchwarzVariant.SEXTIC)
    assert abs(via_theta - via_beta) < 1e-11 * abs(via_beta)
    assert abs(via_beta - (1 - ZETA * ZETA) * beta(1.0 / 3.0, 1.0 / 6.0)) < 1e-13


def test_one_form_constant_routes_that_disagree_are_a_domain_error(monkeypatch):
    # theta skewed by 1e-8 moves the theta route by 2e-8 relative, past 1e-9
    exact = verify_mod.theta
    monkeypatch.setattr(verify_mod, "theta", lambda c, z, m: exact(c, z, m) * (1 + 1e-8))
    for curve in SchwarzVariant:
        with pytest.raises(DomainError, match="routes disagree"):
            one_form_constant(curve)


def test_hgf_theta_roundtrip_examples():
    assert hgf_theta_roundtrip(0, SchwarzVariant.QUARTIC) == 0.0
    assert hgf_theta_roundtrip(0, SchwarzVariant.SEXTIC) == 0.0
    for z in (0.1, 0.05 + 0.05j):
        assert hgf_theta_roundtrip(z, SchwarzVariant.QUARTIC) < 1e-9
        assert hgf_theta_roundtrip(z, SchwarzVariant.SEXTIC) < 1e-9
    with pytest.raises(DomainError):
        hgf_theta_roundtrip(0.31, SchwarzVariant.QUARTIC)


def test_hgf_theta_roundtrip_random():
    rng = random.Random(131)
    for _ in range(8):
        r = rng.uniform(0.01, 0.19)
        phi = rng.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * phi)
        assert hgf_theta_roundtrip(z, SchwarzVariant.QUARTIC) < 1e-9
        assert hgf_theta_roundtrip(z, SchwarzVariant.SEXTIC) < 1e-9


def test_schwarz_map_matches_abel_jacobi():
    rng = random.Random(149)
    xs = [0.35, 0.55, 0.75, 0.95] + [rng.uniform(0.31, 0.99) for _ in range(3)]
    for x in xs:
        s = schwarz_map(SchwarzVariant.QUARTIC, x)
        zq = abel_jacobi(lift_branch(SchwarzVariant.QUARTIC, x))
        w = equivalent_mod_group(_cpt(TAU_I, s), zq)
        assert w.equivalent and w.distance < 1e-9

        s = schwarz_map(SchwarzVariant.SEXTIC, x)
        zs = abel_jacobi(lift_branch(SchwarzVariant.SEXTIC, x))
        w = equivalent_mod_group(_cpt(TAU_ZETA, s), zs)
        assert w.equivalent and w.distance < 1e-9
