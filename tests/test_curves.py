"""Tests for the two quotient curves: lifts, Abel-Jacobi, theta inverses,
ratio identities, complex multiplication, and the group-equivalence witness."""

from __future__ import annotations

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from lemnis.curves import (
    Curve,
    CurvePoint,
    QuadratureConfig,
    abel_jacobi,
    equivalent_mod_group,
    hgf_theta_roundtrip,
    inverse_quartic,
    inverse_quartic_t_routes,
    inverse_sextic,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    one_form_constant,
    one_form_constant_routes,
    ratio_identities_quartic,
    ratio_identities_sextic,
    special_point,
)
from lemnis import curves as curves_mod
from lemnis.curves import _G7_W, _K15_W, _K15_X, _adaptive, _curve_residual, _integrate_legs
from lemnis.hypergeometric import SchwarzVariant, schwarz_map
from lemnis.numerics import (
    DomainError,
    IterationLimitError,
    PathError,
    beta,
    principal_arg,
    principal_arg_array,
)
from lemnis.theta import (
    TAU_I,
    TAU_ZETA,
    canonical_torus_point,
    lattice_distance,
)

ZETA = cmath.exp(1j * cmath.pi / 3)
SQRT2 = math.sqrt(2.0)


def _cpt(mod, z):
    return canonical_torus_point(mod, z)


# ---------------------------------------------------------------------------
# Curve data and point validation.


def test_curve_enum_data():
    assert Curve.C_I.root_order == 4
    assert Curve.C_ZETA.root_order == 6
    assert Curve.C_I.unit == 1j
    assert abs(Curve.C_ZETA.unit - ZETA) < 1e-15
    assert Curve.C_I.modulus.tag is TAU_I.tag
    assert Curve.C_ZETA.modulus.tag is TAU_ZETA.tag


def test_curve_point_checks_equation():
    CurvePoint(Curve.C_I, 2.0, SQRT2)
    CurvePoint(Curve.C_ZETA, 2.0, SQRT2)
    with pytest.raises(DomainError):
        CurvePoint(Curve.C_I, 2.0, 1.5)
    with pytest.raises(DomainError):
        CurvePoint(Curve.C_ZETA, 2.0, 1.4 + 0.2j)
    # points over t = infinity skip the affine equation
    CurvePoint(Curve.C_I, 0.0, 0.0, at_infinity=True, branch=3)
    # non-finite coordinates give a NaN residual, which is rejected too
    with pytest.raises(DomainError):
        CurvePoint(Curve.C_I, math.nan, math.nan)
    with pytest.raises(DomainError):
        CurvePoint(Curve.C_ZETA, math.inf, math.inf)


def test_curve_check_is_overflow_safe():
    # fourth and sixth powers of these coordinates leave binary64; the check
    # scales them first and the lifted points are on the curve
    for curve, t in ((Curve.C_I, 1e110), (Curve.C_ZETA, 1e80), (Curve.C_I, -1e300 + 1e300j),
                     (Curve.C_ZETA, 1e308), (Curve.C_ZETA, -3e200j)):
        for k in range(curve.root_order):
            p = lift_branch(curve, t, k)
            assert _curve_residual(p) <= 1e-10
    with pytest.raises(DomainError):
        CurvePoint(Curve.C_I, 1e110, 1e83)
    with pytest.raises(DomainError):
        CurvePoint(Curve.C_ZETA, 1e80, 2e53j)
    # below modulus 1 nothing is scaled: the residual is the plain formula
    p = lift_branch(Curve.C_ZETA, 0.3 - 0.4j, 1)
    t, u = p.t, p.u
    assert abs(u) < 1.0
    assert _curve_residual(p) == abs(u ** 6 - t ** 3 * (t - 1)) / max(abs(u) ** 6, abs(t) ** 4, 1.0)


def test_special_points():
    for name in ("P1", "P01", "P02", "Pinf"):
        special_point(Curve.C_I, name)
    for name in ("P1", "P01", "P02", "P03", "Pinf1", "Pinf2"):
        special_point(Curve.C_ZETA, name)
    p = special_point(Curve.C_I, "Pinf")
    assert p.at_infinity
    with pytest.raises(DomainError):
        special_point(Curve.C_I, "P03")
    with pytest.raises(DomainError):
        special_point(Curve.C_ZETA, "Pinf")


def test_lift_branch_examples():
    p = lift_branch(Curve.C_I, 2.0, 0)
    assert abs(p.u - SQRT2) < 1e-14
    p = lift_branch(Curve.C_I, 2.0, 1)
    assert abs(p.u - 1j * SQRT2) < 1e-14
    p = lift_branch(Curve.C_ZETA, 2.0, 0)
    assert abs(p.u - SQRT2) < 1e-14
    # principal sheet is real positive on (1, infinity)
    for t in (1.5, 3.0, 10.0):
        for curve in (Curve.C_I, Curve.C_ZETA):
            u = lift_branch(curve, t, 0).u
            assert abs(u.imag) < 1e-14 and u.real > 0
    # sheet index wraps modulo the root order
    assert abs(lift_branch(Curve.C_I, 2.0, 5).u - lift_branch(Curve.C_I, 2.0, 1).u) < 1e-14


def test_lift_branch_rejects_ramification():
    with pytest.raises(DomainError):
        lift_branch(Curve.C_I, 0.0)
    with pytest.raises(DomainError):
        lift_branch(Curve.C_ZETA, 1.0)


def test_quadrature_config_validation():
    QuadratureConfig()
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=1e-3)
    with pytest.raises(DomainError):
        QuadratureConfig(max_depth=0)


# ---------------------------------------------------------------------------
# Abel-Jacobi map.


def test_abel_jacobi_special_images():
    cases = [
        (Curve.C_I, "P1", 0j),
        (Curve.C_I, "P01", 0.5j),
        (Curve.C_I, "P02", 0.5 + 0j),
        (Curve.C_I, "Pinf", (1 + 1j) / 2),
        (Curve.C_ZETA, "P1", 0j),
        (Curve.C_ZETA, "P01", ZETA / 2),
        (Curve.C_ZETA, "Pinf1", (ZETA + 1) / 3),
        (Curve.C_ZETA, "Pinf2", 2 * (ZETA + 1) / 3),
    ]
    for curve, name, target in cases:
        zp = abel_jacobi(special_point(curve, name))
        assert lattice_distance(curve.modulus, zp.z, target) < 1e-8, (curve, name)


def test_abel_jacobi_equivariance():
    # rotating the fiber multiplies the image by the same unit power
    for curve, t in ((Curve.C_I, 2.5), (Curve.C_I, -0.8 + 0.4j), (Curve.C_ZETA, 2.5)):
        base = abel_jacobi(lift_branch(curve, t, 0)).z
        for k in range(1, curve.root_order):
            zk = abel_jacobi(lift_branch(curve, t, k)).z
            assert lattice_distance(curve.modulus, zk, curve.unit ** k * base) < 1e-9


def test_abel_jacobi_accepts_every_sheet():
    p = lift_branch(Curve.C_I, 2.0, 0)
    for k in range(4):
        abel_jacobi(CurvePoint(Curve.C_I, p.t, p.u * 1j ** k))


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


def test_period_normalization_by_quadrature():
    # Two homotopy classes of path from the base point to t = -2, plus a
    # third with an extra turn around t = 0.  Each pair is related by an
    # affine deck map z -> eps z + s measured from the quadratures alone.
    # The elementary loop gives s = i, the vertical period; composing the
    # two measured maps leaves the pure translation by the horizontal
    # period, recovering the lattice {1, i} numerically.
    curve = Curve.C_I
    cfg = QuadratureConfig()
    norm = curve.normalization
    below = [("start", 1 - 0.9j), ("plain", -2 + 0j)]
    above = [("start", 1 + 0.9j), ("plain", -2 + 0j)]
    extra = [
        ("start", 1 + 0.9j),
        ("plain", -0.6 + 0.9j),
        ("plain", -0.6 - 0.9j),
        ("plain", 0.6 - 0.9j),
        ("plain", 0.6 + 0.9j),
        ("plain", -2 + 0.9j),
        ("plain", -2 + 0j),
    ]
    zd = _integrate_legs(curve, below, cfg)[0] / norm
    zu = _integrate_legs(curve, above, cfg)[0] / norm
    zx = _integrate_legs(curve, extra, cfg)[0] / norm
    s1 = zu + 1j * zd
    s2 = zx - 1j * zd
    assert abs(s1 - 1j) < 1e-9
    assert abs(s2) < 1e-9
    assert abs(1j * s1 + s2 + 1) < 1e-9


# ---------------------------------------------------------------------------
# Gauss-Kronrod panels and the vectorised integrands.


def test_kronrod_rule_is_exact_to_degree_22():
    for d in range(23):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(_K15_W @ _K15_X ** d - exact) < 1e-15, d


def test_gauss_subset_is_the_7_point_legendre_rule():
    x7, w7 = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(_K15_X[1::2] - x7)) < 1e-15
    assert np.max(np.abs(_G7_W - w7)) < 1e-15


def test_principal_arg_array_matches_scalar():
    rng = random.Random(303)
    pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
    pts += [
        complex(-1.0, -0.0),
        complex(-1.0, 0.0),
        complex(-0.0, -0.0),
        complex(0.0, 0.0),
        complex(0.0, -1.0),
        complex(1.0, -0.0),
    ]
    got = principal_arg_array(np.array(pts))
    want = np.array([principal_arg(w) for w in pts])
    # numpy's arctan2 may round differently from cmath.phase in the last bit
    assert np.max(np.abs(got - want)) < 1e-15
    # the cut and the signed zeros land on the same side exactly
    assert got[200:].tolist() == want[200:].tolist()
    assert got[200] == math.pi


def test_roundtrip_grid_every_sheet():
    # lift -> Abel-Jacobi -> theta inverse recovers the point on every
    # sheet, from next to t = 0 out to |t| = 1e6, cut included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for curve, inverse in ((Curve.C_I, inverse_quartic), (Curve.C_ZETA, inverse_sextic)):
            for k in range(curve.root_order):
                for r in (1e-3, 0.1, 0.9, 1.1, 10.0, 1e3, 1e6):
                    for arg in (0.0, 2.0, math.pi, -1.2):
                        p = lift_branch(curve, cmath.rect(r, arg), k)
                        q = inverse(abel_jacobi(p))
                        assert abs(q.t - p.t) <= 1e-8 * abs(p.t), (curve, k, r, arg)
                        assert abs(q.u - p.u) <= 1e-8 * abs(p.u), (curve, k, r, arg)


_K15_MINUS_G7_W = _K15_W.copy()
_K15_MINUS_G7_W[1::2] -= _G7_W


def _depth_first(f, a, b, tol, depth, panels):
    # Depth-first bisection, one integrand call per G7/K15 panel: the rule
    # that _adaptive runs level by level.
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * _K15_X)
    panels[0] += 1
    val = half * complex(_K15_W @ fx)
    err = abs(half * complex(_K15_MINUS_G7_W @ fx))
    if err <= max(tol, 1e-15 * max(1.0, abs(val))):
        return val
    if depth <= 0:
        raise IterationLimitError("quadrature failed to converge within max_depth")
    mid = 0.5 * (a + b)
    return _depth_first(f, a, mid, 0.5 * tol, depth - 1, panels) + _depth_first(
        f, mid, b, 0.5 * tol, depth - 1, panels
    )


def _outcome(run):
    try:
        return run()
    except IterationLimitError:
        return IterationLimitError


def test_level_loop_matches_depth_first_bisection(monkeypatch):
    # every leg of the roundtrip grid, plus |t| = 1e8 and 1e10 where some
    # legs fail, integrated both ways: same outcome, same value to roundoff,
    # the same panels apart from acceptance ties
    legs = []

    def recorded(f, a, b, tol, depth):
        rows = [0]

        def counted(x):
            rows[0] += x.size // 15
            return f(x)

        got = _outcome(lambda: _adaptive(counted, a, b, tol, depth))
        ref_rows = [0]
        want = _outcome(lambda: _depth_first(f, a, b, tol, depth, ref_rows))
        legs.append((got, want, rows[0], ref_rows[0]))
        if got is IterationLimitError:
            raise IterationLimitError("quadrature failed to converge within max_depth")
        return got

    monkeypatch.setattr(curves_mod, "_adaptive", recorded)
    with np.errstate(all="ignore"):
        for curve in Curve:
            for k in range(curve.root_order):
                for r in (1e-3, 0.1, 0.9, 1.1, 10.0, 1e3, 1e6, 1e8, 1e10):
                    for arg in (0.0, 2.0, math.pi, -1.2):
                        try:
                            abel_jacobi(lift_branch(curve, cmath.rect(r, arg), k))
                        except IterationLimitError:
                            pass
    failed = [leg for leg in legs if leg[1] is IterationLimitError]
    assert len(legs) > 500 and 0 < len(failed) < len(legs)
    panels = ref_panels = 0
    for got, want, rows, ref_rows in legs:
        if want is IterationLimitError:
            assert got is IterationLimitError
            continue
        assert got is not IterationLimitError
        assert abs(got - want) <= 2e-15 * max(1.0, abs(want))
        panels, ref_panels = panels + rows, ref_panels + ref_rows
    assert abs(panels - ref_panels) <= 1e-3 * ref_panels


def test_all_nan_integrand_raises_after_one_call():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.full(x.shape, complex(math.nan, math.nan))

    with pytest.raises(IterationLimitError):
        _adaptive(f, 0.0, 1.0, 1e-12, 30)
    assert calls == [(1, 15)]


def test_endpoint_singularity_keeps_the_frontier_small():
    # 1/sigma never converges next to 0; only the panels beside it stay open
    rows = []

    def f(x):
        rows.append(x.shape[0])
        return 1.0 / x

    with pytest.raises(IterationLimitError):
        _adaptive(f, 0.0, 1.0, 1e-12, 30)
    assert len(rows) == 31
    assert max(rows) <= 8


def test_non_finite_panels_raise_without_numpy_warnings():
    cfg = QuadratureConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a leg through t = 0 puts a node on log 0; a NaN endpoint makes
        # every node NaN.  Neither panel is ever accepted.
        through_zero = [("start", 0.5 + 0j), ("plain", -0.5 + 0j)]
        for legs in (through_zero, [("start", complex(math.nan, 0))]):
            with pytest.raises(IterationLimitError):
                _integrate_legs(Curve.C_I, legs, cfg)
        for t in (complex(math.nan, 0), complex(math.inf, 0)):
            with pytest.raises((DomainError, IterationLimitError, PathError)):
                abel_jacobi(CurvePoint(Curve.C_I, t, t))


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
        for curve, inv in ((Curve.C_I, inverse_quartic), (Curve.C_ZETA, inverse_sextic)):
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
        for pair in ratio_identities_quartic(zp):
            assert pair.residual < 1e-10, pair.name


def test_ratio_identities_quartic_degenerate():
    # at z = i/2 the ratio tends to -1, so 1 + r vanishes
    pairs = {p.name: p for p in ratio_identities_quartic(_cpt(TAU_I, 0.5j))}
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
        pairs = {q.name: q for q in ratio_identities_sextic(zp)}
        for q in pairs.values():
            assert q.residual < 1e-10, q.name
        triple = pairs["triple_product"]
        assert abs(triple.rhs - (1 + 1 / (p.t - 1))) < 1e-12
        n += 1


def test_ratio_identities_sextic_degenerate():
    # at z = zeta/2 the first factor becomes 1 - omega with omega = zeta^2
    pairs = {p.name: p for p in ratio_identities_sextic(_cpt(TAU_ZETA, ZETA / 2))}
    omega = ZETA * ZETA
    assert abs(pairs["one_plus_r"].lhs - (1 - omega)) < 1e-12
    for p in pairs.values():
        assert p.residual < 1e-10


def test_ratio_identities_reject_poles_and_base():
    with pytest.raises(DomainError):
        ratio_identities_quartic(_cpt(TAU_I, (1 + 1j) / 2))
    with pytest.raises(DomainError):
        ratio_identities_sextic(_cpt(TAU_ZETA, (ZETA + 1) / 3))
    with pytest.raises(DomainError):
        ratio_identities_sextic(_cpt(TAU_ZETA, 0j))


# ---------------------------------------------------------------------------
# Multiplication maps.


def test_mul_quartic_examples():
    fixed = mul_one_plus_i(special_point(Curve.C_I, "P1"))
    assert abs(fixed.t - 1) < 1e-14 and abs(fixed.u) < 1e-14
    q = mul_one_plus_i(CurvePoint(Curve.C_I, 2.0, SQRT2))
    assert abs(q.t) < 1e-14 and abs(q.u) < 1e-14
    assert mul_one_plus_i(special_point(Curve.C_I, "P01")).at_infinity
    back = mul_one_plus_i(special_point(Curve.C_I, "Pinf"))
    assert not back.at_infinity and abs(back.t - 1) < 1e-14
    with pytest.raises(DomainError):
        mul_one_plus_i(lift_branch(Curve.C_ZETA, 2.0))


def test_mul_sextic_examples():
    fixed = mul_one_plus_zeta(special_point(Curve.C_ZETA, "P1"))
    assert abs(fixed.t - 1) < 1e-14 and abs(fixed.u) < 1e-14
    q = mul_one_plus_zeta(lift_branch(Curve.C_ZETA, 9.0 / 8.0))
    assert abs(q.t) < 1e-12
    assert mul_one_plus_zeta(lift_branch(Curve.C_ZETA, 0.75)).at_infinity
    with pytest.raises(DomainError):
        mul_one_plus_zeta(lift_branch(Curve.C_I, 2.0))


def test_mul_image_stays_on_curve():
    rng = random.Random(71)
    for _ in range(25):
        t = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(t) < 0.1 or abs(t - 1) < 0.1 or abs(4 * t - 3) < 0.1:
            continue
        # CurvePoint.__post_init__ re-checks the curve equation
        mul_one_plus_i(lift_branch(Curve.C_I, t, 1))
        mul_one_plus_zeta(lift_branch(Curve.C_ZETA, t, 2))


def test_abel_jacobi_on_mul_images_next_to_t_one():
    # (1 + zeta) maps |t| = 3.6e5 to within about 3e-12 of t = 1, where the
    # stored t - 1 is only good to about 1e-4 relative; the sheet match
    # widens by that rounding, and the image stays group-equivalent to
    # (1 + zeta) z up to the error t carries
    for j in range(12):
        t = cmath.rect(3.6e5, -math.pi + 2 * math.pi * (j + 0.5) / 12)
        for k in range(6):
            p = lift_branch(Curve.C_ZETA, t, k)
            image = mul_one_plus_zeta(p)
            assert 1e-12 < abs(image.t - 1) < 1e-10
            z_img = abel_jacobi(image)
            target = _cpt(TAU_ZETA, (1 + ZETA) * abel_jacobi(p).z)
            assert equivalent_mod_group(z_img, target, tol=1e-6).equivalent, (j, k)


def test_mul_pushes_abel_jacobi_forward():
    rng = random.Random(83)
    for curve, mul in ((Curve.C_I, mul_one_plus_i), (Curve.C_ZETA, mul_one_plus_zeta)):
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
        p = lift_branch(Curve.C_I, t)
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
    via_theta, via_beta = one_form_constant_routes(Curve.C_I)
    assert abs(via_theta - via_beta) < 1e-11 * abs(via_beta)
    assert abs(via_beta - (1 - 1j) * beta(0.25, 0.25)) < 1e-13
    via_theta, via_beta = one_form_constant_routes(Curve.C_ZETA)
    assert abs(via_theta - via_beta) < 1e-11 * abs(via_beta)
    assert abs(via_beta - (1 - ZETA * ZETA) * beta(1.0 / 3.0, 1.0 / 6.0)) < 1e-13
    for curve in (Curve.C_I, Curve.C_ZETA):
        assert abs(one_form_constant(curve) - one_form_constant_routes(curve)[0]) == 0.0


def test_hgf_theta_roundtrip_examples():
    assert hgf_theta_roundtrip(0, Curve.C_I) == 0.0
    assert hgf_theta_roundtrip(0, Curve.C_ZETA) == 0.0
    for z in (0.1, 0.05 + 0.05j):
        assert hgf_theta_roundtrip(z, Curve.C_I) < 1e-9
        assert hgf_theta_roundtrip(z, Curve.C_ZETA) < 1e-9
    with pytest.raises(DomainError):
        hgf_theta_roundtrip(0.31, Curve.C_I)


def test_hgf_theta_roundtrip_random():
    rng = random.Random(131)
    for _ in range(8):
        r = rng.uniform(0.01, 0.19)
        phi = rng.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * phi)
        assert hgf_theta_roundtrip(z, Curve.C_I) < 1e-9
        assert hgf_theta_roundtrip(z, Curve.C_ZETA) < 1e-9


def test_schwarz_map_matches_abel_jacobi():
    rng = random.Random(149)
    xs = [0.35, 0.55, 0.75, 0.95] + [rng.uniform(0.31, 0.99) for _ in range(3)]
    for x in xs:
        s = schwarz_map(SchwarzVariant.QUARTIC, x)
        zq = abel_jacobi(lift_branch(Curve.C_I, x))
        w = equivalent_mod_group(_cpt(TAU_I, s), zq)
        assert w.equivalent and w.distance < 1e-9

        s = schwarz_map(SchwarzVariant.SEXTIC, x)
        zs = abel_jacobi(lift_branch(Curve.C_ZETA, x))
        w = equivalent_mod_group(_cpt(TAU_ZETA, s), zs)
        assert w.equivalent and w.distance < 1e-9
