"""Acceptance suite: one test per numbered criterion, each printing a single
pass/fail verdict line.  Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from lemnis.curves import (
    Curve,
    abel_jacobi,
    equivalent_mod_group,
    hgf_theta_roundtrip,
    inverse_quartic,
    inverse_sextic,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    special_point,
)
from lemnis.hypergeometric import (
    GaussParams,
    SchwarzVariant,
    gauss_2f1,
)
from lemnis.verify import max_abs_diff as _max_abs_diff
from lemnis.meaniter import MeanPair, closed_form_limit, iterate_until_converged
from lemnis.monodromy import base_change_affine, general_m0_m1, n_matrices
from lemnis.numerics import OMEGA, ZETA, e_of, gamma_real
from lemnis.theta import (
    HALF_CHARS,
    Modulus,
    TAU_I,
    TAU_ZETA,
    ThetaChar,
    addition_check,
    canonical_torus_point,
    lattice_distance,
    one_plus_i_multiple,
    one_plus_zeta_multiple,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    transform,
)

C00, C01, C10, C11 = HALF_CHARS

QUARTIC_SERIES = GaussParams(0.25, 0.5, 1.25)
SEXTIC_SERIES = GaussParams(1.0 / 6.0, 0.5, 7.0 / 6.0)


def _verdict(num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    assert ok, line


def _rand_z(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))


def test_criterion_1_theta_constants():
    k00 = theta(C00, 0j, TAU_I)
    closed = gamma_real(0.25) / (4 * math.pi ** 3) ** 0.25
    worst = abs(k00 - closed)
    ok = worst < 1e-11

    table = theta_constants(TAU_ZETA)
    worst_z = 0.0
    for char, value in table.items():
        series = theta(char, 0j, TAU_ZETA)
        worst_z = max(worst_z, abs(series - value))
    ok = ok and worst_z < 1e-10
    _verdict(
        1,
        ok,
        f"theta constants: tau=i closed form {worst:.2e} < 1e-11, "
        f"tau=zeta table vs series {worst_z:.2e} < 1e-10",
    )


def test_criterion_2_identity_suites():
    rng = random.Random(2026)
    moduli = (TAU_I, TAU_ZETA, Modulus.generic(0.3 + 1.2j))
    worst: dict[str, float] = {}

    def push(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    # quasi-periodicity, parity, characteristic shift: 100 samples per modulus
    for m in moduli:
        for _ in range(100):
            c = ThetaChar(Fraction(rng.randrange(12), 12), Fraction(rng.randrange(12), 12))
            z = _rand_z(rng)
            p, q = rng.randrange(-2, 3), rng.randrange(-2, 3)
            lhs = theta(c, z + p * m.value + q, m)
            rhs = quasi_period_factor(c, p, q, z, m) * theta(c, z, m)
            push("quasi_periodicity", abs(lhs - rhs) / max(1.0, abs(lhs)))

            mirrored = theta(ThetaChar(-c.a, -c.b), z, m)
            flipped = theta(c, -z, m)
            push("parity", abs(mirrored - flipped) / max(1.0, abs(flipped)))

            shifted = ThetaChar(c.a + rng.randrange(-3, 4), c.b + rng.randrange(-3, 4))
            red, factor = shifted.reduce()
            push(
                "characteristic_shift",
                abs(theta(shifted, z, m) - factor * theta(red, z, m)),
            )

    # five addition formulas + Jacobi identity, both special moduli
    for m in (TAU_I, TAU_ZETA):
        for _ in range(100):
            push("addition", max(addition_check(_rand_z(rng), _rand_z(rng), m)))

    # Jacobi derivative formula on 100 random generic moduli
    for _ in range(100):
        m = Modulus.generic(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.0)))
        lhs = theta_dz(C11, 0j, m)
        rhs = -math.pi * (
            theta(C00, 0j, m)
            * theta(C01, 0j, m)
            * theta(C10, 0j, m)
        )
        push("jacobi_derivative", abs(lhs - rhs) / max(1.0, abs(rhs)))

    # i-times lemma
    for _ in range(100):
        c = ThetaChar(Fraction(rng.randrange(8), 8), Fraction(rng.randrange(8), 8))
        z = _rand_z(rng)
        c2, pref, _, _ = transform(c, z, TAU_I, "SSS")
        lhs = theta(c, 1j * z, TAU_I)
        push("i_times", abs(lhs - pref * theta(c2, z, TAU_I)) / max(1.0, abs(lhs)))

    # omega-times lemma, both powers
    w = OMEGA
    for _ in range(100):
        c = ThetaChar(Fraction(rng.randrange(6), 6), Fraction(rng.randrange(6), 6))
        z = _rand_z(rng)
        for word, rot in (("STSS", w), ("tS", w * w)):
            c2, pref, _, _ = transform(c, z, TAU_ZETA, word)
            lhs = theta(c, rot * z, TAU_ZETA)
            push("omega_times", abs(lhs - pref * theta(c2, z, TAU_ZETA)) / max(1.0, abs(lhs)))

    # (1+i)-times and (1+zeta)-times lemmas
    for _ in range(100):
        for pair in one_plus_i_multiple(_rand_z(rng)):
            push("one_plus_i_times", pair.residual)
        for pair in one_plus_zeta_multiple(_rand_z(rng)):
            push("one_plus_zeta_times", pair.residual)

    # half-integer constant relation at tau=zeta, plus its sampled source
    table = theta_constants(TAU_ZETA)
    push(
        "hi_theta",
        abs(table[C10] - e_of(Fraction(1, 24)) * table[C00]),
    )
    for _ in range(100):
        z = _rand_z(rng)
        c2, pref, _, _ = transform(C00, z, TAU_ZETA, "STSS")
        lhs = theta(C00, w * z, TAU_ZETA)
        push("hi_theta", abs(lhs - pref * theta(c2, z, TAU_ZETA)) / max(1.0, abs(lhs)))

    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    overall = max(worst.values())
    _verdict(
        2,
        not bad,
        f"{len(worst)} identity families x >=100 samples, max residual {overall:.2e} < 1e-10"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_3_special_point_images():
    cases = [
        (Curve.C_I, "P01", 0.5j),
        (Curve.C_I, "Pinf", (1 + 1j) / 2),
        (Curve.C_ZETA, "P01", ZETA / 2),
        (Curve.C_ZETA, "Pinf1", (ZETA + 1) / 3),
    ]
    worst = 0.0
    for curve, name, target in cases:
        zp = abel_jacobi(special_point(curve, name))
        worst = max(worst, lattice_distance(curve.modulus, zp.z, target))
    _verdict(3, worst < 1e-8, f"four special-point images in closed form, worst {worst:.2e} < 1e-8")


def test_criterion_4_inverse_roundtrips():
    rng = random.Random(404)
    worst = 0.0
    for curve, inv in ((Curve.C_I, inverse_quartic), (Curve.C_ZETA, inverse_sextic)):
        done = 0
        while done < 50:
            a, b = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            zp = canonical_torus_point(curve.modulus, a * curve.modulus.value + b)
            p = inv(zp)
            if p.at_infinity:
                continue
            back = abel_jacobi(p)
            worst = max(worst, lattice_distance(curve.modulus, back.z, zp.z))
            done += 1
    _verdict(4, worst < 1e-8, f"50 roundtrips per curve, worst distance {worst:.2e} < 1e-8")


def test_criterion_5_multiplication_witnesses():
    rng = random.Random(505)
    worst = 0.0
    for curve, mul in ((Curve.C_I, mul_one_plus_i), (Curve.C_ZETA, mul_one_plus_zeta)):
        done = 0
        while done < 20:
            t = complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0))
            if abs(t) < 0.05 or abs(t - 1) < 0.05 or abs(4 * t - 3) < 0.05:
                continue
            p = lift_branch(curve, t, rng.randrange(curve.root_order))
            q = mul(p)
            if q.at_infinity:
                continue
            z1 = abel_jacobi(p)
            z2 = abel_jacobi(q)
            target = canonical_torus_point(curve.modulus, (1 + curve.unit) * z1.z)
            witness = equivalent_mod_group(z2, target)
            worst = max(worst, witness.distance)
            done += 1
    _verdict(5, worst < 1e-8, f"20 multiplication witnesses per curve, worst {worst:.2e} < 1e-8")


def test_criterion_6_monodromy():
    orders_q = tuple(m.order() for m in n_matrices(SchwarzVariant.QUARTIC))
    orders_s = tuple(m.order() for m in n_matrices(SchwarzVariant.SEXTIC))
    ok = orders_q == (2, 4, 4) and sorted(orders_s) == [2, 3, 6]

    worst = 0.0
    for variant, alpha in ((SchwarzVariant.QUARTIC, 0.25), (SchwarzVariant.SEXTIC, 1.0 / 3.0)):
        m0, m1 = general_m0_m1(alpha, 0.0, 0.5)
        n0, n1, _ = n_matrices(variant)
        worst = max(worst, _max_abs_diff(base_change_affine(m0, alpha), n0.as_complex()))
        worst = max(worst, _max_abs_diff(base_change_affine(m1, alpha), n1.as_complex()))
    ok = ok and worst < 1e-12
    _verdict(
        6,
        ok,
        f"exact orders {orders_q} and {orders_s} at zero tolerance, "
        f"specialization after base change {worst:.2e} < 1e-12",
    )


def test_criterion_7_mean_iterations():
    rng = random.Random(707)
    worst_q = worst_s = 0.0
    max_iters = 0
    for _ in range(50):
        a = rng.uniform(0.5, 5.0)
        b = a * rng.uniform(0.1, 10.0)
        pair = MeanPair(a, b)

        trace = iterate_until_converged(pair, SchwarzVariant.QUARTIC, tol=1e-6, max_iter=12)
        assert trace.converged and trace.iterations <= 12
        max_iters = max(max_iters, trace.iterations)
        arg = 1 - (b / a) ** 2
        closed = a / gauss_2f1(QUARTIC_SERIES, arg) ** 2
        worst_q = max(worst_q, abs(trace.limit - closed.real))

        trace = iterate_until_converged(pair, SchwarzVariant.SEXTIC, tol=1e-12, max_iter=12)
        assert trace.converged and trace.iterations <= 12
        max_iters = max(max_iters, trace.iterations)
        closed = a / gauss_2f1(SEXTIC_SERIES, arg)
        worst_s = max(worst_s, abs(trace.limit - closed.real))

    ok = worst_q < 1e-11 and worst_s < 1e-10
    _verdict(
        7,
        ok,
        f"50 pairs, quartic {worst_q:.2e} < 1e-11, sextic {worst_s:.2e} < 1e-10, "
        f"all within {max_iters} <= 12 iterations",
    )


def test_criterion_8_hypergeometric_identities():
    rng = random.Random(808)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(0.7, 1.3)
        lhs = gauss_2f1(QUARTIC_SERIES, 1 - (2 - x) ** 2 / x ** 2) / math.sqrt(x)
        rhs = gauss_2f1(QUARTIC_SERIES, 1 - x)
        worst = max(worst, abs(lhs - rhs))

        x = rng.uniform(0.8, 1.12)
        lhs = gauss_2f1(SEXTIC_SERIES, 1 - x)
        arg = 1 - x * (9 - 8 * x) ** 2 / (4 * x - 3) ** 3
        rhs = gauss_2f1(SEXTIC_SERIES, arg) / math.sqrt(4 * x - 3)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10

    # second-order ODE residual under central differences
    h = 3e-4
    worst_ode = 0.0
    for p in (QUARTIC_SERIES, SEXTIC_SERIES):
        a, bb, g = p.alpha, p.beta, p.gamma
        for _ in range(25):
            x = rng.uniform(0.05, 0.85)
            f0 = gauss_2f1(p, x).real
            fp = gauss_2f1(p, x + h).real
            fm = gauss_2f1(p, x - h).real
            d1 = (fp - fm) / (2 * h)
            d2 = (fp - 2 * f0 + fm) / (h * h)
            res = x * (1 - x) * d2 + (g - (a + bb + 1) * x) * d1 - a * bb * f0
            worst_ode = max(worst_ode, abs(res))
    ok = ok and worst_ode < 1e-6
    _verdict(
        8,
        ok,
        f"argument-rewrite identities worst {worst:.2e} < 1e-10, "
        f"ODE residual {worst_ode:.2e} < 1e-6",
    )


def test_criterion_9_hgf_theta_roundtrip():
    rng = random.Random(909)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(0.02, 0.19)
        phi = rng.uniform(0.0, 2 * math.pi)
        z = r * cmath.exp(1j * phi)
        worst = max(worst, hgf_theta_roundtrip(z, Curve.C_I))
        worst = max(worst, hgf_theta_roundtrip(z, Curve.C_ZETA))
    _verdict(9, worst < 1e-9, f"20 samples per curve with |z| < 0.2, worst {worst:.2e} < 1e-9")
