"""The verify families: seeded residual sweeps over the package's identities.

Every family is one identity of theta functions, of the two special curves,
of the triangle-group monodromy or of the mean iterations.  A suite is a
generator of (family, residual, sample) triples that draws its points from a
shared `SplitMix64` stream; `SUITES` maps each suite name to its family
names, in report order, and its generator.  `sweep` runs suites in order on
one stream and keeps, per family, the largest residual and the sample that
produced it.
"""

from __future__ import annotations

import math

from .curves import (
    CurvePoint,
    _curve_residual,
    _quartic_ratios,
    _quartic_with_thetas,
    _sextic_ratios,
    _sextic_with_thetas,
    inverse_quartic_t_routes,
    mul_one_plus_i,
    mul_one_plus_zeta,
)
from .hypergeometric import SchwarzVariant
from .meaniter import MeanPair, closed_form_limit, cubic_preimage_x0, iterate_until_converged
from .monodromy import (
    AffineMap,
    as_affine,
    base_change_affine,
    general_m0_m1,
    group_closure,
    m0_m1_closed_form,
    n_matrices,
    ring_one,
)
from .numerics import OMEGA, IterationLimitError, _scaled_residual
from .theta import (
    HALF_CHARS,
    TAU_I,
    TAU_ZETA,
    Modulus,
    ThetaChar,
    TorusPoint,
    _one_plus_i_pairs,
    _one_plus_zeta_pairs,
    addition_check,
    canonical_torus_point,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    theta_four,
    transform,
)

_MASK64 = (1 << 64) - 1

# Per curve: the theta inverse with its thetas, the ratio identities, the unit multiplication.
_PER_CURVE = {
    SchwarzVariant.QUARTIC: (_quartic_with_thetas, _quartic_ratios, mul_one_plus_i),
    SchwarzVariant.SEXTIC: (_sextic_with_thetas, _sextic_ratios, mul_one_plus_zeta),
}


class SplitMix64:
    """Deterministic 64-bit generator; splittable, tiny, reproducible."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def int_range(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def format_complex(w: complex) -> str:
    sign = "+" if w.imag >= 0 or math.isnan(w.imag) else "-"
    return f"{w.real!r}{sign}{abs(w.imag)!r}i"


def max_abs_diff(a, b) -> float:
    """The largest entry of |a - b| for two row-major 2x2 complex matrices."""
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def limit_residual(limit: float, closed: float) -> float:
    """|limit - closed|, relative once the limit exceeds 1, so huge pairs are judged fairly."""
    return abs(limit - closed) / max(1.0, abs(limit))


def _rand_torus(rng: SplitMix64, mod: Modulus) -> TorusPoint:
    return canonical_torus_point(
        mod, rng.uniform(0.03, 0.97) * mod.value + rng.uniform(0.03, 0.97)
    )


def _jacobi_derivative(family: str, mod: Modulus):
    # Jacobi's derivative identity theta11'(0) = -pi theta00(0) theta01(0) theta10(0)
    k00, k01, k10, _ = mod.theta_nulls
    lhs = theta_dz(HALF_CHARS[3], 0j, mod)
    yield family, _scaled_residual(lhs, -math.pi * (k00 * k01 * k10)), "z=0"


def _suite_addition(rng: SplitMix64, n: int):
    for label, mod in (("tau_i", TAU_I), ("tau_zeta", TAU_ZETA)):
        for _ in range(n):
            z1, z2 = _rand_torus(rng, mod), _rand_torus(rng, mod)
            res = addition_check(z1.z, z2.z, mod)
            yield f"addition.{label}", max(res), f"z1={format_complex(z1.z)} z2={format_complex(z2.z)}"


def _suite_tau_i(rng: SplitMix64, n: int):
    mod = TAU_I
    for _ in range(n):
        z = _rand_torus(rng, mod).z
        tag = f"z={format_complex(z)}"
        # one kernel call per point; each identity's other side is its own theta call
        at_z, at_neg, at_iz = (theta_four(w, mod) for w in (z, -z, 1j * z))
        for k, char in enumerate(HALF_CHARS):
            p, q = rng.int_range(-2, 2), rng.int_range(-2, 2)
            shifted = theta(char, z + p * mod.value + q, mod)
            factor = quasi_period_factor(char, p, q, z, mod)
            residual = _scaled_residual(shifted, factor * at_z[k])
            yield "tau_i.quasi_periodicity", residual, tag + f" p={p} q={q}"
            mirrored = theta(ThetaChar(-char.a, -char.b), z, mod)
            yield "tau_i.parity", _scaled_residual(mirrored, at_neg[k]), tag
            cs = ThetaChar(char.a + p, char.b + q)
            _, cf = cs.reduce()  # reduces to char itself
            yield "tau_i.char_shift", _scaled_residual(theta(cs, z, mod), cf * at_z[k]), tag
            target, pref, _, _ = transform(char, z, mod, "SSS")
            yield "tau_i.i_times", _scaled_residual(at_iz[k], pref * theta(target, z, mod)), tag
        for pair in _one_plus_i_pairs(z, at_z):
            yield "tau_i.one_plus_i", pair.residual, tag + f" {pair.name}"
        th00, th01, th10, th11 = at_z
        rt2 = math.sqrt(2.0)
        yield "tau_i.two_squares", _scaled_residual(rt2 * th01 ** 2, th00 ** 2 + th11 ** 2), tag
        yield "tau_i.two_squares", _scaled_residual(rt2 * th10 ** 2, th00 ** 2 - th11 ** 2), tag
    yield from _jacobi_derivative("tau_i.jacobi_derivative", mod)


def _suite_tau_zeta(rng: SplitMix64, n: int):
    mod = TAU_ZETA
    for _ in range(n):
        z = _rand_torus(rng, mod).z
        tag = f"z={format_complex(z)}"
        # one kernel call per point; each law's target side is its own theta call
        at_w, at_w2 = theta_four(OMEGA * z, mod), theta_four(OMEGA * OMEGA * z, mod)
        for k, char in enumerate(HALF_CHARS):
            for word, name, lhs in (("STSS", "OMEGA", at_w[k]), ("tS", "OMEGA_SQ", at_w2[k])):
                target, pref, _, _ = transform(char, z, mod, word)
                residual = _scaled_residual(lhs, pref * theta(target, z, mod))
                yield "tau_zeta.omega_times", residual, tag + f" {name}"
        th = th00, th01, th10, th11 = theta_four(z, mod)
        for pair in _one_plus_zeta_pairs(z, th):
            yield "tau_zeta.one_plus_zeta", pair.residual, tag + f" {pair.name}"
        e12 = complex(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))
        lincomb = "tau_zeta.linear_combination"
        yield lincomb, _scaled_residual(th01 ** 2, (th00 ** 2 - OMEGA * OMEGA * th11 ** 2) / e12), tag
        yield lincomb, _scaled_residual(th10 ** 2, e12 * (th00 ** 2 + OMEGA * th11 ** 2)), tag
    for char, closed in theta_constants(mod).items():
        yield "tau_zeta.constants", abs(theta(char, 0j, mod) - closed), f"char=({char.a},{char.b})"
    yield from _jacobi_derivative("tau_zeta.jacobi_derivative", mod)


def _sample_point(rng: SplitMix64, curve: SchwarzVariant) -> tuple[TorusPoint, CurvePoint, tuple]:
    mod = curve.modulus
    with_thetas = _PER_CURVE[curve][0]
    for _ in range(200):
        zp = _rand_torus(rng, mod)
        p, th = with_thetas(zp)
        if p.at_infinity:
            continue
        if abs(p.t) < 0.05 or abs(p.t - 1) < 0.05 or abs(p.t) > 40.0:
            continue
        return zp, p, th
    raise IterationLimitError("failed to sample a well-conditioned curve point")


def _suite_inverse(rng: SplitMix64, n: int):
    for _ in range(n):
        for curve, (_, identities, _) in _PER_CURVE.items():
            zp, p, th = _sample_point(rng, curve)
            tag = f"z={format_complex(zp.z)}"
            if curve is SchwarzVariant.QUARTIC:
                yield "inverse.t_routes", _scaled_residual(*inverse_quartic_t_routes(zp)), tag
            yield "inverse.on_curve", _curve_residual(p), tag
            for pair in identities(p, th):
                yield "inverse.ratio_identities", pair.residual, tag + f" {pair.name}"


def _suite_multiplication(rng: SplitMix64, n: int):
    for _ in range(n):
        for curve, (with_thetas, _, mul) in _PER_CURVE.items():
            zp, p, _ = _sample_point(rng, curve)
            if curve is SchwarzVariant.SEXTIC and abs(4 * p.t - 3) < 0.05:
                continue
            image = mul(p)
            z2 = canonical_torus_point(curve.modulus, (1 + curve.unit) * zp.z)
            direct, _ = with_thetas(z2)
            if image.at_infinity or direct.at_infinity:
                continue
            tag = f"z={format_complex(zp.z)}"
            family = f"multiplication.{curve.name.lower()}"
            yield family, _scaled_residual(image.t, direct.t), tag
            yield family, _scaled_residual(image.u, direct.u), tag


def _suite_monodromy(rng: SplitMix64, n: int):
    for variant, expect in ((SchwarzVariant.QUARTIC, (2, 4, 4)), (SchwarzVariant.SEXTIC, (2, 6, 3))):
        mats = n_matrices(variant)
        got = tuple(m.order() for m in mats)
        yield "monodromy.orders", 0.0 if got == expect else 1.0, f"{variant.name}: {got}"
        n0, n1, _ = mats
        words = [n0, n1, n0 @ n1, n1 @ n0 @ n1]
        for _ in range(n):
            a = words[rng.int_range(0, len(words) - 1)]
            b = words[rng.int_range(0, len(words) - 1)]
            same = as_affine(a @ b) == as_affine(a) @ as_affine(b)
            yield "monodromy.affine_hom", 0.0 if same else 1.0, variant.name
        alpha = variant.params.alpha
        m0, m1 = general_m0_m1(alpha, 0.0, 0.5)
        for got_m, ref in zip((m0, m1), (n0, n1)):
            residual = max_abs_diff(base_change_affine(got_m, alpha), ref.as_complex())
            yield "monodromy.specialization", residual, variant.name
        summary = group_closure([as_affine(m) for m in mats], cap=2000)
        ok = len(summary.units) == variant.root_order and summary.has_translation_basis
        yield "monodromy.closure", 0.0 if ok else 1.0, variant.name
    ga, gb = general_m0_m1(0.3, 0.2, 0.7)
    ca, cb = m0_m1_closed_form(0.3, 0.2, 0.7)
    yield "monodromy.dual_route", max(max_abs_diff(ga, ca), max_abs_diff(gb, cb)), "(0.3,0.2,0.7)"
    one = ring_one(SchwarzVariant.QUARTIC)
    summary = group_closure([AffineMap(one, one)], cap=300)
    yield "monodromy.closure", 0.0 if set(summary.units) == {one} else 1.0, "translation-only"


def _suite_meaniter(rng: SplitMix64, n: int):
    for _ in range(n):
        a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        ratio = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        pair = MeanPair(a, a * ratio)
        tag = f"a={a:.6f} b={a * ratio:.6f}"
        for variant in (SchwarzVariant.QUARTIC, SchwarzVariant.SEXTIC):
            limit = iterate_until_converged(pair, variant).limit
            residual = limit_residual(limit, closed_form_limit(pair, variant))
            yield f"meaniter.{variant.name.lower()}_limit", residual, tag
        if pair.a < pair.b:
            x0 = cubic_preimage_x0(pair)
            val = x0 * (9 - 8 * x0) ** 2 / (4 * x0 - 3) ** 3
            r2 = (pair.b / pair.a) ** 2
            yield "meaniter.cubic_preimage", abs(val - r2) / max(1.0, r2), tag


# suite name -> (its families in report order, its generator)
SUITES = {
    "addition": (("addition.tau_i", "addition.tau_zeta"), _suite_addition),
    "tau-i": (
        ("tau_i.quasi_periodicity", "tau_i.parity", "tau_i.char_shift", "tau_i.i_times",
         "tau_i.one_plus_i", "tau_i.two_squares", "tau_i.jacobi_derivative"),
        _suite_tau_i,
    ),
    "tau-zeta": (
        ("tau_zeta.omega_times", "tau_zeta.one_plus_zeta", "tau_zeta.linear_combination",
         "tau_zeta.constants", "tau_zeta.jacobi_derivative"),
        _suite_tau_zeta,
    ),
    "inverse": (("inverse.t_routes", "inverse.on_curve", "inverse.ratio_identities"), _suite_inverse),
    "multiplication": (("multiplication.quartic", "multiplication.sextic"), _suite_multiplication),
    "monodromy": (
        ("monodromy.orders", "monodromy.affine_hom", "monodromy.specialization",
         "monodromy.dual_route", "monodromy.closure"),
        _suite_monodromy,
    ),
    "meaniter": (
        ("meaniter.quartic_limit", "meaniter.sextic_limit", "meaniter.cubic_preimage"), _suite_meaniter
    ),
}


def sweep(names, seed: int, n: int) -> dict[str, tuple[float, str]]:
    """family -> (largest residual, its sample) for the named suites, run in order on one stream.

    A family that never yields keeps (0.0, ""); a tie goes to the later
    sample, and a NaN residual is never recorded.
    """
    rng = SplitMix64(seed)
    worst: dict[str, tuple[float, str]] = {}
    for name in names:
        families, suite = SUITES[name]
        worst.update((family, (0.0, "")) for family in families)
        for family, value, sample in suite(rng, n):
            if value >= worst[family][0]:
                worst[family] = value, sample
    return worst
