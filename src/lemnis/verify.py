"""The paper's identities, and the verify families: seeded residual sweeps over them.

Each identity is defined here once, as a function of the sample a suite
already holds: the addition formulas, the (1+i) and (1+zeta) lemmas on the
thetas at z, both t-routes of the quartic inverse, the ratio identities of a
curve point and its thetas, the 1-form constant and the closed inversion of
the Schwarz map.  The checked ones raise DomainError where a side leaves
binary64, never a NaN residual.

Every family is one identity of theta functions, of the two special curves,
of the triangle-group monodromy or of the mean iterations.  A suite is a
generator of (family, residual, sample) triples that draws its points from a
shared `SplitMix64` stream; `SUITES` maps each suite name to its family
names, in report order, and its generator.  `sweep` runs suites in order on
one stream and keeps, per family, the largest residual and the sample that
produced it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .curves import (
    _SEXTIC_PREFACTOR,
    CurvePoint,
    _curve_residual,
    _distance,
    _quartic_with_thetas,
    _sextic_with_thetas,
    mul_one_plus_i,
    mul_one_plus_zeta,
)
from .hypergeometric import SchwarzVariant, _require_variant, gauss_2f1
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
from .numerics import OMEGA, OMEGA_SQ, SQRT3, ZETA, DomainError, IterationLimitError, _scaled_residual, e_of
from .theta import (
    HALF_CHARS,
    TAU_I,
    TAU_ZETA,
    Modulus,
    ThetaChar,
    TorusPoint,
    _e,
    _exp,
    canonical_torus_point,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    theta_four,
    transform,
)

# ---------------------------------------------------------------------------
# The identities.


@dataclass(frozen=True)
class IdentityPair:
    """Both sides of one displayed identity, with its scaled residual, computed on first read."""

    name: str
    lhs: complex
    rhs: complex

    def __init__(self, name: str, lhs: complex, rhs: complex) -> None:
        self.__dict__.update(name=name, lhs=lhs, rhs=rhs)

    @functools.cached_property
    def residual(self) -> float:
        return _scaled_residual(self.lhs, self.rhs)


def _within_binary64(lemma):
    # A side outside binary64 (inf, NaN, an OverflowError or a division by an
    # underflowed square) is a DomainError; an IdentityPair is read by its residual.
    def checked(*args):
        try:
            out = lemma(*args)
            if all(math.isfinite(getattr(x, "residual", x)) for x in out):
                return out
        except (OverflowError, ZeroDivisionError):
            pass
        raise DomainError(f"{lemma.__name__}{args} leaves binary64")
    return functools.wraps(lemma)(checked)


@_within_binary64
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
    k00, k01, k10, _ = (v * v for v in m.theta_nulls)
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


@_within_binary64
def one_plus_i_multiple(z: complex, th: tuple) -> list[IdentityPair]:
    """Both sides of the three (1+i)-multiplication identities at tau = i,
    from th = theta_four(z, TAU_I)."""
    z, m = complex(z), TAU_I
    gauss = _exp(math.pi * 1j * (1.0 + 1j) * z * z)
    k00, k01, k10, _ = m.theta_nulls
    t00, t01, t10, t11 = th
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


@_within_binary64
def one_plus_zeta_multiple(z: complex, th: tuple) -> list[IdentityPair]:
    """Both sides of the four (1+zeta)-multiplication identities at tau = zeta,
    from th = theta_four(z, TAU_ZETA)."""
    z, m = complex(z), TAU_ZETA
    gauss = _e((OMEGA_SQ + OMEGA / 2.0) * z * z)
    k00, k01, k10, _ = m.theta_nulls
    t00, t01, t10, t11 = th
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


def inverse_quartic_t_routes(zp: TorusPoint) -> tuple[complex, complex]:
    """Both displayed t-expressions of the quartic inverse; they agree up to roundoff."""
    th00, th01, th10, th11 = theta_four(zp.z, TAU_I)
    t_prod = 2 * th01 ** 2 * th10 ** 2 / th00 ** 4
    t_quot = 1 - th11 ** 4 / th00 ** 4
    return t_prod, t_quot


@_within_binary64
def ratio_identities_quartic(p: CurvePoint, th: tuple | None) -> list[IdentityPair]:
    """The three square-torus identities for r = i u^2 / t, at the point p
    and the thetas th it was built from, (p, th) = curves._quartic_with_thetas(zp).

    Where t vanishes (one of the even thetas has a zero) r is replaced by
    its documented limit -1 or +1; at z = i/2 that limit is -1.
    """
    if p.at_infinity:
        raise DomainError("ratio identities blow up over t = infinity")
    th00, th01, th10, th11 = th
    scale = max(abs(th00), abs(th01), abs(th10), abs(th11))
    if abs(th01) < 1e-8 * scale:
        r = complex(-1.0)
    elif abs(th10) < 1e-8 * scale:
        r = complex(1.0)
    else:
        r = 1j * p.u ** 2 / p.t
    sq = math.sqrt(2.0)
    return [
        IdentityPair("i_u2_over_t", r, th11 ** 2 / th00 ** 2),
        IdentityPair("one_plus", 1 + r, sq * th01 ** 2 / th00 ** 2),
        IdentityPair("one_minus", 1 - r, sq * th10 ** 2 / th00 ** 2),
    ]


@_within_binary64
def ratio_identities_sextic(p: CurvePoint, th: tuple | None) -> list[IdentityPair]:
    """Hexagonal-torus identities for r = t / u^2 plus the cubed-root product,
    at the point p and the thetas th it was built from,
    (p, th) = curves._sextic_with_thetas(zp).

    At theta zeros other than the base point the documented limits are
    substituted; at z = zeta/2 the first pair reproduces 1 + r -> 1 - omega.
    The last pair is the internal consistency of the three linear factors
    with 1 + 1/(t - 1).
    """
    if p.at_infinity:
        raise DomainError("ratio identities blow up over t = infinity")
    th00, th01, th10, th11 = th
    scale = max(abs(th00), abs(th01), abs(th10), abs(th11))
    if abs(th11) < 1e-8 * scale:
        raise DomainError("identities degenerate at the base point z = 0")
    z2, z4 = ZETA ** 2, ZETA ** 4
    degenerate = True
    if abs(th01) < 1e-8 * scale:
        r = -1 / z4
    elif abs(th10) < 1e-8 * scale:
        r = -1 / z2
    elif abs(th00) < 1e-8 * scale:
        r = complex(-1.0)
    else:
        r = p.t / p.u ** 2
        degenerate = False
    # near t = 1 the difference t - 1 has lost its digits to cancellation;
    # there it is u^6/t^3 by the curve's equation, to full relative accuracy
    tm1 = p.u ** 6 / p.t ** 3 if _distance(p.t, 1.0) < 0.05 else p.t - 1
    cube = 0j if degenerate else p.u ** 3 / (p.t * tm1)
    tail = 1 + 1 / tm1
    return [
        IdentityPair("one_plus_r", 1 + r, SQRT3 * 1j * th00 ** 2 / th11 ** 2),
        IdentityPair("one_plus_z2_r", 1 + z2 * r, -SQRT3 * th10 ** 2 / th11 ** 2),
        IdentityPair("one_plus_z4_r", 1 + z4 * r, SQRT3 * th01 ** 2 / th11 ** 2),
        IdentityPair(
            "cube_over_t_tm1",
            cube,
            _SEXTIC_PREFACTOR * th00 * th01 * th10 / th11 ** 3,
        ),
        IdentityPair(
            "triple_product",
            (1 + r) * (1 + z2 * r) * (1 + z4 * r),
            tail,
        ),
    ]


def one_form_constant(curve: SchwarzVariant) -> tuple[complex, complex]:
    """The pullback constant of the 1-form, via theta and via beta.

    A DomainError where the two routes disagree by more than 1e-9 relative.
    """
    _require_variant(curve)
    th = theta(HALF_CHARS[0], 0j, curve.modulus)
    if curve is SchwarzVariant.QUARTIC:
        via_theta = 2 * (1 - 1j) * math.pi * th ** 2
    else:
        via_theta = _SEXTIC_PREFACTOR * 2 * math.pi * th ** 2
    via_beta = curve.normalization
    if abs(via_theta - via_beta) > 1e-9 * abs(via_beta):
        raise DomainError("1-form constant routes disagree; theta evaluation suspect")
    return via_theta, via_beta


def hgf_theta_roundtrip(z: complex, curve: SchwarzVariant) -> float:
    """|LHS(z) - z| for the closed inversion formula near the origin.

    Quartic: a theta-quotient prefactor times F(1/4, 1/2, 5/4; .) recovers
    z directly.  Sextic: same shape with a square root whose sign is pinned
    by the anchor value zeta at z = zeta/2, equivalently by matching the
    leading linear behavior at the origin.
    """
    _require_variant(curve)
    z = complex(z)
    if not _distance(z) < 0.3:
        raise DomainError("round trip is stated for |z| < 0.3")
    if z == 0:
        return 0.0
    th00, _, _, th11 = theta_four(z, curve.modulus)
    a_n = curve.exponent * curve.normalization
    if curve is SchwarzVariant.QUARTIC:
        ratio = th11 / th00
        f = gauss_2f1(curve.series_params, ratio ** 4)
        lhs = e_of(0.375) / a_n * ratio * f
        return abs(lhs - z)
    w = 1 - SQRT3 * 1j * th00 ** 2 / th11 ** 2
    pref = e_of(0.25) / a_n
    root = cmath.sqrt(w)
    if (z * root * pref.conjugate()).real < 0:
        root = -root
    f = gauss_2f1(curve.series_params, 1 / w ** 3)
    lhs = pref / root * f
    return abs(lhs - z)


# ---------------------------------------------------------------------------
# The suites.

_MASK64 = (1 << 64) - 1

# Per curve: the theta inverse with its thetas, the ratio identities, the unit multiplication.
_PER_CURVE = {
    SchwarzVariant.QUARTIC: (_quartic_with_thetas, ratio_identities_quartic, mul_one_plus_i),
    SchwarzVariant.SEXTIC: (_sextic_with_thetas, ratio_identities_sextic, mul_one_plus_zeta),
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
        for pair in one_plus_i_multiple(z, at_z):
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
        for pair in one_plus_zeta_multiple(z, th):
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
