"""The error contract, checked by a property sweep over the public API.

Every call returns a finite value or raises DomainError or
IterationLimitError: any other exception, or an inf or NaN anywhere in a
result, fails.  The inputs mix magnitudes log-uniform in [1e-12, 1e12] with
extreme floats, and complex numbers built from them reach moduli past
1.8e308, where abs() of a complex raises.  Every breach found so far is
pinned as an explicit example.  At moderate inputs the results are also
checked against an identity: theta's quasi-periodicity, the curve roundtrip
and the mean-iteration orbit against its closed form.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import re
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lemnis import (
    TAU_I,
    TAU_ZETA,
    CurvePoint,
    CycInt,
    DomainError,
    GaussParams,
    IterationLimitError,
    MeanPair,
    Modulus,
    SchwarzVariant,
    ThetaChar,
    TorusPoint,
    abel_jacobi,
    canonical_torus_point,
    closed_form_limit,
    cubic_preimage_x0,
    gauss_2f1,
    gauss_2f1_pair,
    gauss_kummer_value,
    general_m0_m1,
    invariant_hermitian_form,
    inverse_quartic,
    inverse_sextic,
    iterate_until_converged,
    lattice_distance,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    n_matrices,
    quasi_period_factor,
    schwarz_map,
    step_quartic,
    step_sextic,
    theta,
    theta_dz,
    theta_four,
    transform,
    units,
)
from lemnis.cli import main
from lemnis.curves import _quartic_with_thetas, _sextic_with_thetas
from lemnis.numerics import ZETA
from lemnis.verify import (
    IdentityPair,
    addition_check,
    hgf_theta_roundtrip,
    one_form_constant,
    one_plus_i_multiple,
    one_plus_zeta_multiple,
    ratio_identities_quartic,
    ratio_identities_sextic,
)

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=50)

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, -1e300, 5e-324, 1e308, 1.7e308, -1.7e308, math.inf, math.nan)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _signed(magnitudes):
    return st.builds(math.copysign, magnitudes, st.sampled_from((1.0, -1.0)))


# two draws in three log-uniform, one in three from SPECIAL
REALS = st.one_of(_signed(_log_uniform(1e-12, 1e12)), _signed(_log_uniform(1e-12, 1e12)), st.sampled_from(SPECIAL))
COMPLEXES = st.builds(complex, REALS, REALS)
_RATIONALS = st.builds(Fraction, st.integers(-24, 24), st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
CHARS = st.builds(ThetaChar, _RATIONALS, _RATIONALS)


def _finite(x) -> bool:
    if isinstance(x, (float, complex)):
        return cmath.isfinite(x)
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    if isinstance(x, IdentityPair):
        return _finite((x.lhs, x.rhs, x.residual))
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x is None or isinstance(x, (int, Fraction, Enum))  # bool is an int


def holds(f, *args):
    """f(*args) with the contract checked: a finite result, or None for a package error."""
    try:
        out = f(*args)
    except (DomainError, IterationLimitError):
        return None
    assert _finite(out), (f.__name__, args, out)
    return out


def pinned(*cases):
    """One explicit example per case, so every pinned breach runs first."""

    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return apply


# ---------------------------------------------------------------------------
# Pinned breaches, with the error each raised or the value each returned
# before it was mended.

# theta: a raw OverflowError at a huge Im tau, and one from the reduction at
# tau = 5e-324 + 5e-324i, where -1/tau is infinite
THETA_BREACHES = (
    (ThetaChar(Fraction(-1, 2), Fraction(1, 4)), complex(1e308, -12419.6), complex(-1.04e11, 1e300), 0, 0),
    (ThetaChar(0, 0), 0.1 + 0j, complex(5e-324, 5e-324), 1, 1),
)

# 2F1: a silent NaN at an integer alpha and a huge |z|; inf or NaN returned
# where F leaves binary64 (the first) or needs a rescaled route (the other
# four); and a raw OverflowError from abs(z) past 1.8e308
GAUSS_BREACHES = (
    (3.0, -0.32163849817441026, -4.429447531648529, 1e308 - 18.98j),
    (-1.0, 1.4656417816235052, 0.22711882856032695, -1.7e308 + 0.00014479178940582035j),
    (-25910.34623305129, -1.7348824486058894, 1.4972254185728522, -0.016868466389809853 + 7.028431780358699e-07j),
    (-681.6754870437424, 1.3265724414084836, -1.5050924442081233, -0.2536223148504096 + 1.7762777981535283j),
    (-1877.66896625572, -0.2586636306866299, -0.5360879752326158, 5e-324 - 0.509433963081502j),
    (-70073.8337808498, 2.118653927434538, 2.81837946487515, -0.006360064824363299 - 1.183291390302172e-11j),
    (0.25, 0.5, 1.25, complex(1.7e308, 1.7e308)),
)

# curves: a raw OverflowError from abs(t) and abs(t - 1) past 1.8e308, in
# lift_branch, abel_jacobi, mul_one_plus_i and hgf_theta_roundtrip
CURVE_BREACHES = (
    (SchwarzVariant.QUARTIC, complex(1.7e308, 1.7e308), 0),
    (SchwarzVariant.SEXTIC, complex(-1.7e308, -1.7e308), 0),
    (SchwarzVariant.QUARTIC, complex(-1.7e308, 1.7e308), 0),
)

# the sextic mean: a raw ZeroDivisionError at a subnormal a
MEAN_BREACHES = ((5e-324, 1e308),)

# identity lemmas: one_plus_i_multiple raised ZeroDivisionError (gauss^2
# underflows) and OverflowError (t00**4), and returned a NaN right-hand side;
# ratio_identities_sextic raised ZeroDivisionError, and then DomainError,
# where t rounds to 1; and addition_check returned four NaN residuals
LEMMA_BREACHES = (
    (11.142448829985067 + 2.564344903256174e-06j, 0j),
    (1 - 7.686171724423333j, 0j),
    (-4.810393829156435e-09 + 8.6629260944146j, 0j),
    (-6.040900844003534e-10 + 7.863477798498736e-06j, 0j),
    (158180.58440685621 - 10.731007732313074j, -1.5850694444730792e-12 + 0j),
)


# ---------------------------------------------------------------------------
# The contract.

@SWEEP
@given(CHARS, COMPLEXES, st.one_of(st.sampled_from((1j, ZETA)), COMPLEXES), st.integers(-50, 50), st.integers(-50, 50))
@pinned(*THETA_BREACHES)
def test_theta_family_keeps_the_contract(c, z, tau, p, q):
    m = holds(Modulus.generic, tau)
    if m is None:
        return
    holds(theta, c, z, m)
    holds(theta_dz, c, z, m)
    holds(theta_four, z, m)
    holds(lattice_distance, m, z, 0.5 * z)
    holds(canonical_torus_point, m, z)
    holds(quasi_period_factor, c, p, q, z, m)
    for word in ("T", "S", "t", "SSS", "STSS", "tS"):
        holds(transform, c, z, m, word)


@SWEEP
@given(CHARS, COMPLEXES, st.one_of(st.sampled_from((1j, ZETA)), COMPLEXES), st.text("STt", max_size=6))
@example(ThetaChar(0, 0), 0.1 + 0j, 1j, "SX")  # "X" once read as t
def test_any_word_keeps_the_contract(c, z, tau, word):
    m = holds(Modulus.generic, tau)
    if m is None:
        return
    if set(word) <= {"S", "T", "t"}:
        holds(transform, c, z, m, word)
    else:
        with pytest.raises(DomainError):
            transform(c, z, m, word)


PARAMS = st.one_of(_signed(_log_uniform(1e-3, 1e5)), st.sampled_from((0.0, -1.0, 0.5, 1.0, 2.0, -3.0, 1e-300, math.nan)))


@SWEEP
@given(PARAMS, PARAMS, PARAMS, COMPLEXES)
@pinned(*GAUSS_BREACHES)
def test_hypergeometric_family_keeps_the_contract(a, b, c, z):
    p = holds(GaussParams, a, b, c)
    if p is not None:
        holds(gauss_2f1, p, z)
        holds(gauss_2f1_pair, p, z, complex(1.0 - z.real, -z.imag))
        holds(gauss_kummer_value, p)
    holds(general_m0_m1, a, b, c)
    holds(invariant_hermitian_form, a, b, c)
    for v in SchwarzVariant:
        holds(schwarz_map, v, z)


@SWEEP
@given(st.sampled_from(list(SchwarzVariant)), COMPLEXES, st.integers(-6, 6))
@pinned(*CURVE_BREACHES)
def test_curve_family_keeps_the_contract(curve, t, k):
    holds(hgf_theta_roundtrip, t, curve)
    point = holds(lift_branch, curve, t, k)
    if point is None:
        return
    holds(abel_jacobi, point)
    image = holds(mul_one_plus_i if curve is SchwarzVariant.QUARTIC else mul_one_plus_zeta, point)
    if image is not None:
        holds(abel_jacobi, image)


@SWEEP
@given(REALS, REALS)
@pinned(*MEAN_BREACHES)
def test_mean_family_keeps_the_contract(a, b):
    pair = holds(MeanPair, a, b)
    if pair is None:
        return
    holds(step_quartic, pair)
    holds(step_sextic, pair)
    holds(cubic_preimage_x0, pair)
    for v in SchwarzVariant:
        holds(iterate_until_converged, pair, v)
        holds(closed_form_limit, pair, v)


@SWEEP
@given(COMPLEXES, COMPLEXES)
@pinned(*LEMMA_BREACHES)
def test_identity_lemmas_keep_the_contract(z1, z2):
    for m, lemma in ((TAU_I, one_plus_i_multiple), (TAU_ZETA, one_plus_zeta_multiple)):
        th = holds(theta_four, z1, m)
        if th is not None:
            holds(lemma, z1, th)
    for m, with_thetas, ratios in (
        (TAU_I, _quartic_with_thetas, ratio_identities_quartic),
        (TAU_ZETA, _sextic_with_thetas, ratio_identities_sextic),
    ):
        holds(addition_check, z1, z2, m)
        point = holds(canonical_torus_point, m, z1)
        sample = None if point is None else holds(with_thetas, point)
        if sample is not None:
            holds(ratios, *sample)


def test_the_cli_exits_2_past_binary64_and_at_a_ramification_value(capsys):
    # lift_branch holds the only ramification check, and its message names
    # what a CLI user can take instead
    for argv in (
        ["curve", "--curve", "i", "--t", "1.7e308+1.7e308i"],
        ["curve", "--curve", "zeta", "--t", "-1.7e308-1.7e308i"],
        ["curve", "--curve", "i", "--t", "1e-13"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "special_point, or --point" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Residuals at moderate inputs.

UNIT = st.floats(-1.0, 1.0)


@SWEEP
@given(
    CHARS,
    st.builds(complex, UNIT, UNIT),
    st.one_of(st.sampled_from((1j, ZETA)), st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.5, 2.0))),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
def test_theta_is_quasi_periodic(c, z, tau, p, q):
    # the bound of test_quasi_periodicity_out_to_ten_cells: relative to the
    # sum of |terms|, since theta may sit near one of its zeros
    m = Modulus.generic(tau)
    factor = quasi_period_factor(c, p, q, z, m)
    lhs = theta(c, z + p * m.value + q, m)
    rhs = factor * theta(c, z, m)
    a = float(c.a % 1)
    terms = sum(math.exp(-math.pi * (tau.imag * k + 2.0 * z.imag) * k) for k in (n + a for n in range(-40, 41)))
    assert abs(lhs - rhs) <= 1e-12 * abs(factor) * terms


@SWEEP
@given(st.builds(complex, UNIT, UNIT))
@example(LEMMA_BREACHES[3][0])  # t rounds to exactly 1: t - 1 is taken as u^6/t^3
# near t = 1, where the stored t - 1 has lost digits: |t - 1| = 7.3e-16,
# 1.5e-15, 2.1e-10 and 3.2e-6, with residuals 1.0, 0.60, 4.5e-6 and 2.4e-10
# while t - 1 was taken as the stored difference
@example(1e-4j)
@example(1e-3 + 1e-3j)
@example(0.01j)
@example(0.05j)
def test_sextic_ratio_identities_hold(z):
    # everywhere but over t = infinity and at the base point z = 0
    point = canonical_torus_point(TAU_ZETA, z)
    assume(not inverse_sextic(point).at_infinity)
    try:
        pairs = ratio_identities_sextic(*_sextic_with_thetas(point))
    except DomainError as exc:
        assume("base point" not in str(exc))
        raise
    assert all(pair.residual <= 1e-10 for pair in pairs), (z, pairs)


@SWEEP
@given(st.sampled_from(list(SchwarzVariant)), _log_uniform(1e-3, 1e6), st.floats(-math.pi, math.pi), st.integers(0, 5))
def test_curve_roundtrip(curve, r, phi, k):
    t = cmath.rect(r, phi)
    assume(abs(t - 1) >= 1e-12)  # outside lift_branch's window around the ramification value 1
    p = lift_branch(curve, t, k)
    q = (inverse_quartic if curve is SchwarzVariant.QUARTIC else inverse_sextic)(abel_jacobi(p))
    assert abs(q.t - p.t) <= 1e-8 * abs(p.t)
    assert abs(q.u - p.u) <= 1e-8 * abs(p.u)


@SWEEP
@given(_log_uniform(0.5, 2.0), _log_uniform(1e-3, 1e3), st.sampled_from(list(SchwarzVariant)))
def test_mean_orbit_matches_the_closed_form(a, ratio, v):
    pair = MeanPair(a, a * ratio)
    trace = iterate_until_converged(pair, v)
    lim = closed_form_limit(pair, v)
    assert trace.converged
    assert abs(trace.limit - lim) <= 1e-12 * lim


# floats in [-3, 3] on the grid 2^-50 Z, where x + 1 and x + 2 are exact
_PARAM = st.integers(-3 * 2 ** 50, 3 * 2 ** 50).map(lambda k: k * 2.0 ** -50)


@SWEEP
@given(_PARAM, _PARAM, _PARAM, _log_uniform(1e-3, 1e3), st.floats(-math.pi, math.pi))
def test_gauss_2f1_solves_the_hypergeometric_equation(a, b, c, r, phi):
    # z(1 - z) F'' + (c - (a + b + 1) z) F' - ab F = 0, with F' = ab/c F1 and
    # F'' = a(a + 1) b(b + 1)/(c(c + 1)) F2, Fk = F(a + k, b + k; c + k; z).
    # The terms are taken times c(c + 1)/(ab), which leaves the relative
    # residual as it is and at ab = 0 is the equation's limit.  z is off the
    # cut [1, inf), and a draw that a call refuses is skipped.
    z = cmath.rect(r, phi)
    assume(z.imag or z.real < 1.0)
    try:
        f0, f1, f2 = (gauss_2f1(GaussParams(a + k, b + k, c + k), z) for k in range(3))
    except (DomainError, IterationLimitError):
        return
    terms = (z * (1 - z) * (a + 1) * (b + 1) * f2, (c - (a + b + 1) * z) * (c + 1) * f1, -c * (c + 1) * f0)
    assert abs(sum(terms)) <= 1e-9 * sum(map(abs, terms)), (a, b, c, z)


# ---------------------------------------------------------------------------
# One rule for a value that is not a SchwarzVariant member.

@pytest.mark.parametrize(
    "call",
    (
        n_matrices,
        lambda v: iterate_until_converged(MeanPair(2.0, 1.0), v),
        lambda v: closed_form_limit(MeanPair(2.0, 1.0), v),
        lambda v: schwarz_map(v, 2.0),
        lambda v: lift_branch(v, 2.0),
        units,
        one_form_constant,
        lambda v: hgf_theta_roundtrip(0.1, v),
        lambda v: CurvePoint(v, 1.0, 0.0),
        lambda v: CycInt(1, 0, v),
    ),
    ids=("n_matrices", "iterate_until_converged", "closed_form_limit", "schwarz_map", "lift_branch", "units",
         "one_form_constant", "hgf_theta_roundtrip", "CurvePoint", "CycInt"),
)
def test_a_value_that_is_not_a_variant_is_a_domain_error(call):
    for v in ("quartic", 4, None):
        with pytest.raises(DomainError, match="unknown variant"):
            call(v)


def test_a_torus_point_needs_a_modulus():
    # a bare tau, a variant or None is refused when built, not when z is read
    for m in (1j, TAU_I.value, SchwarzVariant.QUARTIC, None):
        with pytest.raises(DomainError, match=re.escape(f"torus point needs a Modulus, got {m!r}")):
            TorusPoint(m, 0.1, 0.2)
