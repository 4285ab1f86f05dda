"""Two compatible mean iterations and their hypergeometric limit formulas."""

from __future__ import annotations

import dataclasses
import math
import random

import mpmath
import pytest

from lemnis import (
    DomainError,
    GaussParams,
    IterationLimitError,
    IterationTrace,
    MeanPair,
    SchwarzVariant,
    closed_form_limit,
    cubic_preimage_x0,
    gauss_2f1,
    iterate_until_converged,
)
from lemnis.meaniter import _accelerated_limit, _quartic, _sextic

QUARTIC = SchwarzVariant.QUARTIC
SEXTIC = SchwarzVariant.SEXTIC

# limits computed independently at 40 digits from the series formulas
QUARTIC_LIMITS = {
    (2.0, 1.0): 1.59235907813963962,
    (1.0, 10.0): 4.2097921355260806796,
    (10.0, 1.0): 6.2582680548482363348,
}
SEXTIC_LIMITS = {
    (3.0, 5.0): 3.2590941992012041135,
    (5.0, 3.0): 4.6930212366337050966,
    (1.0, 10.0): 1.6618537584186517404,
    (10.0, 1.0): 8.4539528199854351213,
}


def test_pair_validation():
    MeanPair(1.0, 2.0)
    for bad in ((0.0, 1.0), (-1.0, 2.0), (float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(DomainError):
            MeanPair(*bad)


def test_pair_keeps_its_domain_errors_and_dataclass_api():
    for bad in ((1.0, 0.0), (1.0, -0.0), (5e-324, -1.0), (float("-inf"), 1.0), (1.0, float("nan"))):
        with pytest.raises(DomainError, match="mean iteration needs finite positive entries"):
            MeanPair(*bad)
    p = MeanPair(b=2.0, a=1.0)
    assert p == MeanPair(1.0, 2.0) and hash(p) == hash(MeanPair(1.0, 2.0)) and repr(p) == "MeanPair(a=1.0, b=2.0)"
    assert dataclasses.replace(p, b=3.0) == MeanPair(1.0, 3.0)
    with pytest.raises(DomainError):
        dataclasses.replace(p, a=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 2.0


def test_trace_keeps_its_dataclass_api():
    trace = iterate_until_converged(MeanPair(2.0, 1.0), SEXTIC)
    same = IterationTrace(orbit=trace.orbit, converged=True, limit=trace.limit, iterations=trace.iterations)
    assert same == trace and repr(same) == repr(trace)
    assert dataclasses.replace(same, converged=False) != same
    assert dataclasses.replace(same, iterations=0).orbit is trace.orbit
    with pytest.raises(dataclasses.FrozenInstanceError):
        same.limit = 1.0


def test_quartic_step_values():
    a, b = _quartic(2.0, 1.0)
    assert a == pytest.approx(1.5)
    assert b == pytest.approx(math.sqrt(3.0))


def test_quartic_step_argument_identity():
    # with x = 2a/(a+b) the complementary ratio collapses to b/a, which
    # is what makes the series argument transform cleanly under the step
    rng = random.Random(121)
    for _ in range(50):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(0.1, 10.0)
        x = 2.0 * a / (a + b)
        assert (2.0 - x) / x == pytest.approx(b / a, rel=1e-14)


def test_sextic_step_values():
    a, b = _sextic(3.0, 5.0)
    # second mean in closed form: 3^(2/3) (9^(1/3) + 1) / 2
    m2 = 3.0 ** (2.0 / 3.0) * (9.0 ** (1.0 / 3.0) + 1.0) / 2.0
    assert b == pytest.approx(m2, rel=1e-14)
    assert a == pytest.approx(3.2684095580975043, rel=1e-13)


def test_steps_contract_the_gap():
    rng = random.Random(123)
    for step in (_quartic, _sextic):
        for _ in range(40):
            a, b = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
            qa, qb = step(a, b)
            if abs(a - b) > 1e-10:
                assert abs(qa - qb) < 0.5 * abs(a - b)


def test_fixed_point_needs_no_iterations():
    trace = iterate_until_converged(MeanPair(3.7, 3.7), QUARTIC)
    assert trace.iterations == 0
    assert trace.converged
    assert trace.limit == pytest.approx(3.7, rel=1e-12)


def test_iterate_validation():
    p = MeanPair(2.0, 1.0)
    with pytest.raises(DomainError):
        iterate_until_converged(p, QUARTIC, tol=1e-16)
    with pytest.raises(DomainError):
        iterate_until_converged(p, QUARTIC, tol=0.1)
    with pytest.raises(DomainError):
        iterate_until_converged(p, QUARTIC, max_iter=0)
    with pytest.raises(DomainError):
        iterate_until_converged(p, QUARTIC, max_iter=500)


def test_linear_rate_takes_many_iterations():
    # the quartic gap contracts by about 1/4 per step, so full double
    # precision needs around twenty steps
    trace = iterate_until_converged(MeanPair(2.0, 1.0), QUARTIC, tol=1e-12)
    assert trace.converged
    assert trace.iterations == 20
    gaps = [abs(a - b) for a, b in trace.orbit]
    ratios = [gaps[k + 1] / gaps[k] for k in range(4, 8)]
    for r in ratios:
        assert 0.15 < r < 0.35


def test_quartic_limits_are_pinned_to_the_bit():
    # the extrapolation and the quartic step are float-for-float fixed, so
    # both limits keep their exact binary64 values
    trace = iterate_until_converged(MeanPair(2.0, 1.0), QUARTIC)
    assert repr(trace.limit) == "1.5923590781396393"
    closed = closed_form_limit(MeanPair(2.0, 1.0), QUARTIC)
    assert repr(closed) == "1.5923590781396397"
    with mpmath.workdps(50):
        ref = 2 / mpmath.hyp2f1(0.25, 0.5, 1.25, 0.75) ** 2
        assert abs(closed - ref) <= 2e-16


def test_closed_form_limit_against_40_digits_across_the_ratio_range():
    # closed_form_limit steps until |1 - (b/a)^2| < 1/64, where the series
    # is short; over b/a log-uniform in [1e-3, 1e3] both variants stay within
    # 2e-15 of a/F^2 and a/F at 40 digits
    rng = random.Random(64)
    worst = {QUARTIC: 0.0, SEXTIC: 0.0}
    with mpmath.workdps(40):
        for _ in range(1000):
            a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            b = a * 10 ** rng.uniform(-3.0, 3.0)
            x = 1 - (mpmath.mpf(b) / a) ** 2
            for v, power in ((QUARTIC, 2), (SEXTIC, 1)):
                s = mpmath.mpf(1) / v.root_order
                ref = a / mpmath.hyp2f1(s, 0.5, 1 + s, x) ** power
                err = abs(closed_form_limit(MeanPair(a, b), v) - ref) / ref
                worst[v] = max(worst[v], float(err))
    assert max(worst.values()) <= 2e-15, worst


def test_extrapolation_is_pinned_to_the_bit():
    # on a list that does not converge every rounding of the difference
    # scheme reaches the result
    rng = random.Random(129)
    mids = [rng.uniform(-1.0, 1.0) for _ in range(12)]
    assert repr(_accelerated_limit(mids)) == "0.0622639912252303"


SEXTIC_ITERATIONS = {
    (2.0, 1.0): 9,
    (1.0, 2.0): 9,
    (3.0, 5.0): 9,
    (5.0, 3.0): 9,
    (1.0, 10.0): 9,
    (10.0, 1.0): 9,
    (1e-300, 1.0): 9,
    (1.0, 1e-300): 9,
    (1e300, 1e-300): 9,
    (1e-300, 1e300): 9,
    (1.0, 1.0000001): 4,
    (7.0, 6.9999999): 3,
}


def test_sextic_iteration_counts_are_pinned():
    for (a, b), count in SEXTIC_ITERATIONS.items():
        assert iterate_until_converged(MeanPair(a, b), SEXTIC).iterations == count, (a, b)


def test_sextic_rate_is_much_faster():
    trace = iterate_until_converged(MeanPair(3.0, 5.0), SEXTIC, tol=1e-12)
    assert trace.converged
    assert trace.iterations <= 12
    # contraction near 1/27 per step
    (a1, b1), (a2, b2) = trace.orbit[1:3]
    r = abs(a2 - b2) / abs(a1 - b1)
    assert 0.02 < r < 0.06


def test_frozen_quartic_limits():
    for (a, b), ref in QUARTIC_LIMITS.items():
        assert closed_form_limit(MeanPair(a, b), QUARTIC) == pytest.approx(ref, rel=1e-13)


def test_frozen_sextic_limits():
    for (a, b), ref in SEXTIC_LIMITS.items():
        assert closed_form_limit(MeanPair(a, b), SEXTIC) == pytest.approx(ref, rel=1e-13)


def test_closed_form_limit_rejects_a_non_variant():
    # a variant name is not a variant, and no limit is silently returned for it
    with pytest.raises(DomainError):
        closed_form_limit(MeanPair(2.0, 1.0), "quartic")


def test_closed_form_is_series_quotient():
    # quartic: a / F(1/4,1/2;5/4; 1-(b/a)^2)^2, sextic: a / F(1/6,1/2;7/6; .)
    p = MeanPair(1.0, 1.2)
    x = 1.0 - (p.b / p.a) ** 2
    fq = gauss_2f1(GaussParams(0.25, 0.5, 1.25), x).real
    fs = gauss_2f1(GaussParams(1.0 / 6.0, 0.5, 7.0 / 6.0), x).real
    assert closed_form_limit(p, QUARTIC) == pytest.approx(p.a / fq**2, rel=1e-13)
    assert closed_form_limit(p, SEXTIC) == pytest.approx(p.a / fs, rel=1e-13)


def test_orbit_limit_matches_closed_form():
    rng = random.Random(124)
    for _ in range(30):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(0.1, 10.0)
        p = MeanPair(a, b)
        tq = iterate_until_converged(p, QUARTIC, tol=1e-6, max_iter=12)
        lq = closed_form_limit(p, QUARTIC)
        assert abs(tq.limit - lq) < 1e-11 * max(1.0, lq)
        ts = iterate_until_converged(p, SEXTIC, tol=1e-12, max_iter=12)
        ls = closed_form_limit(p, SEXTIC)
        assert abs(ts.limit - ls) < 1e-10 * max(1.0, ls)


def test_limits_at_extreme_ratios():
    # (b/a)^2 overflows or underflows for all of these; each closed form
    # either returns a finite limit that the orbit confirms or raises a
    # package error, and only the last pair (ratio 1e600) may raise
    pairs = EXTREME_RATIO_PAIRS
    for variant in (QUARTIC, SEXTIC):
        for a, b in pairs:
            p = MeanPair(a, b)
            try:
                lim = closed_form_limit(p, variant)
            except (DomainError, IterationLimitError):
                assert (a, b) == pairs[-1], (variant, a, b)
                continue
            assert math.isfinite(lim) and min(a, b) <= lim <= max(a, b)
            trace = iterate_until_converged(p, variant)
            assert trace.converged
            assert abs(trace.limit - lim) <= 1e-12 * lim, (variant, a, b)


EXTREME_RATIO_PAIRS = [
    (1e-300, 1.0),
    (1.0, 1e300),
    (1e300, 1.0),
    (1.0, 1e-300),
    (1e-170, 2e-170),
    (1e200, 3e200),
    (1e300, 1e-300),
]


def _sweep_pairs():
    # a log-uniform over [1/2, 2] and b/a over [1e-3, 1e3], then the extremes
    rng = random.Random(130)
    pairs = []
    for _ in range(200):
        a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        pairs.append((a, a * 10.0 ** rng.uniform(-3.0, 3.0)))
    return pairs + EXTREME_RATIO_PAIRS


def _limit_mpmath(a, b, variant):
    # a / F(1/4, 1/2; 5/4; x)^2 or a / F(1/6, 1/2; 7/6; x), x = 1 - (b/a)^2
    with mpmath.workdps(35):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        x = 1 - (b / a) ** 2
        if variant is QUARTIC:
            return a / mpmath.hyp2f1(mpmath.mpf(1) / 4, mpmath.mpf(1) / 2, mpmath.mpf(5) / 4, x) ** 2
        return a / mpmath.hyp2f1(mpmath.mpf(1) / 6, mpmath.mpf(1) / 2, mpmath.mpf(7) / 6, x)


def test_orbit_limits_match_mpmath_on_a_seeded_sweep():
    # the extrapolation reads only the last midpoints; on 1500 pairs the
    # worst error over the whole orbit was 1.41e-15 (quartic), 9.1e-16 (sextic)
    for variant in (QUARTIC, SEXTIC):
        for a, b in _sweep_pairs():
            trace = iterate_until_converged(MeanPair(a, b), variant)
            ref = _limit_mpmath(a, b, variant)
            assert trace.converged
            assert abs(trace.limit - ref) <= 2e-15 * ref, (variant, a, b)


def test_orbit_repeats_the_step_kernels():
    # the trace's orbit is the step kernel's orbit bit for bit, and every
    # pair of it passes MeanPair's check
    for variant, step in ((QUARTIC, _quartic), (SEXTIC, _sextic)):
        for a, b in _sweep_pairs():
            trace = iterate_until_converged(MeanPair(a, b), variant)
            orbit = [(a, b)]
            for _ in range(trace.iterations):
                orbit.append(step(*orbit[-1]))
            assert type(trace.orbit) is tuple
            assert trace.orbit == tuple(orbit), (variant, a, b)
            for q in orbit:
                MeanPair(*q)


def test_sextic_step_for_small_a_matches_mpmath():
    # b - sqrt(b^2 - a^2) cancels when a << b; the step must not lose it
    with mpmath.workdps(40):
        a, b = mpmath.mpf("1e-8"), mpmath.mpf(1)
        s = mpmath.sqrt(b * b - a * a)
        r1, r2 = mpmath.cbrt(b + s), mpmath.cbrt(b - s)
        a23 = a ** (mpmath.mpf(2) / 3)
        m1 = float(a23 * mpmath.sqrt(r1 * r1 + r1 * r2 + r2 * r2) / mpmath.sqrt(3))
        m2 = float(a23 * (r1 + r2) / 2)
    qa, qb = _sextic(1e-8, 1.0)
    assert qa == pytest.approx(m1, rel=1e-14)
    assert qb == pytest.approx(m2, rel=1e-14)


def _sextic_step_mpmath(a, b):
    # the sextic means at 60 digits: conjugate (or real) eta pair, principal
    # cube roots (argument within pi/6, as eta lies in the right half-plane)
    with mpmath.workdps(60):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        s = mpmath.sqrt(mpmath.mpc(b * b - a * a))
        r1, r2 = mpmath.cbrt(b + s), mpmath.cbrt(b - s)
        a23 = mpmath.cbrt(a) ** 2
        m1 = a23 * mpmath.sqrt(r1 * r1 + r1 * r2 + r2 * r2) / mpmath.sqrt(3)
        m2 = a23 * (r1 + r2) / 2
        return float(mpmath.re(m1)), float(mpmath.re(m2))


EXTREME_SEXTIC_PAIRS = [(3e200, 5e200), (2e300, 1e300), (5e-200, 2e-200), (1e-300, 3e-300)]


def test_sextic_step_at_extreme_magnitudes_matches_mpmath():
    # a rounded exponent such as 1/3 costs about 2e-17 ln|x| relative, 1.4e-14
    # near 1e300; the roots are taken on the binary mantissa instead
    for a, b in EXTREME_SEXTIC_PAIRS:
        m1, m2 = _sextic_step_mpmath(a, b)
        qa, qb = _sextic(a, b)
        assert abs(qa - m1) <= 4e-16 * m1, (a, b)
        assert abs(qb - m2) <= 4e-16 * m2, (a, b)


def test_sextic_step_matches_mpmath_on_a_seeded_sweep():
    # both branches: the trisection for b <= a and real cube roots for b > a,
    # over magnitudes 1e-300 to 1e300, ratios up to 1e+-300 and next to 1;
    # both means stay real and positive
    rng = random.Random(128)
    for k in range(2000):
        a = 10.0 ** rng.uniform(-300.0, 300.0)
        if k % 3 == 0:
            b = a * 10.0 ** rng.uniform(-300.0, 300.0)
        elif k % 3 == 1:
            b = a * (1.0 + rng.uniform(-1e-6, 1e-6) * 10.0 ** rng.uniform(-10.0, 0.0))
        else:
            b = a * 10.0 ** rng.uniform(-2.0, 2.0)
        b = min(max(b, 1e-300), 1e300)
        qa, qb = _sextic(a, b)
        assert qa > 0.0 and qb > 0.0
        m1, m2 = _sextic_step_mpmath(a, b)
        assert abs(qa - m1) <= 6e-16 * m1, (a, b)
        assert abs(qb - m2) <= 6e-16 * m2, (a, b)


def test_sextic_orbit_and_closed_form_agree_at_extreme_magnitudes():
    for a, b in EXTREME_SEXTIC_PAIRS:
        p = MeanPair(a, b)
        lim = closed_form_limit(p, SEXTIC)
        trace = iterate_until_converged(p, SEXTIC)
        assert abs(trace.limit - lim) <= 1e-15 * lim, (a, b)


def test_sextic_mean_at_the_top_of_the_range():
    # b + a and b + sqrt(b^2 - a^2) overflow here unless the step scales
    # the pair first; the last pair reaches such a pair after one step
    for a, b in ((1e308, 1.7e308), (1e-300, 1.7e308), (1.7e308, 1e308)):
        m1, m2 = _sextic_step_mpmath(a, b)
        qa, qb = _sextic(a, b)
        assert abs(qa - m1) <= 4e-16 * m1, (a, b)
        assert abs(qb - m2) <= 4e-16 * m2, (a, b)
        lim = closed_form_limit(MeanPair(a, b), SEXTIC)
        trace = iterate_until_converged(MeanPair(a, b), SEXTIC)
        assert trace.converged
        assert abs(trace.limit - lim) <= 2e-15 * lim, (a, b)


def test_sextic_limit_with_a_subnormal_entry():
    # a / 8 rounds for a subnormal a; 9.6025228862853461e-114 is a 60-digit
    # mpmath run of 60 sextic steps from the same pair
    p = MeanPair(5e-324, 1e308)
    ref = 9.6025228862853461e-114
    assert abs(iterate_until_converged(p, SEXTIC).limit - ref) <= 1e-13 * ref
    assert abs(closed_form_limit(p, SEXTIC) - ref) <= 1e-13 * ref


def test_limit_is_homogeneous():
    rng = random.Random(125)
    for _ in range(20):
        a = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.5, 5.0)
        lam = rng.uniform(0.2, 4.0)
        base = closed_form_limit(MeanPair(a, b), QUARTIC)
        assert closed_form_limit(MeanPair(lam * a, lam * b), QUARTIC) == pytest.approx(
            lam * base, rel=1e-11
        )


def test_limit_between_min_and_max():
    rng = random.Random(126)
    for variant in (QUARTIC, SEXTIC):
        for _ in range(30):
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(0.1, 10.0)
            m = closed_form_limit(MeanPair(a, b), variant)
            assert min(a, b) - 1e-12 <= m <= max(a, b) + 1e-12


def test_cubic_preimage_value_and_identity():
    x0 = cubic_preimage_x0(MeanPair(3.0, 5.0))
    assert x0 == pytest.approx(0.9606248332378425, rel=1e-12)
    rng = random.Random(127)
    for _ in range(40):
        a = rng.uniform(0.1, 5.0)
        b = a * rng.uniform(1.0 + 1e-6, 3.0)
        x0 = cubic_preimage_x0(MeanPair(a, b))
        assert 0.75 < x0 <= 1.0
        image = x0 * (9.0 - 8.0 * x0) ** 2 / (4.0 * x0 - 3.0) ** 3
        assert image == pytest.approx((b / a) ** 2, rel=1e-11)


def test_cubic_preimage_at_extreme_magnitudes():
    # b * b under- or overflowed here before the pair was scaled
    def reference(a, b):
        with mpmath.workdps(450):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            s = mpmath.sqrt(b * b - a * a)
            return float(0.375 * (a ** (mpmath.mpf(2) / 3) / s * (mpmath.cbrt(b + s) - mpmath.cbrt(b - s)) + 2))

    for a, b in ((1e-300, 1e-200), (1.0, 1e200), (1.0, 1e5), (3e-250, 5e-250), (3e250, 5e250)):
        x0 = cubic_preimage_x0(MeanPair(a, b))
        assert math.isfinite(x0)
        assert abs(x0 - reference(a, b)) <= 1e-14 * reference(a, b), (a, b)


def test_cubic_preimage_requires_ordered_pair():
    with pytest.raises(DomainError):
        cubic_preimage_x0(MeanPair(5.0, 3.0))
