"""Two-term mean iterations attached to the quartic and sextic curves.

Each step replaces a positive pair by a pair of means; the common limit,
`closed_form_limit`, is a / F^2 (quartic) or a / F (sextic) with F a 2F1
value at 1 - (b/a)^2, taken after the pair is stepped until
|1 - (b/a)^2| < 1/64: a step costs less than the series terms it saves.
The sextic step takes conjugate cube roots of
eta = b +/- sqrt(b^2 - a^2) in real arithmetic: for b <= a,
eta = a e^(+/- i theta) with cos theta = b/a, and the means come from the
angle trisection that solves a cubic (DLMF 1.11(iii)).

Both steps run as float kernels (a, b) -> (a', b'), and an orbit is kept
as float pairs; its MeanPairs are built when `IterationTrace.pairs` is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .hypergeometric import SchwarzVariant, gauss_2f1
from .numerics import SQRT3, DomainError, _real_root

# 1 - (b/a)^2 lies in (-1/64, 1/64) exactly when b/a lies in this window.
# A step costs less than the series terms it saves: a window of 0.8 needs
# about 21 terms per limit, 1/64 about 7, for two to three more steps.
_RATIO_LO, _RATIO_HI = math.sqrt(1.0 - 1.0 / 64.0), math.sqrt(1.0 + 1.0 / 64.0)

# midpoints the extrapolation reads (earlier ones add no accuracy): below 5 a
# loose-tolerance quartic limit loses a digit; an even count picks by spread
_TAIL = 6


@dataclass(frozen=True)
class MeanPair:
    a: float
    b: float

    def __init__(self, a: float, b: float) -> None:
        if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
            raise DomainError("mean iteration needs finite positive entries")
        self.__dict__.update(a=a, b=b)

    def gap(self) -> float:
        return abs(self.a - self.b)


@dataclass(frozen=True)
class IterationTrace:
    """A full orbit as float pairs, plus the extracted limit.

    `limit` extrapolates the last _TAIL midpoints (a_n + b_n)/2 by repeated
    differences, as the plain midpoint converges only linearly for the
    quartic step.  `pairs` builds the orbit's MeanPairs on first read.
    """

    orbit: tuple[tuple[float, float], ...]
    converged: bool
    limit: float
    iterations: int

    def __init__(self, orbit: tuple, converged: bool, limit: float, iterations: int) -> None:
        self.__dict__.update(orbit=orbit, converged=converged, limit=limit, iterations=iterations)

    @functools.cached_property
    def pairs(self) -> tuple[MeanPair, ...]:
        return tuple(MeanPair(a, b) for a, b in self.orbit)


def _quartic(a: float, b: float) -> tuple[float, float]:
    # halves and square roots taken apart so no intermediate leaves the range
    a1 = 0.5 * a + 0.5 * b
    return a1, math.sqrt(a) * math.sqrt(a1)


def step_quartic(p: MeanPair) -> MeanPair:
    return MeanPair(*_quartic(p.a, p.b))


def _eta_cube_roots(a: float, b: float) -> tuple[float, float, float]:
    """s = sqrt(b^2 - a^2) and the real cube roots of b + s and b - s, for a <= b."""
    # no b^2 - a^2 to overflow or underflow, and eta2 = a^2 / eta1 avoids
    # the cancellation in b - s when a << b
    s = math.sqrt(b - a) * math.sqrt(b + a)
    eta1 = b + s
    return s, _real_root(eta1, 3), _real_root(a * (a / eta1), 3)


def _sextic(a: float, b: float) -> tuple[float, float]:
    if b <= a:
        # the cube roots are a^(1/3) e^(+/- it), t = theta / 3; b/a may
        # underflow to 0, and acos(0) = pi/2 is then right to roundoff
        t = math.acos(b / a) / 3.0
        return a * math.sqrt((1.0 + 2.0 * math.cos(2.0 * t)) / 3.0), a * math.cos(t)
    if b > 2.0 ** 1020:
        # b + a and b + s overflow up here.  Where a / 8 is exact, 1/8 scales
        # every cube root by exactly 1/2, so the means come out as if unscaled
        if a / 8.0 * 8.0 == a:
            qa, qb = _sextic(a / 8.0, b / 8.0)
            return 8.0 * qa, 8.0 * qb
        # else a < 2^-1019, and a / 8 would round: s is b to rounding, so
        # eta1 = 2b, and eta2 = a^2 / eta1 underflows to 0
        r1, a23 = 2.0 * _real_root(b / 4.0, 3), _real_root(a, 3, 2)
        return a23 * r1 / SQRT3, a23 * r1 / 2.0
    _, r1, r2 = _eta_cube_roots(a, b)
    a23 = _real_root(a, 3, 2)
    return a23 * math.sqrt(r1 * r1 + r1 * r2 + r2 * r2) / SQRT3, a23 * (r1 + r2) / 2.0


def step_sextic(p: MeanPair) -> MeanPair:
    return MeanPair(*_sextic(p.a, p.b))


def _step(variant: SchwarzVariant):
    if variant is SchwarzVariant.QUARTIC:
        return _quartic
    if variant is SchwarzVariant.SEXTIC:
        return _sextic
    raise DomainError("unknown variant")


def closed_form_limit(p: MeanPair, variant: SchwarzVariant) -> float:
    """a / F^2 (quartic) or a / F (sextic), F the variant's series at 1 - (b/a)^2."""
    # Each step preserves the limit, so stepping until the series argument
    # 1 - (b/a)^2 is small is free.  The test reads b/a unsquared, since
    # the square overflows for ratios beyond about 1e154.
    step = _step(variant)
    a, b = p.a, p.b
    for _ in range(65):
        if _RATIO_LO < b / a < _RATIO_HI:
            break
        a, b = step(a, b)
    else:
        raise DomainError("preconditioning failed to contract the pair")
    f = gauss_2f1(variant.series_params, 1.0 - (b / a) ** 2).real
    return a / (f * f if variant is SchwarzVariant.QUARTIC else f)


def _accelerated_limit(mids: list[float]) -> float:
    """Repeated difference extrapolation, keeping the most settled level."""
    if len(mids) == 1:
        return mids[0]
    best = mids[-1]
    best_err = abs(mids[-1] - mids[-2])
    cur = mids
    while len(cur) >= 3:
        # a sliding window: c1 = cur[k + 1] and d1 = cur[k + 1] - cur[k]
        nxt = []
        c1 = cur[1]
        d1 = c1 - cur[0]
        for c2 in cur[2:]:
            d2 = c2 - c1
            den = d2 - d1
            nxt.append(c2 if den == 0.0 else c2 - d2 / den * d2)
            c1, d1 = c2, d2
        cur = nxt
        if len(cur) >= 2:
            err = abs(cur[-1] - cur[-2])
            if err <= best_err:
                best, best_err = cur[-1], err
        elif best_err > 0.0:
            best = cur[-1]
    return best


def iterate_until_converged(
    p: MeanPair,
    variant: SchwarzVariant,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> IterationTrace:
    """Run the mean iteration until the relative gap drops below tol.

    Non-convergence within max_iter is reported in the trace, not raised.
    """
    if not 1e-15 < tol < 1e-3:
        raise DomainError("tol must lie in (1e-15, 1e-3)")
    if not 1 <= max_iter <= 200:
        raise DomainError("max_iter must lie in [1, 200]")
    step = _step(variant)
    a, b = p.a, p.b
    orbit = [(a, b)]
    while abs(a - b) >= tol * a and len(orbit) <= max_iter:
        a, b = step(a, b)
        orbit.append((a, b))
    return IterationTrace(
        orbit=tuple(orbit),
        converged=abs(a - b) < tol * a,
        limit=_accelerated_limit([0.5 * x + 0.5 * y for x, y in orbit[-_TAIL:]]),
        iterations=len(orbit) - 1,
    )


def cubic_preimage_x0(p: MeanPair) -> float:
    """The real preimage in (3/4, 1] of b^2/a^2 under x (9-8x)^2 / (4x-3)^3.

    Defined for a < b; the radicand b^2 - a^2 is then positive and both cube
    roots are of positive reals.
    """
    if not p.a < p.b:
        raise DomainError("cubic preimage needs a < b")
    # x0 depends on b/a alone, so scale both by the power of two that puts b
    # in [1/2, 1): b + a cannot overflow, and s cannot underflow
    e = math.frexp(p.b)[1]
    a, b = math.ldexp(p.a, -e), math.ldexp(p.b, -e)
    s, r1, r2 = _eta_cube_roots(a, b)
    return 0.375 * ((_real_root(a, 3, 2) / s) * (r1 - r2) + 2.0)
