"""Gauss hypergeometric series and the two Schwarz maps.

The series F(alpha, beta, gamma; z) is summed directly inside the unit
disk.  Arguments the callers push outside the disk (limit formulas feed
values like 1 - x' with x' in the hundreds) are brought back inside with
the standard contiguous rewrites before summation; no continuation is
exposed as API surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .numerics import (
    DEFAULT_TOLERANCE,
    SQRT3,
    ZETA,
    DomainError,
    IterationLimitError,
    Tolerance,
    _dist_to_int,
    _gamma_signed,
    beta as beta_fn,
    gamma_real,
)

_MAX_TERMS = 100_000


@dataclass(frozen=True)
class GaussParams:
    """Parameter triple (alpha, beta, gamma) of the hypergeometric series."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        g = self.gamma
        if g <= 0.0 and abs(g - round(g)) < 1e-12:
            raise DomainError(f"gamma must avoid 0, -1, -2, ..., got {g}")


class SchwarzVariant(Enum):
    """The two admitted parameter triples and their root orders."""

    QUARTIC = 4
    SEXTIC = 6

    @property
    def params(self) -> GaussParams:
        if self is SchwarzVariant.QUARTIC:
            return GaussParams(0.25, 0.0, 0.5)
        return GaussParams(1.0 / 3.0, 0.0, 0.5)

    @property
    def series_params(self) -> GaussParams:
        """F(1/4, 1/2, 5/4) or F(1/6, 1/2, 7/6): the Schwarz map and mean-limit series."""
        a = 0.25 if self is SchwarzVariant.QUARTIC else 1.0 / 6.0
        return GaussParams(a, 0.5, a + 1.0)

    @property
    def root_order(self) -> int:
        return self.value


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1), with the empty product 1."""
    if n < 0:
        raise DomainError(f"pochhammer requires n >= 0, got {n}")
    acc = 1.0
    for k in range(n):
        acc *= a + k
    return acc


def _series(
    alpha: float, beta: float, gamma: float, z: complex, abs_tol: float, s: float | None = None
) -> complex:
    # Plain power series.  With s = None, |z| < 1 and the geometric tail
    # bound.  With s = gamma - alpha - beta > 0, |z| = 1: algebraic decay
    # ~ n^(-1-s), so the tail is bounded by the integral test, |term| * n / s.
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    az = abs(z)
    for n in range(_MAX_TERMS):
        term *= (alpha + n) * (beta + n) / ((gamma + n) * (1.0 + n)) * z
        total += term
        at = abs(term)
        if at < abs_tol * 0.0625 and (
            at * az / (1.0 - az) if s is None else at * (n + 1) / s
        ) < abs_tol:
            return total
    raise IterationLimitError("2F1 series did not meet tolerance within the term cap")


def _connection_near_one(
    alpha: float, beta: float, gamma: float, z: complex, abs_tol: float
) -> complex:
    # Rewrite around z = 1; both sub-series see the small argument 1 - z.
    # Requires gamma - alpha - beta away from the integers (checked by caller).
    s = gamma - alpha - beta
    w = 1.0 - z
    ca = (
        gamma_real(gamma)
        * _gamma_signed(s)
        / (_gamma_signed(gamma - alpha) * _gamma_signed(gamma - beta))
    )
    cb = _gamma_signed(gamma) * _gamma_signed(-s) / (_gamma_signed(alpha) * _gamma_signed(beta))
    f_a = _series(alpha, beta, alpha + beta - gamma + 1.0, w, abs_tol)
    f_b = _series(gamma - alpha, gamma - beta, s + 1.0, w, abs_tol)
    return ca * f_a + cb * complex(w) ** s * f_b


def gauss_2f1(
    p: GaussParams, z: complex, tol: Tolerance = DEFAULT_TOLERANCE, _depth: int = 0
) -> complex:
    """F(alpha, beta, gamma; z) by truncated series.

    Inside the disk the direct sum is used, switching to the z -> 1 - z
    rewrite when z is close to 1 so the truncation stays cheap.  Arguments
    with Re(z) < 1/2, the unit circle included, go through the z/(z-1)
    rewrite; the remaining circle arc falls back to the slow boundary sum.
    """
    z = complex(z)
    a, b, g = p.alpha, p.beta, p.gamma
    # Terms cost next to nothing, so sum well past the requested tolerance.
    abs_tol = min(tol.abs_tol, 1e-14)
    if a == 0.0 or b == 0.0:
        return 1.0 + 0.0j
    if abs(1.0 - z) < 1e-13:
        if g - a - b > 0.0:
            return complex(gauss_kummer_value(p))
        raise DomainError("2F1 diverges at z = 1 when gamma - alpha - beta <= 0")
    az = abs(z)
    if az < 1.0 - 1e-12:
        if abs(1.0 - z) < 0.25 and _dist_to_int(g - a - b) > 0.05:
            return _connection_near_one(a, b, g, z, abs_tol)
        return _series(a, b, g, z, abs_tol)
    if z.real < 0.5 - 1e-9:
        # z/(z-1) lands strictly inside the disk whenever Re(z) < 1/2.
        if _depth >= 3:
            raise DomainError(f"2F1 rewrite did not reach the disk interior at {z}")
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * gauss_2f1(GaussParams(a, g - b, g), w, tol, _depth + 1)
    if az <= 1.0 + 1e-12:
        if abs(1.0 - z) < 1.0 - 1e-9 and _dist_to_int(g - a - b) > 0.05:
            return _connection_near_one(a, b, g, z, abs_tol)
        if g - a - b > 0.0:
            return _series(a, b, g, z, tol.abs_tol, g - a - b)
        raise DomainError("2F1 series diverges on |z| = 1 for these parameters")
    raise DomainError(f"2F1 argument outside the admitted domain: {z}")


def gauss_kummer_value(p: GaussParams) -> float:
    """Closed-form F(alpha, beta, gamma; 1) when gamma - alpha - beta > 0."""
    a, b, g = p.alpha, p.beta, p.gamma
    if a == 0.0 or b == 0.0:
        return 1.0
    for arg in (g, g - a - b, g - a, g - b):
        if arg <= 0.0:
            raise DomainError(f"gamma-function argument {arg} <= 0 in the closed form")
    return gamma_real(g) * gamma_real(g - a - b) / (gamma_real(g - a) * gamma_real(g - b))


def euler_f1_f2(v: SchwarzVariant, x: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[complex, complex]:
    """The solution pair (f1, f2) at the singular point x = 1.

    f1 = exp(pi*i*(gamma-alpha)) / (gamma-alpha) * (1-x)^(gamma-alpha)
         * F(gamma-alpha, gamma, gamma-alpha+1; 1-x),
    f2 = B(gamma-alpha, alpha), a constant.
    """
    x = complex(x)
    w = 1.0 - x
    if abs(w) >= 1.0:
        raise DomainError(f"euler_f1_f2 requires |1 - x| < 1, got {abs(w)}")
    p = v.params
    d = p.gamma - p.alpha
    phase = complex(math.cos(math.pi * d), math.sin(math.pi * d))
    if w == 0:
        f1 = 0.0 + 0.0j
    else:
        f = gauss_2f1(GaussParams(d, p.gamma, d + 1.0), w, tol)
        f1 = phase / d * w**d * f
    f2 = complex(beta_fn(d, p.alpha))
    return f1, f2


_SCHWARZ_SCALE = {
    SchwarzVariant.QUARTIC: 2.0 * math.sqrt(2.0) * 1j,
    SchwarzVariant.SEXTIC: 2.0 * SQRT3 * ZETA,
}


def schwarz_map(v: SchwarzVariant, x: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> complex:
    """Ratio of the two solutions, normalized onto the period lattice.

    QUARTIC: (2*sqrt(2)*i / B(1/4,1/4)) * (1-x)^(1/4) * F(1/4,1/2,5/4; 1-x)
    SEXTIC:  (2*sqrt(3)*zeta / B(1/3,1/6)) * (1-x)^(1/6) * F(1/6,1/2,7/6; 1-x)
    with the principal branch of the root.
    """
    x = complex(x)
    w = 1.0 - x
    if abs(w) >= 1.0:
        raise DomainError(f"schwarz_map requires |1 - x| < 1, got {abs(w)}")
    if w == 0:
        return 0.0 + 0.0j
    sp = v.series_params
    f = gauss_2f1(sp, w, tol)
    # B(1/4, 1/4) or B(1/3, 1/6)
    return _SCHWARZ_SCALE[v] / beta_fn(v.params.alpha, sp.alpha) * w**sp.alpha * f
