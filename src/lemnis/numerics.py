"""Scalar helpers and constants shared by every other module.

Real gamma and beta, the unit-circle map ``e_of``, the one home of sqrt(3),
zeta and omega, and the package's two errors.  Gamma is ``math.gamma``
behind one guard: `gamma_real` takes 0 < x up to where Gamma leaves
binary64 (x ~ 171.624), and `beta` takes x, y > 0 with Gamma(x + y)
finite.  Everything here is a pure function of binary64 inputs.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)
ZETA = complex(0.5, SQRT3 / 2.0)           # primitive sixth root, zeta^2 = zeta - 1
OMEGA = complex(-0.5, SQRT3 / 2.0)         # omega = zeta^2, primitive cube root
OMEGA_SQ = complex(-0.5, -SQRT3 / 2.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class IterationLimitError(RuntimeError):
    """An iterative scheme hit its cap before reaching tolerance."""


# The most terms any series of the package sums before IterationLimitError.
_MAX_TERMS = 100_000


def _gamma_signed(x: float) -> float:
    # Internal: gamma off the poles, negative arguments included, for the 2F1
    # connection coefficients; a value or reciprocal outside binary64 is a DomainError.
    try:
        g = math.gamma(x)
    except (ValueError, OverflowError):
        g = math.nan
    if not 0.0 < abs(g) < math.inf or math.isinf(1.0 / g):
        raise DomainError(f"gamma({x}) is a pole or lies outside binary64")
    return g


def gamma_real(x: float) -> float:
    """Gamma function on the positive real axis, up to where it leaves binary64."""
    if not x > 0.0:
        raise DomainError(f"gamma_real requires x > 0, got {x}")
    return _gamma_signed(x)


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def _scaled_residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _real_root(x: float, k: int, p: int = 1) -> float:
    """x^(p/k) for x >= 0, with no rounded exponent applied to the scale of x.

    x^(1/k) would carry the rounding of 1/k times ln x, about 2e-17 ln x
    relative.  Here the binary exponent e of x splits as k q + r, so only
    the mantissa part m 2^r, in [1/2, 2^(k-1)), meets the rounded power and
    the factor 2^(p q) is exact.
    """
    m, e = math.frexp(x)
    q, r = divmod(e, k)
    return math.ldexp(math.ldexp(m, r) ** (p / k), p * q)


def beta(x: float, y: float) -> float:
    """Euler beta B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    # divided first: Gamma(x) Gamma(y) overflows at beta(1e-200, 1e-200) ~ 2e200
    b = gamma_real(x) / gamma_real(x + y) * gamma_real(y)
    if math.isinf(b):
        raise DomainError(f"beta({x}, {y}) overflows binary64")
    return b


def e_of(x: float) -> complex:
    """exp(2*pi*i*x) for real x.  The result always has modulus 1."""
    y = float(x)
    if not math.isfinite(y):
        raise DomainError(f"e_of requires a finite argument, got {x}")
    y -= round(y)  # 1-periodic; reduce to [-1/2, 1/2] before cos/sin
    return complex(math.cos(TWO_PI * y), math.sin(TWO_PI * y))

