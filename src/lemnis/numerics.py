"""Scalar helpers and constants shared by every other module.

Real gamma and beta and the unit-circle map ``e_of``, plus the one home of
sqrt(3), zeta and omega.  Everything here is a pure function of binary64
inputs.
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


class PathError(ValueError):
    """An integration path cannot be routed safely.

    Nothing in the package raises it at present; it stays exported because
    the error contract names it beside DomainError and IterationLimitError.
    """


# The most terms any series of the package sums before IterationLimitError.
_MAX_TERMS = 100_000

# Lanczos, g = 7, nine terms.  Relative error stays below 1e-13 on the
# positive real axis, which is the only place public callers may evaluate.
# Gamma overflows binary64 just above 171.62.
_GAMMA_MAX_X = 171.62
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_real(x: float) -> float:
    """Gamma function on the positive real axis."""
    x = float(x)
    if not 0.0 < x <= _GAMMA_MAX_X:
        raise DomainError(f"gamma_real requires 0 < x <= {_GAMMA_MAX_X}, got {x}")
    if x < 0.5:
        # reflect once so the rational core only sees arguments >= 0.5;
        # gamma(x) ~ 1/x passes the binary64 range below about 5.6e-309
        g = math.pi / (math.sin(math.pi * x) * gamma_real(1.0 - x))
        if math.isinf(g):
            raise DomainError(f"gamma_real({x}) overflows binary64")
        return g
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    if x < 142.0:
        return math.sqrt(TWO_PI) * t ** (z + 0.5) * math.exp(-t) * acc
    # t ** (z + 0.5) alone overflows from x ~ 142.4, so take it in halves
    half = t ** (0.5 * (z + 0.5))
    return math.sqrt(TWO_PI) * half * math.exp(-t) * half * acc


def _gamma_signed(x: float) -> float:
    # Internal: gamma at negative non-integer arguments via reflection.
    # Needed for series connection coefficients, not part of the public API.
    x = float(x)
    if x > 0.0:
        return gamma_real(x)
    if x == math.floor(x):
        raise DomainError(f"gamma pole at {x}")
    return math.pi / (math.sin(math.pi * x) * gamma_real(1.0 - x))


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

