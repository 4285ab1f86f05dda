"""Theta values with rational characteristics on the square and hexagonal tori
==============================================================================

Walks through the building blocks: series evaluation, the tabulated constants
at the two special moduli, quasi-periodicity, and the multiplication lemmas
that rotate the argument by a unit.
"""

from fractions import Fraction

from lemnis.numerics import e_of, gamma_real
from lemnis.theta import (
    TAU_I,
    TAU_ZETA,
    ThetaChar,
    one_plus_i_multiple,
    quasi_period_factor,
    theta,
    theta_constants,
    transform,
)

c00 = ThetaChar(0, 0)
c11 = ThetaChar("1/2", "1/2")

# the classical constant at the square modulus, against its gamma closed form
k = theta(c00, 0j, TAU_I)
closed = gamma_real(0.25) / (4 * 3.141592653589793 ** 3) ** 0.25
print(f"theta[0,0](0, i)      = {k.real:.15f}")
print(f"Gamma(1/4)/(4pi^3)^.25 = {closed:.15f}   (diff {abs(k - closed):.1e})")

# the full constant table on the hexagonal torus
print("\nconstants at tau = zeta:")
for char, value in sorted(theta_constants(TAU_ZETA).items(), key=str):
    print(f"  theta[{char.a},{char.b}](0) = {value:.12g}")

# quasi-periodicity: shifting z by p*tau + q multiplies by an explicit factor
# (the factor is huge for p=2, so compare relative to its size)
z = 0.31 + 0.17j
c = ThetaChar(Fraction(1, 3), Fraction(1, 6))
lhs = theta(c, z + 2 * TAU_ZETA.value - 1, TAU_ZETA)
rhs = quasi_period_factor(c, 2, -1, z, TAU_ZETA) * theta(c, z, TAU_ZETA)
print(f"\nquasi-periodicity relative residual at p=2, q=-1: {abs(lhs - rhs) / abs(rhs):.1e}")

# each unit rotation of z is again a theta value, up to a computable prefactor
c2, pref, _, _ = transform(c11, z, TAU_I, "SSS")
lhs = theta(c11, 1j * z, TAU_I)
print(f"i-times lemma residual:     {abs(lhs - pref * theta(c2, z, TAU_I)):.1e}")

w = TAU_ZETA.value - 1.0
c2, pref, _, _ = transform(c00, z, TAU_ZETA, "STSS")
lhs = theta(c00, w * z, TAU_ZETA)
print(f"omega-times lemma residual: {abs(lhs - pref * theta(c2, z, TAU_ZETA)):.1e}")

# the (1+i)-times lemma packages three identities at once
for pair in one_plus_i_multiple(z):
    print(f"(1+i)-times {pair.name:<16} residual {pair.residual:.1e}")

# the half-characteristic constant relation hiding inside the omega lemma
table = theta_constants(TAU_ZETA)
gap = abs(table[ThetaChar("1/2", 0)] - e_of(Fraction(1, 24)) * table[c00])
print(f"\nhalf-characteristic constant relation residual: {gap:.1e}")
