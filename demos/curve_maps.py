"""From plane curves to tori and back
=====================================

The two curves u^4 = t^2(t-1) and u^6 = t^3(t-1) are uniformized by their
quotient tori.  This script lifts points, integrates the normalized 1-form,
inverts through theta quotients, and applies the unit multiplication map.
"""

from lemnis.curves import (
    abel_jacobi,
    equivalent_mod_group,
    inverse_quartic,
    lift_branch,
    mul_one_plus_i,
    special_point,
)
from lemnis.hypergeometric import SchwarzVariant
from lemnis.theta import TAU_I, canonical_torus_point
from lemnis.verify import one_form_constant

QUARTIC, SEXTIC = SchwarzVariant.QUARTIC, SchwarzVariant.SEXTIC

# named fiber points over t = 0, 1, infinity land on lattice-rational images
print("special point images:")
for curve, label, names in ((QUARTIC, "i", ("P1", "P01", "Pinf")), (SEXTIC, "zeta", ("P1", "P01", "Pinf1"))):
    for name in names:
        z = abel_jacobi(special_point(curve, name))
        print(f"  {label:<4} {name:<6} -> z = {z.z:.12f}")

# a generic point: lift, integrate, then invert back through theta quotients
p = lift_branch(QUARTIC, 2.0)
z = abel_jacobi(p)
q = inverse_quartic(z)
print(f"\nlift t=2 on sheet 0: u = {p.u:.12g}")
print(f"abel_jacobi image:   z = {z.z:.12f}")
print(f"inverse recovers:    t = {q.t:.12g}, u = {q.u:.12g}")

# multiplication by 1+i doubles the lattice index; t=2 maps onto t'=0
img = mul_one_plus_i(p)
print(f"\n(1+i)-multiplication of (2, sqrt(2)): t' = {img.t:.3g}, u' = {img.u:.3g}")

# the image agrees with multiplying z by 1+i, up to the unit-lattice action
z_img = abel_jacobi(img)
target = canonical_torus_point(TAU_I, (1 + 1j) * z.z)
w = equivalent_mod_group(z_img, target)
print(f"group witness: unit = {w.unit}, shift = {w.lattice_shift}, dist = {w.distance:.1e}")

# the pullback constant of the 1-form has closed beta-function form
for curve, label in ((QUARTIC, "i"), (SEXTIC, "zeta")):
    print(f"1-form constant on {label:<4}: {one_form_constant(curve)[0]:.12g}")
