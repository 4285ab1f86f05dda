"""Circuit matrices over the Gaussian and Eisenstein integers
============================================================

The local circuits of the two special hypergeometric equations generate
finite unit groups with exact integer arithmetic: no floating point enters
until the general-parameter matrices are specialized.
"""

from lemnis.hypergeometric import SchwarzVariant
from lemnis.monodromy import (
    base_change_affine,
    general_m0_m1,
    group_closure,
    n_matrices,
)


def max_abs_diff(a, b):
    # the largest entry of |a - b| for two row-major 2x2 complex matrices
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def fmt(c):
    # integer coordinates x + y*g, with g the ring generator (i or e(1/6))
    if c.y == 0:
        return str(c.x)
    g = "g" if abs(c.y) == 1 else f"{abs(c.y)}g"
    if c.x == 0:
        return g if c.y > 0 else f"-{g}"
    return f"{c.x}{'+' if c.y > 0 else '-'}{g}"


def fmt_matrix(m):
    return f"[[{fmt(m.e11)}, {fmt(m.e12)}], [{fmt(m.e21)}, {fmt(m.e22)}]]"


def fmt_map(m):
    return f"z -> ({fmt(m.e11)}) z + ({fmt(m.e12)})"


for variant, alpha in ((SchwarzVariant.QUARTIC, 0.25), (SchwarzVariant.SEXTIC, 1.0 / 3.0)):
    n0, n1, ninf = n_matrices(variant)
    print(f"{variant.name.lower()} circuit matrices:")
    for label, m in (("around 0", n0), ("around 1", n1), ("around inf", ninf)):
        print(f"  {label:<11} {fmt_matrix(m):<26} order {m.order()}")

    # the product of the three circuits is the identity, so orders alone
    # pin the triangle group
    prod = n0 @ n1 @ ninf
    print(f"  product has order {prod.order()}")

    # every matrix is in the normal form [[e, s], [0, 1]], the affine map z -> e z + s
    mats = [n0, n1, ninf]
    print("  affine actions:", ";  ".join(fmt_map(m) for m in mats))

    # closing the generated group saturates all units and finds translations
    summary = group_closure(mats, cap=2000)
    print(
        f"  closure: {len(summary.units)} units, translations found:"
        f" {summary.has_translation_basis}, explored {summary.elements_explored}"
    )

    # the two-parameter family of circuit matrices degenerates to the exact
    # generators at the special exponents, after one base change
    m0, m1 = general_m0_m1(alpha, 0.0, 0.5)
    gap = max(
        max_abs_diff(base_change_affine(m0, alpha), n0.as_complex()),
        max_abs_diff(base_change_affine(m1, alpha), n1.as_complex()),
    )
    print(f"  specialization residual after base change: {gap:.1e}\n")
