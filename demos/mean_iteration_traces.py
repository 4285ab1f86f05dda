"""Mean iterations and their hypergeometric limits
=================================================

Two variants of the classical arithmetic-geometric mean.  The quartic pair
contracts the gap by about 1/4 per step, the sextic pair by about 1/27; both
limits have closed forms through the Gauss series.
"""

from lemnis.hypergeometric import SchwarzVariant
from lemnis.meaniter import (
    MeanPair,
    closed_form_limit,
    cubic_preimage_x0,
    iterate_until_converged,
)

print("quartic variant, starting from (2, 1):")
trace = iterate_until_converged(MeanPair(2.0, 1.0), SchwarzVariant.QUARTIC, tol=1e-12)
for k, (a, b) in enumerate(trace.orbit[:6]):
    print(f"  step {k}: a = {a:.15f}   b = {b:.15f}")
print(f"  ... converged after {trace.iterations} iterations")
print(f"  extrapolated limit  {trace.limit:.15f}")
closed = closed_form_limit(MeanPair(2.0, 1.0), SchwarzVariant.QUARTIC)
print(f"  closed form         {closed:.15f}   (diff {abs(trace.limit - closed):.1e})")

print("\nsextic variant, starting from (3, 5):")
trace = iterate_until_converged(MeanPair(3.0, 5.0), SchwarzVariant.SEXTIC, tol=1e-12)
for k, (a, b) in enumerate(trace.orbit[:4]):
    print(f"  step {k}: a = {a:.15f}   b = {b:.15f}")
print(f"  converged after {trace.iterations} iterations")
closed = closed_form_limit(MeanPair(3.0, 5.0), SchwarzVariant.SEXTIC)
print(f"  limit {trace.limit:.15f} vs closed form {closed:.15f}")

# per-step contraction of the gap, read off the recorded trace
gaps = [abs(a - b) for a, b in trace.orbit if abs(a - b) > 1e-14]
rates = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
print(f"  gap contraction per step: {', '.join(f'{r:.4f}' for r in rates)}")

# the preimage of (b/a)^2 under the cubic argument rewrite, used to relate
# one sextic step to the series identity
x0 = cubic_preimage_x0(MeanPair(3.0, 5.0))
image = x0 * (9 - 8 * x0) ** 2 / (4 * x0 - 3) ** 3
print(f"\ncubic preimage x0 for (3, 5): {x0:.15f}")
print(f"check x0(9-8x0)^2/(4x0-3)^3 = (b/a)^2: {image:.12f} vs {(5 / 3) ** 2:.12f}")
