"""Theta functions with characteristics at the square and hexagonal moduli,
the curves they uniformize, exact triangle-group monodromy, and the two
compatible mean iterations.
"""

import types

from .numerics import (
    DomainError,
    IterationLimitError,
    beta,
    e_of,
    gamma_real,
)
from .hypergeometric import (
    GaussParams,
    SchwarzVariant,
    gauss_2f1,
    gauss_2f1_pair,
    gauss_kummer_value,
    schwarz_map,
)
from .theta import (
    Modulus,
    TAU_I,
    TAU_ZETA,
    ThetaChar,
    TorusPoint,
    canonical_torus_point,
    lattice_distance,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    theta_four,
    transform,
)
from .curves import (
    CurvePoint,
    GroupWitness,
    abel_jacobi,
    equivalent_mod_group,
    inverse_quartic,
    inverse_sextic,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    special_point,
)
from .monodromy import (
    AffineMap,
    CircuitMatrix,
    ClosureSummary,
    CycInt,
    as_affine,
    base_change_affine,
    general_m0_m1,
    group_closure,
    invariant_hermitian_form,
    m0_m1_closed_form,
    n_matrices,
    ring_gen,
    ring_one,
    units,
)
from .meaniter import (
    IterationTrace,
    MeanPair,
    closed_form_limit,
    cubic_preimage_x0,
    iterate_until_converged,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not exported
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, types.ModuleType)
)
