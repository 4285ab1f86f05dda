"""Theta functions with characteristics at the square and hexagonal moduli,
the curves they uniformize, exact triangle-group monodromy, and the two
compatible mean iterations.
"""

import types

from .numerics import (
    BranchBoundaryWarning,
    DEFAULT_TOLERANCE,
    DomainError,
    IterationLimitError,
    PathError,
    Tolerance,
    beta,
    branch_root,
    e_of,
    gamma_real,
    principal_arg,
)
from .hypergeometric import (
    GaussParams,
    SchwarzVariant,
    euler_f1_f2,
    gauss_2f1,
    gauss_2f1_pair,
    gauss_kummer_value,
    pochhammer,
    schwarz_map,
)
from .theta import (
    IdentityPair,
    Modulus,
    ModulusTag,
    OmegaPower,
    TAU_I,
    TAU_ZETA,
    TauTransform,
    ThetaChar,
    TorusPoint,
    addition_check,
    canonical_torus_point,
    i_multiple,
    lattice_distance,
    omega_multiple,
    one_plus_i_multiple,
    one_plus_zeta_multiple,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    theta_four,
    transform_tau,
    zero_locus,
)
from .curves import (
    Curve,
    CurvePoint,
    GroupWitness,
    abel_jacobi,
    equivalent_mod_group,
    hgf_theta_roundtrip,
    inverse_quartic,
    inverse_quartic_t_routes,
    inverse_sextic,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    one_form_constant,
    one_form_constant_routes,
    ratio_identities_quartic,
    ratio_identities_sextic,
    special_point,
)
from .monodromy import (
    AffineMap,
    CircuitMatrix,
    ClosureSummary,
    CycInt,
    Ring,
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
    eta_pair,
    iterate_until_converged,
    limit_quartic,
    limit_sextic,
    step_quartic,
    step_sextic,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not exported
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, types.ModuleType)
)
