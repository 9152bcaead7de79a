"""Orthonormal polynomial expansions for measures with point masses.

Measures nu = mu + sum_i M_i delta_{a_i} with mu a generalized Jacobi,
Laguerre, or Hermite weight; partial-sum, maximal, and commutator operators;
kernel decompositions; and empirical weighted-norm boundedness probes.
"""

from .errors import (
    DegreeOutOfRange,
    DuplicateLocation,
    EigenFailure,
    ExponentOutOfRange,
    GridMismatch,
    GridTooSmall,
    HankelSingular,
    IllConditionedFit,
    Irrational,
    MassNotPositive,
    MassPolyError,
    NoEndpoint,
    NonFiniteWeight,
    NumericalBreakdown,
    PointOnBoundary,
    SpecError,
)
from .measure import (
    GenJacobiSpec,
    HermiteSpec,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    PowerWeightSpec,
    check_conditions,
    legendre,
    mean_convergence_endpoints,
    measure_from_dict,
    measure_to_dict,
    weight_from_dict,
    weight_to_dict,
)
from .opoly import (
    OrthoBasis,
    Recurrence,
    add_mass_points,
    basis_for,
    cd_kernel,
    classical_recurrence,
    gauss_points,
    kernel_decomposition,
    kernel_sequence,
    mass_subsets,
    modified_bases,
    monomial_coefficients,
    recurrence_for,
    stieltjes_recurrence,
)
from .norms import (
    Grid,
    GridFunction,
    LorentzIndex,
    ProbeReport,
    bmo_norm_estimate,
    bmo_symbols,
    commutator_probe,
    lorentz_norm,
    lp_norm,
    make_grid,
    maximal_probe,
    operator_norm_probe,
    partial_sum_matrix,
    strong_probe,
    weak_type_probe,
)
from .transforms import (
    CommutatorParts,
    PollardParts,
    commutator,
    commutator_psi_parts,
    hilbert_transform,
    laguerre_mass_kernel,
    laguerre_mass_table,
    maximal_op,
    partial_sum,
    pollard_coefficients,
    pollard_parts,
    q_basis_for,
    q_measure,
)

__version__ = "0.1.0"
