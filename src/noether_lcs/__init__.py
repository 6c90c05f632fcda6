"""Numerical toolkit for fundamental calculus-of-variations problems on
seminormed truncations: extremal solving, Legendre/Jacobi analysis, and
Noether first integrals."""

from .spaces import (
    Space,
    ValidationError,
    make_space,
    seminorm,
    dual_seminorm,
    operator_seminorm,
    normal_index,
)
from .fields import (
    ScalarField,
    DifferentiabilityAudit,
    check_normal_differentiability,
)
from .curves import (
    Grid,
    Curve,
    derivative,
    derivative_all,
    curve_seminorm_c1,
    curve_seminorm_c2,
    action,
    read_curve_csv,
    write_curve_csv,
)
from .dsl import parse, evaluate, compile_field, ParseDiagnostic
from .euler_lagrange import (
    BoundaryConditions,
    SolverConfig,
    SolverError,
    ELResidual,
    first_variation,
    el_residual,
    meets_stopping_rule,
    solve_extremal,
)
from .legendre_jacobi import (
    JacobiOperators,
    LegendreReport,
    jacobi_operators,
    second_variation,
    legendre_check,
    jacobi_eigen,
    spike_variation,
    negative_second_variation_witness,
    constant_operators,
)
from .symmetry import (
    SymmetryGenerator,
    SamplingConfig,
    InvarianceReport,
    ConservationReport,
    affine_generator,
    catalog_generator,
    total_time_derivative,
    extended_generator,
    invariance_residual,
    check_invariance,
    fit_gauge,
    noether_first_integral,
    hamiltonian,
    verify_conservation,
    find_affine_symmetries,
)

__version__ = "0.1.0"
