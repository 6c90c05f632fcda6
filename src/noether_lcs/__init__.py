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
    derivative_all,
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
    el_residual,
    meets_stopping_rule,
    solve_extremal,
)
from .legendre_jacobi import (
    JacobiOperators,
    LegendreReport,
    jacobi_operators,
    legendre_check,
    jacobi_eigen,
)
from .symmetry import (
    SymmetryGenerator,
    SamplingConfig,
    InvarianceReport,
    ConservationReport,
    affine_generator,
    catalog_generator,
    invariance_residual,
    check_invariance,
    fit_gauge,
    noether_first_integral,
    verify_conservation,
    find_affine_symmetries,
)

__version__ = "0.1.0"
