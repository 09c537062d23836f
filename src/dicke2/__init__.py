"""Semiclassical two-species open Dicke model laboratory.

Mean-field dynamics of two atomic ensembles coupled to one lossy cavity
mode: adaptive integration of the equations of motion, closed-form
steady-state enumeration and a seeded Newton solver, linear stability
classification, and coupling-plane phase diagrams.
"""

__version__ = "0.1.0"

from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    SettleResult,
    Trajectory,
    drift_report,
    integrate,
    settle,
)
from .model import (
    STATE_LABELS,
    ModelParams,
    Phase,
    SystemState,
    eom_rhs,
    lambda_combined,
    spin_norm_residual,
    trivial_fixed_point,
    validate_params,
)
from .phasescan import (
    GridSpec,
    ScanCell,
    ScanResult,
    analytic_boundary_curve,
    scan,
)
from .stability import (
    Classification,
    StabilityReport,
    assess,
    eigenvalues,
    jacobian,
    jacobian_fd,
    pole_indicators,
)
from .steadystate import (
    FixedPointSolution,
    NewtonError,
    critical_lambda,
    critical_lambda1_given_j2z,
    partial_superradiant_jz,
    solve_superradiant,
    superradiant_states,
)

__all__ = [
    "__version__",
    "STATE_LABELS",
    "Classification",
    "FixedPointSolution",
    "GridSpec",
    "IntegrationError",
    "IntegratorConfig",
    "ModelParams",
    "NewtonError",
    "Phase",
    "ScanCell",
    "ScanResult",
    "SettleResult",
    "StabilityReport",
    "SystemState",
    "Trajectory",
    "analytic_boundary_curve",
    "assess",
    "critical_lambda",
    "critical_lambda1_given_j2z",
    "drift_report",
    "eigenvalues",
    "eom_rhs",
    "integrate",
    "jacobian",
    "jacobian_fd",
    "lambda_combined",
    "partial_superradiant_jz",
    "pole_indicators",
    "scan",
    "settle",
    "solve_superradiant",
    "spin_norm_residual",
    "superradiant_states",
    "trivial_fixed_point",
    "validate_params",
]
