"""Intrinsic fluctuation geometry of two-angle power-flow surfaces.

Evaluates the real, imaginary and complex flow surfaces together with all
partial derivatives to third order, builds the Hessian fluctuation metric,
its determinant and scalar curvature, classifies stability over grids, and
verifies the tabulated closed-form expansions against the jet engine.
"""

from .backend import Jet3
from .errors import (
    BadDomain,
    DanglingBranch,
    DegenerateMetric,
    DenominatorZero,
    DivisionByNearZero,
    DomainError,
    PowergeomError,
    SchemaMismatch,
    ZeroResistance,
)
from .geometry import (
    GeometryReport,
    Metric2,
    StabilityClass,
    geometry_report,
    scalar_curvature_oracle,
)
from .models import (
    BranchParams,
    Bus,
    Branch,
    BusNetwork,
    FlowKind,
    PowerModel,
    bus_injections,
    eval_power,
    eval_power_jet,
    load_bus_network,
    phase_angles,
)

__version__ = "1.0.0"

__all__ = [
    "BadDomain",
    "Branch",
    "BranchParams",
    "Bus",
    "BusNetwork",
    "DanglingBranch",
    "DegenerateMetric",
    "DenominatorZero",
    "DivisionByNearZero",
    "DomainError",
    "FlowKind",
    "GeometryReport",
    "Jet3",
    "Metric2",
    "PowerModel",
    "PowergeomError",
    "SchemaMismatch",
    "StabilityClass",
    "ZeroResistance",
    "bus_injections",
    "eval_power",
    "eval_power_jet",
    "geometry_report",
    "load_bus_network",
    "phase_angles",
    "scalar_curvature_oracle",
    "__version__",
]
