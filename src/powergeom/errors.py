"""Typed errors raised across the package."""


class PowergeomError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(PowergeomError):
    """Angle too close to an odd multiple of pi/2 for the flow surfaces."""


class ZeroResistance(PowergeomError):
    """Branch phase angles are undefined at exactly zero resistance."""


class DanglingBranch(PowergeomError):
    """A branch references a bus id that is not part of the network."""


class DegenerateMetric(PowergeomError):
    """Curvature is undefined where the metric determinant vanishes."""


class BadDomain(PowergeomError):
    """Requested scan domain touches the +-pi/2 poles."""


class DenominatorZero(PowergeomError):
    """A tabulated expression's denominator vanishes at the requested point."""


class SchemaMismatch(PowergeomError):
    """A scan file does not carry the expected column layout."""
