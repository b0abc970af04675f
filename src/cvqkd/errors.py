"""Exception types shared across the toolkit.

The CLI maps each family to a distinct exit status, so keep the hierarchy
flat and stable.
"""


class CvqkdError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CvqkdError, ValueError):
    """An input is outside the mathematical domain of an operation
    (non-positive variance, degenerate covariance, impossible efficiency)."""


class UnphysicalInputError(DomainError):
    """Inputs that no quantum state could have produced
    (e.g. quadrature variance product below the vacuum limit)."""


class InconsistentStatisticsError(DomainError):
    """Derived second moments violate positive semidefiniteness."""


class ConfigurationError(CvqkdError, ValueError):
    """A channel, noise-shape, or session configuration is invalid."""


class ParseError(CvqkdError, ValueError):
    """A record file or literal could not be parsed."""


class CapacityError(CvqkdError):
    """A session or an exact enumeration would exceed what can be held."""


class InsufficientDataError(CvqkdError, ValueError):
    """Too few samples for the requested estimator."""


class DegenerateDataError(CvqkdError, ValueError):
    """Sample data with no usable spread (exact duplicates or an exactly
    deterministic dependence) for a differential-entropy estimator."""
