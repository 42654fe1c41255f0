"""Semantic exception hierarchy.

Public functions never raise bare ``ValueError`` for contract violations;
they raise one of the classes below so callers (and the CLI exit-code
mapping) can distinguish bad input from statistical degeneracy.
"""

__all__ = [
    "MargshiftError",
    "ShapeError",
    "ZeroTotalError",
    "TableParseError",
    "DomainError",
    "DegenerateMassError",
    "NonDifferentiableError",
    "MethodMismatchError",
    "TooManyDegenerateReplicatesError",
]


class MargshiftError(Exception):
    """Base class for all margshift errors."""


class ShapeError(MargshiftError, ValueError):
    """Table is not square r x r with r >= 2."""


class ZeroTotalError(MargshiftError, ValueError):
    """Count table sums to zero, so cell probabilities are undefined."""


class TableParseError(MargshiftError, ValueError):
    """A table file could not be parsed; the message carries the position."""


class DomainError(MargshiftError, ValueError):
    """A parameter lies outside its mathematical domain."""


class DegenerateMassError(MargshiftError):
    """Every discordance term vanishes; phi and psi are undefined."""


class NonDifferentiableError(MargshiftError):
    """The measure is not differentiable at the given table; ``estimate`` is the
    plug-in estimate (a float) when ``wald_ci`` refuses it, ``None`` from a gradient route."""


class MethodMismatchError(MargshiftError):
    """Group comparison needs two compatible delta-method reports."""


class TooManyDegenerateReplicatesError(MargshiftError):
    """More than the allowed share of bootstrap replicates were degenerate."""
