"""Exception hierarchy shared by all corrdil modules."""

__all__ = [
    "CorrdilError",
    "DimensionError",
    "PositivityError",
    "ContractivityError",
    "StructureError",
    "GraphLookupError",
    "ConfigurationError",
    "ResourceCapError",
    "ParseError",
]


class CorrdilError(Exception):
    """Base class for all library errors."""


class DimensionError(CorrdilError):
    """Matrix or subspace dimensions are inconsistent."""


class PositivityError(CorrdilError):
    """A matrix required to be positive semidefinite is not."""


class ContractivityError(CorrdilError):
    """A contractivity precondition (operator norm or row contraction) fails."""


class StructureError(CorrdilError):
    """Structurally invalid graph, group, action or representation data."""


class GraphLookupError(CorrdilError, KeyError):
    """Reference to an unknown vertex, edge or group element."""


class ConfigurationError(CorrdilError):
    """An operation needs optional data (action, unitaries) that is absent."""


class ResourceCapError(CorrdilError):
    """A computation would exceed the configured dimension cap."""


class ParseError(CorrdilError):
    """A problem file does not conform to the input format."""
