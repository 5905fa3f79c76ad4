"""Exception hierarchy shared by all modules."""


class AceError(Exception):
    """Base class for all package errors."""


class ShapeError(AceError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(AceError, ValueError):
    """A value lies outside the mathematical domain of an operation."""


class ParameterError(AceError, ValueError):
    """A hyperparameter or argument violates its stated range."""


class EmptyOverlapError(DomainError):
    """A pooling mask selects no elements."""


class GeometryError(AceError, ValueError):
    """A crop rectangle or anchor violates the grid geometry."""


class AlignmentError(GeometryError):
    """Crop anchors are not aligned to the even-offset lattice."""


class FormatError(AceError, ValueError):
    """A file on disk is malformed."""


class ConfigError(AceError, ValueError):
    """A config file contains unknown keys or invalid values."""
