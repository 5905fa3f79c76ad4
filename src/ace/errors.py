"""Exception hierarchy shared by all modules, and the UTF-8 text reader that
names the file at fault."""

from pathlib import Path


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


def read_utf8(path, error: type[AceError]) -> str:
    """The text of the file at `path`.  Bytes that are not UTF-8 raise `error`
    naming the file, the line and the byte offset of the first bad byte."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 at byte {exc.start} "
                    f"({raw[exc.start:exc.end]!r})") from None
