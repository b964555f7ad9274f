"""Error types shared across the package."""


class GaaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GaaError):
    """Operands have incompatible shapes."""


class DomainError(GaaError):
    """A value is outside the mathematical domain of an operation."""


class NumericError(GaaError):
    """A computation produced or received non-finite values."""


class ParseError(GaaError):
    """A data file could not be parsed; message carries path and line."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class CheckpointError(GaaError):
    """A model checkpoint is malformed; the message names the path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


class ConfigError(GaaError):
    """Invalid configuration (bad key, bad value, missing file)."""
