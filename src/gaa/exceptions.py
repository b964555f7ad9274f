"""Error types shared across the package, and the checks that config
dataclasses and array sizes run where a value enters."""

import dataclasses
import functools
import math
import sys
import typing

import numpy as np


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


field_types = functools.cache(typing.get_type_hints)


def check_field_types(obj, prefix: str = "") -> None:
    """Raise ConfigError unless every field of dataclass ``obj`` holds its
    declared type. A float field takes an int too, but no bool, and must be
    finite."""
    kinds = field_types(type(obj))
    for f in dataclasses.fields(obj):
        value, kind = getattr(obj, f.name), kinds[f.name]
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or isinstance(value, bool) and kind is not bool:
            raise ConfigError(f"{prefix}{f.name} must be {kind.__name__}, got {value!r}")
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value!r}")


def check_addressable(cause: str, name: str, shape: tuple[int, ...]) -> None:
    """Raise ConfigError when a float64 array of ``shape`` would have more
    bytes than numpy can address. numpy reports that size as a ValueError;
    a smaller one it cannot allocate stays its MemoryError."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        dims = " x ".join(map(str, shape))
        raise ConfigError(f"{cause} make the {dims} {name} more bytes than numpy can address")
