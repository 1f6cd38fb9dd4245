"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and its
subclasses -> 3, NumericError and its subclasses -> 4.
"""

import numbers


class SparError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SparError):
    """Invalid or mutually inconsistent configuration."""


def whole_number(name: str, value):
    """None, or value as an int when it is a whole real (5, 5.0, np.int64(5), not "5" or True)."""
    if value is None:
        return None
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def whole_at_least(name: str, value, least: int) -> int:
    """value as an int when it is a whole number >= least; else ConfigError naming it."""
    number = whole_number(name, value)
    if number is None or number < least:
        raise ConfigError(f"{name} must be a whole number >= {least}, got {value!r}")
    return number


class DataError(SparError):
    """Problem with user-supplied data."""


class DomainError(DataError):
    """A value lies outside the domain required by a GLM family."""


class InsufficientDataError(DataError):
    """Too few observations for the requested operation."""


class ParseError(DataError):
    """Malformed input file."""


class VersionError(DataError):
    """Persisted model has an unsupported format version."""


class CvError(DataError):
    """Cross-validation could not produce enough usable folds."""


class NumericError(SparError):
    """Numerical failure during fitting."""


class SingularError(NumericError):
    """Singular linear system; retry with a positive ridge penalty."""
