"""Error taxonomy shared across the package, and the two gates for exact inputs.

DomainError covers bad inputs (the caller's fault), ResourceLimitError covers
exhausted enumeration budgets, and ConsistencyError covers internal
cross-checks that can only fail on a bug in this package.  Each carries the
``code`` the CLI reports it under.

Every public int or rational parameter passes one of the two gates below, so
a bool, float, string or other inexact value is a DomainError, not converted.
"""

from fractions import Fraction


class DomainError(ValueError):
    """Input outside an operation's domain."""

    code = "domain-error"


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured cap before completing."""

    code = "resource-limit"


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""

    code = "internal-inconsistency"


def rational(value) -> Fraction:
    """An int as a Fraction, a Fraction as itself; anything else is a DomainError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise DomainError(f"unsupported scalar {value!r}")


def integer(value, least: int | None, message: str) -> int:
    """value when its type is exactly int (a bool is not) and value >= least,
    any int when least is None; DomainError(message) below least, and one
    naming the value for other types."""
    if type(value) is not int:
        raise DomainError(f"{message}: {value!r} is not an int")
    if least is not None and value < least:
        raise DomainError(message)
    return value
