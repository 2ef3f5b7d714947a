"""Error taxonomy shared across the package.

DomainError covers bad inputs (the caller's fault), ResourceLimitError covers
exhausted enumeration budgets, and ConsistencyError covers internal
cross-checks that can only fail on a bug in this package.  Each carries the
``code`` the CLI reports it under.
"""


class DomainError(ValueError):
    """Input outside an operation's domain."""

    code = "domain-error"


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured cap before completing."""

    code = "resource-limit"


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""

    code = "internal-inconsistency"
