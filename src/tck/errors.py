"""Error taxonomy shared across the package, and the two gates for exact inputs.

DomainError covers bad inputs (the caller's fault), ResourceLimitError covers
exhausted enumeration budgets, and ConsistencyError covers internal
cross-checks that can only fail on a bug in this package.  Each carries the
``code`` the CLI reports it under.

Every public int or rational parameter passes one of the two gates below, so
a bool, float, string or other inexact value is a DomainError, not converted.
A message shows a value through ``decimal``, which cannot raise, so a value
past Python's int/str digit limit still ends in the error meant for it.

The closure cap, ``closure_cap()``, is set by TCK_CLOSURE_CAP and counted in
elements; an element of width w (a permutation's degree, a matrix's entry
count) counts ``width_charge(w)`` = ceil(w / 64) against it.  Closures of
finite groups charge each element they keep, and a root system charges one
adjoint element of width dim^2 before it builds anything; a witness sequence
charges its primes, the CLI's ``witness run`` its field scalars, and the
automorphism search its candidate generator images, before the first is
made.

``Record`` is the package's immutable value class, so no cold call loads
``dataclasses``.
"""

import os
from fractions import Fraction
from operator import attrgetter

DEFAULT_CLOSURE_CAP = 200000
_WIDTH_UNIT = 64


class DomainError(ValueError):
    """Input outside an operation's domain."""

    code = "domain-error"


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured cap before completing."""

    code = "resource-limit"


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""

    code = "internal-inconsistency"


def decimal(value, show=str) -> str:
    """show(value), or where that passes Python's int/str digit limit, a bound
    on an int, ">= 2^k" or "<= -2^k" with k = bit_length - 1, and the type's
    name for anything else."""
    try:
        return show(value)
    except ValueError:
        if type(value) is not int:
            return f"a {type(value).__name__} past the digit limit"
        bound = f"2^{value.bit_length() - 1}"
        return f">= {bound}" if value > 0 else f"<= -{bound}"


def rational(value) -> Fraction:
    """An int as a Fraction, a Fraction as itself; anything else is a DomainError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise DomainError(f"unsupported scalar {decimal(value, repr)}")


def integer(value, least: int | None, message: str) -> int:
    """value when its type is exactly int (a bool is not) and value >= least,
    any int when least is None; DomainError(message) below least, and one
    naming the value for other types."""
    if type(value) is not int:
        raise DomainError(f"{message}: {decimal(value, repr)} is not an int")
    if least is not None and value < least:
        raise DomainError(message)
    return value


def closure_cap() -> int:
    raw = os.environ.get("TCK_CLOSURE_CAP")
    if raw is None:
        return DEFAULT_CLOSURE_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"TCK_CLOSURE_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError("TCK_CLOSURE_CAP must be positive")
    return value


def width_charge(width: int) -> int:
    """What one element of the given width counts against the closure cap."""
    return max(1, -(-width // _WIDTH_UNIT))


class Record:
    """An immutable record of the fields its class body annotates, in order;
    a field given a value in the body takes it as its default.

    Each subclass gets an ``__init__`` written for its fields, as a dataclass
    does, ending in the class's ``__post_init__`` where it has one (which may
    replace a field through ``object.__setattr__``).  A record shows as
    ``Name(field=value, ...)``, refuses assignment, and equals and hashes by
    its class and fields; a subclass declared ``eq=False`` keeps identity, and
    one that defines ``__eq__``, ``__hash__`` or ``__repr__`` keeps its own.
    """

    def __init_subclass__(cls, eq=True):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(f"{f}=_body[{f!r}]" if f in cls.__dict__ else f for f in fields)
        lines = [f"def __init__(self, {params}):", *(f"    _set(self, {f!r}, {f})" for f in fields)]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"_set": object.__setattr__, "_body": cls.__dict__}
        exec("\n".join(lines), namespace)
        cls.__init__, cls._fields, cls._key = namespace["__init__"], fields, attrgetter(*fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
