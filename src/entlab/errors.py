"""Exception types shared across the package, and the integer check that raises one."""

import numbers


class UsageError(ValueError):
    """Caller violated a precondition (bad dimensions, invalid state, bad flag)."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ResourceError(RuntimeError):
    """The run lost a worker process it needs: one could not start, or one was killed."""


def require_integer(name: str, value, low: int, high: int) -> None:
    """Raise UsageError unless `value` is an integer (Python or numpy) in
    [low, high]. A float is refused even when whole: it would be truncated,
    or above 2^53 would already have lost digits. So is a bool, which would
    pass for 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise UsageError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
