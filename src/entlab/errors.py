"""Exception types shared across the package, the integer check that raises
one, and `Frozen`, the base of the package's value classes."""

import numbers


class UsageError(ValueError):
    """Caller violated a precondition (bad dimensions, invalid state, bad flag)."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ResourceError(RuntimeError):
    """The run lacks a resource it needs: memory to map its results, or a
    worker process that could not start or was killed."""


def require_integer(name: str, value, low: int, high: int) -> None:
    """Raise UsageError unless `value` is an integer (Python or numpy) in
    [low, high]. A float is refused even when whole: it would be truncated,
    or above 2^53 would already have lost digits. So is a bool, which would
    pass for 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise UsageError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


class Frozen:
    """Base of the package's value classes: `__init__` stores its arguments
    with `_set`, in the order of its parameters (`Histogram` then what its
    counts fix), and assigning or deleting an attribute afterwards raises
    AttributeError. A class built from caller input first checks it,
    raising UsageError: `cli.RunConfig` a run's settings (its ensemble,
    trials and seed by building an `EnsembleSpec`, which checks those
    three), `RandomStream` its seed and stream index, and `UnitaryGate`,
    `PureState` and `DensityMatrix` their arrays (each by the one rule,
    `linalg.as_array`). `EnsembleResult` and `Histogram` hold what the
    engine computed and check nothing. Only `__init__` calls `_set`, so no
    value class changes a field after construction; a
    `functools.cached_property` still caches, as it writes the instance's
    `__dict__` directly. Equality is identity."""

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")
