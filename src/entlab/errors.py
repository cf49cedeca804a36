"""Exception types shared across the package."""


class UsageError(ValueError):
    """Caller violated a precondition (bad dimensions, invalid state, bad flag)."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ResourceError(RuntimeError):
    """The run lost a worker process it needs: one could not start, or one was killed."""
