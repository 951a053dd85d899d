"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class PoleError(ArithmeticError):
    """Evaluation requested at (or too close to) a pole."""


class BoundaryZeroError(RuntimeError):
    """A contour passes too close to a zero for winding-number accumulation."""


class PrecisionError(RuntimeError):
    """A numerical result failed its internal consistency check."""
