"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid construction parameters (degree, exponent, config fields)."""


class DomainError(ValueError):
    """Evaluation point outside the operation's domain."""


class ConvergenceError(RuntimeError):
    """An iterative solver exceeded its sweep budget; indicates a numerics bug."""


class RefinementError(RuntimeError):
    """Newton refinement left its bracket or a zero-set invariant failed."""

