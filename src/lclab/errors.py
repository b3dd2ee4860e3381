"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class DivergenceError(ValueError):
    """The requested quantity is a divergent integral."""


class NonConvergenceError(RuntimeError):
    """An adaptive scheme exhausted its refinement budget."""


class NotNormalizedError(ValueError):
    """The operation requires a unit-mass grid density."""
