"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for linear-solver failures."""


class SingularMatrixError(SolverError):
    """Factorization hit a (numerically) singular matrix."""


class CompatibilityError(Exception):
    """The zero-mean potential's net charge exceeds a fixed fraction of
    the ion content, in a run that does not let it."""


class PositivityError(Exception):
    """A concentration field stopped being strictly positive."""


class NonFiniteError(Exception):
    """A field value overflowed or became NaN."""


class StructuralViolation(Exception):
    """A structure property (mass, energy, solvability) failed at runtime.

    Attributes
    ----------
    step : int or None
        Time-step index at which the check failed.
    quantity : str or None
        Name of the offending quantity.
    """

    def __init__(self, message, step=None, quantity=None):
        super().__init__(message)
        self.step = step
        self.quantity = quantity


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""
