"""Exception and warning types shared across the toolkit."""


class BiphotonError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(BiphotonError, ValueError):
    """A physical or numerical parameter is outside its allowed range."""


class GridMismatchError(BiphotonError, ValueError):
    """Grids, axis lengths or domains of the operands are incompatible."""


class DecompositionError(BiphotonError, RuntimeError):
    """A singular value decomposition failed to converge."""


class FitConvergenceError(BiphotonError, RuntimeError):
    """A nonlinear least-squares fit did not converge."""


class DegenerateModeWarning(UserWarning):
    """Leading Schmidt coefficients are numerically degenerate."""
