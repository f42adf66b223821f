"""Exception types shared across the solver modules."""


class SingularOperatorError(RuntimeError):
    """A required factorization failed: singular A, E, shifted matrix
    A + p E (the shift hit a generalized eigenvalue), or a singular
    Woodbury capacitance matrix."""


class SolverError(RuntimeError):
    """An iteration failed to produce a usable result (diverged ADI or RADI
    iteration, unconverged Gramian, failed training sample, ...)."""
