"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A discretization is too coarse or a window too small for the requested run.

    Raised when an enlarged-window consistency check moves the Schmidt
    spectrum by more than the allowed drift, when the oscillatory
    phase-matching factor is under-resolved by the grid, or when the thin
    coordinate factor keeps as many weights as it has q nodes.
    """


class MatrixParseError(ValueError):
    """A matrix file could not be parsed.

    Parameters
    ----------
    message : str
        Description of the problem.
    line, column : int, optional
        1-based line number and token index within the line of the
        offending token; given together (a bad token) or not at all (a
        problem with the whole matrix).
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
