"""Exception hierarchy.

Errors are grouped by how a front end should react: bad inputs, a method
precondition that failed (the run cannot certify a result), an oracle
failure, or a breach of an internal invariant that should never happen.
"""


class SimspecError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SimspecError):
    """Malformed argument: bad window, inconsistent arrays, wrong sizes."""


class ParseError(InvalidInputError):
    """Unreadable config or data file; carries a location when known."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where = f" [{where}]"
        super().__init__(f"{message}{where}")


class PartitionMismatchError(InvalidInputError):
    """Operands live on different partitions or spectra."""


class MethodConditionError(SimspecError):
    """A certified precondition of the method failed on this input."""


class ContractionViolationError(MethodConditionError):
    """Contraction certificate 4*gamma*norm(B) < 1 does not hold."""


class ConditionViolationError(MethodConditionError):
    """A named smallness/admissibility condition failed; both sides kept."""

    def __init__(self, message, lhs=None, rhs=None):
        self.lhs = lhs
        self.rhs = rhs
        if lhs is not None and rhs is not None:
            message = f"{message} (lhs={lhs!r}, rhs={rhs!r})"
        super().__init__(message)


class WindowTooSmallError(MethodConditionError):
    """No admissible coarsening inside the window; carries the best product."""

    def __init__(self, message, best=None):
        self.best = best
        if best is not None:
            message = f"{message} (best product {best!r})"
        super().__init__(message)


class NonConvergenceError(MethodConditionError):
    """Iteration hit its cap; carries the last observed step ratio."""

    def __init__(self, message, last_ratio=None):
        self.last_ratio = last_ratio
        if last_ratio is not None:
            message = f"{message} (last step ratio {last_ratio!r})"
        super().__init__(message)


class NotInvertibleError(MethodConditionError):
    """I + X is numerically singular; carries the condition estimate."""

    def __init__(self, message, cond=None):
        self.cond = cond
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)


class DegenerateWeightError(MethodConditionError):
    """A weight vanishes on a group that still carries matrix mass."""


class AssumptionViolationError(MethodConditionError):
    """A rebased free operator is not cleanly diagonalizable/separated."""


class ResolutionError(MethodConditionError):
    """Quadrature grid too coarse for the requested coefficient range."""


class OracleFailureError(SimspecError):
    """The reference eigensolver failed to converge or to cross-check."""


class InvariantBreachError(SimspecError):
    """An internal consistency gate failed; indicates a bug, not bad input."""
