"""Exception hierarchy for the library.

Input-validation problems and numerical failures are kept in separate
branches so the CLI can map them to distinct exit codes.
"""


class LqPersuasionError(Exception):
    """Base class for all library errors."""


class InputError(LqPersuasionError):
    """Invalid or inconsistent user input."""


class InvalidMatrix(InputError):
    """Matrix input is non-finite, non-square, or has wrong dimensions."""


class NotPSD(InputError):
    """Matrix expected to be positive semidefinite is not."""


class NotPD(InputError):
    """Matrix expected to be positive definite is not."""


class NotNonnegativeCost(InputError):
    """The supplied quadratic game does not induce a nonnegative cost."""


class LinearTermOutsideRange(InputError):
    """Linear coefficient vector is not in the range of the quadratic part."""


class SingularCrossTerm(InputError):
    """Cross-term block of the update-cost matrix is (near-)singular."""


class InvalidRadius(InputError):
    """Negative radius or bound for a hypothesis builder."""


class InvalidParameter(InputError):
    """Scalar parameter outside its documented range."""


class InvalidTolerance(InputError):
    """Tolerance or suboptimality budget outside its range, or nan."""


class InfeasibleTrace(InputError):
    """Trace target outside the feasible interval [0, Tr E]."""


class OutOfRegime(InputError):
    """Closed-form expression requested outside its validity regime."""


class NumericalError(LqPersuasionError):
    """Base class for numerical failures (CLI exit code 3)."""


class OracleDiverged(NumericalError):
    """The trace-constrained spectral oracle failed to converge."""


class NumericalFailure(NumericalError):
    """Generic numerical non-convergence."""
