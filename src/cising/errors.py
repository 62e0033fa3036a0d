"""Exception types shared across the package.

The CLI maps these onto exit codes: parse/validation problems exit 1,
mathematical precondition failures exit 2, resource caps exit 3, and a
failed internal cross-check exits 4.
"""


class CisingError(Exception):
    """Base class for errors raised by this package."""


class ParseError(CisingError, ValueError):
    """Malformed input text (polynomial strings, job files, option values)."""


class ValidationError(CisingError, ValueError):
    """Structurally invalid data: shape mismatches, missing fields, bad ranges."""


class GradingError(CisingError, ValueError):
    """Input violates a grading requirement (non-homogeneous where required)."""


class OffLocusError(CisingError, ValueError):
    """A point that must lie on the common zero locus does not."""


class NotRegularSequenceError(CisingError, ValueError):
    """Ideal generators fail the regular-sequence requirement."""


class ReduceVariablesError(CisingError, ValueError):
    """An equation has a nonzero linear part; eliminate such variables first."""


class ExactnessError(CisingError, ValueError):
    """A row of a diagram that must be short exact is not."""


class CommutativityError(CisingError, ValueError):
    """A square of a diagram that must commute does not."""


class ResourceLimitError(CisingError, RuntimeError):
    """A configured resource cap (monomial count, resolution width) was hit."""


class InvariantError(CisingError, RuntimeError):
    """A computed object broke an identity it must satisfy (a cross-check).

    Raised in place of ``assert`` so that the checks also run under
    ``python -O``.
    """
