"""Exception hierarchy shared across the package.

Domain errors exit the CLI with code 1, parse errors with code 2.
"""


class SlackkitError(Exception):
    """Base class for all domain errors raised by slackkit."""


class NonSquareError(SlackkitError):
    pass


class UniverseMismatchError(SlackkitError):
    pass


def check_variables(indices, nvars):
    """Raise :class:`UniverseMismatchError` for the first of ``indices``
    that is not an int or names none of ``nvars`` variables, with the index
    as given."""
    valid = range(nvars)
    for index in indices:
        # 1.0 in range(3) holds, but 1.0 indexes no list
        if type(index) is not int or index not in valid:
            if type(index) is not int:
                raise UniverseMismatchError(
                    f"variable index {index!r} is not an int")
            if not nvars:
                raise UniverseMismatchError(f"variable index {index} in a "
                                            "ring without variables")
            raise UniverseMismatchError(
                f"variable index {index} outside 0..{nvars - 1}")


class ZeroDivisorPolynomialError(SlackkitError):
    pass


class NotFullDimensionalError(SlackkitError):
    pass


class NonVertexPointError(SlackkitError):
    pass


class BadPointConfigurationError(SlackkitError, ValueError):
    """No points, points of mixed dimension, or a repeated point."""


class TooManySubsetsError(SlackkitError):
    """A subset search would visit more subsets than its stated bound."""


class SizeMismatchError(SlackkitError):
    pass


class DegeneratePatternError(SlackkitError):
    pass


def check_support(rows):
    """Raise :class:`DegeneratePatternError` for a matrix or pattern, given
    as rows of equal length whose entries are read as true or false, that
    no slack matrix has: no cells, or an all-zero row or column."""
    if not rows or not rows[0]:
        raise DegeneratePatternError("empty pattern")
    for i, row in enumerate(rows):
        if not any(row):
            raise DegeneratePatternError(f"all-zero row {i}")
    for j, column in enumerate(zip(*rows)):
        if not any(column):
            raise DegeneratePatternError(f"all-zero column {j}")


class UnknownNameError(SlackkitError):
    pass


class NotAForestError(SlackkitError):
    pass


class ScaledMatrixError(SlackkitError):
    """A scaled slack matrix was given where the full pattern is needed."""


class NeedsScaledMatrixError(SlackkitError):
    """An unscaled slack matrix was given where ones are needed."""


class NoCircuitsError(SlackkitError):
    pass


class NotACofacetError(SlackkitError):
    pass


class NeedsNumericDataError(SlackkitError):
    pass


class NoFlagFoundError(SlackkitError):
    pass


class ParseError(Exception):
    """Base class for input parsing failures (CLI exit code 2)."""


class RaggedRowsError(ParseError):
    pass


class BadRationalError(ParseError):
    pass
