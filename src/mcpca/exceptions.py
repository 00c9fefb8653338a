"""Exception hierarchy shared across the package.

Input/validation problems raise :class:`DataFormatError`,
:class:`DimensionMismatchError` or plain ``ValueError``; numerical
failures during fitting raise one of the remaining subclasses.  The CLI
maps the former group to exit code 2 and the latter to exit code 3.
"""


class McpcaError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(McpcaError):
    """Operands have incompatible shapes or lengths."""


class AsymmetricInputError(McpcaError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class DataFormatError(McpcaError):
    """Input files are malformed (ragged rows, non-numeric cells, ...)."""


class RankDeficiencyError(McpcaError):
    """Requested rank exceeds the numerical rank of the input.

    ``max_rank`` holds the largest admissible rank.
    """

    def __init__(self, message, max_rank=None):
        super().__init__(message)
        self.max_rank = max_rank


class GramSingularityError(McpcaError):
    """The Gram matrix of component outer products is numerically singular.

    ``columns`` holds the offending (near-duplicate) column pair.
    """

    def __init__(self, message, columns=None):
        super().__init__(message)
        self.columns = columns


class DegeneracyError(McpcaError):
    """An eigenvalue collision made a spectral method non-identifiable."""
