"""Exception hierarchy shared by every module.

All library errors derive from :class:`FlagparamError` so callers can catch
one base class.  Each class declares the machine-readable ``code`` and the
``exit_status`` the CLI reports for it; a ``ValidationError``, which also
derives from ``ValueError``, takes its code per instance.
"""


class FlagparamError(Exception):
    """Base class for every error raised by this package."""
    code = "NUMERIC"
    exit_status = 3


class ValidationError(FlagparamError, ValueError):
    """Malformed input: bad shapes, broken invariants, invalid JSON."""
    exit_status = 2

    def __init__(self, message, code="INVALID"):
        super().__init__(message)
        self.code = code


class NotPSDError(FlagparamError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""
    code = "NOTPSD"


class SingularInputError(FlagparamError):
    """A matrix required to be nonsingular is singular at the working tolerance."""
    code = "SINGULARINPUT"


class OutOfChartError(FlagparamError):
    """The point does not belong to the requested chart."""
    code = "OUTOFCHART"


class NoChartError(FlagparamError):
    """No chart accepts the point; the input is not a valid projector."""
    code = "NOCHART"


class GapAmbiguityError(FlagparamError):
    """Eigenvalue clustering is unstable: a gap in the ambiguity band, or a cluster too wide."""
    code = "GAP_AMBIGUITY"
    exit_status = 4


class PrincipalRangeWarning(UserWarning):
    """A generator lies outside the certified principal range of the closed form."""
