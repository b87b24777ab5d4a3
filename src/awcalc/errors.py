"""Exception hierarchy.

Everything raised on purpose by this package derives from AWCalcError, so
callers can catch one type. DomainError and UsageError additionally derive
from ValueError since they signal bad arguments. The CLI exits 2 on those,
3 on InternalError and 1 on the verification errors: OrthogonalityBroken,
FamilyMismatch, ProportionalityFailure and NoRationalMatch.
"""


class AWCalcError(Exception):
    """Base class for all errors raised by awcalc."""


class DomainError(AWCalcError, ValueError):
    """A mathematical precondition is violated (v outside (0,1), zero
    polynomial where a nonzero one is required)."""


class UsageError(AWCalcError, ValueError):
    """Malformed input at an interface boundary: unparseable rational text,
    bad JSON shape, out-of-range index requests."""


class InternalError(AWCalcError):
    """An invariant the library itself guarantees failed to hold.

    Raised for instance when a solved operator equation does not reproduce a
    zero residual on recheck. Seeing this means a bug, not bad input.
    """


class DegenerateParams(DomainError):
    """Parameter vector outside the admissible set for a family of size N:
    sigma4 = q^(-j) for some 0 <= j <= 2N - 2, which makes two of the
    eigenvalues lambda_0..lambda_N coincide."""


class OrthogonalityBroken(AWCalcError):
    """A derived family's polynomials differ from the monic ladder that
    the three-term recurrence read off their own coefficients generates:
    a member that is not monic of its degree, or one off the
    recurrence."""


class FamilyMismatch(AWCalcError):
    """A stored family's polynomials or recurrence data differ from the
    family that its own v, sigmas and N determine."""


class ProportionalityFailure(AWCalcError):
    """The (f_n, g_n) pairs of the chain are not a common rational multiple
    of a single (f, g), or the anchor pair is identically zero."""


class NoRationalMatch(AWCalcError):
    """The extracted final equation is not a rational multiple of the
    four-parameter form for any rational parameter vector."""
