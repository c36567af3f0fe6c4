"""Exception hierarchy shared by all finfree modules.

A number that is no exact input (bool, string, complex, non-finite) raises the
builtin TypeError or ValueError of `poly._as_coeff`, which reads every number
that enters an exact object."""


class FinfreeError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDilation(FinfreeError):
    """Dilation by zero is undefined."""


class ZeroLeading(FinfreeError):
    """Operation requires a full-degree polynomial (leading coefficient nonzero)."""


class DegreeMismatch(FinfreeError):
    """Ambient degrees of the operands disagree."""


class InadmissibleDenominator(FinfreeError):
    """A denominator parameter hits the forbidden set {0, -1, ..., -n}."""


class ZeroDegree(FinfreeError):
    """Operation needs degree >= 1."""


class DegreeDeficient(FinfreeError):
    """A construction that requires exact degree n received a lower degree."""


class ZeroMultiplier(FinfreeError):
    """A variable multiplier c_k is zero."""


class ZeroScale(FinfreeError):
    """Affine argument scale c must be nonzero."""


class TooLarge(FinfreeError):
    """Enumeration size guard tripped."""


class NotComparable(FinfreeError):
    """Partitions are not comparable in the refinement order."""


class NonConvergence(FinfreeError):
    """Iteration failed to converge; carries partial diagnostics."""

    def __init__(self, message, roots=None, residuals=None):
        super().__init__(message)
        self.roots = roots
        self.residuals = residuals


class DegreeGapTooLarge(FinfreeError):
    """Interlacing is only defined for degree gap 0 or 1."""


class NonRealRoots(FinfreeError):
    """Operation requires a real spectrum."""


class VanishingFirstMoment(FinfreeError):
    """S-transform machinery needs m1 != 0."""


class BranchDegenerate(FinfreeError):
    """The physical branch y -> 1 at infinity is not simple."""


class BranchJump(FinfreeError):
    """Continuation left the physical branch near a discriminant zero."""


class NegativeDensity(FinfreeError):
    """Recovered density is negative beyond tolerance; wrong branch."""


class ThetaOutOfRange(FinfreeError):
    """Family parameter theta outside its admissible interval."""


class UnknownFamily(FinfreeError):
    """Family name not recognized."""


class InvalidParameters(FinfreeError):
    """Parameters outside their valid range (family invariants, precision)."""


class DuplicateC(FinfreeError):
    """Multiple Laguerre second kind needs pairwise distinct c_j > 0."""


class QuadratureFailure(FinfreeError):
    """Gauss rule construction or weighted integral failed."""
