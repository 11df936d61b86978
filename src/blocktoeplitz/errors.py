"""Exception hierarchy shared by all modules.

Two broad families: symbol validation failures (bad user input) and
numerical failures (a computation refused to certify its own output).
The CLI maps the former to exit code 3 and the latter to exit code 4.
"""


class BlockToeplitzError(Exception):
    """Base class for every error raised by this package."""


# -- symbol validation ------------------------------------------------------

class ValidationError(BlockToeplitzError):
    """A symbol specification violates one of its invariants."""


class DuplicatePoles(ValidationError):
    pass


class PoleOutOfDomain(ValidationError):
    """A pole parameter has |p| >= 1 or p == 0."""


class ZeroLeadingResidue(ValidationError):
    """The top-multiplicity residue of a pole group (or the degree-m0
    polynomial coefficient) vanishes."""


class SharpShapeMismatch(ValidationError):
    """The second factorization does not share (m0, K, poles, mults)."""


class SharpFactorizationMismatch(ValidationError):
    """h h* and h_sharp* h_sharp disagree on the unit circle."""


class OuternessCheckFailed(ValidationError):
    """h or h_sharp is not outer, or no certificate proves that it is."""


# -- evaluation -------------------------------------------------------------

class EvaluationAtPole(BlockToeplitzError):
    """Requested evaluation point coincides with a pole of the function."""


class SingularHInverse(BlockToeplitzError):
    """h^{-1}(z) is numerically singular, so h(z) cannot be formed."""


class SingularLeadingCoefficient(BlockToeplitzError):
    """a_0 or a~_0 is singular: h has a pole at z = 0, no Taylor tables."""


# -- numerical failures -----------------------------------------------------

class NumericalError(BlockToeplitzError):
    """Base class for failures of certified numerical procedures."""


class DivergentRecursion(NumericalError):
    """F(n+1) >= 1: the alternating series has no certified contraction."""


class ToleranceUnreachable(NumericalError):
    """Remainder bound still exceeds the tolerance at the depth cap."""


class DomainViolation(NumericalError):
    """Closed-form formula used outside its stated index domain."""


class RegionUncovered(NumericalError):
    """Block index (s, t) lies outside every closed-form coverage region."""


class ResolventSingular(NumericalError):
    """I - G~G is numerically singular (spectral radius >= 1)."""


class OverlapMismatch(NumericalError):
    """The two regional assembly formulas disagreed on an overlap row."""


class NumericallySingular(NumericalError):
    """Dense factorization failed."""


class RecursionBreakdown(NumericalError):
    """A Schur complement in the Levinson recursion is singular."""


class NonSummableRHS(NumericalError):
    """Right-hand side sequence is not absolutely summable."""
