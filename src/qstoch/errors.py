"""Exception taxonomy shared by all qstoch modules."""


class QStochError(Exception):
    """Base class for every error raised by this package."""


class NonFinite(QStochError):
    """A matrix entry is NaN or infinite."""


class NonUnitConjugator(QStochError):
    """Conjugation was requested by a quaternion that is not unit norm."""


class NotPure(QStochError):
    """An operation requiring pure quaternions received one with a scalar part."""


class DimensionMismatch(QStochError):
    """Matrix shapes are incompatible for the requested operation."""


class ZeroInFrame(QStochError):
    """Dephasing needs a nonzero first row and column."""


class NotUnitary(QStochError):
    """Input matrix is not orthogonal/unitary/symplectic at the required tolerance."""


class NotBistochastic(QStochError):
    """Row or column sums deviate from 1, or an entry is negative."""


class WrongSize(QStochError):
    """Operation is only defined for a specific matrix size."""


class TooLarge(QStochError):
    """Exhaustive search budget exceeded for this input size."""


class NotInGroup(QStochError):
    """Jacobian requested at a point that is not in the relevant group."""


class WrongScalarField(QStochError):
    """Matrix entries live outside the scalar field of the requested map."""


class UnsupportedSize(QStochError):
    """Theorem-based cross check is not available for this size."""


class InternalInconsistency(QStochError):
    """Rank-based and pattern-based classifications disagree."""


class BadParams(QStochError):
    """Constructor parameters violate a family's defining constraints."""


class DegenerateP(QStochError):
    """The linear system for the third-row phase vector is degenerate."""


class NoRealSolution(QStochError):
    """Constraint completion has no real solution for these parameters."""


class NotSymplectic(QStochError):
    """A basis matrix fails the symplectic check."""


class TooManyBases(QStochError):
    """A basis collection exceeds the 2n+1 bound."""


class NotNormalized(QStochError):
    """Extension search requires the identity/Fourier prefix."""
