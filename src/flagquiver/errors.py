"""Exception types shared across the package."""


class FlagQuiverError(Exception):
    """Base class for all package errors."""


class UnsupportedType(FlagQuiverError):
    """Requested series/rank is not a valid ADE pair."""


class MismatchedSystem(FlagQuiverError):
    """Weights from different root systems were combined."""


class OppositeRoots(FlagQuiverError):
    """Bracket of opposite root vectors lands in the Cartan subalgebra."""


class EmptySigma(FlagQuiverError):
    """An empty marked set gives P = G and a zero-dimensional quotient."""


class ComponentVerificationFailed(FlagQuiverError):
    """A Levi component failed the highest-weight or dimension check."""


class UnsupportedParabolic(FlagQuiverError):
    """Operation is only implemented for the Borel case."""


class ModeMismatch(FlagQuiverError):
    """Operation requires a quiver built with the full arrow set."""


class NotMultiplicityFree(FlagQuiverError):
    """Operation requires all multiplicity spaces to be one-dimensional."""


class BudgetExceeded(FlagQuiverError):
    """Weyl group enumeration would exceed the configured element budget."""


class NotAmple(FlagQuiverError):
    """Polarization tuple has a non-positive entry."""


class NotTwoParameter(FlagQuiverError):
    """Closed-form boundary requires exactly two polarization parameters."""


class NotQuadratic(FlagQuiverError):
    """Closed-form boundary requires quadratic inequalities."""


class NotLeviTrivialDeterminant(FlagQuiverError):
    """Weight multiset pairs nonzero against a Levi coroot."""
