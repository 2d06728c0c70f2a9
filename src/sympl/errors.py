"""Named rejection errors shared by all modules.

Every error a library operation can raise on bad input derives from
DomainError, so callers (and the command line driver) can distinguish
domain rejections from programming mistakes.
"""


class DomainError(Exception):
    """Base class for input rejections raised by library operations."""


class InvalidWeight(DomainError):
    """Weight entries violate the lattice invariants."""


class RankMismatch(DomainError):
    """Operands have different ranks."""


class RankTooLarge(DomainError):
    """An orbit has more than 2^16 dominant elements, or a built row more than 2^16 entries."""


class ShapeMismatch(DomainError):
    """Weights with different (rank, places) shapes were compared."""


class IndexOutOfRange(DomainError):
    """A parabolic or level index is outside its admissible range."""


class LengthMismatch(DomainError):
    """A vector has the wrong length for the requested rank and index."""


class NonIntegral(DomainError):
    """An integral weight was required."""


class NonConstantBottomEntry(DomainError):
    """The bottom weight entry varies across places."""


class NotDominant(DomainError):
    """A dominant weight was required."""


class NotHalfIntegral(DomainError):
    """A half-integer value was required."""


class TailNotConstant(DomainError):
    """The last i entries of the weight are not all equal."""


class NotScalarWeight(DomainError):
    """All entries of the weight were required to be equal."""


class BottomEntryNotRank(DomainError):
    """The normalized base vector must end in the rank."""


class HypothesisViolated(DomainError):
    """A stated hypothesis of the computation does not hold."""


class LevelTooLarge(DomainError):
    """A level or prime lies beyond the range where primality is decided exactly,
    or a level range beyond what classify_levels reads."""


class RankOne(DomainError):
    """The operation is undefined at rank one."""


class PoleAtPoint(DomainError):
    """The denominator vanishes at the evaluation point."""


class ExponentTooLarge(DomainError):
    """A Laurent exponent or power lies outside [-EXPONENT_BOUND, EXPONENT_BOUND]."""


class ExpansionTooLarge(DomainError):
    """Expanding a product of factors could give more than EXPANSION_BOUND terms."""


class MissingAssignment(DomainError):
    """A symbol has no value in the evaluation assignment."""


class Singular(DomainError):
    """The matrix is not invertible."""


class NotUnimodular(DomainError):
    """An integer matrix with determinant +-1 was required."""


class SizeOne(DomainError):
    """The operation needs matrix size at least two."""


class DegreeExceedsGrid(DomainError):
    """The polynomial does not fit the degree bounds the grid was built for."""


class GridTooLarge(DomainError):
    """A grid has more than ENTRY_BOUND entries, or more than ENUMERATION_BOUND
    points to list one by one."""


class ValueTooLarge(DomainError):
    """An exact value has more digits than the interpreter converts to text."""
