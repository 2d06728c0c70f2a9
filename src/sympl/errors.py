"""Named rejection errors shared by all modules, and the table of named bounds.

Every error a library operation can raise on bad input derives from
DomainError, so callers (and the command line driver) can distinguish
domain rejections from programming mistakes. Each cap on a count is one
Bound row, which refuses through its own error and message. Frozen, the
base of the value types, is here because every call loads this module.
"""

from operator import attrgetter


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


class Frozen:
    """The base of the value types, whose state is exactly the fields named in __slots__: equality within
    one class, hash and repr over the fields. A class with its own __init__ checks its input there and ends it
    with self._set(...); it also gets _trusted(...), which builds a value from fields already checked. Both are
    generated, straight-line and in slot order. Any other class gets an __init__ that sets each field as a
    dataclass's does. Assigning or deleting an attribute raises dataclasses.FrozenInstanceError, imported then."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__slots__
        get = attrgetter(*fields)  # a tuple for two or more names, the bare value for one
        cls._values = get if len(fields) > 1 else staticmethod(lambda value: (get(value),))
        # straight-line code: a loop over the fields made every construction about a fifth slower
        names, sets = ", ".join(fields), [f" setfield(self, {f!r}, {f})" for f in fields]
        if "__init__" in cls.__dict__:
            lines = [f"def _set(self, {names}):", *sets,
                     f"def _trusted(cls, {names}):", " self = new(cls)", *sets, " return self"]
        else:
            lines = [f"def __init__(self, {names}):", *sets]
        exec("\n".join(lines), {"setfield": object.__setattr__, "new": object.__new__}, namespace := {})
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, classmethod(method) if name == "_trusted" else method)

    def __setstate__(self, state):  # copy and pickle restore the slots past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._values(self) == self._values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Bound(int):
    """A named cap on a count: the int itself, with the error class and the
    message ({count}, {shown}, {bound}) that refuse a count above it."""

    def __new__(cls, value, error, message):
        bound = super().__new__(cls, value)
        bound.error, bound.message = error, message
        return bound

    def check(self, count, *shown):
        """count when it is not above the bound, else the row's error; its message
        joins the shown pieces, each number in it written by format_scalar."""
        if count > self:
            from .scalars import format_scalar  # scalars imports this module
            shown = "".join(x if type(x) is str else format_scalar(x) for x in shown)
            raise self.error(self.message.format(count=format_scalar(count), shown=shown, bound=self))
        return count


# The caps on a count; above each row, the module that checks it, which exports it unless a second is named.
# weyl: dominant orbit elements built, over all places together.
ORBIT_SIZE_BOUND = Bound(2 ** 16, RankTooLarge, "{count} dominant orbit elements exceed the bound {bound}")
# embeddings: the rank of the row klingen_embedding_inverse builds.
RANK_BOUND = Bound(2 ** 16, RankTooLarge, "rank {count} exceeds the bound {bound}")
# orbitclassify: row entries classify_levels reads, x_max + 1 levels of n each.
LEVEL_ENTRY_BOUND = Bound(2 ** 20, LevelTooLarge, "{count} entries over {shown} levels exceed the bound {bound}")
# laurent: |exponent| of a term, and a power taken; far above every exponent the
# L-factor products reach, it keeps evaluation (v ** e) and expansion finite.
EXPONENT_BOUND = Bound(10_000, ExponentTooLarge, "{shown} exceeds the bound {bound}")
# lfactors: terms an equality that cancellation cannot settle expands a side to.
EXPANSION_BOUND = Bound(
    2 ** 16, ExpansionTooLarge, "expanding {shown} factors could give {count} terms, above the bound {bound}")
# lfactors: Satake parameters, and the i(2m+1) + i(i-1)/2 binomials of xi(i).
FACTOR_BOUND = Bound(2 ** 16, IndexOutOfRange, "{count} {shown} exceed the bound {bound}")
# fourier: matrix entries (positions k, i <= j) a grid is built over, n <= 361 at d = 1.
ENTRY_BOUND = Bound(2 ** 16, GridTooLarge, "{count} grid entries exceed the bound {bound}")
# encode, exported by fourier: points a grid lists one by one (grid --json).
ENUMERATION_BOUND = Bound(2 ** 16, GridTooLarge, "{count} grid points to list, above the bound {bound}")
