"""Exception types shared by all skewplus modules."""


class SkewplusError(Exception):
    """Base class for all errors raised by this library."""


class FieldMismatch(SkewplusError):
    """Operands belong to different coefficient fields."""


class DivisionByZero(SkewplusError, ZeroDivisionError):
    """Division or inversion of a zero element."""


class ParseError(SkewplusError, ValueError):
    """A scalar or matrix literal could not be parsed."""


class ShapeMismatch(SkewplusError):
    """Matrix or vector dimensions are incompatible."""


class NotSquare(ShapeMismatch):
    """A square matrix was required."""


class Singular(SkewplusError):
    """An invertible matrix was required."""


class BadIndices(SkewplusError, IndexError):
    """Indices out of range or otherwise invalid."""


class IndexOutOfRange(BadIndices):
    """An index set reaches outside 1..q."""


class OddSize(SkewplusError):
    """Pfaffians are only defined for even-sized skew matrices."""


class EvenSize(SkewplusError):
    """An odd-sized matrix was required."""


class NotSkewPlus(SkewplusError):
    """A skew matrix has a singular nonempty even principal submatrix."""


class NotNonDegenerate(SkewplusError):
    """A sequence or subspace fails the non-degeneracy requirement."""


class Degenerate(NotNonDegenerate):
    """A subspace carries a degenerate restricted form."""


class RankMismatch(SkewplusError):
    """Two subspaces were required to have equal rank."""


class NotIsometry(SkewplusError):
    """A prescribed basis map does not preserve the form."""


class BadParity(SkewplusError):
    """The standard form was asked for on a space of odd dimension."""


class ZeroUnit(SkewplusError):
    """A unit (nonzero) parameter was required."""


class BadRange(SkewplusError):
    """A length parameter is outside the admissible range."""


class SamplerExhausted(SkewplusError):
    """A randomized search ran out of attempts.

    Over a finite prime field this can be a genuine obstruction rather
    than bad luck; the searches in this library terminate with high
    probability only when the coefficient field is infinite.
    """


class NotACycle(SkewplusError):
    """A contracting homotopy was asked to invert a non-cycle."""


class DegenerateBrace(SkewplusError):
    """A brace expression with vanishing normalization a^-1 - b^-1 + c^-1."""


class InternalInvariant(SkewplusError):
    """An identity guaranteed by construction failed; indicates a bug."""
