"""Exception hierarchy shared by the whole package."""


class Sl2BarError(Exception):
    """Base class for every error raised by this library."""


class ParseError(Sl2BarError):
    """An element, matrix, or table literal failed to parse.

    The message names the offending token.
    """


class TableInvalid(Sl2BarError, ValueError):
    """A modulus table failed its irreducibility, primitivity, or
    compatibility validation."""


class LevelMismatch(Sl2BarError):
    """Fixed-level elements from different subfield levels were combined."""


class DivisionByZero(Sl2BarError, ZeroDivisionError):
    """Inverse, multiplicative order, or negative power of zero."""


class NotADivisor(Sl2BarError):
    """A subfield embedding was requested between levels m, n with m not dividing n."""


class LevelOverflow(Sl2BarError):
    """A level join or lift left the supported window of levels."""


class BoundExceeded(Sl2BarError):
    """An enumeration or scan bound was exceeded; the message names the bound."""


class SingularMatrix(Sl2BarError):
    """A matrix with determinant zero was inverted or normalized."""


class NonUnitDeterminant(Sl2BarError):
    """An operation requiring determinant one was applied to another matrix."""


class PreconditionError(Sl2BarError):
    """An operation precondition (stated in its docstring) was violated."""


class SearchFailed(Sl2BarError):
    """An exhaustive search that must succeed found nothing."""


class InvariantViolated(Sl2BarError):
    """A computed result failed the self-check that guards it; raised
    explicitly so that ``python -O`` keeps the check."""


class NoPrimitiveCubeRoot(Sl2BarError):
    """The requested level carries no primitive cube root of unity (odd level)."""


class StepFailed(Sl2BarError):
    """A step of the endomorphism replay failed; carries the step id and witness."""

    def __init__(self, step_id: int, message: str, witness=None):
        super().__init__(f"step {step_id}: {message}")
        self.step_id = step_id
        self.witness = witness
