"""Exception types raised across the package."""


class SpectraError(Exception):
    """Base class for every package-specific error."""


class LoopArcError(SpectraError):
    """An arc (i, i) was supplied; digraphs here are loop-free."""


class OutOfRangeError(SpectraError):
    """An arc endpoint is not a valid vertex index."""


class DuplicateArcError(SpectraError):
    """The same arc was supplied more than once."""


class MissingArcError(SpectraError):
    """The named arc is not present in the digraph."""


class TooLargeError(SpectraError):
    """Input exceeds the documented desk-scale search bound."""


class PreconditionError(SpectraError):
    """A transform precondition was violated; the message names the offender."""


class NotStronglyConnectedError(SpectraError):
    """Operation requires a strongly connected digraph."""


class AlphaRangeError(SpectraError):
    """alpha must lie in [0, 1); alpha = 1 gives the outdegree diagonal only."""


class NonpositiveVectorError(SpectraError):
    """Quotient bounds need a strictly positive test vector."""


class ConvergenceError(SpectraError):
    """Iteration cap hit before the enclosure met tol: valid dense inputs
    raise it when tol lies below the widening floor, about 2*gamma_{n+2}*rho."""


class InvalidSpecError(SpectraError):
    """A family descriptor violates one of its invariants."""


class InfeasibleError(SpectraError):
    """No family member exists for the requested parameters."""


class NoSignChangeError(SpectraError):
    """The secant descent found f not positive, not increasing, without a
    sign change above the largest root (f is wrong), or overflowing a float."""


class InvalidParamsError(SpectraError):
    """Campaign parameters are out of the supported range."""


class ParseError(SpectraError):
    """Text input is malformed.

    Carries the character position and a short description of what was
    expected there.
    """

    def __init__(self, message: str, pos: int | None = None, expected: str | None = None):
        super().__init__(message)
        self.pos = pos
        self.expected = expected
