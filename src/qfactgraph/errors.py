"""Exception types shared across the package."""


class QfgError(Exception):
    """Base class for all errors raised by this library."""


class InvalidNode(QfgError):
    """A node index lies outside the ambient diagram."""


class InvalidInterval(QfgError):
    """A node set is empty or is not a connected interval."""


class IntervalDoesNotContain(QfgError):
    """A restricting interval does not contain the span of the two nodes."""


class NonPositiveLength(QfgError):
    """A string length (or weight) is not a positive integer."""


class RankMismatch(QfgError):
    """Two objects live over diagrams of different ranks."""


class InternalInvariantViolation(QfgError):
    """An internally computed object failed its own invariant; indicates a bug."""


class CyclicGraph(QfgError):
    """A directed graph operation required acyclicity."""


class TooManyVertices(QfgError):
    """Cut enumeration refused to run above the fixed vertex cap fgraph._CUT_CAP."""


class InvalidVertex(QfgError):
    """A vertex id is not present in the graph."""


class InvalidCut(QfgError):
    """A cut does not bipartition the graph's vertex set."""


class NotQFactGraph(QfgError):
    """The graph failed q-factorization validation."""


class ChainConditionViolated(QfgError):
    """Consecutive chain entries are not linked by the reducibility sets."""


class NonIntegralP(QfgError):
    """A p-matrix entry came out non-integral; indicates a bug."""


class PreconditionViolated(QfgError):
    """An operation's stated precondition does not hold."""


class RankTooSmall(QfgError):
    """The requested family needs a higher-rank diagram."""


class ShapeInvalid(QfgError):
    """A skew shape fails the interlacing or monotonicity constraints."""


class PolySyntaxError(QfgError):
    """A polynomial string failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
