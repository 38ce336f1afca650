"""Exception hierarchy shared by the whole engine.

Names follow the error vocabulary of the operations that raise them, so
callers (and the CLI exit-code mapping) can match on intent rather than
on message text.
"""


class TopologyError(Exception):
    """Base class for all engine errors."""


class MalformedInput(TopologyError):
    """An input file's JSON does not have the documented shape."""


class DuplicateVertex(TopologyError):
    """A simplex lists the same vertex twice."""


class UnknownVertex(TopologyError):
    """A simplex or map refers to a vertex that was never declared."""


class TooManyFaces(TopologyError):
    """The maximal simplices have more faces than ``validate`` enumerates."""


class NotSimplicial(TopologyError):
    """A vertex assignment sends some simplex outside the codomain."""

    def __init__(self, message, simplex=None):
        super().__init__(message)
        self.simplex = simplex


class NotSubcomplex(TopologyError):
    """The claimed subcomplex is not contained in the ambient complex."""


class NotClosed(TopologyError):
    """Input is not a closed (strongly connected, pure) pseudo-manifold."""


class NonOrientable(TopologyError):
    """Sign propagation over the dual graph reached a contradiction."""


class DegreeMismatch(TopologyError):
    """Classes fed to a pairing or product live in incompatible degrees."""


class DimensionMismatch(TopologyError):
    """Manifolds fed to the coincidence pipeline have different dimensions."""


class HypothesisViolated(TopologyError):
    """An excision hypothesis does not hold for the given (X, A, U)."""


class SingularPairing(TopologyError):
    """The cup pairing matrix is singular; no dual basis exists."""


class SingularDuality(TopologyError):
    """Cap with the fundamental class is not invertible in some degree."""
