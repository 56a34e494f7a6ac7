"""Exception types shared across the toolkit, and the excerpt their messages
give of an offending value.

Class names double as machine-readable diagnostics: the CLI prints the
type name verbatim, so renaming one is a breaking change.
"""

# The most characters of an offending value's repr that a message echoes.
EXCERPT_CHARS = 60


def excerpt(value) -> str:
    """The repr of ``value``, cut to EXCERPT_CHARS and followed by its length
    when longer, so a message stays one short line whatever the value."""
    text = repr(value)
    if len(text) <= EXCERPT_CHARS:
        return text
    return f"{text[:EXCERPT_CHARS]}... ({len(text)} characters)"


class HypercurvError(Exception):
    """Base class for every error raised by hypercurv."""


# -- build / validation -------------------------------------------------

class EmptyEdge(HypercurvError):
    """A hyperedge has too few vertices (undirected needs >= 2, each side of a directed edge >= 1)."""


class DuplicateVertex(HypercurvError):
    """A vertex occurs more than once inside a single hyperedge part."""


class NonPositiveWeight(HypercurvError):
    """Hyperedge weights must be strictly positive."""


class VertexOutOfRange(HypercurvError):
    """A hyperedge references a vertex id outside 0..n-1."""


class HyperloopInLooplessModel(HypercurvError):
    """A directed hyperedge has overlapping tail and head."""


class NotConnected(HypercurvError):
    """An undirected hypergraph is not connected."""


class NotStronglyConnected(HypercurvError):
    """A directed/oriented hypergraph is not strongly connected."""


class NotClosedUnderReversal(HypercurvError):
    """An oriented hypergraph is missing a reversed edge or has mismatched weights."""


# -- random-walk measures ------------------------------------------------

class AlphaOutOfRange(HypercurvError):
    """Laziness parameter alpha must lie in [0, 1]."""


class IndexOutOfRange(HypercurvError):
    """Constituent index exceeds the tail/head size."""


class NotOriented(HypercurvError):
    """Operation requires the oriented flavor."""


# -- metric ---------------------------------------------------------------

class UnsupportedVariant(HypercurvError):
    """Requested hyperedge-length variant is not defined for this flavor."""


# -- transport ------------------------------------------------------------

class MassMismatch(HypercurvError):
    """Transport endpoints carry different total mass."""


class MissingDistance(HypercurvError):
    """The ground-distance oracle does not cover a support vertex."""


# -- curvature -------------------------------------------------------------

class SamePair(HypercurvError):
    """Pair curvature needs two distinct vertices."""


class UnsupportedFlavor(HypercurvError):
    """Operation is not defined for this hypergraph flavor."""


class NoStabilization(HypercurvError):
    """The normalized curvature never settled on the sampled dyadic grid.

    ``text`` is the message with ``{}`` where the target goes, and
    ``target`` fills it in: the target tuple, or the caller's name for the
    target once :meth:`named` has set one.
    """

    def __init__(self, text: str, target=None):
        super().__init__(text, target)
        self.text = text
        self.target = target

    def __str__(self) -> str:
        return self.text.format(self.target)

    def named(self, name: str) -> "NoStabilization":
        """The same error, naming the target ``name``."""
        return type(self)(self.text, name)


class NotConcave(NoStabilization):
    """kappa's lines over alpha bend up somewhere, so no limit may be certified.

    Exact transports make kappa concave; this guards the certificate.
    """


# -- bounds -----------------------------------------------------------------

class NonUnitWeights(HypercurvError):
    """A unit-weight-only inequality was requested on a weighted instance."""


class HypothesisNotMet(HypercurvError):
    """A bound cannot be evaluated as stated: its sum would take more terms than the cap."""


# -- cli ----------------------------------------------------------------------

class ParseError(HypercurvError):
    """Input document is malformed; message carries the offending location."""


class UnknownTarget(HypercurvError):
    """Requested pair/edge target does not exist in the document."""


class FloatRange(HypercurvError):
    """A value is too large in magnitude to print as a float under ``--float``."""
