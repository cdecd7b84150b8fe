"""Exception hierarchy shared across the package."""


class GraphokitError(Exception):
    """Base class for all library errors."""


# -- recording / validation ------------------------------------------------

class EmptyRecording(GraphokitError):
    pass


class NonMonotoneTime(GraphokitError):
    pass


class ChannelOutOfRange(GraphokitError):
    pass


class DegenerateRecording(GraphokitError):
    pass


# -- file ingestion --------------------------------------------------------

class MalformedHeader(GraphokitError):
    pass


class SampleCountMismatch(GraphokitError):
    pass


class FieldCountMismatch(GraphokitError):
    def __init__(self, line_no, message=""):
        super().__init__(message or f"wrong field count on line {line_no}")
        self.line_no = line_no


class NonNumericField(GraphokitError):
    def __init__(self, line_no, message=""):
        super().__init__(message or f"non-numeric field on line {line_no}")
        self.line_no = line_no


class PenStatusOutOfRange(GraphokitError):
    def __init__(self, line_no, message=""):
        super().__init__(message or f"pen status not 0 or 1 on line {line_no}")
        self.line_no = line_no


class FileMissing(GraphokitError):
    pass


class ParseError(GraphokitError):
    pass


class ManifestError(GraphokitError):
    pass


# -- features --------------------------------------------------------------

class EmptyVector(GraphokitError):
    pass


class EmptyScope(GraphokitError):
    pass


class NoOnSurfaceSamples(GraphokitError):
    pass


class NotASpiral(GraphokitError):
    pass


class DegenerateRadius(GraphokitError):
    pass


class FitFailure(GraphokitError):
    pass


class InsufficientLoops(GraphokitError):
    pass


# -- statistics ------------------------------------------------------------

class EmptyGroup(GraphokitError):
    pass


class LengthMismatch(GraphokitError):
    pass


class ConstantInput(GraphokitError):
    pass


# -- model / pipeline ------------------------------------------------------

class SingleClass(GraphokitError):
    pass


class NoUsableFeature(GraphokitError):
    pass


class DimensionMismatch(GraphokitError):
    pass


class ClassTooSmall(GraphokitError):
    pass


class DegenerateProbs(GraphokitError):
    pass


class EmptyIntersection(GraphokitError):
    pass


class EmptyMatrix(GraphokitError):
    pass


class InvalidParams(GraphokitError):
    pass
