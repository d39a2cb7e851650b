"""Exception hierarchy shared across the toolkit."""


class BrdfError(Exception):
    """Base class for all toolkit errors."""


class FormatError(BrdfError):
    """A binary or text artifact does not match its declared layout."""


class TruncatedFileError(FormatError):
    """File payload is shorter than the header promises."""


class DegenerateGeometryError(BrdfError):
    """wi + wo vanishes; no half vector exists."""


class PairingError(BrdfError):
    """Two sampled BRDFs do not share a direction set."""


class InsufficientCandidatesError(BrdfError):
    """Fewer surviving candidate directions than requested samples."""


class FitError(BrdfError):
    """Nonlinear least-squares fit could not make progress."""


class ConstantInputError(BrdfError):
    """Correlation undefined: an input vector is constant after ranking."""


class CheckpointError(BrdfError):
    """Model checkpoint is corrupt or from an incompatible version."""
