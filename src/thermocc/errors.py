"""Exception types raised across the package.

Everything user-facing derives from ThermoccError so the CLI can map
input and validation problems to a single exit code while genuine bugs
still surface as ordinary tracebacks.
"""


class ThermoccError(Exception):
    """Base class for all expected (non-bug) failures."""


# --- frame codec ---

class FrameFormatError(ThermoccError):
    """Header is not the expected binary PGM layout."""


class FrameTruncationError(ThermoccError):
    """Pixel payload is shorter or longer than the header promises."""


class FrameMetadataError(ThermoccError):
    """Timestamp comment is missing or malformed."""


class FrameIOError(ThermoccError):
    """A frame file could not be read or written."""


# --- manifests ---

class ManifestError(ThermoccError):
    """A manifest line is missing fields or has wrong field types."""


# --- annotations ---

class AnnotationParseError(ThermoccError):
    """An annotation line does not follow the five/six field grammar."""


class BoxRangeError(ThermoccError):
    """A box coordinate, size, class id or confidence is out of range."""


class DegenerateBoxError(ThermoccError):
    """A box collapses to zero area when rasterized."""


# --- splitting ---

class SplitConfigError(ThermoccError):
    """Split fractions are not positive or do not sum to one."""


class InfeasibleSplitError(ThermoccError):
    """A stratum is too small to give every subset its share."""


class AssignmentIntegrityError(ThermoccError):
    """Subsets overlap or fail to cover the manifest exactly."""


# --- occupancy ---

class SequenceError(ThermoccError):
    """Frame timestamps do not form a strictly increasing sequence."""


class AlignmentError(ThermoccError):
    """Two timelines disagree on their timestamps."""


# --- synthesis ---

class SceneSpecError(ThermoccError):
    """A scene or dataset specification is out of its valid range."""


# --- configuration / CLI ---

class ConfigError(ThermoccError):
    """A parameter, path or option combination is invalid."""


class DataIOError(ThermoccError):
    """A data file or an output directory could not be read or written."""
