"""Exception hierarchy shared across the toolkit."""


class SpikegrowError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SpikegrowError, ValueError):
    """Invalid configuration value, unknown key, or bad combination of knobs."""


class ShapeError(SpikegrowError):
    """Array dimensions disagree with the operation's contract."""


class DataFormatError(SpikegrowError):
    """A persisted file is malformed, truncated, or of the wrong version."""


class ChecksumError(DataFormatError):
    """A checkpoint section failed its integrity check."""


class LineageError(SpikegrowError):
    """A seed network and a dataset are incompatible for transfer learning."""


class DegenerateDataError(SpikegrowError):
    """Training data admits no useful hidden unit at all."""


class InvariantError(SpikegrowError):
    """An internal invariant was violated; indicates a bug, not bad input."""
