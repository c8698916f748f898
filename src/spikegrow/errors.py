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
    """A network and a dataset are incompatible: a seed for transfer
    learning, or a checkpoint to evaluate, whose channel count or category
    list does not fit the dataset's."""


class DegenerateDataError(SpikegrowError):
    """Training data admits no useful hidden unit at all."""


class InvariantError(SpikegrowError):
    """An internal invariant was violated; indicates a bug, not bad input."""
