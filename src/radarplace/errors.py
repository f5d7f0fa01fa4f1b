"""Exception hierarchy shared by all pipeline stages."""


class RadarPlaceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RadarPlaceError):
    """Invalid or inconsistent configuration / usage."""


class RangeAliasingError(RadarPlaceError):
    """A scatterer lies beyond the unambiguous range of the radar."""


class DimensionError(RadarPlaceError):
    """Array dimensions do not match the expected configuration."""


class AlignmentError(RadarPlaceError):
    """No candidate translation satisfied the minimum-overlap constraint."""


class NoRotationError(RadarPlaceError):
    """All angle offsets are zero; no rotation cycle can be detected."""


class DuplicateIdError(RadarPlaceError):
    """A record id is already present in the database."""


class MetricError(RadarPlaceError):
    """A retrieval metric is undefined for the given inputs."""


class FormatError(RadarPlaceError):
    """A binary or text file does not conform to its declared format."""


class EmptyResultError(RadarPlaceError):
    """An operation produced no usable output (empty scene, no triplets...)."""
