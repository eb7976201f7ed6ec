"""Exception hierarchy and process exit codes.

Every error raised by this package derives from :class:`CrisisHedgeError` so
batch callers can map failures onto exit codes without inspecting messages.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class CrisisHedgeError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_NUMERICAL


class ConfigError(CrisisHedgeError):
    """Invalid configuration: schema violations, bad paths, bad parameters."""

    exit_code = EXIT_CONFIG


class DataError(CrisisHedgeError):
    """Invalid or inadequate input data: malformed files, misaligned series."""

    exit_code = EXIT_DATA


class NumericalError(CrisisHedgeError):
    """Numerical failure in an estimation or resampling step."""

    exit_code = EXIT_NUMERICAL


class DegenerateSampleError(NumericalError):
    """A sample lacks the variation an estimator needs (e.g. zero variance)."""


class FitError(NumericalError):
    """An optimizer failed to produce a usable estimate."""


class BootstrapUnstableError(NumericalError):
    """Too many replicate fits failed in one leg of a bootstrap run over several samples.

    ``leg`` is that sample's index, so a caller can say whose leg it was.
    """

    def __init__(self, message: str, leg: int = 0) -> None:
        super().__init__(message)
        self.leg = leg


class EndogeneityError(ConfigError):
    """A feature schema references outcome-derived columns."""
