"""Exception types shared across the toolkit.

Every error raised on purpose derives from MvxError so callers (and the CLI)
can separate tool failures from genuine bugs.
"""

from __future__ import annotations


class MvxError(Exception):
    """Base class for all toolkit errors."""


class InvalidParams(MvxError):
    """Model or config parameters violate a documented invariant."""


class DimensionMismatch(MvxError):
    """Array shapes inconsistent with the declared dimensions."""


class DegenerateWeights(MvxError):
    """All particle weights vanished; no distribution left to resample."""


class Instability(MvxError):
    """Time stepping produced non-finite state; carries step diagnostics."""

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time


class MissingDelta(MvxError):
    """Auxiliary-process segmentation requested without delta_eps set."""


class InsufficientWindow(MvxError):
    """Averaging window too short relative to the step size."""


class UnsupportedModel(MvxError):
    """Operation requires structure (linearity, decoupling) the model lacks."""


class FitFailure(MvxError):
    """Not enough usable points above the noise floor to fit."""


class WeightCollapse(MvxError):
    """Filter log-weights all reached -inf."""


class GridMismatch(MvxError):
    """Two time grids that must agree do not."""


class IndexOutOfRange(MvxError):
    """Particle or grid index outside the valid range."""


class DegenerateFit(MvxError):
    """Rate fit requested on non-positive means."""


class InvalidEpsilon(MvxError):
    """Scale separation parameter outside (0, 1)."""


class ParseError(MvxError):
    """Config text is not valid; message carries line/key context."""


class ValidationError(MvxError):
    """Config parsed but violates an invariant; message names it."""
