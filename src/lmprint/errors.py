"""Exception hierarchy.

Everything raised on purpose derives from LmprintError, so the CLI can map
domain failures to exit code 1 and let genuine bugs escape loudly.
"""


class LmprintError(Exception):
    """Base class for all toolkit errors."""


class InvalidSettingError(LmprintError, ValueError):
    """Machine setting outside its valid domain (e.g. negative)."""


class ConfigError(LmprintError, ValueError):
    """Malformed or inconsistent configuration input."""


class OutOfContactError(LmprintError, ValueError):
    """Pressure queried at a radius outside the contact disc."""


class FullSlipError(LmprintError, ValueError):
    """Tangential load exceeds the friction cone: the bead slides freely."""


class CalibrationError(LmprintError, ValueError):
    """Calibration impossible: no observations, or unidentifiable data."""


class NoEquilibriumError(LmprintError, ValueError):
    """Surface tensions admit no equilibrium contact angle."""


class DomainError(LmprintError, ValueError):
    """Operation input outside its mathematical domain."""


class WettingDomainError(DomainError):
    """Contact angle or speed outside the stable-line-width domain."""


class DrawingFormatError(LmprintError, ValueError):
    """Malformed drawing document (native JSON or SVG)."""


class UnsupportedSvgFeatureError(DrawingFormatError):
    """SVG feature outside the supported subset; message names it and where."""


class NonVectorContentError(DrawingFormatError):
    """Raster content embedded in a supposedly vector document."""


class PlanError(LmprintError, ValueError):
    """Planning refused; carries the list of limit violations."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class IllegalActionError(LmprintError, ValueError):
    """Head action not allowed in the current head state."""


class RasterSizeError(LmprintError, ValueError):
    """Requested raster exceeds the configured pixel budget."""


class CircuitError(LmprintError, ValueError):
    """Connectivity/resistance query on invalid pads or disconnected nets."""


class UnknownPadError(CircuitError, KeyError):
    """Pad name not present in the drawing or touching no trace."""

    def __str__(self):
        # KeyError's str() is the repr of the message, quotes and all.
        return Exception.__str__(self)
